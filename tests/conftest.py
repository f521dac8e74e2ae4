"""Shared brute-force oracles kept independent of the library's own logic,
and a vertex relabelling of layouts."""

import itertools
import math
from collections import Counter

import pytest

from starbook import BookLayout, CircularOrder, Page, SimpleGraph, complete_graph, edge



def brute_star_forest(edges) -> bool:
    """Every connected component has at most one vertex of degree >= 2."""
    es = {tuple(sorted(e)) for e in edges}
    if not es:
        return True
    adj: dict[int, set[int]] = {}
    for u, v in es:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen: set[int] = set()
    for start in adj:
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if sum(1 for x in comp if len(adj[x]) >= 2) > 1:
            return False
    return True


def segments_cross(order, e, f) -> bool:
    """Geometric oracle: straight chords on the unit circle properly intersect.

    Independent of the combinatorial alternation test; chords sharing an
    endpoint count as non-crossing.
    """
    if set(e) & set(f):
        return False
    n = len(order)

    def xy(v):
        t = 2 * math.pi * order.position(v) / n
        return math.cos(t), math.sin(t)

    def orient(p, q, r):
        val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return 0 if abs(val) < 1e-12 else (1 if val > 0 else -1)

    a, b = xy(e[0]), xy(e[1])
    c, d = xy(f[0]), xy(f[1])
    return (orient(a, b, c) != orient(a, b, d)) and (orient(c, d, a) != orient(c, d, b))


def brute_noncrossing(order, edges):
    """Exhaustive pairwise check used as the disk-page oracle."""
    es = list(edges)
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if segments_cross(order, es[i], es[j]):
                return False, (es[i], es[j])
    return True, None


def brute_crosscap_through(order, edges):
    """Definition-level cross-cap oracle: the least routable through set.

    Tries every subset S of the page as the through set, smallest first.
    S is accepted when the chords outside it cross no chord of the page
    and some rotation of its endpoint occurrences (spine order, ties
    adjacent) pairs occurrence j with occurrence j + k into exactly the
    chords of S.  Returns the first accepted S, or None when none is.
    """
    es = sorted({tuple(sorted(e)) for e in edges})
    for k in range(len(es) + 1):
        for through in itertools.combinations(es, k):
            planar = [e for e in es if e not in through]
            if any(segments_cross(order, e, f) for e in planar for f in es):
                continue
            ends = Counter(v for e in through for v in e)
            occ = [v for v in order.seq for _ in range(ends[v])]
            for rot in range(2 * k or 1):
                pairs = sorted(
                    tuple(sorted((occ[(rot + j) % (2 * k)], occ[(rot + j + k) % (2 * k)])))
                    for j in range(k)
                )
                if pairs == list(through):
                    return frozenset(through)
    return None


def star_forest_edge_sets(n):
    """Every edge set of K_n that is a star forest, the empty set included."""
    edges = sorted(complete_graph(n).edges)

    def extend(start, chosen):
        yield chosen
        for i in range(start, len(edges)):
            grown = chosen + [edges[i]]
            if brute_star_forest(grown):  # star forests are closed under subsets
                yield from extend(i + 1, grown)

    return extend(0, [])


def all_k5_subsets():
    edges = sorted(complete_graph(5).edges)
    m = len(edges)
    for mask in range(1 << m):
        yield mask, [edges[i] for i in range(m) if mask >> i & 1]


def subgraph_of_k5(edges) -> SimpleGraph:
    return SimpleGraph(5, frozenset(edges))


@pytest.fixture
def k5_star_forest_table():
    """Bitmask -> is-star-forest over the 10 edges of K_5 (brute force)."""
    edges = sorted(complete_graph(5).edges)
    m = len(edges)
    table = [False] * (1 << m)
    for mask in range(1 << m):
        table[mask] = brute_star_forest(edges[i] for i in range(m) if mask >> i & 1)
    return edges, table


def relabelled(layout, rng):
    """The layout with its vertices renamed by a permutation rng draws:
    graph, spine order and every page alike, each page's edges sorted."""
    labels = list(range(1, layout.n + 1))
    rng.shuffle(labels)

    def relabel(edges):
        return tuple(sorted(edge(labels[u - 1], labels[v - 1]) for u, v in edges))

    return BookLayout(SimpleGraph(layout.n, frozenset(relabel(layout.graph.edges))),
                      CircularOrder(tuple(labels[v - 1] for v in layout.order.seq)),
                      tuple(Page(p.kind, relabel(p.edges)) for p in layout.pages))
