"""Graph families, explicit page constructions, and closed-form bounds.

family_graph(params) is the one map from a family name and its
parameters to a graph: in one call it reads n from the parameters,
checks the rest and builds the graph, for certificates, journal rows
and the search command alike.  A graph read from an edge list is named
as family G, whose one parameter is its sorted edge list, so its
certificate can be rebuilt like any other.  construct is the one map
from a scheme name and its size to a layout.  The constructions only
build; the verifier is the one judge of what they build.
K_n's edges are built once per n, as the lexicographically sorted tuple
that complete_graph makes its frozenset from and keeps in the same cache
entry.  star_pages, relaxed_complete (and octahedron_pages, which takes
its disk pages) and odd_extension's new page take their edges from that
tuple by slice and index, so their pages hold the graph's own edge
objects, in sorted order, and building them makes no tuple per edge.
The relaxed construction for K_{2r} uses r two-star disk pages plus one
cross-cap page holding the r antipodal edges.  The strict construction
transcribed literally from its source text is kept as its own operation
because, under the fixed cyclic reading of its leaf ranges, it fails to
partition the edge set (duplicates and missing edges).  No strict layout
of K_n has fewer than the n-1 star pages; edge_count_bounds states it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .model import (
    BookLayout,
    CircularOrder,
    Edge,
    PageKind,
    SimpleGraph,
    crosscap_page,
    disk_page,
    edge,
    identity_order,
)
from .verify import Profile

# Most vertices of any graph built from a size a user names: K_n has
# n(n-1)/2 edges, and every layout holds each of them.
MAX_VERTICES = 1024

# The graph families family_graph builds, each with its parameters besides n;
# G is a graph given by its edge list, as `starbook search --graph FILE` reads.
FAMILIES = {"K": (), "O": ("r",), "Cpow": ("k",), "K-e": ("e",), "G": ("edges",)}


def check_size(n: int) -> None:
    """Raise ValueError when n is above MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


@lru_cache(maxsize=None)
def _complete(n: int) -> tuple[SimpleGraph, tuple[Edge, ...]]:
    """K_n, and its edges as one tuple in lexicographic order: the same
    edge objects its frozenset holds (see _row for an edge's index)."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    edges = tuple(combinations(range(1, n + 1), 2))
    return SimpleGraph(n, frozenset(edges)), edges


def complete_graph(n: int) -> SimpleGraph:
    """K_n on the vertices 1..n, built once per n."""
    return _complete(n)[0]


def _row(n: int, u: int) -> int:
    """The index of (u, u+1), the first edge at u, in K_n's sorted edge
    tuple: rows 1 .. u-1 hold (n-1) + ... + (n-u+1) edges.  Row u runs up
    to _row(n, u+1), so (u, v) sits at _row(n, u) + v - u - 1."""
    return (u - 1) * (2 * n - u) // 2


def octahedron(r: int) -> SimpleGraph:
    """K_{2r} minus the perfect matching of antipodal pairs {i, i+r}."""
    if r < 2:
        raise ValueError(f"octahedron needs r >= 2, got {r}")
    banned = {(i, i + r) for i in range(1, r + 1)}
    g = complete_graph(2 * r)
    return SimpleGraph(2 * r, g.edges - banned)


def cycle_power(n: int, k: int) -> SimpleGraph:
    """Cycle on n vertices plus all pairs at cyclic distance <= k."""
    if not 1 <= k < n / 2:
        raise ValueError(f"cycle power needs 1 <= k < n/2, got n={n}, k={k}")
    edges = set()
    for i in range(1, n + 1):
        for d in range(1, k + 1):
            edges.add(edge(i, (i + d - 1) % n + 1))
    return SimpleGraph(n, frozenset(edges))


def minus_edge(g: SimpleGraph, e: Edge) -> SimpleGraph:
    e = edge(*e)
    if e not in g.edges:
        raise ValueError(f"edge {e[0]}-{e[1]} is not in the graph")
    return SimpleGraph(g.n, g.edges - {e})


def family_graph(params: dict) -> tuple[SimpleGraph, dict]:
    """The graph a family name and its parameters describe, and the
    parameters FAMILIES names for it, n first, checked, defaults filled in.

    `params` is a certificate's meta map with the certificate's n, or a
    journal record's params with its family added; a missing family
    means K_n, and other keys are ignored.  O takes r, n or both, with
    2r = n; Cpow takes k; K-e takes the removed edge e (default [1, 2]),
    given back as [u, v] with u < v; and G, the family of an edge-list
    input, takes its edges, given back as the sorted list of such pairs.
    n and every parameter must be JSON integers (an edge a pair of them),
    and n at most MAX_VERTICES; anything else raises ValueError.
    """
    family = params.get("family")
    if family is None:
        family = "K"
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown graph family {family!r}")
    out = {k: params[k] for k in ("n", *FAMILIES[family]) if k in params}

    def integer(key: str) -> int:
        if type(out.get(key)) is not int:
            raise ValueError(f"graph family {family} needs an integer {key}, got {out.get(key)!r}")
        return out[key]

    def pair(e) -> bool:
        return isinstance(e, (list, tuple)) and len(e) == 2 and all(type(x) is int for x in e)

    if family == "O":  # r alone implies n = 2r, and n alone r = n // 2
        r = integer("r") if "r" in out else integer("n") // 2
        out = {"n": out.get("n", 2 * r), "r": r}
        if 2 * r != integer("n"):
            raise ValueError(f"octahedron r={r} does not match n={out['n']}")
    n = integer("n")
    check_size(n)
    if family == "O":
        return octahedron(r), out
    if family == "Cpow":
        return cycle_power(n, integer("k")), out
    if family == "K-e":
        e = out.get("e", [1, 2])
        if not pair(e):
            raise ValueError(f"graph family K-e needs e as two integers, got {e!r}")
        out["e"] = list(edge(*e))
        return minus_edge(complete_graph(n), out["e"]), out
    if family == "G":
        es = out.get("edges")
        if not isinstance(es, (list, tuple)):
            raise ValueError(f"graph family G needs its edges as a list, got {es!r}")
        for e in es:
            if not pair(e):
                raise ValueError(f"graph family G has a malformed edge {e!r}")
        graph = SimpleGraph(n, frozenset(edge(*e) for e in es))
        out["edges"] = [list(e) for e in sorted(graph.edges)]
        return graph, out
    return complete_graph(n), out


def _star(center: int, first_leaf: int, count: int, n: int) -> list[Edge]:
    """Edges of a star whose leaves run cyclically from first_leaf."""
    c = (center - 1) % n + 1
    leaves = ((first_leaf + t - 1) % n + 1 for t in range(count))
    return [(c, x) if c < x else (x, c) for x in leaves]


def star_pages(n: int) -> BookLayout:
    """The n-1 single-star pages: page i holds all edges {i, j} with j > i;
    none for K_1."""
    if n < 1:
        raise ValueError(f"star pages need n >= 1, got {n}")
    graph, es = _complete(n)
    pages = tuple(disk_page(es[_row(n, i):_row(n, i + 1)]) for i in range(1, n))
    return BookLayout(graph, identity_order(n), pages)


def relaxed_complete(r: int) -> BookLayout:
    """Layout of K_{2r}: r two-star disk pages plus one cross-cap page.

    Disk page i pairs the star at i with leaves i+1 .. i+r-1 with the
    star at r+i with leaves r+i+1 .. i-1 (cyclically); the cross-cap
    page holds the r antipodal edges {i, r+i}.  Total edge count is
    2r^2 - r, every edge exactly once.

    With h = r+i, page i is built in sorted order from K_n's sorted edge
    tuple: the star at h's leaves below i, the picks (j, h) for j < i;
    the star at i, the slice of row i holding (i, j) for i < j < h; and
    the star at h's leaves above it, the whole of row h, (h, j) for j > h.
    """
    if r < 2:
        raise ValueError(f"relaxed construction needs r >= 2, got {r}")
    n = 2 * r
    graph, es = _complete(n)
    offset = [_row(n, j) - j - 1 for j in range(1, r)]  # (j, v) sits at offset[j - 1] + v
    pages = [
        disk_page(tuple([es[o + h] for o in offset[:i - 1]])
                  + es[_row(n, i):_row(n, i) + r - 1] + es[_row(n, h):_row(n, h + 1)])
        for i, h in zip(range(1, r + 1), range(r + 1, n + 1))
    ]
    pages.append(crosscap_page(es[_row(n, i) + r - 1] for i in range(1, r + 1)))
    return BookLayout(graph, identity_order(n), tuple(pages))


def odd_extension(layout: BookLayout) -> BookLayout:
    """Extend a layout of K_{2r} to K_{2r+1} with one new spanning-star page.

    The new vertex goes to the end of the circular order, so no existing
    chord changes its crossing relations; the new disk page holds all
    edges at the new vertex and is inserted just before the cross-cap
    page (if any) to keep serializations canonical.  The input must lay
    out K_n with n even; it is not verified, so a defect in it (a missing
    or repeated edge, crossing chords on a disk page) passes through
    unchanged: the result verifies iff the input does.
    """
    n = layout.graph.n
    if n < 2 or n % 2 != 0 or layout.graph.edges != complete_graph(n).edges:
        raise ValueError("odd_extension requires a layout of a complete graph on an even vertex count")
    new = n + 1
    graph, es = _complete(new)
    new_page = disk_page(es[_row(new, j + 1) - 1] for j in range(1, new))  # (j, new) ends row j
    pages = list(layout.pages)
    insert_at = len(pages)
    for i, p in enumerate(pages):
        if p.kind is PageKind.CROSSCAP:
            insert_at = i
            break
    pages.insert(insert_at, new_page)
    return BookLayout(
        graph,
        CircularOrder(layout.order.seq + (new,)),
        tuple(pages),
    )


def strict_literal(r: int) -> BookLayout:
    """The strict construction transcribed literally, defects included.

    Page i (1 <= i <= r) is the star at i with leaves i+1 .. i+r (the
    antipodal edge folded in) together with the star at i+r+1 with
    leaves i+r+2 .. i-1; two extra pages hold the star at r+1 with
    leaves r+2 .. 2r and the single edge {r+2, 2r}.  Under this reading
    the pages do not partition E(K_{2r}): r-1 edges appear twice and
    r-1 edges are missed.  The operation exists to document that, so no
    validity is promised; feed the result to the verifier.
    """
    if r < 3:
        raise ValueError(f"literal strict construction needs r >= 3, got {r}")
    n = 2 * r
    pages = []
    for i in range(1, r + 1):
        es = _star(i, i + 1, r, n) + _star(i + r + 1, i + r + 2, r - 2, n)
        pages.append(disk_page(sorted(es)))
    pages.append(disk_page(sorted(_star(r + 1, r + 2, r - 1, n))))
    pages.append(disk_page([edge(r + 2, 2 * r)]))
    return BookLayout(complete_graph(n), identity_order(n), tuple(pages))


def octahedron_pages(r: int) -> BookLayout:
    """The r disk pages of the relaxed construction, over the octahedron.

    Dropping the cross-cap page from relaxed_complete(r) leaves exactly
    the edge set of K_{2r} minus the antipodal matching, so the same r
    star-forest pages give a strict layout of the octahedron.
    """
    if r < 2:
        raise ValueError(f"octahedron pages need r >= 2, got {r}")
    relaxed = relaxed_complete(r)
    return BookLayout(octahedron(r), identity_order(2 * r), relaxed.pages[:r])


def construction_pages(n: int) -> dict[Profile, int]:
    """The page counts of the constructions' layouts of K_n, by profile.

    Strict: the n-1 star pages (n >= 1).  Relaxed, and saonly, which
    ignores the spine: relaxed_complete for even n and its odd_extension
    for odd n, with ceil(n/2)+1 pages (n >= 4).  A profile that no
    construction covers for this n is left out.  The counts come from
    the formulas; the tests build and verify the layouts.
    """
    check_size(n)
    pages = {Profile.STRICT: n - 1}
    if n >= 4:
        pages[Profile.RELAXED] = pages[Profile.STAR_FORESTS_ONLY] = (n + 1) // 2 + 1
    return pages


# The schemes construct builds, each with its builder: `stars` builds
# from n, every other scheme from r.
SCHEMES = {
    "relaxed": relaxed_complete,
    "strict-literal": strict_literal,
    "stars": star_pages,
    "octahedron": octahedron_pages,
    "odd": lambda r: odd_extension(relaxed_complete(r)),
}


def construct(scheme: str, n: int | None = None, r: int | None = None) -> tuple[BookLayout, dict]:
    """The layout a named scheme builds, and its certificate meta.

    `stars` takes n alone and builds the n-1 star pages of K_n.  Every
    other scheme builds a graph on n = 2r vertices (n = 2r+1 for `odd`)
    from r, and takes r, n or both when they agree: `octahedron` builds
    O_r and the rest K_n.  A missing, disagreeing or unknown value, or
    more than MAX_VERTICES vertices, raises ValueError.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "stars":
        if n is None or r is not None:
            raise ValueError("scheme 'stars' takes n alone")
        check_size(n)
        return SCHEMES[scheme](n), {"family": "K", "scheme": scheme, "n": n}
    odd = scheme == "odd"
    if r is None:
        if n is None:
            raise ValueError(f"scheme {scheme!r} needs r or n")
        if n % 2 != odd:
            raise ValueError(f"scheme {scheme!r} needs an {'odd' if odd else 'even'} n, got {n}")
        r = n // 2
    if n is not None and n != 2 * r + odd:
        raise ValueError(f"scheme {scheme!r} builds n = 2r{' + 1' if odd else ''}, "
                         f"so n={n} disagrees with r={r}")
    check_size(2 * r + odd)
    layout = SCHEMES[scheme](r)
    family = "O" if scheme == "octahedron" else "K"
    return layout, {"family": family, "scheme": scheme, "n": layout.graph.n, "r": r}


@dataclass(frozen=True)
class BoundsSummary:
    """Closed-form lower bounds for a graph (complete-graph extras optional)."""

    sa_lower: int | None
    bt_lower: int | None
    strict_lower: int | None


def edge_count_bounds(n: int, m: int) -> BoundsSummary:
    """Edge-count lower bounds for a graph with n vertices and m edges:
    book thickness for n >= 4, and for complete graphs (m = n(n-1)/2)
    also star arboricity and the strict page count n - 1: the convex K_n
    cannot be split into fewer noncrossing star forests (Pach, Saghafian
    and Schnider, "Decomposition of geometric graphs into star forests",
    GD 2023)."""
    bt_lower = None
    if n >= 4:
        bt_lower = max(0, math.ceil((m - n) / (n - 3)))
    sa_lower = None
    strict_lower = None
    if m == n * (n - 1) // 2:
        sa_lower = n - 1 if n <= 3 else 1 + math.ceil(n / 2)
        strict_lower = n - 1
    return BoundsSummary(sa_lower=sa_lower, bt_lower=bt_lower, strict_lower=strict_lower)
