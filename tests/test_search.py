import dataclasses
import itertools
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbook import (
    CircularOrder,
    Profile,
    SearchProblem,
    SimpleGraph,
    complete_graph,
    cycle_power,
    edge,
    identity_order,
    minus_edge,
    octahedron,
    octahedron_pages,
    solve,
    verify_layout,
)
from starbook import search
from starbook.certs import certificate_digest, serialize_layout
from starbook.cli import main
from starbook.construct import family_graph
from starbook.journal import load_records
from starbook.model import crosscap_page
from starbook.search import _Engine, canonical_orders, distinct_orders
from starbook.verify import crosscap_page_valid
from conftest import brute_star_forest, segments_cross, star_forest_edge_sets


def test_problem_invariants():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        SearchProblem(g, 0, Profile.STRICT)
    with pytest.raises(ValueError):
        SearchProblem(g, 2, Profile.STRICT, crosscap_allowed=True)
    # The relaxed profile, and only it, has its cross-cap page.
    with pytest.raises(ValueError):
        SearchProblem(g, 3, Profile.RELAXED, crosscap_allowed=False)
    assert SearchProblem(g, 3, Profile.RELAXED).crosscap_allowed is True
    assert SearchProblem(g, 3, Profile.STRICT).crosscap_allowed is False
    with pytest.raises(ValueError):
        SearchProblem(g, 2, Profile.STRICT, order=identity_order(4), optimize_order=True)
    with pytest.raises(ValueError):
        SearchProblem(complete_graph(10), 9, Profile.STRICT, optimize_order=True)
    with pytest.raises(ValueError):
        SearchProblem(g, 2, Profile.STRICT, order=identity_order(5))
    with pytest.raises(ValueError):
        SearchProblem(g, 2, Profile.STRICT, fixed_pages=(((1, 5),),))
    # Fixed page p is disk page p: a relaxed problem keeps its last page
    # for the cross-cap page.
    for budget in (1, 2):
        with pytest.raises(ValueError, match="more fixed pages than the budget has disk pages"):
            SearchProblem(g, budget, Profile.RELAXED, order=identity_order(4),
                          fixed_pages=_main_stars(2)[:budget])
    SearchProblem(g, 3, Profile.RELAXED, order=identity_order(4), fixed_pages=_main_stars(2))
    for fixed, message in (({"fixed_pages": ((), ((1, 2),))}, "at least one edge"),
                           ({"fixed_pages": (((1, 2),), ((1, 2),))},
                            r"fixed edge \(1, 2\) appears twice"),
                           ({"fixed_pages": (((1, 2),),), "optimize_order": True},
                            "fixed pages require a fixed order")):
        with pytest.raises(ValueError, match=message):
            SearchProblem(g, 2, Profile.STRICT, **fixed)
    assert SearchProblem(complete_graph(64), 3, Profile.STRICT).graph.n == 64
    with pytest.raises(ValueError, match="search limit of 64"):
        SearchProblem(complete_graph(65), 3, Profile.STRICT)
    # Limits: zero and infinity are limits; a negative or NaN one is refused.
    for limits in ({"node_limit": 0}, {"time_limit": 0.0}, {"time_limit": math.inf}):
        SearchProblem(g, 3, Profile.STRICT, **limits)
    for limits, message in (({"node_limit": -5}, "node limit"), ({"time_limit": -1.0}, "time limit"),
                            ({"time_limit": math.nan}, "time limit")):
        with pytest.raises(ValueError, match=message):
            SearchProblem(g, 3, Profile.STRICT, **limits)
    # A fixed page must pass the verifier's star-forest test and, with
    # geometry, its disk test on the search's order.
    for graph, page in ((g, ((1, 3), (2, 4))), (complete_graph(5), ((1, 2), (2, 3), (3, 4)))):
        with pytest.raises(ValueError, match="fixed page 0 is not a valid star-forest disk page"):
            SearchProblem(graph, 2, Profile.STRICT, order=identity_order(graph.n),
                          fixed_pages=(page,))
    with pytest.raises(ValueError, match="fixed page 1 is not a valid star-forest disk page"):
        SearchProblem(complete_graph(5), 3, Profile.STAR_FORESTS_ONLY,
                      fixed_pages=(((1, 3), (2, 4)), ((1, 2), (2, 3), (3, 4))))


def test_solve_examples_k4():
    g = complete_graph(4)
    assert solve(SearchProblem(g, 3, Profile.STRICT, order=identity_order(4))).status == "sat"
    assert solve(SearchProblem(g, 2, Profile.STRICT, order=identity_order(4))).status == "unsat"


def test_solve_relaxed_k6_budgets():
    g = complete_graph(6)
    o = identity_order(6)
    unsat = solve(SearchProblem(g, 3, Profile.RELAXED, order=o, crosscap_allowed=True))
    assert unsat.status == "unsat" and unsat.nodes > 0
    sat = solve(SearchProblem(g, 4, Profile.RELAXED, order=o, crosscap_allowed=True))
    assert sat.status == "sat"
    assert verify_layout(sat.layout, Profile.RELAXED).passed


def test_solve_strict_k6_budget5():
    out = solve(SearchProblem(complete_graph(6), 5, Profile.STRICT, order=identity_order(6)))
    assert out.status == "sat" and len(out.layout.pages) <= 5


def _least_sat_budget(graph, profile, lo, hi, order=None):
    """Solve budgets lo, lo+1, ... up to hi and return the first SAT one,
    or None; every budget below it must be UNSAT."""
    for k in range(lo, hi + 1):
        status = solve(SearchProblem(graph, k, profile, order=order)).status
        if status == "sat":
            return k
        assert status == "unsat", (graph, profile, k, status)
    return None


def test_least_sat_budget_examples():
    assert _least_sat_budget(complete_graph(5), Profile.STRICT, 3, 5, identity_order(5)) == 4
    # 1 + ceil(7/2)
    assert _least_sat_budget(complete_graph(7), Profile.STAR_FORESTS_ONLY, 4, 6) == 5
    assert _least_sat_budget(octahedron(3), Profile.STRICT, 2, 4, identity_order(6)) == 3
    assert len(octahedron_pages(3).pages) == 3  # the witness construction agrees


def test_least_sat_budget_all_unsat():
    assert _least_sat_budget(complete_graph(4), Profile.STAR_FORESTS_ONLY, 1, 2) is None


def test_monotonicity_in_budget():
    g = octahedron(3)
    o = identity_order(6)
    statuses = [
        solve(SearchProblem(g, k, Profile.STRICT, order=o)).status for k in range(1, 6)
    ]
    seen_sat = False
    for s in statuses:
        if s == "sat":
            seen_sat = True
        if seen_sat:
            assert s == "sat"


@pytest.mark.parametrize("graph", [complete_graph(5), octahedron(3), minus_edge(complete_graph(5), (1, 2))])
def test_profile_ordering(graph):
    o = identity_order(graph.n)
    ks = {}
    for profile in (Profile.STRICT, Profile.RELAXED, Profile.STAR_FORESTS_ONLY):
        ks[profile] = _least_sat_budget(graph, profile, 1, graph.n,
                                        None if profile is Profile.STAR_FORESTS_ONLY else o)
    assert ks[Profile.STRICT] >= ks[Profile.RELAXED] >= ks[Profile.STAR_FORESTS_ONLY]


def test_deterministic_certificates():
    prob = SearchProblem(complete_graph(6), 4, Profile.RELAXED,
                         order=identity_order(6), crosscap_allowed=True)
    a = solve(prob)
    b = solve(prob)
    assert a.layout == b.layout


def test_limits_abort():
    # The node budget and the clock are read at one checkpoint: at the node
    # past the budget, and at every 4,096th node for the clock.  K_10 at
    # budget 8 takes 230,822 nodes, so these limits fall on both sides of
    # the first clock reading.
    for limit in (0, 1, 4095, 4096, 4097):
        out = solve(SearchProblem(complete_graph(10), 8, Profile.STRICT,
                                  order=identity_order(10), node_limit=limit))
        assert (out.status, out.reason, out.nodes) == ("aborted", "node_limit", limit + 1)
    out = solve(SearchProblem(complete_graph(10), 8, Profile.STRICT,
                              order=identity_order(10), time_limit=0.0))
    assert (out.status, out.reason, out.nodes) == ("aborted", "time_limit", 4_096)
    # K_6 - e over all orders runs three engines and is SAT in 49 nodes, so
    # the node budget carries from one engine to the next.
    problem = SearchProblem(minus_edge(complete_graph(6), (1, 2)), 4, Profile.STRICT,
                            optimize_order=True, node_limit=48)
    out = solve(problem)
    assert (out.status, out.reason, out.nodes) == ("aborted", "node_limit", 49)
    out = solve(dataclasses.replace(problem, node_limit=49))
    assert (out.status, out.nodes) == ("sat", 49)


def test_time_limit_holds_across_engines():
    # C_8^2 at budget 3 over all orders exhausts each engine in fewer than
    # 4,096 nodes, so the engines never read the clock themselves; solve
    # reads it before building the next one.
    out = solve(SearchProblem(cycle_power(8, 2), 3, Profile.STRICT, optimize_order=True,
                              time_limit=0.0))
    assert (out.status, out.reason, out.layout) == ("aborted", "time_limit", None)
    assert 0 < out.nodes < 4_096


@pytest.mark.parametrize("n", [46, search.MAX_SEARCH_VERTICES])
def test_deep_search_within_the_vertex_limit(n, tmp_path):
    # `_rec` takes one frame per placed edge: the n - 1 star pages of K_n
    # are found without a backtrack, at depth m = n(n-1)/2 (1,035 and
    # 2,016), past Python's default recursion limit of 1,000.
    limit = sys.getrecursionlimit()
    out = solve(SearchProblem(complete_graph(n), n - 1, Profile.STRICT))
    assert sys.getrecursionlimit() == limit
    m = n * (n - 1) // 2
    assert (out.status, out.nodes, out.max_depth) == ("sat", m + 1, m)
    assert verify_layout(out.layout, Profile.STRICT).passed
    assert main(["search", "--n", str(n), "--budget", str(n - 1),
                 "--journal", str(tmp_path / "j.jsonl")]) == 0
    assert sys.getrecursionlimit() == limit


@pytest.mark.parametrize("profile", list(Profile))
def test_huge_budget_searches_as_edge_count_plus_one(profile):
    # K_6 has 15 edges, so no budget past 16 can change a node; the page
    # tables are sized by min(budget, 16), not by a budget of 10^9.
    def key(budget):
        out = solve(SearchProblem(complete_graph(6), budget, profile, order=identity_order(6)))
        return out.status, out.nodes, out.layout and certificate_digest(out.layout)

    assert key(10**9) == key(16)


def _main_stars(r):
    """The r main stars of the literal strict construction of K_2r: star i
    has leaves i+1 .. i+r."""
    return tuple(tuple((i, j) for j in range(i + 1, i + r + 1)) for i in range(1, r + 1))


# Exact verdicts and node counts of the engine's traversal on fixed pages,
# which no journal row can express, and for a SAT case the certificate
# digest of its witness (no meta).  Any change to the edge order, the page
# order, the pruning or the page state shows here or in test_journal_replay.
_PINNED_TRAVERSALS = {
    "K8/strict/b6/fixed-mains": (
        lambda: SearchProblem(complete_graph(8), 6, Profile.STRICT, order=identity_order(8),
                              fixed_pages=_main_stars(4)),
        "unsat", 45, None),
    "K12/strict/b8/fixed-mains": (
        lambda: SearchProblem(complete_graph(12), 8, Profile.STRICT, order=identity_order(12),
                              fixed_pages=_main_stars(6)),
        "unsat", 87, None),
    # Fixed pages on a relaxed engine, whose last page is the cross-cap page.
    "K8/relaxed/b5/fixed-mains": (
        lambda: SearchProblem(complete_graph(8), 5, Profile.RELAXED, order=identity_order(8),
                              fixed_pages=_main_stars(4)),
        "unsat", 21, None),
    "K8/relaxed/b6/fixed-mains": (
        lambda: SearchProblem(complete_graph(8), 6, Profile.RELAXED, order=identity_order(8),
                              fixed_pages=_main_stars(4)),
        "sat", 72, "8572bb2e95e815ee2c6f40f13d987dbc593ea4091b0dfae0e7003a9312db6cf8"),
    # Saonly has no geometry, so a page of crossing chords is a valid fixed page.
    "K7/saonly/b5/fixed-crossing": (
        lambda: SearchProblem(complete_graph(7), 5, Profile.STAR_FORESTS_ONLY,
                              fixed_pages=(((1, 3), (2, 4)),)),
        "sat", 255, "3efe91ced7a98d8d677ded213cf0d2edb89d9ca4bc1a581d94f6dc494700f244"),
    # Fixed pages on an order other than the identity.
    "K8/strict/b7/fixed-mains/reordered": (
        lambda: SearchProblem(complete_graph(8), 7, Profile.STRICT,
                              order=CircularOrder((3, 7, 1, 5, 8, 2, 6, 4)),
                              fixed_pages=_main_stars(4)[:2]),
        "sat", 29, "08f8aa5b9dba1b018bd66cb5c70668226b527a6455ba76ca10cad4a3f6cbf6f4"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_TRAVERSALS))
def test_pinned_traversal(case):
    make, status, nodes, digest = _PINNED_TRAVERSALS[case]
    out = solve(make())
    assert (out.status, out.nodes) == (status, nodes)
    assert (out.layout and certificate_digest(out.layout)) == digest


@pytest.mark.parametrize("profile", [Profile.STAR_FORESTS_ONLY, Profile.RELAXED])
@pytest.mark.parametrize("r", range(2, 7))
def test_star_arboricity_bound_cuts_k2r_at_the_root(r, profile):
    """K_2r at budget r: at the root all 2r vertices have degree 2r - 1 > r
    and are lonely against r empty pages, so the pages can take at most
    2r*r - 2r < r(2r - 1) edges, Akiyama and Kano's count."""
    out = solve(SearchProblem(complete_graph(2 * r), r, profile))
    assert (out.status, out.nodes) == ("unsat", 1)


@pytest.mark.parametrize("profile", list(Profile))
@pytest.mark.parametrize("r", range(2, 7))
def test_packing_bound_cuts_k2r_plus_1_at_the_root(r, profile):
    """K_2r+1 at budget r+1: the plain counting bound leaves room for all
    r(2r+1) edges, but each of the 2r+1 lonely vertices has degree 2r, so
    the need 2L + R - U is 2(2r+1) + r(2r+1) - (r+1)(2r+1) = 2r+1, a
    lonely vertex's one new star has at least 2r - (r+1) + 2 = r+1
    vertices, and the r+1 empty pages of 2r+1 vertices each fit one such
    star: r+1 < 2r+1, Akiyama and Kano's count for odd n.  The node limit
    makes a search that misses the cut abort at once."""
    out = solve(SearchProblem(complete_graph(2 * r + 1), r + 1, profile, node_limit=1))
    assert (out.status, out.nodes) == ("unsat", 1)


def _spine(n, shuffled):
    seq = list(range(1, n + 1))
    if shuffled:
        random.Random(n).shuffle(seq)
    return CircularOrder(tuple(seq))


@pytest.mark.parametrize("shuffled", [False, True], ids=["identity", "shuffled"])
@pytest.mark.parametrize("n", [6, 7])
def test_engine_crosscap_rule_matches_verifier(n, shuffled):
    """On every star-forest chord set S of K_n, adding a chord e of S to
    the valid cap page S - e is accepted by the engine iff the verifier
    accepts S.  A wrong rejection raises inside the engine.  The cross-cap
    rule reads only the page's edges and `cap_cross`, the chords crossing
    them, so the test sets those two; the page's blocking rule never
    blocks e, as S - e plus e is the star forest S."""
    order = _spine(n, shuffled)
    problem = SearchProblem(complete_graph(n), 2, Profile.RELAXED, order=order)
    engine = _Engine(problem, order, node_budget=0, deadline=0.0)
    cap = engine.cap_idx
    index = {e: i for i, e in enumerate(engine.all_edges)}
    seen = set()
    for chords in star_forest_edge_sets(n):
        want = crosscap_page_valid(order, crosscap_page(chords))[0]
        for e in chords:
            rest = [f for f in chords if f != e]
            if not crosscap_page_valid(order, crosscap_page(rest))[0]:
                continue
            engine.mask[cap] = sum(1 << index[f] for f in rest)
            engine.cap_cross = 0
            for f in rest:
                engine.cap_cross |= engine.conflict[index[f]]
            i = index[e]
            got = not engine.cap_cross >> i & 1 or engine._cap_feasible(i)
            assert got == want, (chords, e)
            seen.add(got)
    assert seen == {True, False}


def test_engine_confirms_each_crosscap_rejection(monkeypatch):
    """The engine calls `search.crosscap_page_valid` once on each distinct
    cross-cap page it rejects, and only to confirm the rejection; the
    benchmark counts these calls."""
    results, pages = [], []

    def counting(order, page):
        result = crosscap_page_valid(order, page)
        results.append(result)
        pages.append(page)
        return result

    monkeypatch.setattr(search, "crosscap_page_valid", counting)
    out = solve(SearchProblem(complete_graph(6), 4, Profile.RELAXED, order=identity_order(6)))
    assert (out.status, out.nodes) == ("sat", 647)
    assert results and all(r == (False, None) for r in results)
    assert len({page.edge_set for page in pages}) == len(pages)


@st.composite
def _numbered_chords(draw):
    """A graph on 0..16 vertices, complete or a random subgraph, on a
    random spine order, with its edges sorted or shuffled."""
    n = draw(st.integers(0, 16))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if len(pairs) > 1 and not draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
    edges = draw(st.permutations(pairs)) if draw(st.booleans()) else sorted(pairs)
    return CircularOrder(tuple(draw(st.permutations(range(1, n + 1))))), edges


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_numbered_chords())
def test_crossings_match_the_geometric_oracle(instance):
    """The engine's position sweep finds, for each chord, the chords whose
    straight segments properly cross it on the unit circle, in the
    numbering it is given."""
    order, edges = instance
    assert search._crossings(order, edges) == [
        sum(1 << j for j, f in enumerate(edges) if segments_cross(order, e, f)) for e in edges]


class _CheckedEngine(_Engine):
    """An engine that, at every node, recomputes its page state and its
    branching choice from the page edge sets and compares them with what
    the engine keeps and chooses.

    A page's blocked edges are recomputed from what they mean: edge j is
    blocked iff it is on the page, the page plus j is not a star forest,
    the page is a disk page and j crosses one of its edges, or j is a
    fixed edge of another page.  `slack` must be the untouched vertices
    less the empty pages, and `lonely` the lonely vertices, found without
    the engine's bookkeeping: the vertices of degree above the page count
    less those that were a centre or a lone-edge end on some page at some
    node of the current path, a set kept per depth, since a lone-edge end
    may later become a leaf.  The bit-sliced `counts` are recomputed from
    each edge's count of pages whose recomputed blocked set holds it.
    An unassigned edge's page count is recomputed
    with a plain loop over the pages, as `_rec` tries them but without
    the cross-cap rule.  The edge placed on the way to each child, read
    as the parent's unassigned edges less the child's, must be the
    parent's fixed edge of least static rank (its bit index) while one is
    unassigned, and otherwise its edge of least count, ties by rank.
    The bounds are recomputed as two, from the reference pages' untouched
    vertex counts, the lonely vertices found as above and the degrees:
    the counting bound with the lonely vertices, U - max(E, L), and the
    packing bound.  The engine merges the lonely half of the first into
    the second, so this checks the merged rule against the two-bound
    statement at every node.  A node must have a child exactly when no
    prune cuts it (the two bounds, an edge with a count of zero) and
    the branched edge has a page that takes it: a disk page, or the
    cross-cap page when the verifier accepts it with the edge.  The count
    of open disk pages passed down the recursion must be the number of
    non-empty disk pages, and those must be exactly the pages before it.
    The cross-cap page must pass `verify.crosscap_page_valid` at every
    node, so every probe the engine accepts, inline in `_rec` or by
    `_cap_feasible`, is checked against the verifier.  The build is
    checked once: the static rank (the fixed edges first, page by page),
    and each chord's `conflict` set against the chords `segments_cross`
    finds crossing it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reference_pages = {}
        self.valid_caps = {}  # cross-cap page mask -> the verifier's verdict
        self.branched = []  # (unassigned, reference edge bit) of each node on the path
        self.ended = []  # the vertices a centre or lone-edge end so far, per node on the path
        self.lonely_below = 0  # the nodes below the root with a lonely vertex
        degree = Counter(v for e in self.problem.graph.edges for v in e)
        self.high = {v for v, d in degree.items() if d > self.budget}
        # The fewest vertices of a lonely vertex's one new star: itself and
        # its edges less one per other page.
        self.least_star = min((degree[v] - self.budget + 2 for v in self.high), default=None)
        self.page_of = {e: p for p, page in enumerate(self.problem.fixed_pages) for e in page}
        self.fixed = (1 << len(self.page_of)) - 1  # the fixed edges' bits
        free = [e for e in self.all_edges if e not in self.page_of]

        def crossings(e):
            return sum(self.geometric and segments_cross(self.order, e, f) for f in free)

        assert self.all_edges == sorted(self.all_edges, key=lambda e: (  # the static rank
            self.page_of.get(e, len(self.problem.fixed_pages)), -crossings(e), e))
        for e, conflict in zip(self.all_edges, self.conflict):  # in rank numbering
            assert conflict == sum(1 << j for j, f in enumerate(self.all_edges)
                                   if self.geometric and segments_cross(self.order, e, f))

    def state(self):
        return (list(self.mask), list(self.blocked), list(self.near), self.slack, self.cap_cross,
                self.lonely, list(self.counts))

    def reference_page(self, p):
        """cross, blocked, near, the untouched vertex count and the centres
        and lone-edge ends (the touched vertices but the leaves) of page p."""
        key = self.mask[p], p
        if key not in self.reference_pages:
            mask, disk = self.mask[p], p != self.cap_idx
            edges = self.all_edges
            members = [edges[j] for j in range(len(edges)) if mask >> j & 1]
            touched = Counter(v for e in members for v in e)
            leaves = {v for e in members for v in e
                      if touched[v] == 1 and sum(touched[w] for w in e) > 2}
            cross = blocked = near = 0
            for j, f in enumerate(edges):
                crosses = self.geometric and any(segments_cross(self.order, e, f) for e in members)
                if crosses:
                    cross |= 1 << j
                if set(f) & touched.keys():
                    near |= 1 << j
                if (f in members or not brute_star_forest(members + [f]) or disk and crosses
                        or self.page_of.get(f, p) != p):
                    blocked |= 1 << j
            self.reference_pages[key] = (cross, blocked, near, self.n - len(touched),
                                         touched.keys() - leaves)
        return self.reference_pages[key]

    def cap_valid(self, mask):
        if mask not in self.valid_caps:
            page = crosscap_page(e for j, e in enumerate(self.all_edges) if mask >> j & 1)
            self.valid_caps[mask] = crosscap_page_valid(self.order, page)[0]
        return self.valid_caps[mask]

    def reference_state(self):
        cross, blocked, near, free, _ = zip(*(self.reference_page(p) for p in range(self.budget)))
        lonely = self.high - self.ended[-1]
        slack = sum(free) - self.mask.count(0)
        cap_cross = cross[self.cap_idx] if self.cap_idx >= 0 else 0
        counts = [0] * len(self.counts)
        for i in range(len(self.all_edges)):
            count = sum(page >> i & 1 for page in blocked)
            for j in range(len(counts)):
                counts[j] |= (count >> j & 1) << i
        return (list(self.mask), list(blocked), list(near), slack, cap_cross,
                sum(1 << v for v in lonely), counts)

    def bounds_cut(self, unassigned):
        """Whether the unassigned edges outnumber the untouched vertices less
        max(empty pages, lonely vertices), or fewer lonely vertices' stars
        fit the pages' untouched vertices than 2L + R - U, the lonely
        vertices that centre one new star only."""
        free = [self.reference_page(p)[3] for p in range(self.budget)]
        lonely = self.high - self.ended[-1]
        if unassigned.bit_count() > sum(free) - max(self.mask.count(0), len(lonely)):
            return True
        need = 2 * len(lonely) + unassigned.bit_count() - sum(free)
        return need > 0 and sum(u // self.least_star for u in free) < need

    def reference_counts(self, unassigned):
        """Edge index -> its page count, for each unassigned edge."""
        counts = {}
        for i in range(len(self.all_edges)):
            if not unassigned >> i & 1:
                continue
            count = 0
            for p in range(self.disks):
                if not self.mask[p]:
                    count += 1  # the first empty disk page; no later one is offered
                    break
                count += not self.reference_page(p)[1] >> i & 1
            if self.cap_idx >= 0:
                count += not self.reference_page(self.cap_idx)[1] >> i & 1
            counts[i] = count
        return counts

    def _rec(self, depth, unassigned, opened):
        if self.branched:  # the parent's unassigned edges and its reference edge
            parent, bit = self.branched[-1]
            assert parent ^ unassigned == bit  # the edge placed on the way to this child
        ended = set().union(self.ended[-1] if self.ended else (),
                            *(self.reference_page(p)[4] for p in range(self.budget)))
        self.ended.append(ended)
        assert self.state() == self.reference_state()
        self.lonely_below += depth > 0 and self.lonely != 0
        cap = self.cap_idx
        assert cap < 0 or self.cap_valid(self.mask[cap])
        disks = [p for p in range(self.disks) if self.mask[p]]
        assert opened == len(disks) and disks == list(range(opened))
        placed = 0
        for p in range(self.budget):
            placed |= self.mask[p]
        assert unassigned == self.unassigned & ~placed
        counts = self.reference_counts(unassigned)
        least = min(counts.values(), default=0)
        fixed = unassigned & self.fixed
        # The edge every child is reached by, or 0 where no child may be.
        bit = least and (fixed & -fixed or 1 << min(i for i, c in counts.items() if c == least))
        # Some page takes the branched edge: a disk page, or else the
        # cross-cap page as the verifier says.
        takes = cap < 0 or least > (not self.reference_page(cap)[1] & bit) or self.cap_valid(
            self.mask[cap] | bit)
        child = bool(bit) and not self.bounds_cut(unassigned) and takes
        before = self.nodes
        self.branched.append((unassigned, bit))
        found = super()._rec(depth, unassigned, opened)
        self.branched.pop()
        self.ended.pop()
        assert (self.nodes > before + 1) == child
        return found


# The journal rows the checked engine searches besides three fixed-page
# cases, each by its key: (family, params, profile, budget, order_policy).
_CHECKED_ROWS = {
    "K7/strict/b5/identity": ("K", {"n": 7}, "strict", 5, "identity"),
    "K6/relaxed-cap/b4": ("K", {"n": 6}, "relaxed", 4, "identity"),
    "K6/saonly/b3": ("K", {"n": 6}, "saonly", 3, "none"),
    "K9/relaxed-cap/b5": ("K", {"n": 9}, "relaxed", 5, "identity"),
    "K6/strict/b4/all-orders": ("K", {"n": 6}, "strict", 4, "optimize"),
    # The lonely-vertex bound cuts 330 nodes below the root here, 17 of them
    # by its room term, and evaluates without cutting at 1,657 more.
    "K7-e/saonly/b4": ("K-e", {"e": [1, 2], "n": 7}, "saonly", 4, "none"),
}


@pytest.mark.parametrize("case", [
    *_CHECKED_ROWS, "K8/strict/b6/fixed-mains", "K8/relaxed/b6/fixed-mains",
    "K8/strict/b7/fixed-mains/reordered"])
def test_incremental_page_state_matches_recomputation(case):
    if case in _CHECKED_ROWS:
        [rec] = [rec for rec in _JOURNAL_ROWS if (rec.family, rec.params, rec.profile,
                 rec.budget, rec.order_policy) == _CHECKED_ROWS[case]]
        problem, status, nodes = _row_problem(rec), rec.outcome, rec.nodes
    else:
        make, status, nodes, _ = _PINNED_TRAVERSALS[case]
        problem = make()
    orders = distinct_orders(problem.graph) if problem.optimize_order else [
        problem.order or identity_order(problem.graph.n)]
    found, total = False, 0
    for order in orders:
        engine = _CheckedEngine(problem, order, 10**9, float("inf"))
        initial = engine.state()
        found = engine.run()
        total += engine.nodes
        if found:
            break
        assert engine.state() == initial  # an exhausted search has taken every edge off again
    assert (("sat" if found else "unsat"), total) == (status, nodes)


def test_checked_engine_on_random_problems():
    """The checked engine on 150 seeded random problems of at most 7
    vertices, under all three profiles and on random spine orders, with a
    node limit: the verdict and node count of `solve`, and a lonely vertex
    below the root in some of them, so that the lonely-vertex bound is
    checked node by node beyond the pinned cases."""
    rng = random.Random(30)
    lonely_below = 0
    for _ in range(150):
        n = rng.randint(4, 7)
        graph = _random_graph(rng, n, dense=rng.random() < 0.8)
        order = CircularOrder(tuple(rng.sample(range(1, n + 1), n)))
        problem = SearchProblem(graph, rng.randint(2, 4), rng.choice(list(Profile)), order=order,
                                node_limit=2000)
        engine = _CheckedEngine(problem, order, problem.node_limit, float("inf"))
        try:
            status = "sat" if engine.run() else "unsat"
        except search._Abort:
            status = "aborted"
        out = solve(problem)
        assert (status, engine.nodes) == (out.status, out.nodes), problem
        lonely_below += engine.lonely_below
    assert lonely_below  # 5,820 of the 8,267 nodes, in 48 of the problems


class _PlainBoundEngine(_Engine):
    """The engine with `lonely` emptied after its build, so that only the
    plain counting bound cuts: the lonely-vertex bound is evaluated only
    while `lonely` is non-zero."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lonely = 0


def _fewer_nodes_than(monkeypatch, plain):
    """On 3,000 seeded random graphs of at most 7 vertices, under all three
    profiles, on random spine orders and over all orders, the engine gives
    the verdict and the witness of the engine class `plain`, in no more
    nodes; how many problems it takes in fewer."""
    rng = random.Random(26)
    fewer = 0
    for _ in range(3000):
        n = rng.randint(2, 7)
        graph = _random_graph(rng, n, dense=rng.random() < 0.5)
        profile = rng.choice(list(Profile))
        optimize = profile is not Profile.STAR_FORESTS_ONLY and rng.random() < 0.1
        spine = None
        if not optimize and rng.random() < 0.8:
            spine = CircularOrder(tuple(rng.sample(range(1, n + 1), n)))
        problem = SearchProblem(graph, rng.randint(1, 5), profile, order=spine,
                                optimize_order=optimize)
        runs = []
        for engine in (_Engine, plain):
            monkeypatch.setattr(search, "_Engine", engine)
            out = solve(problem)
            runs.append((out.status, out.layout and certificate_digest(out.layout), out.nodes))
        (status, digest, nodes), (plain_status, plain_digest, plain_nodes) = runs
        assert (status, digest) == (plain_status, plain_digest), problem
        assert nodes <= plain_nodes, problem
        fewer += nodes < plain_nodes
    return fewer


def test_lonely_vertices_cut_no_witness(monkeypatch):
    assert _fewer_nodes_than(monkeypatch, _PlainBoundEngine) == 202  # of the 3,000 problems


class _NoPackingEngine(_Engine):
    """The engine with the packing term of the lonely-vertex bound off: with
    stars of one vertex the room is U, at least the need whenever the need
    is at most L, so only the lonely counting term need > L cuts."""

    def __init__(self, *args):
        super().__init__(*args)
        self.star_size = 1


def test_packing_bound_cuts_no_witness(monkeypatch):
    assert _fewer_nodes_than(monkeypatch, _NoPackingEngine) == 58  # of the 3,000 problems


# Every committed journal row, searched again: its verdict, its node count
# and, for a SAT row, its certificate digest.
_JOURNAL_ROWS = load_records(Path(__file__).parent.parent / "results" / "journal.jsonl")


def _row_problem(rec):
    """The search a journal row records, as `starbook search` makes it."""
    graph, _ = family_graph({"family": rec.family, **rec.params})
    return SearchProblem(
        graph, rec.budget, rec.profile,
        order=identity_order(graph.n) if rec.order_policy == "identity" else None,
        optimize_order=rec.order_policy == "optimize",
    )


@pytest.mark.parametrize("rec", _JOURNAL_ROWS, ids=lambda rec: (
    f"{rec.family}{rec.params['n']}/{rec.profile}/b{rec.budget}/{rec.order_policy}"))
def test_journal_replay(rec):
    assert rec.engine == search.ENGINE_VERSION
    out = solve(_row_problem(rec))
    assert (out.status, out.nodes) == (rec.outcome, rec.nodes)
    digest = None
    if out.status == "sat":
        meta = {"family": rec.family, **rec.params, "scheme": "search",
                "profile": rec.profile, "budget": rec.budget}
        digest = certificate_digest(out.layout, meta)
    assert digest == rec.certificate_digest


def _fewest_blocks(m, valid):
    """fewest[whole]: the fewest blocks, each with valid[block], that
    partition the edge set `whole` (a bitmask over m edges); math.inf
    when none do."""
    fewest = [0] + [math.inf] * ((1 << m) - 1)
    for whole in range(1, 1 << m):
        low = whole & -whole  # the lowest edge; try every block holding it
        rest = sub = whole ^ low
        while True:
            if valid[sub | low]:
                fewest[whole] = min(fewest[whole], fewest[rest ^ sub] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
    return fewest


def _oracle_least_pages(graph, order):
    """The least page count of each profile, by trying every partition of
    the edges into pages: conftest's star-forest and crossing tests for
    disk pages, `verify.crosscap_page_valid` for the cross-cap page."""
    edges = sorted(graph.edges)
    m = len(edges)
    members = [[edges[j] for j in range(m) if s >> j & 1] for s in range(1 << m)]
    star = [brute_star_forest(es) for es in members]
    crossing = {(e, f) for e in edges for f in edges if segments_cross(order, e, f)}
    disk = [star[s] and not any((e, f) in crossing for e in es for f in es)
            for s, es in enumerate(members)]
    cap = [star[s] and crosscap_page_valid(order, crosscap_page(es))[0]
           for s, es in enumerate(members)]
    full = (1 << m) - 1
    disks = _fewest_blocks(m, disk)
    return {
        Profile.STAR_FORESTS_ONLY: _fewest_blocks(m, star)[full],
        Profile.STRICT: disks[full],
        # The cross-cap page takes any cap-valid set, the empty one included.
        Profile.RELAXED: 1 + min(disks[full ^ s] for s in range(1 << m) if cap[s]),
    }


def _oracle_graphs():
    yield "K5", complete_graph(5), identity_order(5)
    # Relaxed needs 3 pages here, and would need 2 if any star forest could
    # be the cross-cap page.
    yield "cap-rule", SimpleGraph(6, frozenset(
        [(1, 4), (1, 5), (2, 3), (2, 4), (2, 6), (3, 5), (5, 6)])), identity_order(6)
    rng = random.Random(11)
    for t in range(60):
        n = rng.randint(4, 6)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        graph = SimpleGraph(n, frozenset(rng.sample(pairs, rng.randint(5, min(10, len(pairs))))))
        yield f"G{t}", graph, _spine(n, shuffled=t % 2 == 1)


def test_verdicts_match_exhaustive_partition_oracle():
    """On K_5, a graph that needs the cross-cap rule, and 60 random graphs
    of at most 6 vertices and 10 edges, at budgets 2..4 under all three
    profiles, the engine's verdict is SAT iff some partition of the edges
    fits the budget."""
    verdicts, cap_saves = set(), 0
    for name, graph, order in _oracle_graphs():
        least = _oracle_least_pages(graph, order)
        cap_saves += least[Profile.RELAXED] < least[Profile.STRICT]
        for profile in Profile:
            spine = None if profile is Profile.STAR_FORESTS_ONLY else order
            for budget in (2, 3, 4):
                got = solve(SearchProblem(graph, budget, profile, order=spine)).status
                assert got == ("sat" if least[profile] <= budget else "unsat"), (
                    name, sorted(graph.edges), profile, budget, least[profile])
                verdicts.add((profile, got))
    assert len(verdicts) == 6  # each profile meets both verdicts
    assert cap_saves  # and the cross-cap page saves a page somewhere


# A layout does not depend on vertex names: relabelling the graph and its
# spine order together keeps the verdict (node counts may change, because
# edge-order ties are broken by label).
_RELABEL_CASES = {
    "K6/strict/b4": (complete_graph(6), Profile.STRICT, 4),
    "K6/strict/b5": (complete_graph(6), Profile.STRICT, 5),
    "K7/strict/b5": (complete_graph(7), Profile.STRICT, 5),
    "K6/relaxed/b3": (complete_graph(6), Profile.RELAXED, 3),
    "K6/relaxed/b4": (complete_graph(6), Profile.RELAXED, 4),
    "O3/strict/b2": (octahedron(3), Profile.STRICT, 2),
    "O3/strict/b3": (octahedron(3), Profile.STRICT, 3),
    "C8^2/strict/b3": (cycle_power(8, 2), Profile.STRICT, 3),
    "K6-e/strict/b4": (minus_edge(complete_graph(6), (1, 2)), Profile.STRICT, 4),
}


@pytest.mark.parametrize("case", sorted(_RELABEL_CASES))
def test_verdict_invariant_under_relabelling(case):
    graph, profile, budget = _RELABEL_CASES[case]
    want = solve(SearchProblem(graph, budget, profile, order=identity_order(graph.n))).status
    for seed in range(3):
        perm = list(range(1, graph.n + 1))
        random.Random(seed).shuffle(perm)  # vertex v becomes perm[v - 1]
        relabelled = SimpleGraph(graph.n, frozenset(
            edge(perm[u - 1], perm[v - 1]) for u, v in graph.edges))
        got = solve(SearchProblem(relabelled, budget, profile, order=CircularOrder(perm)))
        assert got.status == want, (case, seed)


@st.composite
def _relabelled_instance(draw):
    """A random graph on at most 7 vertices, mostly sparse, with a profile,
    a budget and a relabelling; perm[v - 1] is the new label of v."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    profile = draw(st.sampled_from(list(Profile)))
    budget = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(1, n + 1)))
    return SimpleGraph(n, frozenset(edges)), profile, budget, perm


@settings(derandomize=True, max_examples=1200, deadline=None)
@given(_relabelled_instance())
def test_verdict_invariant_under_random_relabelling(instance):
    """The seeded cases above are complete-graph-like, where the leaf rule
    rarely decides; random sparse graphs exercise it."""
    graph, profile, budget, perm = instance
    want = solve(SearchProblem(graph, budget, profile, order=identity_order(graph.n))).status
    relabelled = SimpleGraph(graph.n, frozenset(
        edge(perm[u - 1], perm[v - 1]) for u, v in graph.edges))
    got = solve(SearchProblem(relabelled, budget, profile, order=CircularOrder(tuple(perm))))
    assert got.status == want


def test_canonical_orders_count():
    # (n-1)!/2 orders once rotations and reflections are quotiented out
    assert len(list(canonical_orders(4))) == 3
    assert len(list(canonical_orders(5))) == 12
    assert len(list(canonical_orders(6))) == 60
    with pytest.raises(ValueError):
        list(canonical_orders(10))


def _random_graph(rng, n, dense=False):
    """A random graph on n vertices; a dense one keeps at least half the pairs."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    fewest = len(pairs) // 2 if dense else 0
    return SimpleGraph(n, frozenset(rng.sample(pairs, rng.randint(fewest, len(pairs)))))


def _class_leaders(graph):
    """The first canonical order of each class of orders that an
    automorphism maps onto each other, by brute force: the automorphisms
    are the permutations that keep the edge set, and one maps an order to
    its relabelled sequence, brought back to canonical form by rotation
    and reflection."""
    n = graph.n
    autos = [perm for perm in itertools.permutations(range(1, n + 1))  # v becomes perm[v - 1]
             if {edge(perm[u - 1], perm[v - 1]) for u, v in graph.edges} == graph.edges]

    def canonical(seq):
        i = seq.index(1)
        seq = seq[i:] + seq[:i]
        return seq if n < 3 or seq[1] < seq[-1] else seq[:1] + seq[:0:-1]

    leaders, covered = [], set()
    for order in canonical_orders(n):
        if order.seq not in covered:
            leaders.append(order)
            covered |= {canonical(tuple(perm[v - 1] for v in order.seq)) for perm in autos}
    return leaders


def test_distinct_orders_keeps_the_first_order_of_each_class():
    rng = random.Random(16)
    graphs = [complete_graph(6), minus_edge(complete_graph(6), (1, 2)), cycle_power(6, 1),
              octahedron(3)] + [_random_graph(rng, rng.randint(1, 6)) for _ in range(40)]
    for graph in graphs:
        assert list(distinct_orders(graph)) == _class_leaders(graph), sorted(graph.edges)


def _distinct_orders_by_edges(graph):
    """`distinct_orders` as it drew every order from the graph's edges,
    whatever their density: the reference for the sparser-side drawing."""
    n = graph.n
    bit = [[1 << (min(a, b) * n + max(a, b)) for b in range(n)] for a in range(n)]
    images = [[(s * x + r) % n for x in range(n)] for r in range(n) for s in (1, -1)]
    seen = set()
    for order in canonical_orders(n):
        pos = {v: x for x, v in enumerate(order)}
        pairs = [(pos[u], pos[v]) for u, v in graph.edges]
        if sum(bit[a][b] for a, b in pairs) in seen:
            continue
        for g in images:
            seen.add(sum(bit[g[a]][g[b]] for a, b in pairs))
        yield order


def test_distinct_orders_match_the_edge_drawing_on_graphs_and_complements():
    rng = random.Random(19)
    for n in range(1, 9):
        pairs = frozenset(itertools.combinations(range(1, n + 1), 2))
        for _ in range(4 if n < 8 else 2):
            graph = _random_graph(rng, n)
            for g in (graph, SimpleGraph(n, pairs - graph.edges)):
                assert list(distinct_orders(g)) == list(_distinct_orders_by_edges(g)), \
                    sorted(g.edges)


def test_distinct_orders_count():
    for n in range(1, 9):
        assert len(list(distinct_orders(complete_graph(n)))) == 1
    # The missing edge spans 1, 2 or 3 spine positions.
    assert len(list(distinct_orders(minus_edge(complete_graph(6), (1, 2))))) == 3
    assert len(list(distinct_orders(cycle_power(8, 2)))) == 202


def _search_every_order(problem):
    """optimize_order without the quotient: one engine per canonical order,
    up to the first SAT one."""
    for order in canonical_orders(problem.graph.n):
        engine = _Engine(problem, order, 10**9, float("inf"))
        if engine.run():
            return "sat", serialize_layout(engine.extract_layout())
    return "unsat", None


def test_optimize_order_matches_the_search_over_every_order():
    """The quotient keeps every verdict and every certificate byte, since
    the first SAT order of the full enumeration leads its class.  Each
    graph is searched at budgets 1, 2, ... up to its first SAT one."""
    rng = random.Random(17)
    later = 0  # SAT searches whose witness is not on the first canonical order
    for _ in range(9):
        graph = _random_graph(rng, rng.randint(5, 7), dense=True)
        for profile in (Profile.STRICT, Profile.RELAXED):
            for budget in itertools.count(1):
                problem = SearchProblem(graph, budget, profile, optimize_order=True)
                out = solve(problem)
                got = out.status, out.layout and serialize_layout(out.layout)
                assert got == _search_every_order(problem), (sorted(graph.edges), profile, budget)
                if out.status == "sat":
                    later += out.layout.order != identity_order(graph.n)
                    break
    assert later


def test_optimize_order_unsat_is_order_free():
    out = solve(SearchProblem(complete_graph(4), 2, Profile.STRICT, optimize_order=True))
    assert out.status == "unsat"
    out = solve(SearchProblem(complete_graph(4), 3, Profile.STRICT, optimize_order=True))
    assert out.status == "sat"


def test_repair_with_fixed_pages_r3():
    out = solve(SearchProblem(
        graph=complete_graph(6), budget=5, profile=Profile.STRICT,
        order=identity_order(6), fixed_pages=_main_stars(3),
    ))
    assert out.status == "sat"
    # main stars stay on their pages
    for i, main in enumerate(_main_stars(3)):
        assert set(main) <= out.layout.pages[i].edge_set


def test_cycle_power_spot_checks():
    # k+1 dividing n gives k+1 star-forest pages in a strict layout.
    assert _least_sat_budget(cycle_power(6, 1), Profile.STRICT, 1, 3, identity_order(6)) == 2
    assert _least_sat_budget(cycle_power(6, 2), Profile.STRICT, 2, 4, identity_order(6)) == 3
    assert _least_sat_budget(cycle_power(8, 1), Profile.STRICT, 1, 3, identity_order(8)) == 2


def test_sat_layout_respects_profile_kinds():
    out = solve(SearchProblem(complete_graph(6), 4, Profile.RELAXED,
                              order=identity_order(6), crosscap_allowed=True))
    kinds = [p.kind.value for p in out.layout.pages]
    assert kinds.count("crosscap") <= 1
    if "crosscap" in kinds:
        assert kinds[-1] == "crosscap"
