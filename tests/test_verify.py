import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starbook import (
    BookLayout,
    CircularOrder,
    Page,
    PageKind,
    Profile,
    complete_graph,
    crosscap_page,
    crosscap_page_valid,
    disk_page,
    disk_page_valid,
    edge,
    identity_order,
    is_star_forest,
    octahedron_pages,
    relaxed_complete,
    strict_literal,
    verify_layout,
)
from starbook.certs import save_certificate
from starbook.cli import main
from starbook.verify import (
    CROSSCAP_UNROUTABLE,
    CROSSING_PAIR,
    DUPLICATE_EDGE,
    FOREIGN_EDGE,
    MISSING_EDGE,
    NOT_STAR_FOREST,
    ORDER_NOT_PERMUTATION,
    TOO_MANY_CROSSCAPS,
)
from conftest import (
    all_k5_subsets,
    brute_crosscap_through,
    brute_noncrossing,
    brute_star_forest,
    relabelled,
    segments_cross,
    star_forest_edge_sets,
)


# --- is_star_forest ---------------------------------------------------------

def test_star_forest_examples():
    assert is_star_forest([(1, 2), (1, 3), (1, 4)]) == (True, None)
    assert is_star_forest([(1, 2), (2, 3), (3, 4)]) == (False, (2, 3))
    assert is_star_forest([(1, 2), (1, 3), (4, 5), (4, 6)]) == (True, None)
    assert is_star_forest([]) == (True, None)


def test_star_forest_matches_brute_force_on_k5_subsets():
    for _mask, edges in all_k5_subsets():
        ok, witness = is_star_forest(edges)
        assert ok == brute_star_forest(edges)
        if not ok:
            deg = {}
            for u, v in edges:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            assert deg[witness[0]] >= 2 and deg[witness[1]] >= 2


def _degree_scan_witness(pairs):
    """The first (sorted) pair of the set of `pairs` whose two ends each
    lie on two or more of its pairs (a loop counts twice), or None."""
    es = set(pairs)
    deg = {}
    for u, v in es:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    bad = [(u, v) for u, v in es if deg[u] >= 2 and deg[v] >= 2]
    return min(bad) if bad else None


@st.composite
def _star_forest_pages(draw):
    """A page's edge list on 1..n: random pairs, a path (many centres, so
    the check scans every edge) or two stars (few centres, so it probes
    centre pairs), plus stray pairs (loops and reversed pairs among them)
    and repeats, in any order."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(1, n), st.integers(1, n))
    shape = draw(st.sampled_from(["random", "path", "stars"]))
    if shape == "random":
        edges = draw(st.lists(pair, max_size=12))
    elif shape == "path":
        walk = draw(st.permutations(range(1, n + 1)))
        edges = [edge(u, v) for u, v in zip(walk, walk[1:])]
    else:
        a, b = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
        leaves = [x for x in range(1, n + 1) if x not in (a, b)]
        split = draw(st.lists(st.booleans(), min_size=len(leaves), max_size=len(leaves)))
        edges = [edge(a if at_a else b, x) for x, at_a in zip(leaves, split)]
    edges += draw(st.lists(pair, max_size=3))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    return n, draw(st.permutations(edges)), draw(st.sampled_from(list(PageKind)))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_star_forest_pages(), st.sampled_from(list(Profile)))
@example((8, [(1, 2), (3, 2), (3, 4), (4, 5), (6, 5), (6, 7), (7, 8)], PageKind.DISK), Profile.RELAXED)
@example((8, [(1, 2), (1, 3), (1, 4), (1, 5), (6, 7), (6, 8), (6, 1), (6, 6)], PageKind.DISK),
         Profile.STRICT)
def test_star_forest_witness_matches_degree_scan(page, profile):
    n, edges, kind = page
    canonical = [(u, v) if u < v else (v, u) for u, v in edges]
    want = _degree_scan_witness(canonical)
    assert is_star_forest(edges) == (want is None, want)
    layout = BookLayout(complete_graph(n), identity_order(n), (Page(kind, edges),))
    witnesses = [v.edge for v in verify_layout(layout, profile).violations
                 if v.kind == NOT_STAR_FOREST]
    assert witnesses == [w for w in [_degree_scan_witness(edges)] if w is not None]


# --- disk pages -------------------------------------------------------------

def test_disk_page_examples():
    o = identity_order(6)
    ok, _ = disk_page_valid(o, disk_page([(1, 2), (1, 3), (4, 5), (4, 6)]))
    assert ok
    ok, pair = disk_page_valid(o, disk_page([(1, 4), (2, 5)]))
    assert not ok and set(pair) == {(1, 4), (2, 5)}
    ok, _ = disk_page_valid(o, disk_page([]))
    assert ok
    with pytest.raises(ValueError):
        disk_page_valid(o, crosscap_page([(1, 2)]))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_disk_sweep_agrees_with_pairwise_oracle(n):
    # Random chord families, sweep vs exhaustive pair check.
    o = identity_order(n)
    chords = list(itertools.combinations(range(1, n + 1), 2))
    rng = random.Random(11)
    for _ in range(400):
        sample = rng.sample(chords, rng.randint(0, min(7, len(chords))))
        if sample and rng.random() < 0.5:  # a reversed copy or a duplicate of a chord
            u, v = rng.choice(sample)
            sample.insert(rng.randint(0, len(sample)), rng.choice([(v, u), (u, v)]))
        ok, pair = disk_page_valid(o, disk_page(sample))
        want_ok, _ = brute_noncrossing(o, sample)
        assert ok == want_ok
        if not ok:
            assert segments_cross(o, *pair)
            # Of the copies on a chord's two vertices, the open chord is the
            # last in the page and the chord crossing out of it the first.
            outer, inner = ([e for e in sample if set(e) == set(w)] for w in pair)
            assert pair == (outer[-1], inner[0])


def test_disk_sweep_exhaustive_small():
    o = identity_order(5)
    chords = list(itertools.combinations(range(1, 6), 2))
    for k in range(len(chords) + 1):
        for family in itertools.combinations(chords, k) if k <= 3 else ():
            ok, _ = disk_page_valid(o, disk_page(family))
            assert ok == brute_noncrossing(o, family)[0]


def test_page_checks_refuse_a_vertex_off_the_spine():
    o = identity_order(8)
    message = r"^vertex 9 is not in the circular order$"
    with pytest.raises(ValueError, match=message):
        disk_page_valid(o, disk_page([(1, 3), (2, 9)]))
    with pytest.raises(ValueError, match=message):
        crosscap_page_valid(o, crosscap_page([(1, 3), (2, 9)]))


# --- cross-cap pages --------------------------------------------------------

def test_crosscap_examples():
    o = identity_order(6)
    ok, split = crosscap_page_valid(o, crosscap_page([(1, 4), (2, 5), (3, 6)]))
    assert ok and split.through == frozenset({(1, 4), (2, 5), (3, 6)}) and not split.planar

    ok, split = crosscap_page_valid(o, crosscap_page([(1, 3), (2, 4), (5, 6)]))
    assert ok
    assert split.through == frozenset({(1, 3), (2, 4)})
    assert split.planar == frozenset({(5, 6)})

    o8 = identity_order(8)
    ok, split = crosscap_page_valid(o8, crosscap_page([(1, 3), (2, 4), (5, 7), (6, 8)]))
    assert not ok and split is None

    ok, split = crosscap_page_valid(o, crosscap_page([(1, 2), (2, 3), (1, 3)]))
    assert ok  # shared endpoints never force the cap

    with pytest.raises(ValueError):
        crosscap_page_valid(o, disk_page([(1, 2)]))
    with pytest.raises(ValueError):
        crosscap_page_valid(o, crosscap_page([(1, 9)]))  # vertex off the spine


def test_crosscap_tie_blocks_at_shared_vertex():
    # Two chords share vertex 1 and both cross a third chord: the two
    # occurrences at vertex 1 form a tie block and the family routes as
    # (1,1,2 | 4,5,6).
    o = identity_order(6)
    ok, split = crosscap_page_valid(o, crosscap_page([(1, 4), (1, 5), (2, 6)]))
    assert ok
    assert split.through == frozenset({(1, 4), (1, 5), (2, 6)})


def test_crosscap_tie_block_star_pair_routes():
    # 26 and 36 share vertex 6 and both cross 15: occurrence sequence
    # (1,2,3 | 5,6,6) realizes exactly {15, 26, 36}.
    o = identity_order(6)
    ok, split = crosscap_page_valid(o, crosscap_page([(1, 5), (2, 6), (3, 6)]))
    assert ok and split.through == frozenset({(1, 5), (2, 6), (3, 6)})


def test_crosscap_fast_reject_disjoint_noncrossing_through_pair():
    # 13 and 46 are vertex-disjoint and non-crossing, yet both are forced
    # through (each crosses 25): no common routing can exist.
    o = identity_order(6)
    ok, split = crosscap_page_valid(o, crosscap_page([(1, 3), (2, 5), (4, 6)]))
    assert not ok and split is None


@pytest.mark.parametrize("r", range(2, 65))
def test_crosscap_accepts_antipodal_family(r):
    o = identity_order(2 * r)
    page = crosscap_page([(i, i + r) for i in range(1, r + 1)])
    ok, split = crosscap_page_valid(o, page)
    assert ok and len(split.through) == r


@pytest.mark.parametrize("n, count", [(6, 562), (7, 3151)])
def test_crosscap_matches_subset_oracle(n, count):
    # Every order is the identity order after relabelling, so this covers
    # every star-forest page of K_6 and K_7 on every spine order.
    o = identity_order(n)
    seen = 0
    for edges in star_forest_edge_sets(n):
        seen += 1
        ok, split = crosscap_page_valid(o, crosscap_page(edges))
        through = brute_crosscap_through(o, edges)
        assert ok == (through is not None), edges
        if ok:
            assert split.through == through, edges
            assert split.planar == set(edges) - through, edges
    assert seen == count


def test_disk_valid_implies_crosscap_valid_exhaustive():
    # Every subset of E(K_5): if it is disk-valid it must be cap-valid.
    o = identity_order(5)
    for _mask, edges in all_k5_subsets():
        ok_disk, _ = disk_page_valid(o, disk_page(edges))
        if ok_disk:
            ok_cap, split = crosscap_page_valid(o, crosscap_page(edges))
            assert ok_cap and not split.through


def test_disk_valid_implies_crosscap_valid_random_n8():
    o = identity_order(8)
    chords = list(itertools.combinations(range(1, 9), 2))
    rng = random.Random(23)
    for _ in range(600):
        sample = rng.sample(chords, rng.randint(0, 8))
        ok_disk, _ = disk_page_valid(o, disk_page(sample))
        ok_cap, _ = crosscap_page_valid(o, crosscap_page(sample))
        if ok_disk:
            assert ok_cap


def test_crosscap_monotone_under_edge_removal():
    # Removing an edge from a valid cross-cap page keeps it valid.
    rng = random.Random(5)
    o = identity_order(8)
    chords = list(itertools.combinations(range(1, 9), 2))
    tried = 0
    for _ in range(1200):
        sample = rng.sample(chords, rng.randint(1, 6))
        ok, _ = crosscap_page_valid(o, crosscap_page(sample))
        if not ok:
            continue
        tried += 1
        for drop in sample:
            rest = [e for e in sample if e != drop]
            ok_rest, _ = crosscap_page_valid(o, crosscap_page(rest))
            assert ok_rest, (sample, drop)
    assert tried > 100


# --- verify_layout ----------------------------------------------------------

def test_verify_relaxed_construction_passes():
    assert verify_layout(relaxed_complete(3), Profile.RELAXED).passed


def test_verify_strict_literal_r3_exact_violations():
    rep = verify_layout(strict_literal(3), Profile.STRICT)
    assert not rep.passed
    got = sorted((v.kind, v.edge) for v in rep.violations)
    assert got == [
        (DUPLICATE_EDGE, (1, 2)),
        (DUPLICATE_EDGE, (5, 6)),
        (MISSING_EDGE, (1, 5)),
        (MISSING_EDGE, (2, 6)),
    ]


def test_verify_tampered_relaxed_layout():
    # Move one antipodal edge onto disk page 1: page 1 stops being a
    # star forest (and would cross if the edge landed between stars).
    lay = relaxed_complete(3)
    pages = list(lay.pages)
    moved = (1, 4)
    pages[0] = disk_page(tuple(pages[0].edges) + (moved,))
    pages[3] = crosscap_page(tuple(e for e in pages[3].edges if e != moved))
    bad = BookLayout(lay.graph, lay.order, tuple(pages))
    rep = verify_layout(bad, Profile.RELAXED)
    assert not rep.passed
    kinds = rep.kinds()
    assert kinds[MISSING_EDGE] == 0  # edge still present, just misplaced
    assert kinds[CROSSING_PAIR] >= 1 or kinds[NOT_STAR_FOREST] >= 1
    bad_pages = {v.page for v in rep.violations if v.kind in (CROSSING_PAIR, NOT_STAR_FOREST)}
    assert bad_pages == {0}


def test_verify_edge_dropped_from_cap_page():
    lay = relaxed_complete(3)
    pages = list(lay.pages)
    pages[3] = crosscap_page(tuple(e for e in pages[3].edges if e != (1, 4)))
    rep = verify_layout(BookLayout(lay.graph, lay.order, tuple(pages)), Profile.RELAXED)
    missing = [v for v in rep.violations if v.kind == MISSING_EDGE]
    assert [v.edge for v in missing] == [(1, 4)]


def test_verify_detects_missing_and_duplicate_and_foreign():
    g = complete_graph(4)
    o = identity_order(4)
    pages = (
        disk_page([(1, 2), (1, 3), (1, 4), (1, 2)]),   # duplicate within a page
        disk_page([(2, 3), (2, 4)]),
    )
    rep = verify_layout(BookLayout(g, o, pages), Profile.STRICT)
    kinds = rep.kinds()
    assert kinds[DUPLICATE_EDGE] == 1
    assert kinds[MISSING_EDGE] == 1  # (3, 4)
    dup = next(v for v in rep.violations if v.kind == DUPLICATE_EDGE)
    assert dup.edge == (1, 2) and dup.pages == (0, 0)

    from starbook import octahedron
    o3 = octahedron(3)
    rep = verify_layout(
        BookLayout(o3, identity_order(6), (disk_page([(1, 4)]),)), Profile.STAR_FORESTS_ONLY
    )
    foreign = [v for v in rep.violations if v.kind == FOREIGN_EDGE]
    assert len(foreign) == 1 and foreign[0].edge == (1, 4)

    # An edge to the off-spine vertex n + 1 is foreign and left out of the
    # sweep, which still reports the crossing pair beside it.
    pages = (disk_page([(1, 3), (2, 4), (4, 5)]), disk_page([(1, 2), (1, 4)]),
             disk_page([(2, 3), (3, 4)]))
    rep = verify_layout(BookLayout(g, o, pages), Profile.STRICT)
    assert [(v.kind, v.edge, v.pair, v.page) for v in rep.violations] == [
        (CROSSING_PAIR, None, ((1, 3), (2, 4)), 0), (FOREIGN_EDGE, (4, 5), None, 0)]


@pytest.mark.parametrize("profile", list(Profile))
def test_verify_reports_a_reversed_edge(profile):
    """A page keeps its edges as given, so (2, 1) is not the graph edge
    (1, 2): it is foreign, and (1, 2) is missing."""
    layout = BookLayout(complete_graph(3), identity_order(3),
                        (disk_page([(2, 1), (1, 3)]), disk_page([(2, 3)])))
    rep = verify_layout(layout, profile)
    assert [(v.kind, v.edge, v.page) for v in rep.violations] == [
        (FOREIGN_EDGE, (2, 1), 0), (MISSING_EDGE, (1, 2), None)]


@pytest.mark.parametrize("cap", [False, True], ids=["disk", "crosscap"])
@pytest.mark.parametrize("profile", list(Profile))
def test_verify_reports_a_loop(profile, cap):
    """A loop on a page is reported, not refused: it is foreign and the
    page is not a star forest."""
    loop_page = (crosscap_page if cap else disk_page)([(2, 3), (3, 3)])
    layout = BookLayout(complete_graph(3), identity_order(3),
                        (disk_page([(1, 2), (1, 3)]), loop_page))
    rep = verify_layout(layout, profile)
    assert [(v.kind, v.edge, v.page) for v in rep.violations
            if v.kind != TOO_MANY_CROSSCAPS] == [
        (FOREIGN_EDGE, (3, 3), 1), (NOT_STAR_FOREST, (3, 3), 1)]


def test_verify_order_and_kind_constraints(tmp_path, capsys):
    g = complete_graph(3)
    pages = (disk_page([(1, 2), (1, 3), (2, 3)]),)
    bad_order = BookLayout(g, CircularOrder((1, 2, 2)), pages)
    rep = verify_layout(bad_order, Profile.STRICT)
    assert ORDER_NOT_PERMUTATION in rep.kinds()
    # order problems are ignored under the pure star-forest profile
    rep = verify_layout(bad_order, Profile.STAR_FORESTS_ONLY)
    assert ORDER_NOT_PERMUTATION not in rep.kinds()

    capped = BookLayout(
        g, identity_order(3),
        (crosscap_page([(1, 2), (1, 3)]), disk_page([(2, 3)])),
    )
    assert TOO_MANY_CROSSCAPS in verify_layout(capped, Profile.STRICT).kinds()
    assert verify_layout(capped, Profile.RELAXED).passed

    two_caps = BookLayout(
        complete_graph(4),
        identity_order(4),
        (crosscap_page([(1, 3), (2, 4)]), crosscap_page([(1, 2), (1, 4), (3, 4)]),
         disk_page([(2, 3)])),
    )
    rep = verify_layout(two_caps, Profile.RELAXED)
    v = next(v for v in rep.violations if v.kind == TOO_MANY_CROSSCAPS)
    assert v.count == 2 and v.pages == (0, 1)
    # Text-mode verify prints the count; the certificate puts its disk page first.
    cert = tmp_path / "caps.json"
    save_certificate(cert, two_caps, {"family": "K", "n": 4})
    assert main(["verify", str(cert), "--profile", "relaxed"]) == 1
    assert "too_many_crosscaps pages 2,3 count 2" in capsys.readouterr().out.splitlines()


def test_verify_unroutable_cap_page():
    g = complete_graph(8)
    pages = [disk_page(sorted(g.edges - {(1, 3), (2, 4), (5, 7), (6, 8)}))]
    pages.append(crosscap_page([(1, 3), (2, 4), (5, 7), (6, 8)]))
    rep = verify_layout(BookLayout(g, identity_order(8), tuple(pages)), Profile.RELAXED)
    assert CROSSCAP_UNROUTABLE in rep.kinds()


def test_partition_soundness_random_page_shuffles():
    # Multiset union of pages equals the edge set iff no partition violations.
    rng = random.Random(3)
    base = relaxed_complete(4)
    for _ in range(60):
        pages = [list(p.edges) for p in base.pages]
        op = rng.choice(["drop", "dup", "move"])
        pi = rng.randrange(len(pages))
        if not pages[pi]:
            continue
        e = rng.choice(pages[pi])
        if op == "drop":
            pages[pi].remove(e)
        elif op == "dup":
            pages[rng.randrange(len(pages))].append(e)
        else:
            pages[pi].remove(e)
            pages[rng.randrange(len(pages))].append(e)
        rebuilt = tuple(
            Page(p.kind, tuple(es)) for p, es in zip(base.pages, pages)
        )
        lay = BookLayout(base.graph, base.order, rebuilt)
        rep = verify_layout(lay, Profile.STAR_FORESTS_ONLY)
        union = sorted(e for p in rebuilt for e in p.edges)
        exact = union == sorted(base.graph.edges)
        partition_violations = [
            v for v in rep.violations
            if v.kind in (DUPLICATE_EDGE, MISSING_EDGE, FOREIGN_EDGE)
        ]
        assert exact == (not partition_violations)


def test_report_is_deterministic_and_sorted():
    rep1 = verify_layout(strict_literal(4), Profile.STRICT)
    rep2 = verify_layout(strict_literal(4), Profile.STRICT)
    assert rep1 == rep2
    keys = [v.sort_key() for v in rep1.violations]
    assert keys == sorted(keys)


# --- reading order ----------------------------------------------------------

def _redrawn(layout, kind, spans):
    """The chords at these spine positions taken off every page and drawn
    together on a new page of this kind."""
    seq = layout.order.seq
    chords = [edge(seq[a], seq[b]) for a, b in spans]
    pages = [Page(p.kind, [e for e in p.edges if e not in chords]) for p in layout.pages]
    return BookLayout(layout.graph, layout.order, (*pages, Page(kind, chords)))


def _moved(layout, rng, keep=False, drop=False):
    """One edge taken off a page and, unless dropped, put on another page
    that lacks it; with keep, a copy is put there instead."""
    pages = [list(p.edges) for p in layout.pages]
    i = rng.choice([i for i, es in enumerate(pages) if es])
    e = rng.choice(pages[i])
    if not keep:
        pages[i].remove(e)
    if not drop:
        pages[rng.choice([j for j, es in enumerate(pages) if j != i and e not in es])].append(e)
    return BookLayout(layout.graph, layout.order,
                      tuple(Page(p.kind, es) for p, es in zip(layout.pages, pages)))


_MUTATIONS = {
    "moved": lambda lay, rng: _moved(lay, rng),
    "copied": lambda lay, rng: _moved(lay, rng, keep=True),
    "dropped": lambda lay, rng: _moved(lay, rng, drop=True),
    "antipodal-on-disk": lambda lay, rng: _redrawn(
        lay, PageKind.DISK, [(x, x + lay.n // 2) for x in range(lay.n // 2)]),
    "unroutable-cap": lambda lay, rng: _redrawn(lay, PageKind.CROSSCAP, [(0, 2), (1, 4), (3, 5)]),
    "not-permutation": lambda lay, rng: BookLayout(
        lay.graph, CircularOrder(lay.order.seq[:-1] + lay.order.seq[:1]), lay.pages),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
@pytest.mark.parametrize("family", [relaxed_complete, octahedron_pages, strict_literal],
                         ids=["relaxed", "octahedron", "literal"])
def test_report_does_not_depend_on_edge_order_within_a_page(family, mutation):
    """Each page keeps its edges distinct and canonical, so its verifier
    may read them in any order; shuffling them changes no report."""
    rng = random.Random(f"{family.__name__}/{mutation}")
    for r in (3, 4, 8, 16):
        for _ in range(2):
            layout = _MUTATIONS[mutation](relabelled(family(r), rng), rng)
            assert all(len(p.edge_set) == len(p.edges) for p in layout.pages)
            assert all(u < v for p in layout.pages for u, v in p.edges)
            reports = {profile: verify_layout(layout, profile).to_dict() for profile in Profile}
            for _ in range(3):
                shuffled = BookLayout(layout.graph, layout.order, tuple(
                    Page(p.kind, rng.sample(p.edges, len(p.edges))) for p in layout.pages))
                for profile, want in reports.items():
                    assert verify_layout(shuffled, profile).to_dict() == want, (r, profile)
