import random
from collections import Counter

import pytest

from starbook import (
    BookLayout,
    Profile,
    SearchProblem,
    SimpleGraph,
    complete_graph,
    cycle_power,
    disk_page,
    edge_count_bounds,
    identity_order,
    is_star_forest,
    minus_edge,
    octahedron,
    octahedron_pages,
    odd_extension,
    relaxed_complete,
    solve,
    star_pages,
    strict_literal,
    verify_layout,
)
from starbook.certs import certificate_digest
from starbook.construct import construct, construction_pages, family_graph
from starbook.verify import CROSSING_PAIR, DUPLICATE_EDGE, MISSING_EDGE
from conftest import relabelled


# --- graph generators -------------------------------------------------------

def test_complete_graph():
    assert complete_graph(1).m == 0
    assert complete_graph(8).m == 28
    with pytest.raises(ValueError):
        complete_graph(0)


def test_octahedron():
    o3 = octahedron(3)
    assert o3.n == 6 and o3.m == 12
    assert not {(1, 4), (2, 5), (3, 6)} & o3.edges
    assert octahedron(2).edges == {(1, 2), (2, 3), (3, 4), (1, 4)}
    with pytest.raises(ValueError):
        octahedron(1)


def test_cycle_power():
    g = cycle_power(6, 2)
    assert g.m == 12
    assert g.edges == octahedron(3).edges  # C_6^2 is the 3-octahedron
    assert cycle_power(7, 3).m == 21
    with pytest.raises(ValueError):
        cycle_power(6, 3)  # k must stay below n/2
    with pytest.raises(ValueError):
        cycle_power(5, 0)


def test_minus_edge():
    g = minus_edge(complete_graph(6), (5, 6))
    assert g.m == 14 and (5, 6) not in g.edges
    with pytest.raises(ValueError):
        minus_edge(g, (5, 6))


def test_family_graph():
    # Each family's graph, and its parameters checked, n first, defaults filled in.
    k6 = complete_graph(6)
    for params, graph, checked in [
            ({"n": 6}, k6, {"n": 6}),
            ({"family": "K", "n": 6, "r": 9, "scheme": "x"}, k6, {"n": 6}),
            ({"family": "O", "n": 6}, octahedron(3), {"n": 6, "r": 3}),
            ({"family": "O", "r": 3}, octahedron(3), {"n": 6, "r": 3}),
            ({"family": "Cpow", "n": 6, "k": 2}, cycle_power(6, 2), {"n": 6, "k": 2}),
            ({"family": "K-e", "n": 6}, minus_edge(k6, (1, 2)), {"n": 6, "e": [1, 2]}),
            ({"family": "K-e", "n": 6, "e": [6, 5]}, minus_edge(k6, (5, 6)),
             {"n": 6, "e": [5, 6]}),
            ({"family": "G", "n": 4, "edges": [[3, 4], (2, 1), [4, 3]]},
             SimpleGraph(4, frozenset({(1, 2), (3, 4)})), {"n": 4, "edges": [[1, 2], [3, 4]]}),
            ({"family": "G", "n": 0, "edges": []}, SimpleGraph(0, frozenset()),
             {"n": 0, "edges": []})]:
        assert family_graph(params) == (graph, checked), params
        assert list(checked) == list(family_graph(params)[1]), params
    for params in [{"n": True}, {}, {"family": "O", "n": 7}, {"family": "O", "n": 6, "r": 3.0},
                   {"family": "Cpow", "n": 6}, {"family": "Cpow", "n": 6, "k": False},
                   {"family": "K-e", "n": 6, "e": [1]}, {"family": "K-e", "n": 6, "e": ["1", 2]},
                   {"family": "C", "n": 6}, {"family": "G", "n": 4},
                   {"family": "G", "n": 4, "edges": "12"},
                   {"family": "G", "n": 4, "edges": [[1, 2, 3]]},
                   {"family": "G", "n": 4, "edges": [[True, 2]]},
                   {"family": "G", "n": 4, "edges": [[1, 5]]},
                   {"family": "G", "n": 4, "edges": [[0, 1]]},
                   {"family": "G", "n": 4, "edges": [[2, 2]]},
                   {"family": "G", "n": 1025, "edges": []}]:
        with pytest.raises(ValueError):
            family_graph(params)


# --- star pages --------------------------------------------------------------

def test_star_pages_small():
    lay = star_pages(4)
    assert [set(p.edges) for p in lay.pages] == [
        {(1, 2), (1, 3), (1, 4)}, {(2, 3), (2, 4)}, {(3, 4)},
    ]
    assert star_pages(5).page_sizes() == (4, 3, 2, 1)
    assert certificate_digest(star_pages(4)) == (
        "672eb9d2b1da10de178f8847ad14de265ceb1caf0307f58ea428ac61497bec1a")
    assert certificate_digest(star_pages(6)) == (
        "045f9bbfb47ae356836572bcc481cccc3fbe8eb1ed75325fd460a7fe6f79442c")


@pytest.mark.parametrize("n", list(range(2, 13)) + [32, 64])
def test_star_pages_verify(n):
    assert verify_layout(star_pages(n), Profile.STRICT).passed


# --- relaxed construction ----------------------------------------------------

def test_relaxed_exact_pages_r3():
    lay = relaxed_complete(3)
    assert [set(p.edges) for p in lay.pages] == [
        {(1, 2), (1, 3), (4, 5), (4, 6)},
        {(2, 3), (2, 4), (5, 6), (1, 5)},
        {(3, 4), (3, 5), (1, 6), (2, 6)},
        {(1, 4), (2, 5), (3, 6)},
    ]
    assert lay.pages[3].kind.value == "crosscap"


@pytest.mark.parametrize("r", range(2, 33))
def test_relaxed_partition_identity(r):
    lay = relaxed_complete(r)
    assert lay.page_sizes() == (2 * r - 2,) * r + (r,)
    assert sum(lay.page_sizes()) == 2 * r * r - r
    assert verify_layout(lay, Profile.RELAXED).passed


def test_relaxed_total_edges_r10():
    assert sum(relaxed_complete(10).page_sizes()) == 190


def test_relaxed_pages_match_the_cyclic_stars():
    # The docstring's reading, built here from its cyclic stars: disk page i
    # joins the star at i and the star at r+i, each with the next r-1
    # vertices around the n-cycle as leaves, sorted.  The stored edge order
    # is part of the certificate bytes, so it is compared too.
    for r in range(2, 65):
        n = 2 * r

        def star(c):
            return [tuple(sorted((c, (c + t - 1) % n + 1))) for t in range(1, r)]

        want = [("disk", sorted(star(i) + star(r + i))) for i in range(1, r + 1)]
        want.append(("crosscap", [(i, r + i) for i in range(1, r + 1)]))
        assert [(p.kind.value, list(p.edges)) for p in relaxed_complete(r).pages] == want


@pytest.mark.parametrize("scheme, size, digest", [
    ("odd", {"r": 64}, "cf414e5d65212b5a834d939d819f6a741691a59fdf3c60cbaf9715f33e22758b"),
    ("octahedron", {"r": 128}, "88eb468350ef9dbff4794e24854cb4c8745f0e55586d1569b0eb46369ddb3d53"),
    ("strict-literal", {"r": 64}, "357230c5303daacca838bf2ebaf670f22895d6331c35528b78ebb8698a38fae0"),
    ("stars", {"n": 256}, "ee4009b3ccef920277a88f18ee24dff0bd5f08efde6d2d59dadcdab76ebf3142"),
])
def test_construct_certificate_bytes_pinned(scheme, size, digest):
    # The bytes `starbook construct` writes; CI pins the first two as well.
    assert certificate_digest(*construct(scheme, **size)) == digest


# --- odd extension -----------------------------------------------------------

def test_odd_extension_k7():
    lay = odd_extension(relaxed_complete(3))
    assert lay.n == 7
    assert len(lay.pages) == 5  # 1 + ceil(7/2)
    new_page = lay.pages[3]  # inserted before the cap page
    assert new_page.kind.value == "disk"
    assert set(new_page.edges) == {(j, 7) for j in range(1, 7)}
    assert is_star_forest(new_page.edges).ok
    assert verify_layout(lay, Profile.RELAXED).passed


@pytest.mark.parametrize("r", range(2, 17))
def test_odd_extension_verifies(r):
    lay = odd_extension(relaxed_complete(r))
    assert len(lay.pages) == r + 2
    assert verify_layout(lay, Profile.RELAXED).passed


def test_odd_extension_rejects_invalid_input():
    with pytest.raises(ValueError):
        odd_extension(octahedron_pages(3))  # not a complete graph
    with pytest.raises(ValueError):
        odd_extension(star_pages(5))  # odd vertex count


def _violation_lines(layout, profile):
    return [v.describe() for v in verify_layout(layout, profile).violations]


@pytest.mark.parametrize("r", [3, 4, 5])
def test_odd_extension_passes_a_defect_through(r):
    """odd_extension builds and does not judge: the literal strict
    construction's r-1 duplicated and r-1 missing edges reach K_{2r+1}
    as they were, and the verifier reports them there."""
    literal = strict_literal(r)
    extended = odd_extension(literal)
    lines = _violation_lines(literal, Profile.STRICT)
    assert _violation_lines(extended, Profile.STRICT) == lines
    assert verify_layout(extended, Profile.STRICT).kinds() == \
        Counter({DUPLICATE_EDGE: r - 1, MISSING_EDGE: r - 1})


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_odd_extension_passes_crossing_chords_through(r):
    # The antipodal chords drawn on a disk page instead of the cross-cap
    # page cross there, before the extension and after it.
    lay = relaxed_complete(r)
    crossing = BookLayout(lay.graph, lay.order, lay.pages[:-1] + (disk_page(lay.pages[-1].edges),))
    extended = odd_extension(crossing)
    lines = _violation_lines(crossing, Profile.RELAXED)
    assert _violation_lines(extended, Profile.RELAXED) == lines
    assert verify_layout(extended, Profile.RELAXED).kinds() == Counter({CROSSING_PAIR: 1})


@pytest.mark.parametrize("r", range(2, 9))
def test_odd_extension_of_a_relabelled_layout_verifies(r):
    # The new vertex joins the end of whatever spine order the input has.
    lay = odd_extension(relabelled(relaxed_complete(r), random.Random(r)))
    assert lay.order.seq[-1] == 2 * r + 1
    assert len(lay.pages) == r + 2
    assert verify_layout(lay, Profile.RELAXED).passed


# --- literal strict construction ----------------------------------------------

def test_strict_literal_r3_pages():
    lit = strict_literal(3)
    assert set(lit.pages[0].edges) == {(1, 2), (1, 3), (1, 4), (5, 6)}
    assert len(lit.pages) == 5
    with pytest.raises(ValueError):
        strict_literal(2)


@pytest.mark.parametrize("r", range(3, 9))
def test_strict_literal_defect_families(r):
    n = 2 * r
    rep = verify_layout(strict_literal(r), Profile.STRICT)
    dups = sorted(v.edge for v in rep.violations if v.kind == DUPLICATE_EDGE)
    missing = sorted(v.edge for v in rep.violations if v.kind == MISSING_EDGE)
    assert len(dups) == r - 1 and len(missing) == r - 1
    want_dups = sorted(
        [tuple(sorted((1, 1 + g))) for g in range(1, r - 1)] + [(r + 2, 2 * r)]
    )
    want_missing = sorted(
        tuple(sorted((s, (s + r - 2) % n + 1))) for s in range(r + 2, 2 * r + 1)
    )
    assert dups == want_dups
    assert missing == want_missing
    assert set(rep.kinds()) == {DUPLICATE_EDGE, MISSING_EDGE}


@pytest.mark.parametrize("n", range(1, 14))
def test_construction_pages_count_the_constructions(n):
    """The page counts `table` reads are those of the verified layouts."""
    built = {Profile.STRICT: star_pages(n)}
    if n >= 4:
        relaxed = odd_extension(relaxed_complete(n // 2)) if n % 2 else relaxed_complete(n // 2)
        built[Profile.RELAXED] = built[Profile.STAR_FORESTS_ONLY] = relaxed
    for profile, layout in built.items():
        assert verify_layout(layout, profile).passed
    assert construction_pages(n) == {p: len(layout.pages) for p, layout in built.items()}


def test_k14_strict_budget_9_is_exhausted():
    # K_14 needs 13 strict pages (GD 2023), more than r+2 = 9, and the
    # search exhausts budget 9 on the identity order in 6,805 nodes.
    assert edge_count_bounds(14, 91).strict_lower == 13
    outcome = solve(SearchProblem(complete_graph(14), 9, Profile.STRICT, order=identity_order(14)))
    assert (outcome.status, outcome.nodes) == ("unsat", 6_805)


# --- octahedron pages ----------------------------------------------------------

@pytest.mark.parametrize("r", list(range(2, 11)) + [32])
def test_octahedron_pages_verify(r):
    lay = octahedron_pages(r)
    assert len(lay.pages) == r
    assert verify_layout(lay, Profile.STRICT).passed


def test_octahedron_pages_plus_matching_tile_complete_graph():
    for r in (2, 3, 5, 8):
        lay = octahedron_pages(r)
        union = sorted(e for p in lay.pages for e in p.edges)
        assert len(union) == len(set(union))
        matching = {(i, i + r) for i in range(1, r + 1)}
        assert set(union) | matching == complete_graph(2 * r).edges
        assert not set(union) & matching


# --- bounds --------------------------------------------------------------------

def test_bounds_examples():
    b = edge_count_bounds(8, 28)  # K_8
    assert (b.sa_lower, b.bt_lower, b.strict_lower) == (5, 4, 7)
    assert edge_count_bounds(4, 6).strict_lower == 3  # GD 2023: n - 1
    assert edge_count_bounds(10, 45).strict_lower == 9
    o = octahedron(4)
    b = edge_count_bounds(o.n, o.m)
    assert (b.strict_lower, b.bt_lower) == (None, 4)
    assert edge_count_bounds(5, 10).sa_lower == 4  # = n - 1
    assert edge_count_bounds(3, 3).sa_lower == 2
    assert edge_count_bounds(3, 3).bt_lower is None
    assert edge_count_bounds(12, 66).sa_lower == 7  # 1 + n/2


@pytest.mark.parametrize("r", range(4, 65))
def test_bounds_octahedron_equals_r(r):
    o = octahedron(r)
    assert edge_count_bounds(o.n, o.m).bt_lower == r
