"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete; each line reports the verdict of the bound it states.
Criterion 4 checks the refutation of the strict r+2 upper bound: the
convex K_n cannot be split into fewer than n-1 noncrossing star forests
(Pach, Saghafian and Schnider, GD 2023; edge_count_bounds' strict_lower),
so the n-1 star pages are r+2-page strict witnesses only for r <= 3, and
the exhaustive search must prove that none exists for K_8, K_10 and K_12.
"""

import math
import time

from starbook import (
    BookLayout,
    Profile,
    SearchProblem,
    complete_graph,
    crosscap_page,
    crosscap_page_valid,
    disk_page,
    disk_page_valid,
    edge_count_bounds,
    identity_order,
    is_star_forest,
    octahedron,
    octahedron_pages,
    odd_extension,
    relaxed_complete,
    solve,
    star_pages,
    strict_literal,
    verify_layout,
)
from starbook.certs import parse_certificate, serialize_layout
from starbook.cli import main
from starbook.journal import load_records
from starbook.verify import DUPLICATE_EDGE, MISSING_EDGE
from conftest import all_k5_subsets


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_relaxed_reproduction():
    t0 = time.time()
    for r in range(2, 129):
        layout = relaxed_complete(r)
        assert layout.page_sizes() == (2 * r - 2,) * r + (r,), r
        assert sum(layout.page_sizes()) == 2 * r * r - r, r
        assert verify_layout(layout, Profile.RELAXED).passed, r
    elapsed = time.time() - t0
    in_time = elapsed < 10.0
    _line(1, in_time, f"relaxed layouts verified for r in [2,128], {elapsed:.1f}s")
    assert in_time, f"{elapsed:.1f}s exceeds the 10s bound"


def test_criterion_2_odd_case():
    t0 = time.time()
    for r in range(2, 65):
        layout = odd_extension(relaxed_complete(r))
        assert len(layout.pages) == r + 2, r  # 1 + ceil((2r+1)/2)
        assert verify_layout(layout, Profile.RELAXED).passed, r
    elapsed = time.time() - t0
    in_time = elapsed < 10.0
    _line(2, in_time, f"odd extensions verified for r in [2,64], {elapsed:.1f}s")
    assert in_time, f"{elapsed:.1f}s exceeds the 10s bound"


def test_criterion_3_literal_defect_report():
    rep = verify_layout(strict_literal(3), Profile.STRICT)
    got = sorted((v.kind, v.edge) for v in rep.violations)
    assert got == [
        (DUPLICATE_EDGE, (1, 2)),
        (DUPLICATE_EDGE, (5, 6)),
        (MISSING_EDGE, (1, 5)),
        (MISSING_EDGE, (2, 6)),
    ]
    for r in range(4, 9):
        kinds = verify_layout(strict_literal(r), Profile.STRICT).kinds()
        assert kinds[DUPLICATE_EDGE] == r - 1, r
        assert kinds[MISSING_EDGE] == r - 1, r
        assert sum(kinds.values()) == 2 * (r - 1), r
    _line(3, True, "literal construction defect multisets match for r in [3,8]")


SPEC_WITNESS_K6 = (
    disk_page([(1, 2), (1, 3), (1, 4), (5, 6)]),
    disk_page([(2, 3), (2, 4), (2, 5), (1, 6)]),
    disk_page([(3, 4), (3, 5), (3, 6)]),
    disk_page([(2, 6), (4, 6)]),
    disk_page([(1, 5), (4, 5)]),
)


def test_criterion_4_strict_upper_bound_witnesses():
    t0 = time.time()
    # The hand-given 5-page witness for K_6 verifies and round-trips bytewise.
    witness = BookLayout(complete_graph(6), identity_order(6), SPEC_WITNESS_K6)
    assert verify_layout(witness, Profile.STRICT).passed
    text = serialize_layout(witness, {"family": "K", "n": 6})
    reparsed, meta = parse_certificate(text)
    assert serialize_layout(reparsed, meta) == text

    # r = 2, 3: r+2 >= 2r-1, so the bound is attainable; the star-page
    # witnesses verify and are deterministic.
    results = {}
    for r in (2, 3):
        layout = star_pages(2 * r)
        assert len(layout.pages) <= r + 2
        assert verify_layout(layout, Profile.STRICT).passed
        again = star_pages(2 * r)
        assert serialize_layout(again) == serialize_layout(layout)
        results[r] = f"{len(layout.pages)} pages"

    # r >= 4: K_2r needs 2r-1 > r+2 pages, so no witness exists, and the
    # search must exhaust budget r+2 on the identity order for r = 4, 5
    # and 6 in its pinned node counts.  With no wall-clock limit the
    # verdict rests on those deterministic counts, not on host speed.
    pins = {4: 1_890, 5: 3_049, 6: 4_636}
    for r in pins:
        n = 2 * r
        outcome = solve(SearchProblem(complete_graph(n), r + 2, Profile.STRICT,
                                      order=identity_order(n), time_limit=math.inf))
        assert edge_count_bounds(n, r * (n - 1)).strict_lower > r + 2, r
        results[r] = (outcome.status, outcome.nodes)
    elapsed = time.time() - t0
    refuted = all(results[r] == ("unsat", nodes) for r, nodes in pins.items())
    _line(4, refuted,
          f"strict r+2 witnesses for r<=3, refutation for r>=4: {results}, {elapsed:.0f}s")
    assert refuted, results


def test_criterion_5_exact_small_values():
    t0 = time.time()
    # sabt(K_4) = 3 and sabt(K_5) = 4, minimized over all spine orders, and
    # the star arboricity of K_4..K_7 via the pure star-forest profile: each
    # value k is UNSAT at k - 1 pages and SAT at k.
    cases = [(4, Profile.STRICT, 3, True), (5, Profile.STRICT, 4, True)]
    cases += [(n, Profile.STAR_FORESTS_ONLY, 1 + (n + 1) // 2, False) for n in (4, 5, 6, 7)]
    for n, profile, want, optimize_order in cases:
        statuses = [solve(SearchProblem(complete_graph(n), k, profile,
                                        optimize_order=optimize_order)).status
                    for k in (want - 1, want)]
        assert statuses == ["unsat", "sat"], (n, profile, want, statuses)

    # Relaxed K_6: 3 pages exhausted, 4 satisfiable; certificates deterministic.
    unsat = solve(SearchProblem(complete_graph(6), 3, Profile.RELAXED,
                                order=identity_order(6), crosscap_allowed=True))
    assert unsat.status == "unsat"
    sat_a = solve(SearchProblem(complete_graph(6), 4, Profile.RELAXED,
                                order=identity_order(6), crosscap_allowed=True))
    sat_b = solve(SearchProblem(complete_graph(6), 4, Profile.RELAXED,
                                order=identity_order(6), crosscap_allowed=True))
    assert sat_a.status == "sat"
    assert serialize_layout(sat_a.layout) == serialize_layout(sat_b.layout)
    elapsed = time.time() - t0
    in_time = elapsed < 600.0
    _line(5, in_time,
          f"sabt(K4)=3 sabt(K5)=4, sa(K4..K7)=(3,4,4,5), relaxed K6 needs 4; {elapsed:.1f}s")
    assert in_time, f"{elapsed:.1f}s exceeds the 600s bound"


def test_criterion_6_resolve_strict_k6(tmp_path):
    journal = tmp_path / "journal.jsonl"
    t0 = time.time()
    code = main(["search", "--family", "K", "--n", "6", "--budget", "4",
                 "--profile", "strict", "--optimize-order",
                 "--journal", str(journal)])
    elapsed = time.time() - t0
    assert code in (0, 1), "resolution required, abort is not acceptable"
    records = load_records(journal)
    assert len(records) == 1
    rec = records[0]
    assert rec.outcome in ("sat", "unsat")
    value = 4 if rec.outcome == "sat" else 5
    if rec.outcome == "unsat":
        # the 5-page witness pins the value from above
        assert verify_layout(star_pages(6), Profile.STRICT).passed
    in_time = elapsed < 600.0
    _line(6, in_time,
          f"strict K6 at budget 4 is {rec.outcome.upper()} over all orders "
          f"=> value {value}; journaled ({rec.nodes} nodes, {elapsed:.1f}s)")
    assert in_time, f"{elapsed:.1f}s exceeds the 600s bound"


def test_criterion_7_octahedron():
    t0 = time.time()
    for r in range(2, 65):
        layout = octahedron_pages(r)
        assert len(layout.pages) == r, r
        assert verify_layout(layout, Profile.STRICT).passed, r
    for r in range(4, 65):
        o = octahedron(r)
        assert edge_count_bounds(o.n, o.m).bt_lower == r, r
    elapsed = time.time() - t0
    _line(7, True, f"octahedron pages optimal for r in [4,64], verified to r=64; {elapsed:.1f}s")


def test_criterion_8_sparse_page(tmp_path):
    journal = tmp_path / "journal.jsonl"
    cert = tmp_path / "k6-minus-edge.json"
    t0 = time.time()
    code = main(["search", "--family", "K-e", "--n", "6", "--budget", "4",
                 "--profile", "strict", "--optimize-order",
                 "--journal", str(journal), "--out", str(cert)])
    elapsed = time.time() - t0
    assert code in (0, 1), "resolution required, abort is not acceptable"
    rec = load_records(journal)[0]
    assert rec.outcome in ("sat", "unsat")
    if code == 0:
        assert main(["verify", str(cert), "--profile", "strict"]) == 0
    in_time = elapsed < 600.0
    _line(8, in_time,
          f"strict K6-e at budget 4 is {rec.outcome.upper()}; journaled, {elapsed:.1f}s")
    assert in_time, f"{elapsed:.1f}s exceeds the 600s bound"


def test_criterion_9_crosscap_criterion_properties():
    t0 = time.time()
    for r in range(2, 129):
        order = identity_order(2 * r)
        ok, split = crosscap_page_valid(
            order, crosscap_page([(i, i + r) for i in range(1, r + 1)])
        )
        assert ok and len(split.through) == r, r

    ok, _ = crosscap_page_valid(
        identity_order(8), crosscap_page([(1, 3), (2, 4), (5, 7), (6, 8)])
    )
    assert not ok, "two disjoint crossing bundles must be rejected"

    ok, _ = crosscap_page_valid(
        identity_order(6), crosscap_page([(1, 2), (2, 3), (1, 3)])
    )
    assert ok, "shared-endpoint triangle must be accepted"

    # Disk-valid implies cap-valid: exhaustive on K_5 subsets, sampled to n=8.
    order5 = identity_order(5)
    for _mask, edges in all_k5_subsets():
        if disk_page_valid(order5, disk_page(edges))[0]:
            assert crosscap_page_valid(order5, crosscap_page(edges))[0]
    import itertools
    import random
    rng = random.Random(9)
    for n in (6, 7, 8):
        order = identity_order(n)
        chords = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(400):
            sample = rng.sample(chords, rng.randint(0, 8))
            if disk_page_valid(order, disk_page(sample))[0]:
                assert crosscap_page_valid(order, crosscap_page(sample))[0], sample
    elapsed = time.time() - t0
    _line(9, True, f"cross-cap criterion properties hold; {elapsed:.1f}s")


def test_criterion_10_oracle_equivalence(k5_star_forest_table):
    from conftest import brute_star_forest

    t0 = time.time()
    edges, table = k5_star_forest_table
    m = len(edges)

    def naive_sat(mask, k):
        es = [i for i in range(m) if mask >> i & 1]

        def rec(j, pages):
            if j == len(es):
                return True
            b = 1 << es[j]
            for p in range(k):
                if table[pages[p] | b]:
                    pages[p] |= b
                    if rec(j + 1, pages):
                        return True
                    pages[p] &= ~b
            return False

        return rec(0, [0] * k)

    from starbook import SimpleGraph

    for mask, subset in all_k5_subsets():
        assert is_star_forest(subset).ok == brute_star_forest(subset)
        sub = SimpleGraph(5, frozenset(subset))
        for k in range(1, 5):
            got = solve(SearchProblem(sub, k, Profile.STAR_FORESTS_ONLY)).status
            assert (got == "sat") == naive_sat(mask, k), (mask, k)
    elapsed = time.time() - t0
    in_time = elapsed < 60.0
    _line(10, in_time, f"solver and star-forest test agree with naive oracles; {elapsed:.1f}s")
    assert in_time, f"{elapsed:.1f}s exceeds the 60s bound"
