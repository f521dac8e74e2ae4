"""Correctness oracle of the benchmark, independent of starbook's own code.

Two parts:

* EXPECTED: the verdict every search case must reach, with where that
  verdict comes from.  Node counts are not part of it; they are reported
  but never fail an operation.
* check_layout: a brute-force re-check of a layout given as plain
  tuples (pairwise interleaving, a degree test for star forests, exact
  partition, and the antipodal reading of cross-cap through chords).
  It shares no code with starbook.verify, so a verifier fast path that
  turns wrong is still caught here.
"""

from __future__ import annotations

from collections import Counter

# case name -> (verdict, source of the verdict)
EXPECTED: dict[str, tuple[str, str]] = {
    "K6/strict/b4/all-orders": ("unsat", "results/journal.jsonl (56,934 nodes); README findings"),
    "K7/strict/b5": ("unsat", "results/journal.jsonl (48,631 nodes); README: K_7 needs 6"),
    "K9/strict/b6": ("unsat", "README: K_8 budget 6 UNSAT, and K_8 is a subgraph of K_9"),
    # strict_complete's docstring: the fixed-mains repair fails for every r >= 4.
    "K8/strict/b6/fixed-mains": ("unsat", "strict_complete, r = 4"),
    "K10/strict/b7/fixed-mains": ("unsat", "strict_complete, r = 5"),
    "K12/strict/b8/fixed-mains": ("unsat", "strict_complete, r = 6"),
    "K7/saonly/b4": ("unsat", "results/journal.jsonl (235,322 nodes)"),
    "K6/crosscap/b3": ("unsat", "results/journal.jsonl; README: sarbt(K_6) = 4"),
    "K6/crosscap/b4": ("sat", "results/journal.jsonl; relaxed_complete(3)"),
    "K8/crosscap/b4": ("unsat", "results/journal.jsonl; README: sarbt(K_8) = 5"),
    "K8/crosscap/b5": ("sat", "results/journal.jsonl; relaxed_complete(4)"),
    "K9/crosscap/b5": ("unsat", "engine only, identical on seeds 0-11; no second source yet"),
    "K10/crosscap/b6": ("sat", "relaxed_complete(5) is a 6-page relaxed layout of K_10"),
    # Small cases used by the self-test.
    "K5/strict/b3/all-orders": ("unsat", "results/journal.jsonl (768 nodes)"),
    "K6/strict/b5": ("sat", "results/journal.jsonl"),
    "K6/saonly/b3": ("unsat", "results/journal.jsonl (356 nodes)"),
}


def _interleave(pos: dict[int, int], e, f) -> bool:
    """Chords e and f cross: exactly one end of f lies strictly inside e's arc."""
    if set(e) & set(f):
        return False
    a, b = pos[e[0]], pos[e[1]]
    lo, hi = min(a, b), max(a, b)
    inside = [lo < pos[x] < hi for x in f]
    return inside[0] != inside[1]


def _star_forest_witness(edges) -> tuple[int, int] | None:
    deg: Counter = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for u, v in sorted(edges):
        if deg[u] >= 2 and deg[v] >= 2:
            return (u, v)
    return None


def _crosscap_ok(pos: dict[int, int], order, edges) -> bool:
    """The chords with a crossing partner, read around the circle as
    a_1..a_k b_1..b_k: occurrence j and occurrence j+k join one chord."""
    through = [e for e in edges if any(_interleave(pos, e, f) for f in edges)]
    if not through:
        return True
    count: Counter = Counter(x for e in through for x in e)
    occ = [v for v in order for _ in range(count[v])]
    k = len(through)
    pairs = Counter(tuple(sorted((occ[j], occ[j + k]))) for j in range(k))
    return pairs == Counter(tuple(sorted(e)) for e in through)


def check_layout(n: int, graph_edges, order, pages, profile: str,
                 budget: int | None = None) -> list[str]:
    """Every problem the brute-force check finds; empty means valid.

    The graph has vertices 1..n; `pages` is a sequence of (kind, edges)
    with kind "disk" or "crosscap"; `profile` is "strict", "relaxed" or
    "saonly".
    """
    problems = []
    want = {tuple(sorted(e)) for e in graph_edges}
    if budget is not None and len(pages) > budget:
        problems.append(f"{len(pages)} pages exceed the budget {budget}")
    seen = Counter(tuple(sorted(e)) for _, es in pages for e in es)
    dup = sorted(e for e, c in seen.items() if c > 1)
    missing = sorted(want - set(seen))
    foreign = sorted(set(seen) - want)
    if dup:
        problems.append(f"{len(dup)} duplicated edges")
    if missing:
        problems.append(f"{len(missing)} missing edges")
    if foreign:
        problems.append(f"{len(foreign)} foreign edges")
    for i, (_, es) in enumerate(pages):
        bad = _star_forest_witness(es)
        if bad:
            problems.append(f"page {i + 1} is not a star forest at {bad}")
    if profile == "saonly":
        return problems
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        problems.append("order is not a permutation of the vertices")
        return problems
    pos = {v: i for i, v in enumerate(order)}
    caps = [i for i, (kind, _) in enumerate(pages) if kind == "crosscap"]
    if len(caps) > (1 if profile == "relaxed" else 0):
        problems.append(f"{len(caps)} cross-cap pages under profile {profile}")
    for i, (kind, es) in enumerate(pages):
        es = list(es)
        if kind == "disk":
            for a in range(len(es)):
                if any(_interleave(pos, es[a], es[b]) for b in range(a + 1, len(es))):
                    problems.append(f"disk page {i + 1} has crossing chords")
                    break
        elif not _crosscap_ok(pos, order, es):
            problems.append(f"cross-cap page {i + 1} cannot route its crossing chords")
    return problems

