#!/usr/bin/env python3
"""Time the heavyweight strict UNSAT proofs on the identity order.

    python3 bench/proofs.py --label fail-first
    python3 bench/proofs.py --label "static-order (fcde21b)" --src ../old/src

Searches K_8 at budget 6, K_10 at budgets 7 and 8, and K_12 at budgets 8
and 9 under the strict profile, each with a TIME_LIMIT-second wall-clock
limit, importing starbook from --src (default: this checkout's src).
Every one of them is UNSAT: the convex K_n needs n-1 noncrossing star
forests (Pach, Saghafian and Schnider, GD 2023).  Each search runs
REPEATS times.  For each it records the verdict, the abort reason if a
limit stopped it, the node count and the median seconds, and stores
them in --out under --label (see record.py).  A SAT verdict
contradicts the theorem, so the script then exits 1 and stores nothing; an abort is kept, as older source trees abort.  Node counts are
deterministic: a run of the PINNED_ENGINE version whose counts differ
from PINNED_NODES is refused the same way, while other engine versions
(older trees under --src) are stored unchecked.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path

import record

INSTANCES = ((8, 6), (10, 7), (10, 8), (12, 8), (12, 9))
REPEATS = 3
TIME_LIMIT = 120.0  # seconds per instance
# The node count of each instance under the engine version that fixes them.
PINNED_ENGINE = "fail-first/2"
PINNED_NODES = {"K8/strict/b6": 1_890, "K10/strict/b7": 3_049, "K10/strict/b8": 230_822,
                "K12/strict/b8": 4_636, "K12/strict/b9": 429_798}


def measure() -> dict:
    starbook = importlib.import_module("starbook")
    search = importlib.import_module("starbook.search")
    print(f"starbook from {Path(starbook.__file__).parent}", flush=True)
    results = {}
    for n, budget in INSTANCES:
        problem = starbook.SearchProblem(starbook.complete_graph(n), budget, starbook.Profile.STRICT,
                                         order=starbook.identity_order(n), time_limit=TIME_LIMIT)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            outcome = starbook.solve(problem)
            times.append(time.perf_counter() - start)
        seconds = statistics.median(times)
        results[f"K{n}/strict/b{budget}"] = {
            "status": outcome.status, "reason": outcome.reason,
            "nodes": outcome.nodes, "seconds": round(seconds, 3)}
        print(f"K_{n} budget {budget}: {outcome.status}"
              + (f" ({outcome.reason})" if outcome.reason else "")
              + f", {outcome.nodes:,} nodes, {seconds:.2f} s", flush=True)
    return {"engine": getattr(search, "ENGINE_VERSION", None), "repeats": REPEATS,
            "time_limit_s": TIME_LIMIT, "results": results}


def check(run: dict) -> list[str]:
    results = run["results"]
    errors = [f"{key} is SAT, but GD 2023 refutes it"
              for key, result in results.items() if result["status"] == "sat"]
    if run["engine"] == PINNED_ENGINE:
        errors += [f"{key} took {result['nodes']:,} nodes, but {PINNED_ENGINE} takes "
                   f"{PINNED_NODES[key]:,}"
                   for key, result in results.items() if result["nodes"] != PINNED_NODES[key]]
    return errors


def main(argv=None) -> int:
    return record.main(__doc__, record.ROOT / "results" / "BENCH_proofs.json", measure, check, argv)


if __name__ == "__main__":
    sys.exit(main())
