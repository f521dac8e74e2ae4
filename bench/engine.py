#!/usr/bin/env python3
"""Time the search engine's nodes per second on two fixed searches.

    python3 bench/engine.py --label one-frame
    python3 bench/engine.py --label "three frames (10bc1f9)" --src ../old/src

Searches K_10 on the identity order, importing starbook from --src
(default: this checkout's src): under the strict profile at budget 8,
which is UNSAT (GD 2023), and under the relaxed profile at budget 6,
which is SAT (relaxed_complete(5) has 6 pages) and is the largest
cross-cap search of the benchmark's crosscap_search workload.  Each
search runs REPEATS times with a TIME_LIMIT-second limit.  For each it
records the verdict, the abort reason if a limit stopped it, the node
count, the deepest node, the median seconds, the nodes per second at
that median and, for a SAT verdict, the certificate digest of the
witness (no meta), and stores them in --out under --label (see
record.py).  A verdict that contradicts the theorems makes the script
exit 1 and store nothing; an abort is kept, as older source trees may
abort.  Node counts and witnesses are deterministic: a run of the
PINNED_ENGINE version whose verdict, node count or digest differs from
PINNED is refused the same way, while other engine versions are stored
unchecked.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path

import record

REPEATS = 5
TIME_LIMIT = 120.0  # seconds per search
PINNED_ENGINE = "fail-first/2"
# Verdict, node count and witness digest of each search under PINNED_ENGINE.
PINNED = {
    "K10/strict/b8": ("unsat", 230_822, None),
    "K10/relaxed/b6": ("sat", 16_776,
                       "6996e0b5164c7c4547cf40273d9608d051194bed71f67fe5f503f20c98d66335"),
}


def measure() -> dict:
    starbook = importlib.import_module("starbook")
    search = importlib.import_module("starbook.search")
    certs = importlib.import_module("starbook.certs")
    print(f"starbook from {Path(starbook.__file__).parent}", flush=True)
    results = {}
    for key in PINNED:
        _, profile, budget = key.split("/")
        problem = starbook.SearchProblem(starbook.complete_graph(10), int(budget[1:]),
                                         starbook.Profile(profile),
                                         order=starbook.identity_order(10),
                                         time_limit=TIME_LIMIT)
        seconds = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            outcome = starbook.solve(problem)
            seconds.append(time.perf_counter() - start)
        median = statistics.median(seconds)
        results[key] = {
            "status": outcome.status, "reason": outcome.reason, "nodes": outcome.nodes,
            "max_depth": outcome.max_depth, "seconds": round(median, 4),
            "nodes_per_s": round(outcome.nodes / median),
            "digest": outcome.layout and certs.certificate_digest(outcome.layout)}
        print(f"{key}: {outcome.status}" + (f" ({outcome.reason})" if outcome.reason else "")
              + f", {outcome.nodes:,} nodes, {median:.4f} s, {outcome.nodes / median:,.0f} nodes/s",
              flush=True)
    return {"engine": getattr(search, "ENGINE_VERSION", None), "repeats": REPEATS,
            "time_limit_s": TIME_LIMIT, "results": results}


def check(run: dict) -> list[str]:
    results = run["results"]
    errors = [f"{key} is {result['status']}, but the theorem makes it {PINNED[key][0]}"
              for key, result in results.items()
              if result["status"] not in (PINNED[key][0], "aborted")]
    if run["engine"] == PINNED_ENGINE:
        for key, result in results.items():
            got = result["status"], result["nodes"], result["digest"]
            if got != PINNED[key]:
                errors.append(f"{key} gave {got}, but {PINNED_ENGINE} gives {PINNED[key]}")
    return errors


def main(argv=None) -> int:
    return record.main(__doc__, record.ROOT / "results" / "BENCH_engine.json", measure, check, argv)


if __name__ == "__main__":
    sys.exit(main())
