#!/usr/bin/env python3
"""Time the search on fixed instances whose verdicts are theorems.

    python3 bench/search.py --label one-frame
    python3 bench/search.py --label "static-order (fcde21b)" --src ../old/src

Searches each of INSTANCES on the identity order, importing starbook
from --src (default: this checkout's src): K_8 at budget 6, K_10 at
budgets 7 and 8 and K_12 at budgets 8 and 9 under the strict profile,
all UNSAT because the convex K_n needs n-1 noncrossing star forests
(Pach, Saghafian and Schnider, GD 2023); K_10 at budget 6 under the
relaxed profile, SAT because relaxed_complete(5) has 6 pages, the
largest cross-cap search of the benchmark's crosscap_search workload;
and K_9 at budget 5 under the saonly profile, UNSAT because the star
arboricity of K_9 is 6 (Akiyama and Kano, 1985).
Each search runs with a TIME_LIMIT-second limit, as often as
record.timed asks.  For each it records the verdict, the abort reason if
a limit stopped it, the node count, the deepest node, the number of
runs, the median seconds and their quartiles, the nodes per second at
that median and, for a SAT verdict, the certificate digest of the
witness (no meta), and stores them in --out under --label (see
record.py).  A verdict other than the theorem's makes the script exit 1
and store nothing; an abort is kept, as older source trees may abort.
Node counts and witnesses are deterministic: a run of the PINNED_ENGINE
version whose verdict, node count or digest differs from its pin is
refused the same way, while other engine versions are stored unchecked.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import record

TIME_LIMIT = 120.0  # seconds per search
PINNED_ENGINE = "fail-first/5"
# Each instance's verdict, which the theorems fix, and the node count and
# witness digest it takes under PINNED_ENGINE.
INSTANCES = {
    "K8/strict/b6": ("unsat", 1_890, None),
    "K10/strict/b7": ("unsat", 3_049, None),
    "K10/strict/b8": ("unsat", 230_822, None),
    "K12/strict/b8": ("unsat", 4_636, None),
    "K12/strict/b9": ("unsat", 429_798, None),
    "K10/relaxed/b6": ("sat", 16_776,
                       "6996e0b5164c7c4547cf40273d9608d051194bed71f67fe5f503f20c98d66335"),
    "K9/saonly/b5": ("unsat", 1, None),
}


def measure() -> dict:
    starbook = importlib.import_module("starbook")
    search = importlib.import_module("starbook.search")
    certs = importlib.import_module("starbook.certs")
    print(f"starbook from {Path(starbook.__file__).parent}", flush=True)
    results = {}
    for key in INSTANCES:
        family, profile, budget = key.split("/")
        n = int(family[1:])
        problem = starbook.SearchProblem(starbook.complete_graph(n), int(budget[1:]),
                                         starbook.Profile(profile),
                                         order=starbook.identity_order(n),
                                         time_limit=TIME_LIMIT)
        outcome, runs, (q1, seconds, q3) = record.timed(starbook.solve, lambda: (problem,))
        results[key] = {
            "status": outcome.status, "reason": outcome.reason, "nodes": outcome.nodes,
            "max_depth": outcome.max_depth, "runs": runs, "seconds": seconds,
            "seconds_q1": q1, "seconds_q3": q3, "nodes_per_s": round(outcome.nodes / seconds),
            "digest": outcome.layout and certs.certificate_digest(outcome.layout)}
        print(f"{key}: {outcome.status}" + (f" ({outcome.reason})" if outcome.reason else "")
              + f", {outcome.nodes:,} nodes, {runs} runs, median {seconds:.4f} s, "
              f"{results[key]['nodes_per_s']:,} nodes/s", flush=True)
    return {"engine": getattr(search, "ENGINE_VERSION", None), "min_runs": record.MIN_RUNS,
            "min_seconds": record.MIN_SECONDS, "time_limit_s": TIME_LIMIT, "results": results}


def check(run: dict) -> list[str]:
    """What is wrong with a run: a verdict other than the theorem's (an
    abort is allowed) and, for PINNED_ENGINE, any (status, nodes, digest)
    other than its pin.  Runs stored before the digest was recorded lack
    it, and their instances are all UNSAT."""
    errors = []
    for key, result in run["results"].items():
        pin = INSTANCES[key]
        if result["status"] not in (pin[0], "aborted"):
            errors.append(f"{key} is {result['status']}, but the theorem makes it {pin[0]}")
        got = result["status"], result["nodes"], result.get("digest")
        if run["engine"] == PINNED_ENGINE and got != pin:
            errors.append(f"{key} gave {got}, but {PINNED_ENGINE} gives {pin}")
    return errors


def main(argv=None) -> int:
    return record.main(__doc__, record.ROOT / "results" / "BENCH_search.json", measure, check, argv)


if __name__ == "__main__":
    sys.exit(main())
