#!/usr/bin/env python3
"""Time the heavyweight strict UNSAT proofs on the identity order.

    python3 bench/proofs.py --label fail-first
    python3 bench/proofs.py --label "static-order (fcde21b)" --src ../old/src

Searches K_8 at budget 6, K_10 at budgets 7 and 8, and K_12 at budgets 8
and 9 under the strict profile, each with a TIME_LIMIT-second wall-clock
limit, importing starbook from --src (default: this checkout's src).
Every one of them is UNSAT: the convex K_n needs n-1 noncrossing star
forests (Pach, Saghafian and Schnider, GD 2023).  For each it records the
verdict, the abort reason if a limit stopped it, the node count and the
seconds, and stores them in --out under --label with the host's core
count and Python version.  Entries under other labels are kept, so two source trees
measured one after the other on one host sit side by side.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ((8, 6), (10, 7), (10, 8), (12, 8), (12, 9))
TIME_LIMIT = 120.0  # seconds per instance


def measure() -> dict:
    starbook = importlib.import_module("starbook")
    search = importlib.import_module("starbook.search")
    print(f"starbook from {Path(starbook.__file__).parent}", flush=True)
    results = {}
    for n, budget in INSTANCES:
        problem = starbook.SearchProblem(starbook.complete_graph(n), budget, starbook.Profile.STRICT,
                                         order=starbook.identity_order(n), time_limit=TIME_LIMIT)
        start = time.perf_counter()
        outcome = starbook.solve(problem)
        seconds = time.perf_counter() - start
        results[f"K{n}/strict/b{budget}"] = {
            "status": outcome.status, "reason": outcome.reason,
            "nodes": outcome.nodes, "seconds": round(seconds, 3)}
        print(f"K_{n} budget {budget}: {outcome.status}"
              + (f" ({outcome.reason})" if outcome.reason else "")
              + f", {outcome.nodes:,} nodes, {seconds:.2f} s", flush=True)
    return {
        "engine": getattr(search, "ENGINE_VERSION", None),
        "time_limit_s": TIME_LIMIT,
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the key this run is stored under")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding starbook")
    parser.add_argument("--out", default=str(ROOT / "results" / "BENCH_proofs.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    run = measure()
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
