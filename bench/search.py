#!/usr/bin/env python3
"""Time the search on fixed instances whose verdicts are theorems.

    python3 bench/search.py --label one-frame
    python3 bench/search.py --label "static-order (fcde21b)" --src ../old/src

Searches each of INSTANCES, a row of results/journal.jsonl named by its
key, importing starbook from --src (default: this checkout's src): K_8
at budget 6, K_10 at budgets 7 and 8 and K_12 at budgets 8 and 9 under
the strict profile on the identity order, all UNSAT because the convex
K_n needs n-1 noncrossing star forests (Pach, Saghafian and Schnider,
GD 2023); K_10 at budget 6 under the relaxed profile, SAT because
relaxed_complete(5) has 6 pages, the largest cross-cap search of the
benchmark's crosscap_search workload; and K_9 at budget 5 under the
saonly profile, UNSAT because the star arboricity of K_9 is 6 (Akiyama
and Kano, 1985).  Each problem is built from its row as `starbook
search` builds it, with a TIME_LIMIT-second limit, and runs as often as
record.timed asks.  For each it records the verdict, the abort reason if
a limit stopped it, the node count, the deepest node, the number of
runs, the median seconds and their quartiles, the nodes per second at
that median and, for a SAT verdict, the witness's certificate digest
with the meta `starbook search` gives it, as the journal records it, and
stores them in --out under --label (see record.py).
A verdict other than the row's makes the script exit 1 and store
nothing; an abort is kept, as older source trees may abort.  Node counts
and witnesses are deterministic: a run of the engine version that wrote
the row whose node count or digest differs from the row's is refused
the same way, while other engine versions are stored with only their
verdicts checked.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import record

TIME_LIMIT = 120.0  # seconds per search
JOURNAL = record.ROOT / "results" / "journal.jsonl"
# The fields that name a journal row: one search of one graph.
KEY = ("family", "params", "profile", "budget", "order_policy")
# Each instance's journal key.  The instances are complete graphs, which
# every source tree can build.
INSTANCES = {
    "K8/strict/b6": ("K", {"n": 8}, "strict", 6, "identity"),
    "K10/strict/b7": ("K", {"n": 10}, "strict", 7, "identity"),
    "K10/strict/b8": ("K", {"n": 10}, "strict", 8, "identity"),
    "K12/strict/b8": ("K", {"n": 12}, "strict", 8, "identity"),
    "K12/strict/b9": ("K", {"n": 12}, "strict", 9, "identity"),
    "K10/relaxed/b6": ("K", {"n": 10}, "relaxed", 6, "identity"),
    "K9/saonly/b5": ("K", {"n": 9}, "saonly", 5, "none"),
}


def journal_key(row: dict) -> str:
    """A journal row's key as JSON text, so that keys compare and hash."""
    return json.dumps([row[field] for field in KEY], sort_keys=True)


def journal_rows() -> dict:
    """The journal row of each instance, by instance name."""
    rows = {journal_key(row): row for row in map(json.loads, JOURNAL.read_text().splitlines())}
    return {name: rows[journal_key(dict(zip(KEY, key)))] for name, key in INSTANCES.items()}


def measure() -> dict:
    starbook = importlib.import_module("starbook")
    search = importlib.import_module("starbook.search")
    certs = importlib.import_module("starbook.certs")
    print(f"starbook from {Path(starbook.__file__).parent}", flush=True)
    results = {}
    for name, row in journal_rows().items():
        n = row["params"]["n"]
        problem = starbook.SearchProblem(
            starbook.complete_graph(n), row["budget"], starbook.Profile(row["profile"]),
            order=starbook.identity_order(n) if row["order_policy"] == "identity" else None,
            time_limit=TIME_LIMIT)
        outcome, runs, (q1, seconds, q3) = record.timed(starbook.solve, lambda: (problem,))
        meta = {"family": row["family"], **row["params"], "scheme": "search",
                "profile": row["profile"], "budget": row["budget"]}
        results[name] = {
            "status": outcome.status, "reason": outcome.reason, "nodes": outcome.nodes,
            "max_depth": outcome.max_depth, "runs": runs, "seconds": seconds,
            "seconds_q1": q1, "seconds_q3": q3, "nodes_per_s": round(outcome.nodes / seconds),
            "certificate_digest": outcome.layout and certs.certificate_digest(outcome.layout, meta)}
        print(f"{name}: {outcome.status}" + (f" ({outcome.reason})" if outcome.reason else "")
              + f", {outcome.nodes:,} nodes, {runs} runs, median {seconds:.4f} s, "
              f"{results[name]['nodes_per_s']:,} nodes/s", flush=True)
    return {"engine": getattr(search, "ENGINE_VERSION", None), "min_runs": record.MIN_RUNS,
            "min_seconds": record.MIN_SECONDS, "time_limit_s": TIME_LIMIT, "results": results}


def check(run: dict) -> list[str]:
    """What is wrong with a run, against each instance's journal row: a
    verdict other than the row's (an abort is allowed) and, on the row's
    engine version, a node count or certificate digest other than the
    row's.  Runs stored before the digest was recorded as the journal
    records it hold only the witness digest without meta, `digest`, and
    so have no digest checked."""
    rows, errors = journal_rows(), []
    for name, result in run["results"].items():
        row = rows[name]
        if result["status"] not in (row["outcome"], "aborted"):
            errors.append(f"{name} is {result['status']}, but its journal row is "
                          f"{row['outcome']}")
        elif run["engine"] == row["engine"]:
            got = (result["status"], result["nodes"],
                   result.get("certificate_digest", row["certificate_digest"]))
            want = row["outcome"], row["nodes"], row["certificate_digest"]
            if got != want:
                errors.append(f"{name} gave {got}, but its {row['engine']} journal row "
                              f"has {want}")
    return errors


def main(argv=None) -> int:
    return record.main(__doc__, record.ROOT / "results" / "BENCH_search.json", measure, check, argv)


if __name__ == "__main__":
    sys.exit(main())
