#!/usr/bin/env python3
"""Fast self-test of the benchmark at its smallest size (a few seconds).

    python3 perfbench/selftest.py

Checks that:
* every workload, untraced and traced, emits exactly the metrics that
  BENCHMARK.json names, with no failed operation;
* a deliberately wrong expected verdict is counted in ops_failed;
* the brute-force oracle rejects broken layouts and agrees with
  starbook's cross-cap check on every small star-forest page of K_6;
* run.py exits non-zero, printing no result, without the sources.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile

import run
import oracle

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"] for m in spec["end_to_end"]},
            True: {m["name"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            out = run.measure(workload, seed=1, seconds=0, trace=trace, tiny=True)
            got = set(out["layers"] if trace else out["summary"])
            label = f"{workload} trace={int(trace)}"
            expect(got == want[trace], f"{label} emits the named metrics"
                   f" (missing {sorted(want[trace] - got)}, extra {sorted(got - want[trace])})")
            expect(out["failed"] == 0 and out["attempted"] > 0,
                   f"{label}: {out['failed']} of {out['attempted']} ops failed")
            if trace and workload != "certify":
                hooked = {"crosscap_search": "verify.crosscap_calls",
                          "strict_proofs": "search.reverify_s"}[workload]
                expect(out["layers"][hooked] > 0, f"{label}: the engine hook feeds {hooked}")


def check_wrong_verdict() -> None:
    expected = dict(oracle.EXPECTED)
    expected["K6/crosscap/b4"] = ("unsat", "deliberately wrong")
    out = run.measure("crosscap_search", seed=0, seconds=0, trace=False, tiny=True,
                      expected=expected)
    expect(out["failed"] == out["passes"], "a wrong expected verdict fails once per pass"
           f" ({out['failed']} failed in {out['passes']} passes)")


def check_oracle() -> None:
    sb = run.load_starbook()
    layout = sb.construct.relaxed_complete(3)
    g, order = layout.graph, layout.order.seq
    pages = [(p.kind.value, list(p.edges)) for p in layout.pages]
    expect(oracle.check_layout(g.n, g.edges, order, pages, "relaxed") == [],
           "oracle accepts relaxed_complete(3)")
    moved = [(k, list(es)) for k, es in pages]
    moved[1][1].append(moved[0][1].pop())
    expect(oracle.check_layout(g.n, g.edges, order, moved, "relaxed") != [],
           "oracle rejects an edge moved to another page")
    expect(oracle.check_layout(g.n, g.edges, order, pages[:-1], "relaxed") != [],
           "oracle rejects a missing page")
    expect(oracle.check_layout(g.n, g.edges, order, pages, "strict") != [],
           "oracle rejects a cross-cap page under the strict profile")
    crossing = [("disk", [(1, 3), (2, 4)])]
    expect(oracle.check_layout(4, [(1, 3), (2, 4)], (1, 2, 3, 4), crossing, "strict") != [],
           "oracle rejects crossing chords on a disk page")

    # Cross-cap criterion: the oracle and starbook agree on every star-forest
    # page of up to 5 chords of K_6 on the identity order.
    k6 = sorted(sb.construct.complete_graph(6).edges)
    ident = sb.model.identity_order(6)
    disagree = []
    for size in range(1, 6):
        for chords in itertools.combinations(k6, size):
            if not sb.verify.is_star_forest(chords).ok:
                continue
            ours = oracle._crosscap_ok({v: v - 1 for v in range(1, 7)}, range(1, 7), list(chords))
            theirs, _ = sb.verify.crosscap_page_valid(ident, sb.model.crosscap_page(chords))
            if ours != theirs:
                disagree.append(chords)
    expect(not disagree,
           f"oracle and crosscap_page_valid agree on K_6 pages ({len(disagree)} differ)")


def check_fails_without_sources() -> None:
    run.WORK.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.WORK)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/{run.HERE.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"run.py without sources exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


def main() -> int:
    if not (run.SRC / "starbook" / "__init__.py").is_file():
        print(f"error: no starbook sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    check_oracle()
    check_wrong_verdict()
    check_metrics()
    check_fails_without_sources()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
