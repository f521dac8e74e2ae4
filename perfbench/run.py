#!/usr/bin/env python3
"""starbook benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload strict_proofs --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; starbook is imported from ./src (there
is nothing to build).  The workloads are described in workloads.py.

A pass runs every operation of the workload once, each only after the
previous one finished, and checks every answer (oracle.py).  Passes
repeat until --seconds have elapsed; at least one runs.

--trace 0 reports the end-to-end metrics:
    setup_s      median of SETUP_REPEATS set-ups (fresh import of starbook
                 and generation of the inputs)
    wall_s       median over passes of the seconds spent inside starbook calls
                 in one pass; benchmark glue and checking are excluded
    peak_rss_mb  peak resident set of the process
Both times are rescaled to a reference host speed (calibrate.py); the raw
median pass time is printed as wall_raw_s.
--trace 1 alternates untraced and traced passes (tracer.py) and reports
the per-layer metrics (raw seconds, medians over the traced passes) and
trace.overhead_s = traced wall_s minus untraced wall_s:
    search.*          solve(): busy_s (its re-verification and cross-cap
                      probes included), nodes, nodes_per_s, max_depth;
                      reverify_s is solve()'s verify_layout of a SAT witness;
                      engine_build_s is one node_limit=0 solve per spine
                      order, timed after the passes
    verify.crosscap_* the engine's crosscap_page_valid probes
    verify.layout_*   the benchmark's own verify_layout calls (not those made
                      inside construct, render or solve)
    verify.disk_s, verify.crosscap_s
                      disk_page_valid / crosscap_page_valid on every page of
                      the certify layouts, timed after the passes
    construct.*, certs.*, render.svg_s, journal.*
                      calls into those modules; certs.serialize_s includes
                      certificate_digest, render.svg_s includes render_svg's
                      own verification

Every run also prints one `row` line per operation (case, verdict,
search.nodes, seconds, certificate digest), a `host` line (core count,
Python version, git commit, source digest, seed, workload), the metrics
with units including ops and ops_failed, and last the JSON result line
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 9
MAX_MEASURE_S = 120.0  # no new pass starts after this, so a run ends within 180 s
STARBOOK_MODULES = ("model", "verify", "construct", "search", "certs", "journal", "render")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "search.busy_s": "s", "search.nodes": "count", "search.nodes_per_s": "1/s",
    "search.max_depth": "count", "search.engine_build_s": "s", "search.reverify_s": "s",
    "verify.crosscap_calls": "count", "verify.crosscap_busy_s": "s",
    "verify.crosscap_accept_ratio": "ratio",
    "verify.layout_calls": "count", "verify.layout_s": "s", "verify.edges_per_s": "1/s",
    "verify.disk_s": "s", "verify.crosscap_s": "s",
    "construct.busy_s": "s", "construct.edges": "count",
    "certs.serialize_s": "s", "certs.parse_s": "s", "certs.bytes": "bytes",
    "render.svg_s": "s",
    "journal.append_s": "s", "journal.load_s": "s", "journal.records": "count",
    "trace.overhead_s": "s",
}


def load_starbook() -> SimpleNamespace:
    """Import starbook afresh from ./src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "starbook" or m.startswith("starbook.")]:
        del sys.modules[name]
    package = importlib.import_module("starbook")
    if Path(package.__file__).resolve().parent != SRC / "starbook":
        raise RuntimeError(f"starbook imported from {package.__file__}, not from {SRC}")
    modules = {m: importlib.import_module(f"starbook.{m}") for m in STARBOOK_MODULES}
    return SimpleNamespace(**modules)


class Pass:
    """One pass over the operations of a workload."""

    def __init__(self, sb, cases, tracer, journal_path, expected, reference, sampler):
        rn = workloads.Runner(sb, tracer, journal_path, sampler)
        self.results = []  # (OpResult, problems)
        spans = []  # (raw seconds, start, end) of each operation
        for case in cases:
            before, start, end = rn.seconds, perf_counter(), None
            try:
                result = case.run(rn)
                end = perf_counter()
                problems = case.check(sb, result, expected, deep=reference is None)
            except Exception:  # an operation that raises is a failed operation
                traceback.print_exc(file=sys.stderr)
                result, problems = workloads.OpResult(case.name, "error"), ["raised an exception"]
            spans.append((rn.seconds - before, start, end or perf_counter()))
            if reference is not None and result.name in reference:
                verdict, digest, nodes = reference[result.name]
                if (result.verdict, result.digest) != (verdict, digest):
                    problems.append("verdict or certificate differs from the first pass")
                if result.nodes != nodes:
                    print(f"warning: {result.name}: {result.nodes} nodes, first pass "
                          f"{nodes}", file=sys.stderr)
            result.layout = result.checked = result.report = result.svg = None
            self.results.append((result, problems))

        before, start = rn.seconds, perf_counter()
        read_back = workloads.OpResult("journal/read-back", "pass")
        try:
            records = rn.call("journal.load", sb.journal.load_records, journal_path)
            got = [(r.outcome, r.nodes, r.certificate_digest) for r in records]
            problems = [] if got == rn.written else ["journal differs from what was written"]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = ["raised an exception"]
        spans.append((rn.seconds - before, start, perf_counter()))
        read_back.verdict = "fail" if problems else "pass"
        self.results.append((read_back, problems))
        Path(journal_path).unlink(missing_ok=True)

        self.spans = spans
        self.raw_wall = rn.seconds
        self.wall = None  # rescaled, once the sampler has seen the whole pass
        self.counts = rn.counts
        self.tracer = tracer

    @property
    def failed(self) -> int:
        return sum(1 for _, problems in self.results if problems)

    def reference(self) -> dict:
        return {r.name: (r.verdict, r.digest, r.nodes) for r, _ in self.results}

    def layer_metrics(self) -> dict:
        t, c = self.tracer, self.counts
        busy, layout_s = t.total["search"], t.total["verify.layout"]
        probes = t.calls["verify.crosscap_probe"]
        return {
            "search.busy_s": busy,
            "search.nodes": c["search.nodes"],
            "search.nodes_per_s": c["search.nodes"] / busy if busy else 0.0,
            "search.max_depth": c["search.max_depth"],
            "search.reverify_s": t.total["search.reverify"],
            "verify.crosscap_calls": probes,
            "verify.crosscap_busy_s": t.total["verify.crosscap_probe"],
            "verify.crosscap_accept_ratio":
                t.accepted["verify.crosscap_probe"] / probes if probes else 0.0,
            "verify.layout_calls": t.calls["verify.layout"],
            "verify.layout_s": layout_s,
            "verify.edges_per_s": c["verify.edges"] / layout_s if layout_s else 0.0,
            "construct.busy_s": t.total["construct"],
            "construct.edges": c["construct.edges"],
            "certs.serialize_s": t.total["certs.serialize"],
            "certs.parse_s": t.total["certs.parse"],
            "certs.bytes": c["certs.bytes"],
            "render.svg_s": t.total["render.svg"],
            "journal.append_s": t.total["journal.append"],
            "journal.load_s": t.total["journal.load"],
            "journal.records": c["journal.records"],
        }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            expected: dict = oracle.EXPECTED) -> dict:
    """Set up, run passes, and return metrics, rows and counts."""
    setup_spans = []
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    untraced: list[Pass] = []
    traced: list[Pass] = []
    try:
        with calibrate.Sampler() as sampler:
            for _ in range(SETUP_REPEATS):
                busy, start = sampler.busy, perf_counter()
                sb = load_starbook()
                cases = workloads.build_cases(sb, workload, seed, tiny)
                end = perf_counter()
                setup_spans.append((end - start - (sampler.busy - busy), start, end))

            start = perf_counter()
            reference = None
            while True:
                tracer = Tracer() if trace and len(traced) < len(untraced) else None
                journal_path = workdir / f"journal-{len(untraced) + len(traced)}.jsonl"
                with tracer.engine_hooks(sb) if tracer else contextlib.nullcontext():
                    p = Pass(sb, cases, tracer, journal_path, expected, reference, sampler)
                (traced if tracer else untraced).append(p)
                reference = reference or p.reference()
                elapsed = perf_counter() - start
                if (traced or not trace) and (elapsed >= seconds or elapsed >= MAX_MEASURE_S):
                    break
        probe_tracer = Tracer()
        if trace:
            for case in cases:
                case.probe(sb, probe_tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    everything = untraced + traced
    for p in everything:
        p.wall = sum(sampler.rescale(*span) for span in p.spans)
    wall_s = statistics.median(p.wall for p in untraced)
    summary = {
        "setup_s": statistics.median(sampler.rescale(*span) for span in setup_spans),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    layers = {}
    if trace:
        per_pass = [p.layer_metrics() for p in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["search.engine_build_s"] = probe_tracer.total["search.engine_build"]
        layers["verify.disk_s"] = probe_tracer.total["verify.disk_page"]
        layers["verify.crosscap_s"] = probe_tracer.total["verify.crosscap_page"]
        layers["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced) - wall_s)

    rows = []
    for i, (first, _) in enumerate(everything[0].results):
        runs = [p.results[i] for p in everything]
        problems = sorted({msg for _, probs in runs for msg in probs})
        rows.append({
            "case": first.name, "verdict": first.verdict, "search.nodes": first.nodes,
            "seconds": statistics.median(sampler.rescale(*p.spans[i]) for p in untraced),
            "raw_seconds": statistics.median(p.spans[i][0] for p in untraced),
            "digest": first.digest, "ok": not problems, "problems": problems,
        })
    return {
        "summary": summary, "layers": layers, "rows": rows,
        "attempted": sum(len(p.results) for p in everything),
        "failed": sum(p.failed for p in everything),
        "passes": len(everything),
        "wall_raw_s": statistics.median(p.raw_wall for p in untraced),
        "pass_wall_s": [round(p.wall, 4) for p in everything],
        "pass_raw_wall_s": [round(p.raw_wall, 4) for p in everything],
        "kernel_s": statistics.median(sampler.kernel),
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "starbook").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starbook" / "__init__.py").is_file():
        print(f"error: no starbook sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for row in out["rows"]:
        print("row " + json.dumps(row, sort_keys=True))
    host = {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "seed": args.seed, "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "passes": out["passes"], "pass_wall_s": out["pass_wall_s"],
        "pass_raw_wall_s": out["pass_raw_wall_s"], "kernel_s": out["kernel_s"],
    }
    print("host " + json.dumps(host, sort_keys=True))
    shown = dict(out["summary"], **out["layers"])
    units = dict(END_TO_END_UNITS, **PER_LAYER_UNITS)
    for name, value in shown.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"wall_raw_s {out['wall_raw_s']:.6g} s")
    print(f"ops {out['attempted']} count")
    print(f"ops_failed {out['failed']} count")

    chosen = out["layers"] if args.trace else out["summary"]
    metrics = {name: {"value": value, "unit": units[name]} for name, value in chosen.items()}
    print(json.dumps({"correct": out["failed"] == 0, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
