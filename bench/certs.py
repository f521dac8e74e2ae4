#!/usr/bin/env python3
"""Time the certificate layers on the relaxed constructions of K_2r.

    python3 bench/certs.py --label direct-writer
    python3 bench/certs.py --label "json.dumps (dc5763e)" --src ../old/src

For relaxed_complete(r), r in R_VALUES, times each stage of
`starbook construct --scheme relaxed` followed by `starbook verify`:
construct, serialize_layout, parse_certificate and verify_layout under
the relaxed profile, importing starbook from --src (default: this
checkout's src).  Each stage's seconds are the median of REPEATS runs;
complete_graph is cached, so only the first construct and parse build
K_n.  It also records the certificate's size in bytes and its sha256,
which must agree between source trees, and stores all of it in --out
under --label with the host's core count and Python version.  Entries
under other labels are kept, so two source trees measured one after the
other on one host sit side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
R_VALUES = (8, 16, 32, 64, 128)
REPEATS = 9


def _timed(fn, *args):
    """fn(*args) run REPEATS times: its last result and the median seconds."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - start)
    return result, round(statistics.median(seconds), 6)


def measure() -> dict:
    starbook = importlib.import_module("starbook")
    certs = importlib.import_module("starbook.certs")
    print(f"starbook from {Path(starbook.__file__).parent}", flush=True)
    results = {}
    for r in R_VALUES:
        meta = {"family": "K", "n": 2 * r, "r": r, "scheme": "relaxed"}
        layout, construct_s = _timed(starbook.relaxed_complete, r)
        text, serialize_s = _timed(certs.serialize_layout, layout, meta)
        (parsed, _meta), parse_s = _timed(certs.parse_certificate, text)
        report, verify_s = _timed(starbook.verify_layout, parsed, starbook.Profile.RELAXED)
        if not report.passed:
            raise SystemExit(f"relaxed_complete({r}) failed verification")
        data = text.encode()
        results[f"K{2 * r}/relaxed"] = {
            "r": r, "edges": layout.graph.m, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "construct_s": construct_s, "serialize_s": serialize_s,
            "parse_s": parse_s, "verify_s": verify_s}
        print(f"r = {r}: {len(data):,} bytes, construct {construct_s:.4f} s, "
              f"serialize {serialize_s:.4f} s, parse {parse_s:.4f} s, verify {verify_s:.4f} s",
              flush=True)
    return {
        "repeats": REPEATS,
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the key this run is stored under")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding starbook")
    parser.add_argument("--out", default=str(ROOT / "results" / "BENCH_certs.json"))
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
