#!/usr/bin/env python3
"""Time the certificate layers on the relaxed constructions of K_2r.

    python3 bench/certs.py --label direct-writer
    python3 bench/certs.py --label "json.dumps (dc5763e)" --src ../old/src

For relaxed_complete(r), r in R_VALUES, times each stage of
`starbook construct --scheme relaxed` followed by `starbook verify`:
construct, serialize_layout, parse_certificate and verify_layout under
the relaxed profile, importing starbook from --src (default: this
checkout's src).  Each stage runs as often as record.timed asks, and its
median seconds are stored as <stage>_s, beside their quartiles
<stage>_q1_s and <stage>_q3_s and the number of runs <stage>_runs;
complete_graph is cached, so only the first construct and parse build
K_n.  Each verify_layout run gets a layout parsed for it outside its
timed span, so every run builds the pages' edge sets, as the verify of a
fresh certificate does.  It also records the certificate's size in bytes
and its sha256, and stores all of it in --out under --label (see
record.py).  The bytes must not depend on the source tree: a sha256 that
differs from its pin in PINNED_SHA256 makes the script exit 1 and store
nothing.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

import record

R_VALUES = (8, 16, 32, 64, 128)
# The sha256 of each relaxed_complete(r) certificate, r in R_VALUES.
PINNED_SHA256 = {
    "K16/relaxed": "d71ae0b0be7c36c9ae1aa3f5155356e6b92ab78774bab4da575e3c647ca65ee4",
    "K32/relaxed": "7d62602c09046b2dca2508496dcf2dd6772d911de5d60516ead28e722f787c1e",
    "K64/relaxed": "1f55b09be16896653583a15665126bacfbb0f8067a436967c72ebc572e9403c0",
    "K128/relaxed": "ac60481e9d9291e4bc0faa5424d56ba78c74894bfc8c09034a1b79da4cd83d1e",
    "K256/relaxed": "f9d2cb7e3ea747c06d88f4165fe792c270312825ec9364b7b35e0b06d15a148d",
}


def _stage(result: dict, name: str, fn, make_args):
    """record.timed(fn, make_args), its seconds stored in result as
    <name>_s, <name>_q1_s, <name>_q3_s and <name>_runs: fn's last result."""
    out, runs, (q1, median, q3) = record.timed(fn, make_args)
    result.update({f"{name}_s": median, f"{name}_q1_s": q1, f"{name}_q3_s": q3,
                   f"{name}_runs": runs})
    return out


def measure() -> dict:
    starbook = importlib.import_module("starbook")
    certs = importlib.import_module("starbook.certs")
    print(f"starbook from {Path(starbook.__file__).parent}", flush=True)
    results = {}
    for r in R_VALUES:
        meta = {"family": "K", "n": 2 * r, "r": r, "scheme": "relaxed"}
        result = results[f"K{2 * r}/relaxed"] = {"r": r}
        layout = _stage(result, "construct", starbook.relaxed_complete, lambda: (r,))
        text = _stage(result, "serialize", certs.serialize_layout, lambda: (layout, meta))
        _stage(result, "parse", certs.parse_certificate, lambda: (text,))
        report = _stage(result, "verify", starbook.verify_layout,
                        lambda: (certs.parse_certificate(text)[0], starbook.Profile.RELAXED))
        if not report.passed:
            raise SystemExit(f"relaxed_complete({r}) failed verification")
        data = text.encode()
        result.update(edges=layout.graph.m, bytes=len(data),
                      sha256=hashlib.sha256(data).hexdigest())
        print(f"r = {r}: {len(data):,} bytes, " + ", ".join(
            f"{name} {result[name + '_s']:.4f} s ({result[name + '_runs']} runs)"
            for name in ("construct", "serialize", "parse", "verify")), flush=True)
    return {"min_runs": record.MIN_RUNS, "min_seconds": record.MIN_SECONDS, "results": results}


def check(run: dict) -> list[str]:
    return [f"{key} has sha256 {result['sha256']}, pinned {PINNED_SHA256[key]}"
            for key, result in run["results"].items() if result["sha256"] != PINNED_SHA256[key]]


def main(argv=None) -> int:
    return record.main(__doc__, record.ROOT / "results" / "BENCH_certs.json", measure, check, argv)


if __name__ == "__main__":
    sys.exit(main())
