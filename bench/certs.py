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
K_n.  Each verify_layout run gets a layout parsed for it outside its
timed span, so every run builds the pages' edge sets, as the verify of a
fresh certificate does.  It also records the certificate's size in bytes
and its sha256, and stores all of it in --out under --label (see
record.py).  The bytes
must not depend on the source tree: a sha256 that differs from its pin
in PINNED_SHA256 makes the script exit 1 and store nothing.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

import record

R_VALUES = (8, 16, 32, 64, 128)
REPEATS = 9
# The sha256 of each relaxed_complete(r) certificate, r in R_VALUES.
PINNED_SHA256 = {
    "K16/relaxed": "d71ae0b0be7c36c9ae1aa3f5155356e6b92ab78774bab4da575e3c647ca65ee4",
    "K32/relaxed": "7d62602c09046b2dca2508496dcf2dd6772d911de5d60516ead28e722f787c1e",
    "K64/relaxed": "1f55b09be16896653583a15665126bacfbb0f8067a436967c72ebc572e9403c0",
    "K128/relaxed": "ac60481e9d9291e4bc0faa5424d56ba78c74894bfc8c09034a1b79da4cd83d1e",
    "K256/relaxed": "f9d2cb7e3ea747c06d88f4165fe792c270312825ec9364b7b35e0b06d15a148d",
}


def measure() -> dict:
    starbook = importlib.import_module("starbook")
    certs = importlib.import_module("starbook.certs")
    print(f"starbook from {Path(starbook.__file__).parent}", flush=True)
    results = {}
    for r in R_VALUES:
        meta = {"family": "K", "n": 2 * r, "r": r, "scheme": "relaxed"}
        layout, construct_s = record.timed(starbook.relaxed_complete, [(r,)] * REPEATS)
        text, serialize_s = record.timed(certs.serialize_layout, [(layout, meta)] * REPEATS)
        _, parse_s = record.timed(certs.parse_certificate, [(text,)] * REPEATS)
        report, verify_s = record.timed(
            starbook.verify_layout,
            ((certs.parse_certificate(text)[0], starbook.Profile.RELAXED) for _ in range(REPEATS)))
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
    return {"repeats": REPEATS, "results": results}


def check(run: dict) -> list[str]:
    return [f"{key} has sha256 {result['sha256']}, pinned {PINNED_SHA256[key]}"
            for key, result in run["results"].items() if result["sha256"] != PINNED_SHA256[key]]


def main(argv=None) -> int:
    return record.main(__doc__, record.ROOT / "results" / "BENCH_certs.json", measure, check, argv)


if __name__ == "__main__":
    sys.exit(main())
