"""What the bench scripts share: the timing loop, `timed`, and the
command line: measure, check, then store.

Each script passes its docstring, its default output file, its `measure`
(which imports starbook from --src and returns a run with a "results"
dict) and its `check` (which lists what is wrong with that run).
A run with any error is printed and not stored: the script exits 1 and
leaves --out as it was.  Otherwise the run, with the host's core count
and Python version and the sha256 of the measured source (see
`source_digest`), is stored in --out under --label; entries under other
labels are kept, so two source trees measured one after the other on one
host sit side by side, each naming the tree it timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 3
MIN_SECONDS = 1.0  # of the timed runs of one call, summed


def timed(fn, make_args):
    """fn(*make_args()) at least MIN_RUNS times and until the runs total
    MIN_SECONDS, timing only the call, so that each run's arguments are
    made fresh outside the timed span: the last result, the number of runs
    and the first quartile, median and third quartile of the seconds.  A
    call of a few hundredths of a second so gets dozens of runs, not three."""
    seconds, total = [], 0.0
    while len(seconds) < MIN_RUNS or total < MIN_SECONDS:
        args = make_args()
        start = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - start)
        total += seconds[-1]
    quartiles = statistics.quantiles(seconds, n=4, method="inclusive")
    return result, len(seconds), tuple(round(q, 6) for q in quartiles)


def source_digest(src: Path) -> str:
    """The sha256 over src/starbook/*.py in sorted order, each file as its
    name, a NUL byte and its bytes: perfbench/run.py's digest of a tree."""
    h = hashlib.sha256()
    for path in sorted((src / "starbook").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(docstring: str, out: Path, measure, check, argv=None) -> int:
    parser = argparse.ArgumentParser(description=docstring.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the key this run is stored under")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding starbook")
    parser.add_argument("--out", default=str(out))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    run = measure()
    errors = check(run)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        print(f"{args.out} not written", file=sys.stderr)
        return 1
    run["host"] = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                   "machine": platform.machine()}
    run["src_sha256"] = source_digest(Path(args.src))
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} [{args.label}]")
    return 0
