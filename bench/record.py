"""The command line the bench scripts share: measure, check, then store;
and bench/certs.py's timing loop, `timed`.

Each script passes its docstring, its default output file, its `measure`
(which imports starbook from --src and returns a run with a "results"
dict) and its `check` (which lists what is wrong with that run).
A run with any error is printed and not stored: the script exits 1 and
leaves --out as it was.  Otherwise the run, with the host's core count
and Python version, is stored in --out under --label; entries under
other labels are kept, so two source trees measured one after the other
on one host sit side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(fn, calls):
    """fn(*args) for each args in calls, timing only the call: its last
    result and the median seconds.  calls may be a generator, so that each
    run's arguments are made fresh, outside the timed span."""
    seconds = []
    for args in calls:
        start = time.perf_counter()
        result = fn(*args)
        seconds.append(time.perf_counter() - start)
    return result, round(statistics.median(seconds), 6)


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
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("runs", {})[args.label] = run
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} [{args.label}]")
    return 0
