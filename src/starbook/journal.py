"""Append-only JSONL journal of solver runs.

One record per completed solver call, flushed line by line so that a
crash can lose at most the line being written; a truncated final line
is detected and skipped on reload.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

DEFAULT_JOURNAL = "starbook-journal.jsonl"


@dataclass(frozen=True)
class JournalRecord:
    timestamp: str
    family: str
    params: dict
    order_policy: str  # "identity" | "optimize" | "given" | "none"
    profile: str
    budget: int
    outcome: str  # "sat" | "unsat" | "aborted"
    k_star: int | None = None
    nodes: int = 0
    wall_time: float | int = 0.0  # a JSON row may carry an int
    certificate_digest: str | None = None
    extra: dict = field(default_factory=dict)
    engine: str | None = None  # search.ENGINE_VERSION of the run; None on older rows

    @staticmethod
    def now_timestamp() -> str:
        return datetime.now(timezone.utc).isoformat(timespec="seconds")


# The type of each record field, checked on load.
_FIELD_TYPES = typing.get_type_hints(JournalRecord)


def append_record(path, record: JournalRecord) -> None:
    # The fields are JSON values already; dataclasses.asdict would deep-copy them.
    line = json.dumps(vars(record), sort_keys=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_records(path) -> list[JournalRecord]:
    """Read all records; a truncated final line is skipped, unknown keys
    are ignored, and any other malformed line (not an object, a missing
    field, a field of the wrong type) is a ValueError."""
    p = Path(path)
    if not p.exists():
        return []
    lines = p.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records = []
    for i, line in enumerate(lines):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                continue  # torn final write
            raise ValueError(f"{path}: corrupt journal line {i + 1}")
        except (RecursionError, ValueError) as exc:  # nested too deeply, an integer too long
            raise ValueError(f"{path}: unreadable journal line {i + 1}: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: journal line {i + 1} is not a JSON object")
        known = {k: v for k, v in doc.items() if k in _FIELD_TYPES}
        for k, v in known.items():
            if isinstance(v, bool) or not isinstance(v, _FIELD_TYPES[k]):
                raise ValueError(f"{path}: journal line {i + 1}: field {k!r} has "
                                 f"the wrong type ({type(v).__name__})")
        try:
            records.append(JournalRecord(**known))
        except TypeError as exc:  # a required field is missing
            raise ValueError(f"{path}: journal line {i + 1}: {exc}") from None
    return records
