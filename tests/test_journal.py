import dataclasses
import json

import pytest

from starbook.journal import JournalRecord, append_record, load_records


def _record(budget, outcome):
    return JournalRecord(
        timestamp=JournalRecord.now_timestamp(),
        family="K",
        params={"n": 6},
        order_policy="identity",
        profile="strict",
        budget=budget,
        outcome=outcome,
        nodes=123,
        wall_time=0.5,
    )


def test_append_and_load(tmp_path):
    path = tmp_path / "journal.jsonl"
    append_record(path, _record(4, "unsat"))
    append_record(path, _record(5, "sat"))
    records = load_records(path)
    assert [r.budget for r in records] == [4, 5]
    assert records[1].outcome == "sat"
    assert load_records(tmp_path / "missing.jsonl") == []


def test_appended_line_is_the_asdict_form(tmp_path):
    """A record is written as `json.dumps(dataclasses.asdict(record),
    sort_keys=True)`, nested `params` and `extra` included."""
    record = dataclasses.replace(
        _record(6, "aborted"), params={"n": 6, "order": [3, 1, 2], "sub": {"b": [1, {"c": None}]}},
        extra={"reason": "time_limit", "stats": {"depth": [1, 2.5], "z": {"y": True}}},
        certificate_digest="ab" * 32, engine="fail-first/2")
    path = tmp_path / "journal.jsonl"
    append_record(path, record)
    assert path.read_text(encoding="utf-8") == (
        json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n")
    assert load_records(path) == [record]


def test_truncated_final_line_is_skipped(tmp_path):
    path = tmp_path / "journal.jsonl"
    append_record(path, _record(4, "unsat"))
    with open(path, "a") as fh:
        fh.write('{"timestamp": "2026-01-01T00:00:00+00:00", "family": "K", "par')
    records = load_records(path)
    assert len(records) == 1 and records[0].budget == 4
    # The next append drops the torn bytes, so its line is not joined to
    # them and lost, and the line after it does not leave a corrupt line
    # mid-file.
    append_record(path, _record(5, "sat"))
    append_record(path, _record(6, "sat"))
    assert [r.budget for r in load_records(path)] == [4, 5, 6]


def test_unknown_keys_are_ignored(tmp_path):
    path = tmp_path / "journal.jsonl"
    append_record(path, _record(4, "unsat"))
    doc = json.loads(path.read_text())
    doc["schema"] = 2
    doc["stats"] = {"nodes_per_depth": [1, 2]}
    with open(path, "a") as fh:
        fh.write(json.dumps(doc) + "\n")
    records = load_records(path)
    assert records[0] == records[1]


def test_rows_without_an_engine_version_load(tmp_path):
    # Rows written before records named their engine lack the field.
    path = tmp_path / "journal.jsonl"
    append_record(path, _record(4, "unsat"))
    doc = json.loads(path.read_text())
    del doc["engine"]
    path.write_text(json.dumps(doc) + "\n")
    append_record(path, dataclasses.replace(_record(5, "sat"), engine="fail-first/1"))
    assert [r.engine for r in load_records(path)] == [None, "fail-first/1"]


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "line 2 is not a JSON object"),
    ('{"timestamp": "2026-01-01T00:00:00+00:00"}',
     "line 2: .*missing 6 required .*'family', 'params', 'order_policy', 'profile', "
     "'budget', and 'outcome'"),
    ('{"timestamp": "t", "family": "K", "params": {"n": 6}, "order_policy": "identity", '
     '"profile": "strict", "budget": "x", "outcome": "sat"}',
     "line 2: field 'budget' has the wrong type \\(str\\)"),
    ('{"timestamp": "t", "family": "K", "params": [5], "order_policy": "identity", '
     '"profile": "strict", "budget": 4, "outcome": "sat"}',
     "line 2: field 'params' has the wrong type \\(list\\)"),
    ('{"timestamp": "t", "family": "K", "params": {"n": 6}, "order_policy": "identity", '
     '"profile": "strict", "budget": 4, "outcome": "sat", "engine": 2}',
     "line 2: field 'engine' has the wrong type \\(int\\)"),
])
def test_malformed_record_names_its_line(tmp_path, line, message):
    path = tmp_path / "journal.jsonl"
    append_record(path, _record(4, "unsat"))
    with open(path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValueError, match=message):
        load_records(path)
    # The same line is no torn write when records follow it.
    append_record(path, _record(5, "sat"))
    with pytest.raises(ValueError, match=message):
        load_records(path)


def test_mid_file_corruption_is_an_error(tmp_path):
    path = tmp_path / "journal.jsonl"
    append_record(path, _record(4, "unsat"))
    with open(path, "a") as fh:
        fh.write("garbage\n")
    append_record(path, _record(5, "sat"))
    with pytest.raises(ValueError):
        load_records(path)
