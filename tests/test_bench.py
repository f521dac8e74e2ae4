"""The bench scripts store a run only when it agrees with what they pin:
bench/search.py refuses a verdict other than its instance's journal row
and, on the row's engine version, a node count or witness digest other
than the row's; and bench/certs.py a certificate digest that differs
from its pin, which is the digest this tree's construction gives.  A
stored run names the source tree it measured by its sha256.
Each script's `measure` is replaced, so no search or timing runs here."""

import hashlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

from starbook.certs import certificate_digest
from starbook.construct import construct
from starbook.search import ENGINE_VERSION

ROOT = Path(__file__).resolve().parent.parent


def _script(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # for `import record`; undone with sys.path
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _search_results(search):
    """A run's results that agree with every instance's journal row."""
    return {name: {"status": row["outcome"], "reason": None, "nodes": row["nodes"],
                   "certificate_digest": row["certificate_digest"]}
            for name, row in search.journal_rows().items()}


def _cert_results(certs, sha256):
    results = {key: {"sha256": pin} for key, pin in certs.PINNED_SHA256.items()}
    results["K256/relaxed"]["sha256"] = sha256
    return results


def _run(monkeypatch, script, results, out, engine=None):
    monkeypatch.setattr(script, "measure", lambda: {"engine": engine, "results": results})
    return script.main(["--label", "new", "--out", str(out)])


@pytest.mark.parametrize("status, code", [("unsat", 0), ("aborted", 0), ("sat", 1)])
def test_search_refuses_a_verdict_against_its_theorem(monkeypatch, tmp_path, capsys,
                                                      status, code):
    """A verdict other than the journal row's is refused on any engine
    version, while an abort is stored."""
    search = _script(monkeypatch, "search")
    out = tmp_path / "BENCH_search.json"
    out.write_text('{"runs": {"old": {}}}\n')
    results = _search_results(search)
    results["K10/strict/b8"].update(status=status, nodes=7)
    assert _run(monkeypatch, search, results, out) == code
    if code:
        assert "K10/strict/b8 is sat, but its journal row is unsat" in capsys.readouterr().err
        assert out.read_text() == '{"runs": {"old": {}}}\n'
    else:
        runs = json.loads(out.read_text())["runs"]
        assert sorted(runs) == ["new", "old"] and runs["new"]["results"] == results
        assert runs["new"]["host"]["cpu_count"] >= 1


def test_proofs_pins_the_node_counts_of_its_engine(monkeypatch, tmp_path, capsys):
    """A run of the engine version that wrote an UNSAT proof's journal row
    must take the row's node count; a run of another version, as an older
    tree under --src, is stored with only its verdicts checked."""
    search = _script(monkeypatch, "search")
    out = tmp_path / "BENCH_search.json"
    row = search.journal_rows()["K10/strict/b8"]
    results = _search_results(search)
    assert _run(monkeypatch, search, results, out, row["engine"]) == 0
    results["K10/strict/b8"]["nodes"] += 1
    assert _run(monkeypatch, search, results, out, "static-order") == 0
    stored = out.read_text()
    assert _run(monkeypatch, search, results, out, row["engine"]) == 1
    assert (f"K10/strict/b8 gave ('unsat', {row['nodes'] + 1}, None), but its {row['engine']} "
            f"journal row has ('unsat', {row['nodes']}, None)" in capsys.readouterr().err)
    assert out.read_text() == stored


def test_search_pins_the_current_engine(monkeypatch):
    """Every instance names one committed journal row, written by the
    current engine version, so bench/search.py checks the node counts and
    digests of a run of this tree."""
    for name, row in _script(monkeypatch, "search").journal_rows().items():
        assert row["engine"] == ENGINE_VERSION, name


def test_journal_rows_have_distinct_keys(monkeypatch):
    """No two committed journal rows record one search: (family, params,
    profile, budget, order_policy) names at most one row."""
    search = _script(monkeypatch, "search")
    keys = [search.journal_key(json.loads(line))
            for line in (ROOT / "results" / "journal.jsonl").read_text().splitlines()]
    assert len(set(keys)) == len(keys)


def test_engine_pins_verdicts_nodes_and_digest(monkeypatch, tmp_path, capsys):
    """A run of the row's engine version must match the row's verdict,
    node count and witness digest; a run of another version is refused
    only for a verdict against the row."""
    search = _script(monkeypatch, "search")
    out = tmp_path / "BENCH_search.json"
    row = search.journal_rows()["K10/relaxed/b6"]
    results = _search_results(search)
    assert _run(monkeypatch, search, results, out, row["engine"]) == 0
    results["K10/relaxed/b6"]["certificate_digest"] = "0" * 64
    assert _run(monkeypatch, search, results, out, "three-frame") == 0
    stored = out.read_text()
    assert _run(monkeypatch, search, results, out, row["engine"]) == 1
    assert (f"K10/relaxed/b6 gave ('sat', {row['nodes']}, '0000"
            in capsys.readouterr().err)
    results["K10/relaxed/b6"].update(status="unsat", certificate_digest=None)
    assert _run(monkeypatch, search, results, out, "three-frame") == 1
    assert "K10/relaxed/b6 is unsat, but its journal row is sat" in capsys.readouterr().err
    assert out.read_text() == stored


def test_certs_refuses_a_changed_digest(monkeypatch, tmp_path, capsys):
    certs = _script(monkeypatch, "certs")
    out = tmp_path / "BENCH_certs.json"
    assert _run(monkeypatch, certs, _cert_results(certs, "0" * 64), out) == 1
    assert "K256/relaxed has sha256 " + "0" * 64 in capsys.readouterr().err
    assert not out.exists()
    pinned = certs.PINNED_SHA256["K256/relaxed"]
    assert _run(monkeypatch, certs, _cert_results(certs, pinned), out) == 0
    assert json.loads(out.read_text())["runs"]["new"]["results"] == _cert_results(certs, pinned)


def test_certs_pins_the_certificates_of_this_tree(monkeypatch):
    # The bytes `starbook construct --scheme relaxed --r r` writes.
    certs = _script(monkeypatch, "certs")
    assert certs.PINNED_SHA256 == {
        f"K{2 * r}/relaxed": certificate_digest(*construct("relaxed", r=r))
        for r in certs.R_VALUES}


def test_committed_bench_runs_pass_their_checks(monkeypatch):
    for name in ("search", "certs"):
        script = _script(monkeypatch, name)
        doc = json.loads((ROOT / "results" / f"BENCH_{name}.json").read_text())
        for label, run in doc["runs"].items():
            assert script.check(run) == [], (name, label)


def test_stored_run_names_its_source_tree(monkeypatch, tmp_path):
    """src_sha256 is the sha256 over <--src>/starbook/*.py in sorted order,
    each file as its name, a NUL byte and its bytes, as perfbench/run.py
    digests a tree; other files are left out."""
    certs = _script(monkeypatch, "certs")
    src = tmp_path / "src"
    (src / "starbook").mkdir(parents=True)
    for name, text in (("search.py", "b = 2\n"), ("__init__.py", "a = 1\n"), ("notes.txt", "x")):
        (src / "starbook" / name).write_text(text)
    want = hashlib.sha256(b"__init__.py\0a = 1\nsearch.py\0b = 2\n").hexdigest()
    out = tmp_path / "BENCH_certs.json"
    pinned = certs.PINNED_SHA256["K256/relaxed"]
    monkeypatch.setattr(certs, "measure", lambda: {"results": _cert_results(certs, pinned)})
    assert certs.main(["--label", "new", "--out", str(out), "--src", str(src)]) == 0
    assert json.loads(out.read_text())["runs"]["new"]["src_sha256"] == want
    assert certs.record.source_digest(ROOT / "src") != want


def test_timed_makes_fresh_arguments_for_each_run(monkeypatch):
    """timed runs a call at least MIN_RUNS times and until the runs total
    MIN_SECONDS, with arguments made for each run, and returns the last
    result, the number of runs and the quartiles of the seconds."""
    record = _script(monkeypatch, "record")
    made = []
    monkeypatch.setattr(record, "MIN_SECONDS", 0.0)
    result, runs, (q1, median, q3) = record.timed(lambda x: 2 * x,
                                                  lambda: (made.append(1) or len(made),))
    assert (result, runs, len(made)) == (2 * record.MIN_RUNS, record.MIN_RUNS, record.MIN_RUNS)
    assert 0 <= q1 <= median <= q3
    monkeypatch.setattr(record, "MIN_SECONDS", 0.02)
    _, runs, _ = record.timed(time.sleep, lambda: (0.002,))
    assert record.MIN_RUNS < runs <= 10
