"""The bench scripts store a run only when it agrees with what they pin:
bench/proofs.py refuses a SAT verdict (GD 2023 refutes every budget it
runs) and, for the engine version it pins, a changed node count;
bench/engine.py a verdict against the theorems and, for its pinned
engine version, a changed node count or witness digest; and
bench/certs.py a certificate digest that differs from its pin.
Each script's `measure` is replaced, so no search or timing runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _script(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # for `import record`; undone with sys.path
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _proof_results(status):
    return {"K8/strict/b6": {"status": "unsat", "reason": None, "nodes": 1890, "seconds": 0.01},
            "K10/strict/b8": {"status": status, "reason": None, "nodes": 7, "seconds": 0.01}}


def _cert_results(certs, sha256):
    results = {key: {"sha256": pin} for key, pin in certs.PINNED_SHA256.items()}
    results["K256/relaxed"]["sha256"] = sha256
    return results


def _run(monkeypatch, script, results, out, engine=None):
    monkeypatch.setattr(script, "measure", lambda: {"engine": engine, "results": results})
    return script.main(["--label", "new", "--out", str(out)])


@pytest.mark.parametrize("status, code", [("unsat", 0), ("aborted", 0), ("sat", 1)])
def test_proofs_refuses_a_sat_verdict(monkeypatch, tmp_path, capsys, status, code):
    proofs = _script(monkeypatch, "proofs")
    out = tmp_path / "BENCH_proofs.json"
    out.write_text('{"runs": {"old": {}}}\n')
    assert _run(monkeypatch, proofs, _proof_results(status), out) == code
    if code:
        assert "K10/strict/b8 is SAT" in capsys.readouterr().err
        assert out.read_text() == '{"runs": {"old": {}}}\n'
    else:
        runs = json.loads(out.read_text())["runs"]
        assert sorted(runs) == ["new", "old"] and runs["new"]["results"] == _proof_results(status)
        assert runs["new"]["host"]["cpu_count"] >= 1


def test_proofs_pins_the_node_counts_of_its_engine(monkeypatch, tmp_path, capsys):
    """A run of the pinned engine version must take the pinned node counts;
    a run of another version, as an older tree under --src, is stored
    unchecked."""
    proofs = _script(monkeypatch, "proofs")
    out = tmp_path / "BENCH_proofs.json"
    results = {key: {"status": "unsat", "reason": None, "nodes": nodes, "seconds": 0.01}
               for key, nodes in proofs.PINNED_NODES.items()}
    assert _run(monkeypatch, proofs, results, out, proofs.PINNED_ENGINE) == 0
    results["K10/strict/b8"]["nodes"] += 1
    assert _run(monkeypatch, proofs, results, out, "static-order") == 0
    stored = out.read_text()
    assert _run(monkeypatch, proofs, results, out, proofs.PINNED_ENGINE) == 1
    assert (f"K10/strict/b8 took 230,823 nodes, but {proofs.PINNED_ENGINE} takes 230,822"
            in capsys.readouterr().err)
    assert out.read_text() == stored


def test_engine_pins_verdicts_nodes_and_digest(monkeypatch, tmp_path, capsys):
    """A run of the pinned engine version must match every pin; a run of
    another version is refused only for a verdict against the theorems."""
    engine = _script(monkeypatch, "engine")
    out = tmp_path / "BENCH_engine.json"
    results = {key: {"status": status, "nodes": nodes, "digest": digest}
               for key, (status, nodes, digest) in engine.PINNED.items()}
    assert _run(monkeypatch, engine, results, out, engine.PINNED_ENGINE) == 0
    results["K10/relaxed/b6"]["digest"] = "0" * 64
    assert _run(monkeypatch, engine, results, out, "three-frame") == 0
    stored = out.read_text()
    assert _run(monkeypatch, engine, results, out, engine.PINNED_ENGINE) == 1
    assert "K10/relaxed/b6 gave ('sat', 16776, '0000" in capsys.readouterr().err
    results["K10/relaxed/b6"].update(status="unsat", digest=None)
    assert _run(monkeypatch, engine, results, out, "three-frame") == 1
    assert "K10/relaxed/b6 is unsat, but the theorem makes it sat" in capsys.readouterr().err
    assert out.read_text() == stored


def test_certs_refuses_a_changed_digest(monkeypatch, tmp_path, capsys):
    certs = _script(monkeypatch, "certs")
    out = tmp_path / "BENCH_certs.json"
    assert _run(monkeypatch, certs, _cert_results(certs, "0" * 64), out) == 1
    assert "K256/relaxed has sha256 " + "0" * 64 in capsys.readouterr().err
    assert not out.exists()
    pinned = certs.PINNED_SHA256["K256/relaxed"]
    assert pinned.startswith("f9d2cb7e")  # the r = 128 digest that CI also pins
    assert _run(monkeypatch, certs, _cert_results(certs, pinned), out) == 0
    assert json.loads(out.read_text())["runs"]["new"]["results"] == _cert_results(certs, pinned)


def test_committed_bench_runs_pass_their_checks(monkeypatch):
    for name in ("proofs", "engine", "certs"):
        script = _script(monkeypatch, name)
        doc = json.loads((ROOT / "results" / f"BENCH_{name}.json").read_text())
        for label, run in doc["runs"].items():
            assert script.check(run) == [], (name, label)
