import json
import random
import re
import time
from pathlib import Path

import pytest

from starbook import (
    BookLayout,
    Page,
    Profile,
    octahedron_pages,
    relaxed_complete,
    star_pages,
    strict_literal,
    verify_layout,
)
from starbook.certs import load_certificate, parse_edge_list, save_certificate, serialize_layout
from starbook.cli import main
from starbook.construct import FAMILIES, family_graph
from starbook.journal import JournalRecord, append_record, load_records
from starbook.search import ENGINE_VERSION


def test_construct_then_verify_pipeline(tmp_path):
    cert = tmp_path / "k6.json"
    assert main(["construct", "--n", "6", "--scheme", "relaxed",
                 "--out", str(cert)]) == 0
    assert main(["verify", str(cert), "--profile", "relaxed"]) == 0


def test_strict_literal_pipeline_fails_verification(tmp_path, capsys):
    cert = tmp_path / "bad.json"
    assert main(["construct", "--n", "6", "--scheme", "strict-literal",
                 "--out", str(cert)]) == 0
    code = main(["verify", str(cert), "--profile", "strict"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("duplicate_edge") == 2
    assert out.count("missing_edge") == 2


def test_verify_json_output(tmp_path, capsys):
    cert = tmp_path / "k6.json"
    main(["construct", "--n", "6", "--scheme", "relaxed", "--out", str(cert)])
    capsys.readouterr()
    assert main(["verify", str(cert), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_search_exit_codes_and_journal(tmp_path):
    journal = tmp_path / "j.jsonl"
    assert main(["search", "--family", "K", "--n", "6", "--budget", "4",
                 "--profile", "saonly", "--journal", str(journal)]) == 0
    assert main(["search", "--family", "K", "--n", "6", "--budget", "3",
                 "--profile", "saonly", "--journal", str(journal)]) == 1
    assert main(["search", "--family", "K", "--n", "7", "--budget", "5",
                 "--profile", "strict", "--journal", str(journal),
                 "--node-limit", "40"]) == 3
    records = load_records(journal)
    assert [r.outcome for r in records] == ["sat", "unsat", "aborted"]
    assert records[2].extra.get("reason") == "node_limit"
    assert {r.engine for r in records} == {ENGINE_VERSION}


def test_search_writes_certificate_and_svg(tmp_path):
    journal = tmp_path / "j.jsonl"
    cert = tmp_path / "w.json"
    svg = tmp_path / "w.svg"
    assert main(["search", "--family", "K", "--n", "6", "--budget", "5",
                 "--profile", "strict", "--journal", str(journal),
                 "--out", str(cert)]) == 0
    assert main(["verify", str(cert), "--profile", "strict"]) == 0
    assert main(["render", str(cert), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<?xml")
    rec = load_records(journal)[0]
    assert rec.certificate_digest is not None


def test_search_families(tmp_path):
    journal = tmp_path / "j.jsonl"
    assert main(["search", "--family", "O", "--r", "3", "--budget", "3",
                 "--profile", "strict", "--journal", str(journal)]) == 0
    assert main(["search", "--family", "Cpow", "--n", "6", "--k", "2", "--budget", "3",
                 "--profile", "strict", "--journal", str(journal)]) == 0
    assert main(["search", "--family", "K-e", "--n", "6", "--budget", "4",
                 "--profile", "strict", "--optimize-order",
                 "--journal", str(journal)]) == 0
    fams = [r.family for r in load_records(journal)]
    assert fams == ["O", "Cpow", "K-e"]


def test_relaxed_search_has_its_crosscap_page(tmp_path):
    # Relaxed K_6 fits 4 pages only with the cross-cap page; a disk-only
    # search would journal UNSAT here.
    journal = tmp_path / "j.jsonl"
    assert main(["search", "--n", "6", "--budget", "4", "--profile", "relaxed",
                 "--journal", str(journal)]) == 0
    rec = load_records(journal)[0]
    assert (rec.family, rec.outcome, rec.nodes) == ("K", "sat", 647)


def test_search_graph_file_input(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("4\n1 2\n2 3\n3 4\n1 4\n")
    journal = tmp_path / "j.jsonl"
    assert main(["search", "--graph", str(graph), "--budget", "2",
                 "--profile", "strict", "--journal", str(journal)]) == 0
    # The summary line names the graph by n and m; the journal keeps its edges.
    assert capsys.readouterr().out.startswith(
        "SAT family=G n=4 m=4 profile=strict budget=2 order=identity nodes=")
    rec = load_records(journal)[0]
    assert (rec.family, rec.params) == ("G", {"n": 4, "edges": [[1, 2], [1, 4], [2, 3], [3, 4]]})


# One small SAT search of each family, strict; family G is what --graph searches.
_FAMILY_SEARCHES = {
    "K": ["--n", "6", "--budget", "5"],
    "O": ["--family", "O", "--r", "3", "--budget", "3"],
    "Cpow": ["--family", "Cpow", "--n", "6", "--k", "2", "--budget", "3"],
    "K-e": ["--family", "K-e", "--n", "6", "--budget", "5"],
    "G": ["--graph", "g.txt", "--budget", "2"],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_round_trips_through_a_certificate(tmp_path, monkeypatch, family):
    # Each search certificate verifies and renders on its own, and the
    # journal row's family and params rebuild the graph the search covered.
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text("5\n1 2\n2 3\n3 4\n4 5\n1 5\n2 4\n")
    assert main(["search", *_FAMILY_SEARCHES[family], "--out", "c.json",
                 "--journal", "j.jsonl"]) == 0
    assert main(["verify", "c.json"]) == 0
    assert main(["render", "c.json", "--out", "c.svg"]) == 0
    rec = load_records("j.jsonl")[0]
    graph, params = family_graph({"family": rec.family, **rec.params})
    layout, meta = load_certificate("c.json")
    assert (rec.family, params) == (family, rec.params)
    assert meta == {"family": family, **params, "scheme": "search", "profile": "strict",
                    "budget": rec.budget}
    assert set().union(*(p.edges for p in layout.pages)) == graph.edges
    if family == "G":
        assert graph == parse_edge_list(Path("g.txt").read_text())


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["construct", "--scheme", "relaxed"]) == 2          # missing size
    assert main(["construct", "--n", "7", "--scheme", "relaxed"]) == 2  # odd n
    # --n and --r must agree (n = 2r, or 2r+1 for odd), stars takes --n alone,
    # and each scheme has a least size.
    for argv in (["--n", "10", "--r", "3", "--scheme", "relaxed"],
                 ["--n", "7", "--r", "5", "--scheme", "odd"],
                 ["--n", "5", "--r", "9", "--scheme", "stars"],
                 ["--r", "1", "--scheme", "relaxed"],
                 ["--r", "1", "--scheme", "octahedron"],
                 ["--n", "0", "--scheme", "stars"]):
        capsys.readouterr()
        assert main(["construct", *argv]) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    assert main(["construct", "--n", "6", "--scheme", "relaxed"]) == 0
    alone = capsys.readouterr().out
    assert main(["construct", "--n", "6", "--r", "3", "--scheme", "relaxed"]) == 0
    assert capsys.readouterr().out == alone
    assert main(["search", "--family", "K", "--budget", "3"]) == 2  # missing n
    assert main(["bogus"]) == 2
    assert main(["search", "--family", "K", "--n", "4"]) == 2       # missing budget
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["verify", str(bad)]) == 2
    bad.write_text(json.dumps({"format": "starbook-cert/1", "n": 10**9, "order": [],
                               "pages": []}))
    assert main(["verify", str(bad)]) == 2  # rejected before K_n is built
    # JSON nested too deeply to decode, or an integer too long to convert.
    for text in ("[" * 100_000 + "]" * 100_000, '{"n": ' + "9" * 5001 + "}"):
        bad.write_text(text)
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: unreadable JSON: ")
    overfull = json.loads(serialize_layout(star_pages(4), {"family": "K", "n": 4}))
    overfull["pages"].append({"kind": "disk", "edges": [[1, 2]]})
    bad.write_text(json.dumps(overfull))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    assert "pages list 7 edges, more than the 6 of a graph on 4 vertices" in \
        capsys.readouterr().err
    # A table row below K_1 would print negative bounds.
    for spec in ("0..3", "-2..1", "0"):
        capsys.readouterr()
        assert main(["table", f"--n={spec}"]) == 2, spec
        assert "K_n needs n >= 1" in capsys.readouterr().err, spec
    capsys.readouterr()
    assert main(["table", "--n", "5..3"]) == 2
    assert "empty range '5..3'" in capsys.readouterr().err
    # A malformed range is named, not reported in int()'s words.
    for spec in ("5..", "..5", "3..2..5", "4..5x"):
        capsys.readouterr()
        assert main(["table", f"--n={spec}"]) == 2, spec
        assert capsys.readouterr().err == f"error: bad range {spec!r}: expected N or LO..HI\n"
    # A negative or NaN search limit; none is journalled.
    for limit in (["--time-limit", "-1"], ["--time-limit", "nan"], ["--node-limit", "-5"]):
        capsys.readouterr()
        assert main(["search", "--n", "8", "--budget", "7", *limit,
                     "--journal", str(tmp_path / "limits.jsonl")]) == 2, limit
        assert "limit must be at least 0" in capsys.readouterr().err, limit
    # saonly ignores the spine, so it has no order to optimize; not journalled either.
    capsys.readouterr()
    assert main(["search", "--n", "5", "--budget", "4", "--profile", "saonly",
                 "--optimize-order", "--journal", str(tmp_path / "limits.jsonl")]) == 2
    assert "order optimization is pointless without geometry" in capsys.readouterr().err
    assert not (tmp_path / "limits.jsonl").exists()
    huge = tmp_path / "huge.txt"
    huge.write_text("1025\n1 2\n")
    assert main(["search", "--graph", str(huge), "--budget", "3"]) == 2
    # Family parameters must be JSON integers, O needs n = 2r, and G's edges
    # are pairs of vertices in 1..n.
    for meta in ({"family": "O", "r": [3]}, {"family": "O", "r": True},
                 {"family": "Cpow", "k": "2"}, {"family": "K-e", "e": [[1], 2]},
                 {"family": "G"}, {"family": "G", "edges": "12"},
                 {"family": "G", "edges": [[1, 7]]}, {"family": "G", "edges": [[2, 2]]}):
        bad.write_text(serialize_layout(relaxed_complete(3), meta))
        assert main(["verify", str(bad)]) == 2, meta
    assert main(["search", "--family", "O", "--n", "7", "--budget", "3",
                 "--journal", str(tmp_path / "j.jsonl")]) == 2
    # A family flag the chosen family does not take, or any with --graph.
    graph = tmp_path / "g.txt"
    graph.write_text("4\n1 2\n2 3\n")
    for argv in (["--family", "Cpow", "--n", "6", "--k", "2", "--r", "9"],
                 ["--n", "6", "--r", "3"],
                 ["--family", "K-e", "--n", "6", "--r", "3"],
                 ["--family", "O", "--r", "3", "--k", "2"],
                 ["--family", "K", "--n", "6", "--k", "2"],
                 ["--family", "G", "--n", "4"],  # G's edges come from --graph alone
                 ["--graph", str(graph), "--family", "K"],
                 ["--graph", str(graph), "--n", "4"],
                 ["--graph", str(graph), "--r", "2"],
                 ["--graph", str(graph), "--k", "2"]):
        assert main(["search", *argv, "--budget", "3",
                     "--journal", str(tmp_path / "j.jsonl")]) == 2, argv
    assert not (tmp_path / "j.jsonl").exists()


def test_removed_options_are_usage_errors():
    # None of these options was ever read: `--deterministic` changed nothing,
    # `construct --family O --scheme relaxed` silently built a K layout,
    # `table --family` rejected every value but its default K, and the
    # relaxed profile always has its cross-cap page, so `--crosscap` is gone.
    # `starbook render` is the one drawing command, so `construct --svg`,
    # `construct --force` and `search --svg` are gone too.  The `strict`
    # scheme is gone: K_2r needs 2r-1 strict pages (GD 2023), which the
    # `stars` scheme builds.
    assert main(["search", "--family", "K", "--n", "4", "--budget", "3",
                 "--deterministic"]) == 2
    assert main(["search", "--n", "4", "--budget", "3", "--svg", "k4.svg"]) == 2
    assert main(["construct", "--n", "6", "--scheme", "relaxed", "--svg", "k6.svg"]) == 2
    assert main(["construct", "--n", "6", "--scheme", "relaxed", "--force"]) == 2
    assert main(["search", "--family", "K", "--n", "6", "--budget", "4",
                 "--profile", "relaxed", "--crosscap"]) == 2
    assert main(["construct", "--family", "K", "--n", "6", "--scheme", "relaxed"]) == 2
    assert main(["table", "--family", "K", "--n", "4"]) == 2
    assert main(["construct", "--r", "3", "--scheme", "strict"]) == 2


def test_render_command(tmp_path, capsys):
    cert = tmp_path / "k6.json"
    out = tmp_path / "k6.svg"
    main(["construct", "--n", "6", "--scheme", "relaxed", "--out", str(cert)])
    assert main(["render", str(cert), "--out", str(out)]) == 0
    assert out.exists()

    bad = tmp_path / "bad.json"
    main(["construct", "--n", "6", "--scheme", "strict-literal", "--out", str(bad)])
    assert main(["verify", str(bad)]) == 1
    out.unlink()
    capsys.readouterr()
    assert main(["render", str(bad), "--out", str(out)]) == 1
    assert "FAIL profile=strict violations=4; pass --force" in capsys.readouterr().err
    assert not out.exists()
    assert main(["render", str(bad), "--out", str(out), "--force"]) == 0
    assert out.read_text().startswith("<?xml")


def test_verify_and_render_read_the_certificate_profile(tmp_path, capsys):
    # The saonly witness of K_7 in 5 pages has crossing chords on a page,
    # so it passes only under the profile its meta names, which default
    # verify and render both read.
    cert = tmp_path / "sa.json"
    svg = tmp_path / "sa.svg"
    assert main(["search", "--n", "7", "--budget", "5", "--profile", "saonly",
                 "--out", str(cert), "--journal", str(tmp_path / "j.jsonl")]) == 0
    assert main(["verify", str(cert), "--profile", "strict"]) == 1
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 0
    assert "PASS profile=saonly" in capsys.readouterr().out
    assert main(["render", str(cert), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<?xml")
    doc = json.loads(cert.read_text())
    for named in ("bogus", ["x"], {"p": 1}, None):
        doc["meta"]["profile"] = named
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert)]) == 2, named
        assert main(["render", str(cert), "--out", str(svg)]) == 2, named
        assert "meta profile" in capsys.readouterr().err, named


def test_table_command(tmp_path, capsys):
    # On the committed journal the strict cell of K_10 reads k*=9 from both
    # sides: the journal's budget-8 UNSAT row and st_lower (n - 1, GD 2023).
    # The upper ends of K_9 and K_12 strict (the n - 1 star pages) and of
    # K_10 relaxed (relaxed_complete(5), 6 pages) come from the
    # constructions, which the journal does not record.  No committed row
    # contradicts a bound, or table would exit 1.
    committed = Path(__file__).parent.parent / "results" / "journal.jsonl"
    assert main(["table", "--n", "1..13", "--journal", str(committed)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rows[8].split()[4] == "k*=8"
    assert rows[9].split()[3:6] == ["9", "k*=9", "k*=6"]
    assert rows[11].split()[4] == "k*=11"
    journal = tmp_path / "j.jsonl"
    main(["search", "--family", "K", "--n", "6", "--budget", "4",
          "--profile", "saonly", "--journal", str(journal)])
    main(["search", "--family", "K", "--n", "6", "--budget", "3",
          "--profile", "saonly", "--journal", str(journal)])
    capsys.readouterr()
    assert main(["table", "--n", "4..8", "--journal", str(journal)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert lines[0].split()[:4] == ["n", "sa_lower", "bt_lower", "st_lower"]
    row6 = next(line for line in lines if line.startswith("6"))
    assert row6.split()[:4] == ["6", "4", "3", "5"]
    assert "k*=4" in row6


def test_readme_table_is_the_command_output(monkeypatch, capsys):
    """README's findings block is a `$ starbook table ...` line and what
    that command prints in the repository root, verbatim."""
    root = Path(__file__).parent.parent
    [(command, printed)] = re.findall(r"^```\n(\$ starbook table .*)\n((?:.+\n)*?)```$",
                                      (root / "README.md").read_text(), re.M)
    monkeypatch.chdir(root)
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out == printed


def test_table_carries_bounds_across_profiles(tmp_path, capsys):
    # Strict >= relaxed >= saonly, so the n - 1 star pages close every
    # column for n <= 3, where no relaxed construction exists; K_1 has no
    # edges and needs no page.
    assert main(["table", "--n", "1..3", "--journal", str(tmp_path / "j.jsonl")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[4:] for row in rows] == [[f"k*={n - 1}"] * 3 for n in (1, 2, 3)]


@pytest.mark.parametrize("n, profile, budget, outcome, message", [
    # K_8 needs 7 strict pages (GD 2023), so a strict SAT row at 6 is forged.
    (8, "strict", 6, "sat", "K_8 strict: lower end 7 and upper end 6 differ"),
    # relaxed_complete(5) gives K_10 in 6 relaxed pages, so an UNSAT row at 6 is forged.
    (10, "relaxed", 6, "unsat", "K_10 relaxed: lower end 7 and upper end 6 differ"),
])
def test_table_exits_1_on_a_journal_row_that_contradicts_a_bound(
        tmp_path, capsys, n, profile, budget, outcome, message):
    journal = tmp_path / "j.jsonl"
    assert main(["table", "--n", f"1..{n}", "--journal", str(journal)]) == 0
    append_record(journal, JournalRecord(
        timestamp="2026-01-01T00:00:00+00:00", family="K", params={"n": n},
        order_policy="identity", profile=profile, budget=budget, outcome=outcome))
    capsys.readouterr()
    assert main(["table", "--n", f"1..{n}", "--journal", str(journal)]) == 1
    out, err = capsys.readouterr()
    assert len(out.strip().splitlines()) == n  # the header and the rows below n
    assert err.startswith(f"error: {message}; a journal row contradicts a bound")


@pytest.mark.parametrize("argv", [
    ["search", "--n", "100000", "--budget", "3"],
    ["search", "--n", "65", "--budget", "3"],
    ["construct", "--scheme", "stars", "--n", "100000"],
    ["construct", "--scheme", "relaxed", "--r", "100000"],
    ["table", "--n", "4..100000"],
], ids=lambda argv: " ".join(argv[:3]) + " " + argv[-1])
def test_named_sizes_are_bounded(argv, tmp_path, capsys):
    """A vertex count a user names is checked before anything of its size
    is built: n above 1024 everywhere, and above 64 for a search."""
    if argv[0] != "construct":
        argv = [*argv, "--journal", str(tmp_path / "j.jsonl")]
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "limit of" in err, err


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "line 2 is not a JSON object"),
    ('{"timestamp": "2026-01-01T00:00:00+00:00"}', "line 2: "),
    ('{"timestamp": "t", "family": "K", "params": {"n": 4}, "order_policy": "none", '
     '"profile": "saonly", "budget": "x", "outcome": "sat"}', "line 2: field 'budget'"),
    ('{"timestamp": "t", "family": "K", "params": [5], "order_policy": "none", '
     '"profile": "saonly", "budget": 4, "outcome": "sat"}', "line 2: field 'params'"),
    pytest.param("[" * 100_000 + "]" * 100_000, "unreadable journal line 2", id="deep-nesting"),
    pytest.param("[" + "9" * 5001 + "]", "unreadable journal line 2", id="5001-digit-int"),
])
def test_table_malformed_journal_exits_2(tmp_path, capsys, line, message):
    journal = tmp_path / "j.jsonl"
    main(["search", "--family", "K", "--n", "4", "--budget", "3",
          "--profile", "saonly", "--journal", str(journal)])
    with open(journal, "a") as fh:
        fh.write(line + "\n")
    capsys.readouterr()
    assert main(["table", "--n", "4..5", "--journal", str(journal)]) == 2
    assert message in capsys.readouterr().err


def _tampered(layout, rng):
    pages = [list(p.edges) for p in layout.pages]
    op = rng.choice(["drop", "dup", "move"])
    src = rng.randrange(len(pages))
    if not pages[src]:
        return None
    e = rng.choice(pages[src])
    if op == "drop":
        pages[src].remove(e)
    elif op == "dup":
        pages[rng.randrange(len(pages))].append(e)
    else:
        pages[src].remove(e)
        pages[rng.randrange(len(pages))].append(e)
    return BookLayout(
        layout.graph, layout.order,
        tuple(Page(p.kind, tuple(es)) for p, es in zip(layout.pages, pages)),
    )


def test_exit_status_agrees_with_report_on_fixture_corpus(tmp_path):
    # 50 certificates: valid constructions plus deterministic tamperings.
    rng = random.Random(2026)
    corpus = []
    for n in range(4, 14):
        corpus.append((star_pages(n), {"family": "K", "n": n}))
    for r in range(2, 12):
        corpus.append((relaxed_complete(r), {"family": "K", "n": 2 * r, "r": r}))
    for r in range(2, 8):
        corpus.append((octahedron_pages(r), {"family": "O", "n": 2 * r, "r": r}))
    for r in range(3, 9):
        corpus.append((strict_literal(r), {"family": "K", "n": 2 * r, "r": r}))
    while len(corpus) < 50:
        base = relaxed_complete(rng.randint(2, 6))
        bad = _tampered(base, rng)
        if bad is not None:
            corpus.append((bad, {"family": "K", "n": bad.graph.n}))
    assert len(corpus) == 50

    codes = []
    for i, (layout, meta) in enumerate(corpus):
        path = tmp_path / f"case{i:02d}.json"
        save_certificate(path, layout, meta)
        profile = Profile.RELAXED if "crosscap" in {p.kind.value for p in layout.pages} \
            else Profile.STRICT
        n = layout.graph.n
        if sum(len(p) for p in layout.pages) > n * (n - 1) // 2:
            expected = 2  # a duplicated edge on top of all of K_n's: refused as input
        else:
            expected = 0 if verify_layout(layout, profile).passed else 1
        code = main(["verify", str(path), "--profile", profile.value])
        assert code == expected, (i, meta)
        codes.append(code)
    assert len(codes) == 50 and set(codes) == {0, 1, 2}


def test_construct_stdout_when_no_out(capsys):
    assert main(["construct", "--n", "4", "--scheme", "stars"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["format"] == "starbook-cert/1"
    assert doc["n"] == 4


def test_construct_odd_scheme(tmp_path):
    cert = tmp_path / "k7.json"
    assert main(["construct", "--n", "7", "--scheme", "odd", "--out", str(cert)]) == 0
    assert main(["verify", str(cert), "--profile", "relaxed"]) == 0
    doc = json.loads(cert.read_text())
    assert doc["n"] == 7 and len(doc["pages"]) == 5
