"""Malformed input may only ever raise ValueError (CertificateError is one).

Hypothesis mutates a valid certificate (of K_7, or of an octahedron
named as family G with its edges in meta) and a valid journal line by
replacing or inserting JSON values anywhere below chosen top-level
keys, then drives the result through the same calls the CLI makes.
Any other exception escapes and fails the test; the CLI turns
ValueError into exit 2.
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from starbook import Profile, octahedron_pages, odd_extension, relaxed_complete, verify_layout
from starbook.certs import parse_certificate, serialize_layout
from starbook.cli import _certificate_profile, main
from starbook.journal import JournalRecord, load_records
from starbook.render import render_svg

_KEYS = st.sampled_from(["family", "scheme", "n", "r", "k", "e", "kind", "edges", "params",
                         "budget", "outcome", "profile", "x"])

_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.sampled_from([1025, 10**9, -10**9])
    | st.floats() | st.text(max_size=3)
    | st.sampled_from(["K", "O", "Cpow", "K-e", "G", "disk", "crosscap", "sat", "unsat",
                       "strict"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6,
)

# Each certificate with the top-level keys to mutate: the family G one is
# there for the edges its meta carries.
_OCTAHEDRON = octahedron_pages(3)
_CERTS = [
    (json.loads(serialize_layout(odd_extension(relaxed_complete(3)),
                                 {"family": "K", "scheme": "odd", "n": 7, "r": 3})),
     ["n", "order", "pages", "meta"]),
    (json.loads(serialize_layout(_OCTAHEDRON, {"family": "G", "edges": sorted(
        _OCTAHEDRON.graph.edges)})), ["meta"]),
]

_RECORD = asdict(JournalRecord(
    timestamp="2026-01-01T00:00:00+00:00", family="K", params={"n": 6},
    order_policy="identity", profile="strict", budget=5, outcome="sat", k_star=5,
    nodes=16, wall_time=0.01, certificate_digest="0" * 64,
))


def _mutate(data, doc: dict, top_keys) -> None:
    """Replace or insert one JSON value somewhere below one of `top_keys`."""
    parent, slot = doc, data.draw(st.sampled_from(top_keys))
    while isinstance(parent[slot], (list, dict)) and parent[slot] and data.draw(st.booleans()):
        parent = parent[slot]
        slot = data.draw(st.integers(0, len(parent) - 1) if isinstance(parent, list)
                         else st.sampled_from(sorted(parent)))
    value = data.draw(_VALUES)
    if isinstance(parent, list) and data.draw(st.booleans()):
        parent.insert(slot, value)
    elif isinstance(parent, dict) and data.draw(st.booleans()):
        parent[data.draw(_KEYS)] = value
    else:
        parent[slot] = value


def _input_errors_only(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_mutated_certificates_raise_only_input_errors(data):
    cert, top_keys = data.draw(st.sampled_from(_CERTS))
    doc = json.loads(json.dumps(cert))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc, top_keys)
    parsed = _input_errors_only(parse_certificate, json.dumps(doc))
    if parsed is None:
        return
    layout, meta = parsed
    for profile in Profile:
        verify_layout(layout, profile)
    _input_errors_only(_certificate_profile, layout, meta)
    render_svg(layout)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_journal_lines_raise_only_input_errors(data):
    doc = json.loads(json.dumps(_RECORD))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc, sorted(doc))
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "j.jsonl"
        journal.write_text(json.dumps(_RECORD) + "\n" + json.dumps(doc) + "\n")
        _input_errors_only(load_records, journal)
        assert main(["table", "--n", "5..6", "--journal", str(journal)]) in (0, 2)
