import gc
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbook import (
    BookLayout,
    CircularOrder,
    Page,
    PageKind,
    SimpleGraph,
    complete_graph,
    octahedron,
    octahedron_pages,
    odd_extension,
    relaxed_complete,
    star_pages,
    strict_literal,
)
from starbook.certs import (
    FORMAT_TAG,
    CertificateError,
    certificate_digest,
    parse_certificate,
    parse_edge_list,
    serialize_layout,
)


LAYOUT_MAKERS = [
    lambda: star_pages(5),
    lambda: star_pages(9),
    lambda: relaxed_complete(2),
    lambda: relaxed_complete(5),
    lambda: odd_extension(relaxed_complete(3)),
    lambda: strict_literal(3),
    lambda: strict_literal(6),
    lambda: octahedron_pages(4),
    lambda: star_pages(6),
]


@pytest.mark.parametrize("make", LAYOUT_MAKERS)
def test_round_trip_identity(make):
    layout = make()
    meta = {"family": "K", "n": layout.graph.n}
    if layout.graph.edges != complete_graph(layout.graph.n).edges:
        meta = {"family": "O", "r": layout.graph.n // 2, "n": layout.graph.n}
    text = serialize_layout(layout, meta)
    assert text == _json_dumps_reference(layout, meta)
    parsed, parsed_meta = parse_certificate(text)
    assert parsed == layout
    assert parsed_meta == meta
    assert serialize_layout(parsed, parsed_meta) == text  # byte-stable


def test_serialization_is_canonical():
    a = serialize_layout(relaxed_complete(3), {"family": "K", "n": 6})
    b = serialize_layout(relaxed_complete(3), {"family": "K", "n": 6})
    assert a == b
    assert certificate_digest(relaxed_complete(3)) == certificate_digest(relaxed_complete(3))
    assert certificate_digest(relaxed_complete(3)) != certificate_digest(relaxed_complete(4))


def test_cap_page_serialized_last_and_edges_sorted():
    doc = json.loads(serialize_layout(odd_extension(relaxed_complete(3))))
    kinds = [p["kind"] for p in doc["pages"]]
    assert kinds == ["disk"] * 4 + ["crosscap"]
    for p in doc["pages"]:
        assert p["edges"] == sorted(p["edges"])
        for u, v in p["edges"]:
            assert u < v


def _json_dumps_reference(layout, meta=None):
    """The certificate text as json.dumps wrote it before the direct writer."""
    disks = [p for p in layout.pages if p.kind is PageKind.DISK]
    caps = [p for p in layout.pages if p.kind is PageKind.CROSSCAP]
    doc = {
        "format": FORMAT_TAG,
        "n": layout.graph.n,
        "order": list(layout.order.seq),
        "pages": [{"kind": p.kind.value, "edges": [list(e) for e in sorted(p.edges)]}
                  for p in disks + caps],
        "meta": dict(meta or {}),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


_META_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats()
    | st.text(max_size=6) | st.sampled_from(["é", "\u2603", "\n\t\"\\", "\x00", "\U0001f600"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@st.composite
def _layouts(draw):
    n = draw(st.integers(0, 7))
    edges = list(itertools.combinations(range(1, n + 1), 2))
    order = draw(st.lists(st.integers(-2, n + 2), max_size=n))
    # Besides graph edges, a page may hold any pair of ints: labels 0, -1
    # and n+1, reversed pairs and loops.
    label = st.integers(-1, n + 1)
    pair = st.tuples(label, label)
    pages = draw(st.lists(
        st.tuples(st.sampled_from(list(PageKind)),
                  st.lists(st.sampled_from(edges) | pair if edges else pair, max_size=6)),
        max_size=4))
    meta = draw(st.none() | st.dictionaries(st.text(max_size=4), _META_VALUES, max_size=4))
    layout = BookLayout(SimpleGraph(n, frozenset(edges)), CircularOrder(tuple(order)),
                        tuple(Page(kind, tuple(es)) for kind, es in pages))
    return layout, meta


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_layouts())
def test_serialization_matches_json_dumps(case):
    # Empty orders, zero or empty pages, cross-cap pages listed before disk
    # pages, edges outside the graph, and meta with nesting, None, floats
    # and non-ASCII strings.
    layout, meta = case
    assert serialize_layout(layout, meta) == _json_dumps_reference(layout, meta)


def test_parse_bounds_list_lengths():
    doc = json.loads(serialize_layout(star_pages(4), {"family": "K", "n": 4}))
    assert sum(len(p["edges"]) for p in doc["pages"]) == 6  # all of K_4's edges
    with pytest.raises(CertificateError, match="order lists 5 vertices, more than n = 4"):
        parse_certificate(json.dumps({**doc, "order": [1, 2, 3, 4, 1]}))
    extra = {"kind": "disk", "edges": [[1, 2]]}
    with pytest.raises(CertificateError,
                       match="pages list 7 edges, more than the 6 of a graph on 4 vertices"):
        parse_certificate(json.dumps({**doc, "pages": doc["pages"] + [extra]}))
    # The count is checked before any edge is read.
    junk = {"kind": "disk", "edges": ["x"] * 7}
    with pytest.raises(CertificateError, match="pages list 7 edges"):
        parse_certificate(json.dumps({**doc, "pages": [junk]}))
    with pytest.raises(CertificateError, match="more than the 0 of a graph on 1 vertices"):
        parse_certificate(json.dumps({**doc, "n": 1, "order": [1], "pages": [extra]}))
    # A duplicated edge in place of a missing one stays within the bound.
    layout, _ = parse_certificate(serialize_layout(strict_literal(4)))
    assert sum(len(p) for p in layout.pages) == 28


def test_parse_rejects_malformed():
    good = serialize_layout(star_pages(4), {"family": "K", "n": 4})
    doc = json.loads(good)

    with pytest.raises(CertificateError):
        parse_certificate("not json {")
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps({**doc, "format": "other/9"}))
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps({**doc, "n": "six"}))
    with pytest.raises(CertificateError, match="exceeds the limit of 1024"):
        parse_certificate(json.dumps({**doc, "n": 10**9}))  # K_n is never built
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps({**doc, "order": [1, "x"]}))
    # JSON true is not the vertex 1: one layout must have one byte form.
    with pytest.raises(CertificateError, match="bad vertex count"):
        parse_certificate(json.dumps({**doc, "n": True}))
    with pytest.raises(CertificateError, match="order must be a list of integers"):
        parse_certificate(json.dumps({**doc, "order": [True, 2, 3, 4]}))
    bool_edge = {**doc, "pages": [{"kind": "disk", "edges": [[True, 2]]}]}
    with pytest.raises(CertificateError, match="malformed edge"):
        parse_certificate(json.dumps(bool_edge))
    # Each shape after a good edge, so the message names the first bad one.
    for bad, message in (("12", "page 2 has a malformed edge '12'"),
                         ({"a": 1, "b": 2}, "page 2 has a malformed edge {'a': 1, 'b': 2}"),
                         ([1, 2, 3], "page 2 has a malformed edge [1, 2, 3]"),
                         ([1.0, 2], "page 2 has a malformed edge [1.0, 2]"),
                         ([[1], 2], "page 2 has a malformed edge [[1], 2]"),
                         (None, "page 2 has a malformed edge None"),
                         ([3, 3], "page 2 edge [3, 3] must satisfy 1 <= u < v"),
                         ([0, 1], "page 2 edge [0, 1] must satisfy 1 <= u < v")):
        pages = [{"kind": "disk", "edges": [[1, 2]]},
                 {"kind": "disk", "edges": [[1, 3], bad, [0, 1], "34"]}]
        with pytest.raises(CertificateError) as err:
            parse_certificate(json.dumps({**doc, "pages": pages}))
        assert str(err.value) == message
    bool_cert = json.loads(serialize_layout(relaxed_complete(2), {"family": "K", "n": 4}))
    bool_cert["order"][0] = True
    for page in bool_cert["pages"]:
        page["edges"] = [[True if x == 1 else x for x in e] for e in page["edges"]]
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps(bool_cert))
    bad_pages = {**doc, "pages": [{"kind": "sphere", "edges": []}]}
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps(bad_pages))
    bad_edge = {**doc, "pages": [{"kind": "disk", "edges": [[2, 1]]}]}
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps(bad_edge))
    loop_edge = {**doc, "pages": [{"kind": "disk", "edges": [[2, 2]]}]}
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps(loop_edge))
    with pytest.raises(CertificateError):
        parse_certificate(json.dumps({**doc, "meta": {"family": "Q"}}))
    with pytest.raises(CertificateError, match="certificate must be a JSON object"):
        parse_certificate(json.dumps([doc]))
    with pytest.raises(CertificateError, match="page 1 edges must be a list"):
        parse_certificate(json.dumps({**doc, "pages": [{"kind": "disk", "edges": "12"}]}))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_restores_the_garbage_collector(enabled):
    """parse_certificate pauses the cyclic GC and leaves it as it found it."""
    good = serialize_layout(star_pages(4), {"family": "K", "n": 4})
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert parse_certificate(good)[0].graph.n == 4
        assert gc.isenabled() is enabled
        for text, message in (("not json {", "not valid JSON"),
                              (good.replace("[\n     1,", "[\n     0,", 1), "edge \\[0, 2\\]")):
            with pytest.raises(CertificateError, match=message):
                parse_certificate(text)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_parse_keeps_semantic_problems_for_verifier():
    # Bad orders and out-of-graph edges parse fine; verify reports them.
    from starbook import Profile, verify_layout
    from starbook.verify import FOREIGN_EDGE, ORDER_NOT_PERMUTATION

    doc = json.loads(serialize_layout(star_pages(4), {"family": "K", "n": 4}))
    doc["order"] = [1, 2, 2, 4]
    layout, _ = parse_certificate(json.dumps(doc))
    assert ORDER_NOT_PERMUTATION in verify_layout(layout, Profile.STRICT).kinds()

    doc = json.loads(serialize_layout(octahedron_pages(3), {"family": "O", "r": 3, "n": 6}))
    doc["pages"][0]["edges"].append([1, 4])  # the removed antipodal edge
    layout, _ = parse_certificate(json.dumps(doc))
    assert FOREIGN_EDGE in verify_layout(layout, Profile.STRICT).kinds()


def test_certificate_meta_families():
    lay = relaxed_complete(3)
    text = serialize_layout(lay, {"family": "K-e", "n": 6, "e": [1, 2]})
    parsed, _ = parse_certificate(text)
    assert parsed.graph.m == 14

    text = serialize_layout(lay, {"family": "Cpow", "n": 6, "k": 2})
    parsed, _ = parse_certificate(text)
    assert parsed.graph.edges == octahedron(3).edges

    text = serialize_layout(lay, {})  # no family: complete graph assumed
    parsed, _ = parse_certificate(text)
    assert parsed.graph.edges == complete_graph(6).edges

    with pytest.raises(CertificateError):
        parse_certificate(serialize_layout(lay, {"family": "O", "r": 4}))


def test_edge_list_parsing():
    g = parse_edge_list("4\n1 2\n 3   4 \n\n2 3\n")
    assert g.n == 4 and g.edges == {(1, 2), (2, 3), (3, 4)}
    g = parse_edge_list("3\n# comment\n1 2\n")
    assert g.m == 1
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("4 5\n1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("4\n1 2 3\n")
    with pytest.raises(ValueError, match="line 2: edge 1-5 outside vertex range 1..2"):
        parse_edge_list("2\n1 5\n")
    # Reported at its own line, before the lines after it are read.
    with pytest.raises(ValueError, match="line 3: edge 0-2 outside vertex range 1..3"):
        parse_edge_list("3\n1 2\n0 2\n1 x\n")
    with pytest.raises(ValueError, match="line 2: loop edge at vertex 2"):
        parse_edge_list("3\n2 2\n")
    assert parse_edge_list("1024\n1 1024\n").n == 1024
    with pytest.raises(ValueError, match="line 1: vertex count 1025 exceeds"):
        parse_edge_list("1025\n1 2\n")
    with pytest.raises(ValueError, match="line 1: vertex count must be nonnegative, got -1"):
        parse_edge_list("-1\n")
    with pytest.raises(ValueError, match="line 2: bad vertex count 'four'"):
        parse_edge_list("# n\nfour\n1 2\n")
    with pytest.raises(ValueError, match="line 3: bad vertex label"):
        parse_edge_list("4\n1 2\n1 x\n")
