"""Certificate serialization: canonical JSON for layouts, plus graph inputs.

Format tag "starbook-cert/1".  Edges are stored with u < v and sorted
lexicographically within each page; disk pages precede the cross-cap
page; serialization is byte-identical for equal layouts.  The meta map
records the graph family and parameters so a verifier can rebuild the
graph being decomposed: construct.family_graph builds it from meta and
the certificate's n, in one call.  Without a family the complete graph
on n vertices is assumed; a family G certificate carries its edges in
meta, so it verifies on its own; and meta that family_graph refuses (an
unknown family, a parameter that is not a JSON integer, an edge outside
1..n) is a CertificateError.

The bytes are exactly what json.dumps(doc, indent=1, sort_keys=True)
followed by one newline gives, written directly by serialize_layout:

    {
     "format": "starbook-cert/1",
     "meta": {
      "family": "K",
      "n": 4
     },
     "n": 4,
     "order": [
      1,
      ...
     ],
     "pages": [
      {
       "edges": [
        [
         1,
         2
        ],
        ...
       ],
       "kind": "disk"
      },
      ...
     ]
    }

Each nesting level indents by one more space; keys are in sorted order
(format, meta, n, order, pages; in a page edges, kind); an item ends in
a comma unless it is the last; an empty list or object is written as
[] or {}; the file ends with a newline.  Every vertex and edge endpoint
sits on its own line.  meta is encoded by json.dumps(meta, indent=1,
sort_keys=True), so its strings are ASCII, with JSON escapes (\\", \\n,
\\u00e9) for quotes, control and non-ASCII characters; its lines after
the first are indented by one space.

A plain-text edge-list format is also accepted for graph input: the
vertex count on the first line, then one "u v" pair per line,
whitespace-tolerant.

Both formats reject more than MAX_VERTICES vertices, because a
certificate's graph is rebuilt from its vertex count alone (K_n has
n(n-1)/2 edges).  A certificate's order may list at most n vertices and
its pages at most n(n-1)/2 edges in all, the most any graph on n
vertices has; both are checked before a single edge is read.  JSON
nested too deeply for the decoder, or an integer too long to convert,
is a CertificateError too.

parse_certificate pauses the cyclic garbage collector while it runs.
json.loads makes one list per edge, and lists are always tracked by
the collector, so the collections that the allocations of a big parse
trigger re-walk tens of thousands of live lists: about half the parse
time of a K_256 certificate.  Parsing makes no reference cycle, so
reference counting still frees every object when it dies; only the
collector's traversal is put off.  The pause is process-wide: while a
parse runs, no thread of the process collects cycles.  The collector is
re-enabled on return only if it was enabled on entry.
"""

from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

from .construct import MAX_VERTICES, family_graph
from .model import (
    BookLayout,
    CircularOrder,
    Page,
    PageKind,
    SimpleGraph,
    edge,
)

FORMAT_TAG = "starbook-cert/1"


class CertificateError(ValueError):
    """Raised when a certificate file is structurally malformed."""


def serialize_layout(layout: BookLayout, meta: dict | None = None) -> str:
    """Canonical text form: equal layouts give identical bytes (see the module docstring)."""
    pages = [p for p in layout.pages if p.kind is PageKind.DISK]
    pages += [p for p in layout.pages if p.kind is PageKind.CROSSCAP]
    page_texts = []
    for p in pages:
        edges = _array([f"    [\n     {u},\n     {v}\n    ]" for u, v in sorted(p.edges)], "   ")
        page_texts.append(f'  {{\n   "edges": {edges},\n   "kind": "{p.kind.value}"\n  }}')
    # json.dumps escapes newlines inside strings, so every newline it writes is structural.
    meta_text = json.dumps(dict(meta or {}), indent=1, sort_keys=True).replace("\n", "\n ")
    order = _array([f"  {v}" for v in layout.order.seq], " ")
    return (f'{{\n "format": "{FORMAT_TAG}",\n "meta": {meta_text},\n "n": {layout.graph.n},\n'
            f' "order": {order},\n "pages": {_array(page_texts, " ")}\n}}\n')


def _array(items: list[str], indent: str) -> str:
    """A JSON array of items already written one per line; its ] closes at indent."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def certificate_digest(layout: BookLayout, meta: dict | None = None) -> str:
    return hashlib.sha256(serialize_layout(layout, meta).encode()).hexdigest()


def parse_certificate(text: str) -> tuple[BookLayout, dict]:
    """Parse a certificate into a layout plus its meta map.

    Structural problems (bad JSON, wrong tag, malformed edges) raise
    CertificateError; semantic problems (orders that are not
    permutations, edges outside the graph, bad partitions) parse fine
    and are left for the verifier to report.

    The cyclic garbage collector is paused for the whole call, in every
    thread of the process, and re-enabled on return only if it was
    enabled on entry (see the module docstring for why).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str) -> tuple[BookLayout, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not valid JSON: {exc}") from None
    except (RecursionError, ValueError) as exc:  # nested too deeply, an integer too long
        raise CertificateError(f"unreadable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise CertificateError(f"unsupported format tag {doc.get('format')!r}")
    n = doc.get("n")
    if type(n) is not int or n < 0:  # bool is an int subclass, so it is refused too
        raise CertificateError(f"bad vertex count {n!r}")
    if n > MAX_VERTICES:
        raise CertificateError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    order = doc.get("order")
    if not isinstance(order, list) or not all(type(v) is int for v in order):
        raise CertificateError("order must be a list of integers")
    if len(order) > n:
        raise CertificateError(f"order lists {len(order)} vertices, more than n = {n}")
    raw_pages = doc.get("pages")
    if not isinstance(raw_pages, list):
        raise CertificateError("pages must be a list")
    kinds = []
    for i, rp in enumerate(raw_pages):
        if not isinstance(rp, dict):
            raise CertificateError(f"page {i + 1} must be an object")
        try:
            kinds.append(PageKind(rp.get("kind")))
        except ValueError:
            raise CertificateError(f"page {i + 1} has unknown kind {rp.get('kind')!r}") from None
        if not isinstance(rp.get("edges"), list):
            raise CertificateError(f"page {i + 1} edges must be a list")
    entries = sum(len(rp["edges"]) for rp in raw_pages)
    m_max = n * (n - 1) // 2
    if entries > m_max:
        raise CertificateError(f"pages list {entries} edges, more than the {m_max} "
                               f"of a graph on {n} vertices")
    pages = []
    for i, (kind, rp) in enumerate(zip(kinds, raw_pages)):
        raw = rp["edges"]
        # Of the JSON values, only a 2-list, a 2-character string and a
        # 2-key object unpack into two items, and the last two give str
        # items, which the filter drops: every edge kept is a valid one,
        # so the page is well formed iff none was dropped.
        try:
            es = [(u, v) for u, v in raw if type(u) is int and type(v) is int and 0 < u < v]
        except (TypeError, ValueError):  # an item that does not unpack into two
            es = []
        if len(es) != len(raw):
            for re_ in raw:  # name the first bad edge
                if not (type(re_) is list and len(re_) == 2
                        and type(re_[0]) is int and type(re_[1]) is int):
                    raise CertificateError(f"page {i + 1} has a malformed edge {re_!r}")
                u, v = re_
                if not 1 <= u < v:
                    raise CertificateError(f"page {i + 1} edge [{u}, {v}] must satisfy 1 <= u < v")
        pages.append(Page(kind, tuple(es)))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise CertificateError("meta must be an object")
    try:
        graph, _ = family_graph({**meta, "n": n})
    except ValueError as exc:
        raise CertificateError(str(exc)) from None
    return BookLayout(graph, CircularOrder(tuple(order)), tuple(pages)), meta


def load_certificate(path) -> tuple[BookLayout, dict]:
    return parse_certificate(Path(path).read_text())


def save_certificate(path, layout: BookLayout, meta: dict | None = None) -> None:
    Path(path).write_text(serialize_layout(layout, meta))


def parse_edge_list(text: str) -> SimpleGraph:
    """Graph from plain text: n on the first line, then one 'u v' per line.

    Each edge is checked at its own line, so a label outside 1..n or a
    loop names the line, and the edge set never exceeds n(n-1)/2.
    """
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            tokens.append((lineno, stripped.split()))
    if not tokens:
        raise ValueError("empty edge-list input")
    lineno, head = tokens[0]
    if len(head) != 1:
        raise ValueError(f"line {lineno}: expected the vertex count alone")
    try:
        n = int(head[0])
    except ValueError:
        raise ValueError(f"line {lineno}: bad vertex count {head[0]!r}") from None
    if n < 0:
        raise ValueError(f"line {lineno}: vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
    edges = set()
    for lineno, parts in tokens[1:]:
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: bad vertex label") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {lineno}: edge {u}-{v} outside vertex range 1..{n}")
        if u == v:
            raise ValueError(f"line {lineno}: loop edge at vertex {u}")
        edges.add(edge(u, v))
    return SimpleGraph(n, frozenset(edges))
