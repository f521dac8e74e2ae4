"""Validity checks for pages and whole layouts, with typed violation reports.

A page is a star forest drawn on one surface.  Disk pages must be
crossing-free as chord diagrams.  Cross-cap pages may route a set of
mutually crossing chords through the cap: the operative criterion is
that every chord with at least one crossing partner must join a single
"through" family whose endpoint occurrences, read around the circle,
can be split as a1 .. ak b1 .. bk with chord i joining ai to bi.
Occurrences at a shared vertex form a consecutive tie block whose
internal arrangement is free.  Chords that cross nothing stay in the
planar part of the page.

The through family routes iff no two of its chords are vertex-disjoint
and non-crossing.  (=>) In a split a1 .. ak b1 .. bk the ends of any
two through chords alternate, so two vertex-disjoint ones cross.
(<=) Order each tie block at v like the other ends of its chords,
nearest clockwise from v first (in a star forest: each centre like its
leaves).  Chords sharing v then cross too, so the k through chords
cross pairwise with distinct ends, each has k - 1 ends on either side,
and occurrence j pairs with occurrence j + k from any start.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple

from .model import (
    BookLayout,
    CircularOrder,
    Edge,
    Page,
    PageKind,
)

# Violation kinds
DUPLICATE_EDGE = "duplicate_edge"
MISSING_EDGE = "missing_edge"
FOREIGN_EDGE = "foreign_edge"
CROSSING_PAIR = "crossing_pair"
NOT_STAR_FOREST = "not_star_forest"
CROSSCAP_UNROUTABLE = "crosscap_unroutable"
TOO_MANY_CROSSCAPS = "too_many_crosscaps"
ORDER_NOT_PERMUTATION = "order_not_permutation"


class Profile(str, Enum):
    """What a layout must satisfy to count as valid."""

    STRICT = "strict"              # all pages disks, crossing-free
    RELAXED = "relaxed"            # at most one cross-cap page
    STAR_FORESTS_ONLY = "saonly"   # ignore the order and all crossings


@dataclass(frozen=True)
class Violation:
    """One independently re-checkable defect of a layout."""

    kind: str
    edge: Edge | None = None
    page: int | None = None
    pages: tuple[int, ...] = ()
    pair: tuple[Edge, Edge] | None = None
    count: int | None = None

    def sort_key(self):
        return (
            self.kind,
            -1 if self.page is None else self.page,
            self.pages,
            self.edge or (0, 0),
            self.pair or ((0, 0), (0, 0)),
            self.count or 0,
        )

    def describe(self) -> str:
        bits = [self.kind]
        if self.edge is not None:
            bits.append(f"edge {self.edge[0]}-{self.edge[1]}")
        if self.pair is not None:
            (a, b), (c, d) = self.pair
            bits.append(f"chords {a}-{b} x {c}-{d}")
        if self.page is not None:
            bits.append(f"page {self.page + 1}")
        if self.pages:
            bits.append("pages " + ",".join(str(p + 1) for p in self.pages))
        if self.count is not None:
            bits.append(f"count {self.count}")
        return " ".join(bits)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    violations: tuple[Violation, ...]

    @staticmethod
    def from_violations(violations) -> "VerificationReport":
        vs = tuple(sorted(violations, key=Violation.sort_key))
        return VerificationReport(passed=not vs, violations=vs)

    def kinds(self) -> Counter:
        return Counter(v.kind for v in self.violations)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": [
                {k: v for k, v in vars(viol).items() if v not in (None, ())}
                for viol in self.violations
            ],
        }


class StarForestCheck(NamedTuple):
    ok: bool
    witness: Edge | None


def is_star_forest(edges) -> StarForestCheck:
    """Decide whether an edge set is a vertex-disjoint union of stars.

    Equivalently: no edge has both endpoints of degree >= 2.  On failure
    the witness is the first such edge in sorted order.
    """
    canonical = {(u, v) if u < v else (v, u) for u, v in edges}
    witness = _star_forest_violation(canonical, canonical)
    return StarForestCheck(witness is None, witness)


def _star_forest_violation(edges, edge_set) -> Edge | None:
    """First edge (sorted) with both endpoints of degree >= 2, if any.

    `edge_set` is a set of vertex pairs, reversed pairs and loops
    allowed, and `edges` iterates over its members once each (the
    degrees are counted from it).  Both ends of a bad edge are centres,
    vertices of degree >= 2, and the constructions' pages have at most
    two (a valid page may have more: the strict 3-page witness of C_9^2
    has pages centred at {1, 4, 7}, {2, 5, 8} and {3, 6, 9}).  So when
    the centres are few, the bad edges are found by probing `edge_set`
    for every ordered pair of centres (a centre paired with itself
    finds a loop); otherwise every edge is scanned.
    """
    deg = Counter(chain.from_iterable(edges))
    centres = [v for v, d in deg.items() if d > 1]
    if len(centres) ** 2 < len(edges):
        bad = [(u, v) for u in centres for v in centres if (u, v) in edge_set]
    else:
        bad = [e for e in edges if deg[e[0]] > 1 and deg[e[1]] > 1]
    return min(bad) if bad else None


def _noncrossing(pos, n: int, edges) -> tuple[bool, tuple[Edge, Edge] | None]:
    """Decide whether a chord family on an n-vertex spine is pairwise
    non-crossing; `pos[v]` is the spine position of vertex v, read from
    the order's dict or, in `verify_layout`, from a list indexed by label.

    Single sweep around the circle with a stack (balanced-parenthesis
    test) over the chords sorted by (left end, -right end); chords
    sharing a vertex occupy the same position and never conflict.
    Each chord is sorted as one int, left end << s | (mask - right end).
    The right end of the innermost open chord is kept in `top`, and the
    stack holds those of the open chords around it, nested, above a
    sentinel (mask) that no position reaches.

    On failure the witness is the innermost open chord and the chord
    that starts inside it and ends outside; only then are they looked
    up.  The open chord is, of the chords that end where it ends, the
    one that starts last before the current chord: none of those has
    been closed, since every chord swept so far starts before that end.
    A reversed copy of a chord has the same positions; the witness names
    the last such copy in the iteration order of `edges` for the open
    chord and the first for the other, as a stable sort of the chords
    does.  On a permutation order distinct canonical chords have
    distinct spans, so then the witness does not depend on that order.
    """
    s = n.bit_length()
    mask = (1 << s) - 1
    try:
        keys = sorted([
            pu << s | mask - pv if (pu := pos[u]) < (pv := pos[v]) else pv << s | mask - pu
            for u, v in edges
        ])
    except KeyError as missing:
        raise ValueError(f"vertex {missing.args[0]} is not in the circular order") from None
    stack = []
    push, pop = stack.append, stack.pop
    top = mask
    for key in keys:
        lo = key >> s
        while top <= lo:
            top = pop()
        hi = mask - (key & mask)
        if hi > top:
            es = list(edges)
            spans = [(pu, pv) if (pu := pos[u]) < (pv := pos[v]) else (pv, pu) for u, v in es]
            outer_span = max(span for span in spans if span[1] == top and span[0] < lo)
            outer = len(spans) - 1 - spans[::-1].index(outer_span)
            return False, (es[outer], es[spans.index((lo, hi))])
        push(top)
        top = hi
    return True, None


def disk_page_valid(order: CircularOrder, page: Page) -> tuple[bool, tuple[Edge, Edge] | None]:
    """True iff no two chords of a disk page cross; else some crossing pair."""
    if page.kind is not PageKind.DISK:
        raise ValueError("disk_page_valid requires a disk page")
    return _noncrossing(order._pos, len(order.seq), page.edges)


@dataclass(frozen=True)
class CrossCapSplit:
    """Certificate for a valid cross-cap page.

    `through` chords pass through the cap once, `planar` ones not at
    all.  Through chord j joins occurrence j to occurrence j + k of the
    through chords' endpoint occurrences in spine order.
    """

    through: frozenset[Edge]
    planar: frozenset[Edge]


def crosscap_page_valid(order: CircularOrder, page: Page) -> tuple[bool, CrossCapSplit | None]:
    """Decide whether a cross-cap page is drawable without crossings.

    The forced through set is exactly the chords having at least one
    crossing partner within the page: a planar chord can never cross a
    through chord, so nothing smaller or larger needs to be tested.
    The through set is accepted iff no two of its chords are
    vertex-disjoint and non-crossing (see the module docstring).
    """
    if page.kind is not PageKind.CROSSCAP:
        raise ValueError("crosscap_page_valid requires a cross-cap page")
    return _crosscap_valid(order, page.edge_set)


def _crosscap_valid(order: CircularOrder, edges) -> tuple[bool, CrossCapSplit | None]:
    es = sorted(set(edges))
    k_all = len(es)
    n = len(order)
    pos = order._pos
    try:
        spans = [(pos[u], pos[v]) for u, v in es]
    except KeyError as missing:
        raise ValueError(f"vertex {missing.args[0]} is not in the circular order") from None
    flagged = [False] * k_all
    parallel: list[tuple[int, int]] = []  # vertex-disjoint non-crossing pairs
    for i in range(k_all):
        pu, pv = spans[i]
        ui, vi = es[i]
        for j in range(i + 1, k_all):
            uj, vj = es[j]
            if ui == uj or ui == vj or vi == uj or vi == vj:
                continue
            qu, qv = spans[j]
            if (0 < (qu - pu) % n < (pv - pu) % n) != (0 < (qv - pu) % n < (pv - pu) % n):
                flagged[i] = flagged[j] = True
            else:
                parallel.append((i, j))
    for i, j in parallel:
        if flagged[i] and flagged[j]:
            return False, None
    through = frozenset(e for e, f in zip(es, flagged) if f)
    planar = frozenset(e for e, f in zip(es, flagged) if not f)
    return True, CrossCapSplit(through, planar)


def verify_layout(layout: BookLayout, profile: Profile) -> VerificationReport:
    """Check a layout against a profile; all problems become violations.

    Partition exactness and per-page star-forest checks always run; the
    geometric checks and page-kind constraints are skipped under
    STAR_FORESTS_ONLY, as is the spine-order check.

    When the layout has no foreign edge, a page that repeats no edge is
    read in its stored order (`page.edges`): each of its edges is then a
    distinct canonical graph edge with its own span, so no witness
    depends on the reading order.  Any other page is read from its edge
    set, so a reversed copy of a chord is named by that set's iteration
    order.  The disk sweep reads spine positions from a list indexed by
    vertex label, built once per layout.
    """
    profile = Profile(profile)
    g = layout.graph
    violations: list[Violation] = []
    geometric = profile is not Profile.STAR_FORESTS_ONLY

    order_ok = layout.order.is_permutation_of(g.n)
    if geometric and not order_ok:
        violations.append(Violation(ORDER_NOT_PERMUTATION))

    # Partition exactness: every graph edge on exactly one page.
    partition = _partition_violations(g.edges, layout.pages)
    violations.extend(partition)
    foreign = any(v.kind == FOREIGN_EDGE for v in partition)

    sweep = geometric and order_ok
    if sweep:
        place = [0] * (g.n + 1)
        for i, v in enumerate(layout.order.seq):
            place[v] = i
        spine = set(layout.order.seq)
    for pi, page in enumerate(layout.pages):
        stored = not foreign and len(page.edge_set) == len(page.edges)
        edges = page.edges if stored else page.edge_set
        # Every page, the cross-cap one included, must be a star forest.
        witness = _star_forest_violation(edges, page.edge_set)
        if witness is not None:
            violations.append(Violation(NOT_STAR_FOREST, edge=witness, page=pi))
        if not sweep:
            continue
        if foreign:  # only a foreign edge can have an end off the spine
            edges = tuple(e for e in edges if e[0] in spine and e[1] in spine)
        if page.kind is PageKind.DISK:
            ok, pair = _noncrossing(place, g.n, edges)
            if not ok:
                violations.append(Violation(CROSSING_PAIR, pair=pair, page=pi))
        else:
            ok, _split = _crosscap_valid(layout.order, edges)
            if not ok:
                violations.append(Violation(CROSSCAP_UNROUTABLE, page=pi))

    if geometric:
        caps = tuple(pi for pi, p in enumerate(layout.pages) if p.kind is PageKind.CROSSCAP)
        allowed = 0 if profile is Profile.STRICT else 1
        if len(caps) > allowed:
            violations.append(Violation(TOO_MANY_CROSSCAPS, pages=caps, count=len(caps)))

    return VerificationReport.from_violations(violations)


def _partition_violations(edges: frozenset[Edge], pages) -> list[Violation]:
    """Missing, duplicated and foreign edges of a layout's pages.

    The union is taken over the pages' cached edge sets.  The pages are
    an exact partition iff the union, the graph's edges and the summed
    page sizes have one length and the union is a subset of the edges;
    that one subset test settles a valid layout.  Only otherwise are the
    differences taken, occurrences counted (when the page sizes show
    that some edge is placed twice), and the edges found wrong looked up
    again, page by page.
    """
    distinct = frozenset().union(*(p.edge_set for p in pages))
    placed = sum(len(p.edges) for p in pages)
    if len(distinct) == len(edges) == placed and distinct <= edges:
        return []
    violations = [Violation(MISSING_EDGE, edge=e) for e in edges - distinct]
    bad = set(distinct - edges)
    if len(distinct) != placed:
        occurrences = Counter(chain.from_iterable(p.edges for p in pages))
        bad.update(e for e, c in occurrences.items() if c > 1)
    if not bad:
        return violations
    # The report is sorted at the end, so iteration order is free here.
    locations: dict[Edge, list[int]] = defaultdict(list)
    for pi, page in enumerate(pages):
        for e in page.edges:
            if e in bad:
                locations[e].append(pi)
    for e, locs in locations.items():
        if e in edges:
            violations.append(Violation(DUPLICATE_EDGE, edge=e, pages=tuple(locs)))
        else:
            violations.extend(Violation(FOREIGN_EDGE, edge=e, page=pi) for pi in locs)
    return violations
