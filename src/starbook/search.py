"""Exact backtracking solver for star-forest page assignments.

Decides whether a graph's edges fit into k pages under a profile,
returning a verified certificate or an exhaustion proof.  At each node
the search branches on the unassigned edge with the fewest pages left
(fail first, as DSATUR colours the vertex with the fewest colours
left), ties broken by a static rank: the fixed edges first (see Fixed
pages), then most crossing conflicts first, then the sorted edge list.
Pages are tried in index order and only the
first empty disk page may be opened, which breaks page symmetry; so the
open disk pages are always a prefix, and the search passes their count
down the recursion.  The relaxed profile, and only it, gives the last
page index to the cross-cap page, which is tried last.

Edge i is bit i of every edge set, numbered by static rank, so the
lowest bit of a set is its edge of least rank.  Each chord has a bitset
of the chords crossing it, built by one sweep over the spine positions
(see `_crossings`), and each vertex one of the edges at it; the
chords parallel to chord j (no shared vertex, no crossing) are those in
neither j's crossing set nor the sets at its two ends.  Page p is
kept as `mask[p]`, the bitset of its edges; `blocked[p]`, the edges it
cannot take; and `near[p]`, the edges at some vertex it touches.  A
page blocks an edge whose ends it both touches and an edge at a leaf (a
vertex whose one page edge goes to a centre with two or more); a disk
page also blocks the chords crossing its edges.  The cross-cap page
keeps those chords apart instead, as `cap_cross`.  So a page blocks
exactly its own edges, the edges that would make it no star forest and,
on a disk page, the chords crossing its edges.  This is the blocking
rule, and `_rec` is the one code that applies it.  The vertex bitset
`lonely` (vertex v as bit v) holds the vertices of degree above the
page count that no page on the search path has made a centre or an end
of a lone edge, and the running integer `slack`, the vertices untouched
by each page summed over the pages less the empty pages, is the most
edges the pages can still take (see Pruning).  Putting an edge
on a page updates all of these in a few bitset operations; every page
set only grows and `lonely` only shrinks, so a search node holds the
page's old values, `slack`, `cap_cross`, `lonely` and `counts` (below)
in locals and puts them back.  Whether page p can take edge i is then
the one bit test `blocked[p]`, except on the cross-cap page when chord
i is in `cap_cross`: there the engine applies `verify`'s pairwise rule
to its flagged chords (those crossing some chord of the page; no two
may be parallel), and `verify.crosscap_page_valid` must confirm every
rejection; the engine remembers the pages it has confirmed, so each is
confirmed once.

An edge's page count is read from the `blocked` bits alone: the open
disk pages and the cross-cap page that do not block it, plus the first
empty disk page.  So the engine keeps, for every edge, the number of
pages blocking it, bit-sliced into `counts` (one bitset per bit of a
count).  Putting an edge on a page adds the edges it newly blocks with
a ripple carry, and finding the least page count over the unassigned
edges reads the slices once, from the high bit down.

Fixed pages: the p-th of `SearchProblem.fixed_pages` is disk page p,
and the search places its edges like any other.  The build blocks each
fixed edge on every page but its own, so an empty page blocks only the
other pages' fixed edges, and a fixed edge's count is b - 1, for b the
page count: the most an edge can have and keep a page.  With the least
static ranks, page by page, the fixed edges are branched on first, page
0's before page 1's, so page p is the first empty disk page when its
first edge goes on it, and each fixed edge has its own page alone to
try.  A star forest's edges pass the blocking rule in any order, and
`SearchProblem` has checked the fixed pages with the verifier, so every
fixed edge goes on; a bound may cut the node first.

Pruning: a node whose unassigned edges outnumber `slack` is cut, so is
a node where some unassigned edge has a page count of zero, and so is a
node that fails the lonely-vertex bound below.  All three only cut
nodes below which no witness exists, and the branching choice only
reorders the tree, so the search stays complete.  The first is a
counting bound: the pages can still take at most U - E edges, for U
their untouched vertices and E the empty pages.  Proof.  No edge joins
two vertices a page touches, so no two components of a page ever
merge; each edge a page goes on to take either grows a component by one
untouched vertex or is the first edge of a new star, whose two ends are
both untouched.  So the edges a page still takes are the untouched
vertices it goes on to touch less the new stars it starts.  An empty
page that takes an edge starts a star, and one that stays empty takes
nothing and keeps all n of its untouched vertices; either way it takes
at most its untouched vertices less one.

The second is the lonely-vertex bound.  Let R be the unassigned edges,
L = |lonely|, U_p the untouched vertices of page p, b the page count
and K the least deg(v) - b + 2 over the vertices of degree above b,
fixed at the build as `star_size`.  A node is cut when the need
2L + R - U exceeds min(L, room), for room the sum over the pages of
floor(U_p / K).  Proof: at least the need and at most min(L, room)
lonely vertices centre exactly one new star.  A lonely vertex v first
touched each page it touches as a leaf, since an untouched vertex joins
a page either as an end of a new lone edge (which would have taken v
out of `lonely`) or as a leaf, and a leaf takes no second edge; so v
has taken one edge on each page it touches, and its unassigned edges
exceed its untouched pages by deg(v) - b > 0.  That is why `lonely`
needs only the static degree test and, per new lone edge, one AND.  So
some page that v has not touched takes two or more of v's edges, and
there v is the centre of a star holding no edge of the page now: a new
star.  (`lonely` only shrinks, so a lone-edge end that a later edge
makes a leaf is not put back, though it must still centre a new star
too: `lonely` is a subset of those vertices, which keeps the bound
sound but loosens it there.)  By the count above, the new stars number
(the untouched vertices the pages go on to touch) - R <= U - R.  Each
lonely vertex v centres new stars on c_v >= 1 pages, and a star has one
centre, so the sum of c_v - 1 is at most U - R - L, and at least
L - (U - R - L), the need, have c_v = 1.  Such a vertex has one edge on
each page it has touched, and at most one on each other page where it
is not a centre (two edges at a vertex of a star forest make it the
centre of their star), so its one star has deg(v) - b + 1 or more
leaves and K or more vertices.  Its centre is untouched on that page,
and so is each leaf, whose one edge there is the star's; and the stars
of one page share no vertex.  So page p holds at most floor(U_p / K) of
these stars.  The case need > L is R > U - L, one new star per lonely
vertex; it cuts K_2r at r pages at the root (Akiyama and Kano's count
for even n).  The room proves their count for odd n >= 5 at the root,
that K_n needs (n+1)/2 + 1 star forests: at b = (n+1)/2 every vertex
is lonely, the need is n, K = b and each page holds one star.  The
engine evaluates the bound after the dead-edge test and only while
`lonely` is non-zero (at 6 of the 429,798 nodes of strict K_12 at
budget 9 and at 1,005 of the 16,776 of relaxed K_10 at budget 6), and
counts each page's untouched vertices from `mask` (`_lonely_cuts`)
only where 0 < need <= L (6 of those 1,005 nodes).  A replayed search
that checks its leaves would check this one as a third kind of leaf,
beside a dead edge and the counting bound.

Each search node is one Python call, `_Engine._rec`: most nodes have
one child or none, so the cost of a call and of reading the engine's
attributes is most of a node's cost.  The node reads its limits at one
checkpoint (the next node count at which the node budget runs out or
the clock is due, every 4,096 nodes), applies the prunes, picks its
edge from the slices, and puts the edge on each page it tries inline,
reading the edge's tables once.  A probe of the cross-cap page with a
chord in `cap_cross` checks only the chords it newly flags, since the
page's flagged chords are already pairwise non-parallel (the lemma in
`_cap_feasible`).  When the chord is the only one newly flagged and no
flagged chord is parallel to it, `_rec` accepts it inline; otherwise it
calls `_cap_feasible`.  One pass of the benchmark's crosscap_search
workload at seed 0 makes 7,543 such probes: 6,360 are accepted inline,
and 1,183 call `_cap_feasible`, which rejects 390.

With `optimize_order` the search runs one engine per class of spine
orders that an automorphism of the graph maps onto each other (see
`distinct_orders`): K_n has one class, K_6 minus an edge three.  An
automorphism carrying one order onto another carries every layout with
it, so a class shares one verdict; and the first SAT order in
`canonical_orders` leads its class, so the witness is the one that
searching every order would find.

The search is sequential and deterministic, so certificates are
byte-identical across runs.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass

from .model import (
    BookLayout,
    CircularOrder,
    Edge,
    Page,
    PageKind,
    SimpleGraph,
    crosscap_page,
    disk_page,
    identity_order,
)
from .verify import Profile, crosscap_page_valid, disk_page_valid, is_star_forest, verify_layout

# Names the branching rule, pruning, page order and the spine orders that
# optimize_order searches, which fix every node count; journal records
# carry it.  Change it whenever a node count moves.
ENGINE_VERSION = "fail-first/5"
DEFAULT_NODE_LIMIT = 10**9
DEFAULT_TIME_LIMIT = 600.0
# Bounds what building an engine costs before any node is searched: the
# build grows about as n^4 and its crossing table as m^2.
MAX_SEARCH_VERTICES = 64
# canonical_orders yields (n-1)!/2 orders: 20,160 at n = 9.
MAX_ORDER_VERTICES = 9


@dataclass(frozen=True)
class SearchProblem:
    graph: SimpleGraph
    budget: int
    profile: Profile
    order: CircularOrder | None = None
    crosscap_allowed: bool | None = None  # set from the profile
    optimize_order: bool = False
    node_limit: int = DEFAULT_NODE_LIMIT
    time_limit: float = DEFAULT_TIME_LIMIT
    fixed_pages: tuple[tuple[Edge, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "profile", Profile(self.profile))
        if self.graph.n > MAX_SEARCH_VERTICES:
            raise ValueError(f"vertex count {self.graph.n} exceeds the search limit "
                             f"of {MAX_SEARCH_VERTICES}")
        if self.budget < 1:
            raise ValueError("page budget must be at least 1")
        if self.node_limit < 0:
            raise ValueError(f"node limit must be at least 0, got {self.node_limit}")
        if not self.time_limit >= 0:  # NaN too
            raise ValueError(f"time limit must be at least 0 seconds, got {self.time_limit}")
        relaxed = self.profile is Profile.RELAXED
        if self.crosscap_allowed is None:
            object.__setattr__(self, "crosscap_allowed", relaxed)
        elif self.crosscap_allowed != relaxed:
            raise ValueError("the relaxed profile, and only it, has a cross-cap page")
        if self.optimize_order:
            if self.order is not None:
                raise ValueError("optimize_order requires the order to be unset")
            if self.profile is Profile.STAR_FORESTS_ONLY:
                raise ValueError("order optimization is pointless without geometry")
            if self.graph.n > MAX_ORDER_VERTICES:
                raise ValueError(f"order optimization is limited to n <= {MAX_ORDER_VERTICES}")
        if self.order is not None and not self.order.is_permutation_of(self.graph.n):
            raise ValueError("order must be a permutation of the graph's vertices")
        # Fixed page p is disk page p, so the cross-cap page is never fixed.
        if len(self.fixed_pages) > self.budget - relaxed:
            raise ValueError("more fixed pages than the budget has disk pages")
        if self.fixed_pages and self.optimize_order:
            raise ValueError("fixed pages require a fixed order")
        seen: set[Edge] = set()
        for page in self.fixed_pages:
            if not page:
                raise ValueError("a fixed page must hold at least one edge")
            for e in page:
                if e not in self.graph.edges:
                    raise ValueError(f"fixed edge {e} is not a graph edge")
                if e in seen:
                    raise ValueError(f"fixed edge {e} appears twice")
                seen.add(e)
        for p, page in enumerate(self.fixed_pages):  # on the order the search uses
            if not is_star_forest(page).ok or (
                    self.profile is not Profile.STAR_FORESTS_ONLY and not disk_page_valid(
                        self.order or identity_order(self.graph.n), disk_page(page))[0]):
                raise ValueError(f"fixed page {p} is not a valid star-forest disk page")


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "sat" | "unsat" | "aborted"
    layout: BookLayout | None
    nodes: int
    max_depth: int
    wall_time: float
    reason: str | None = None  # "node_limit" | "time_limit" when aborted


class _Abort(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _crossings(order: CircularOrder, edges: list[Edge]) -> list[int]:
    """crossings[i]: the bitset of the edges crossing edge i, edge j as
    bit j.

    Number the spine positions 0 .. n-1 from the order's first vertex.  A
    chord whose ends sit at positions a < b crosses exactly the edges
    with one end strictly between a and b and the other strictly outside
    [a, b]; an edge sharing an end with it has that end at a or b, so it
    is neither.  So each chord's set is the edges at some position
    inside it and at some position outside it.  The outside is read from
    prefix and suffix ORs of the edges at each position, and the inside
    is grown by one sweep over the chords with left end a in order of b.
    """
    pos = {v: x for x, v in enumerate(order)}
    n = len(pos)
    at = [0] * n  # at[x]: the edges with an end at position x
    chords = [[] for _ in range(n)]  # chords[a]: (b, i) for each edge i at a < b
    for i, (u, v) in enumerate(edges):
        a, b = sorted((pos[u], pos[v]))
        at[a] |= 1 << i
        at[b] |= 1 << i
        chords[a].append((b, i))
    before = [0] * (n + 1)  # before[x]: the edges at some position < x
    after = [0] * (n + 1)  # after[x]: the edges at some position >= x
    for x in range(n):
        before[x + 1] = before[x] | at[x]
        after[n - 1 - x] = after[n - x] | at[n - 1 - x]
    crossings = [0] * len(edges)
    for a in range(n):
        inside, x = 0, a + 1
        for b, i in sorted(chords[a]):
            while x < b:
                inside |= at[x]
                x += 1
            crossings[i] = inside & (before[a] | after[b + 1])
    return crossings


class _Engine:
    """Backtracking core for one fixed spine order."""

    def __init__(self, problem: SearchProblem, order: CircularOrder,
                 node_budget: int, deadline: float):
        self.problem = problem
        self.order = order
        self.n = problem.graph.n
        # The page tables are sized by the budget, so a budget past m + 1
        # (m edges) is cut to m + 1, which changes no node.  A disk page
        # opens only when an edge goes on it, so while an edge is
        # unassigned fewer than m pages are open and the first empty disk
        # page is always there to try; no degree is above m, so `lonely`
        # is empty, and after t placements slack is at least
        # (m+1)(n-1) - 2t >= m - t, the unassigned edges, so the counting
        # bound never cuts.
        self.budget = min(problem.budget, problem.graph.m + 1)
        self.geometric = problem.profile is not Profile.STAR_FORESTS_ONLY
        relaxed = problem.profile is Profile.RELAXED  # the one profile with a cross-cap page
        self.cap_idx = self.budget - 1 if relaxed else -1
        self.disks = self.budget - relaxed  # pages 0 .. disks-1
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        # The next node count at which `_rec` reads a limit: the node past
        # the budget, or the next multiple of 4096, where it reads the clock.
        self.checkpoint = min(4096, node_budget + 1)
        self.max_depth = 0

        page_of = {e: p for p, page in enumerate(problem.fixed_pages) for e in page}
        edges = sorted(problem.graph.edges)
        m = len(edges)
        # Static rank: the fixed edges first, page by page; then the other
        # edges, most crossings with other non-fixed edges first, ties by
        # the sorted list.  Edge i is bit i of every edge set, so the lowest
        # bit of a set is its edge of least rank.
        free = sum(1 << i for i, e in enumerate(edges) if e not in page_of)
        crosses = _crossings(order, edges) if self.geometric else [0] * m
        rank = sorted(range(m), key=lambda i: (
            page_of.get(edges[i], len(problem.fixed_pages)), -(crosses[i] & free).bit_count(), i))
        self.all_edges = [edges[i] for i in rank]
        # conflict[i]: the chords crossing chord i.
        self.conflict = _crossings(order, self.all_edges) if self.geometric else [0] * m
        self.unassigned = (1 << m) - 1
        # inc[v] holds the edges at vertex v.
        self.inc = inc = [0] * (self.n + 1)
        for i, (u, v) in enumerate(self.all_edges):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        # par[j]: the chords parallel to chord j (u, v), in none of
        # conflict[j], inc[u] and inc[v]; only the cross-cap rule reads it.
        self.par = []
        if self.cap_idx >= 0:
            full = (1 << m) - 1
            self.par = [full & ~(self.conflict[j] | inc[u] | inc[v])
                        for j, (u, v) in enumerate(self.all_edges)]

        b = self.budget
        self.mask = [0] * b  # the edges on each page
        # blocked[p]: the edges page p cannot take; at the start, the other
        # pages' fixed edges (see Fixed pages in the module docstring).
        fixed = (1 << len(page_of)) - 1  # the fixed edges, whose ranks are least
        own = [0] * b
        for i, e in enumerate(self.all_edges[:len(page_of)]):
            own[page_of[e]] |= 1 << i
        self.blocked = [fixed & ~mine for mine in own]
        self.near = [0] * b  # the edges at some vertex that the page touches
        # lonely: the vertices of degree above b (see the module docstring).
        degree = Counter(v for e in edges for v in e)
        self.lonely = sum(1 << v for v, d in degree.items() if d > b)
        # The fewest vertices of the one new star of a lonely vertex that
        # centres no other (see the module docstring); 0 when none is lonely.
        self.star_size = min((d - b + 2 for d in degree.values() if d > b), default=0)
        # untouched vertices over all pages - empty pages
        self.slack = b * self.n - b
        self.cap_cross = 0  # the chords crossing some edge of the cross-cap page
        # counts[j]: the edges whose count of pages blocking them has bit j
        # set (see _rec); a count is at most b, and a fixed edge's starts at
        # b - 1.  slices: the j, high bit first.
        self.counts = [fixed if b - 1 >> j & 1 else 0 for j in range(b.bit_length())]
        self.slices = tuple(range(b.bit_length() - 1, -1, -1))
        self.rejected: set[int] = set()  # cap pages the verifier has rejected
        # tried[k]: the pages tried when disk pages 0 .. k-1 are open, in
        # order (those, the first empty disk page if any, the cross-cap
        # page), each with the open count below it: k + 1 on the first
        # empty disk page, k elsewhere.
        self.tried = []
        for k in range(self.disks + 1):
            pages = [(p, k + (p == k)) for p in range(min(k + 1, self.disks))]
            if self.cap_idx >= 0:
                pages.append((self.cap_idx, k))
            self.tried.append(tuple(pages))

    # page state updates -------------------------------------------------

    def _edges(self, mask: int) -> list[Edge]:
        """The edges of the set `mask`, sorted."""
        edges = self.all_edges
        out = []
        while mask:
            low = mask & -mask
            out.append(edges[low.bit_length() - 1])
            mask ^= low
        out.sort()
        return out

    def _cap_feasible(self, i: int) -> bool:
        """The pairwise rule of `verify` on the cross-cap page plus chord i:
        no two flagged chords (those crossing some chord of the page) may
        be parallel.  The chords parallel to chord j are `par[j]`.

        The page's flagged chords are `cap_cross & page`, and they are
        pairwise non-parallel: the engine puts chord i on the page only
        when i crosses no page chord, which flags nothing new, or when
        this rule accepted the page plus i, so the claim holds by
        induction from the empty page.  So the page plus i breaks the
        rule iff one of the chords it newly flags, i and the page chords
        crossing i outside `cap_cross`, is parallel to some flagged chord;
        only those are checked.  `_rec` accepts without this call when i is
        the one new chord and no flagged chord is parallel to it.

        Each distinct rejected page is confirmed by `crosscap_page_valid`,
        so an UNSAT verdict rests only on disk conflicts and on the
        verifier's own rejections; a wrong accept is caught when the
        witness is verified.
        """
        page = self.mask[self.cap_idx]
        mask = page | 1 << i
        flagged = (self.cap_cross | self.conflict[i]) & mask
        new = flagged & ~(self.cap_cross & page)
        par = self.par
        while new:
            low = new & -new
            if flagged & par[low.bit_length() - 1]:
                break
            new ^= low
        else:
            return True
        if mask not in self.rejected:
            probe = crosscap_page(self._edges(mask))
            if crosscap_page_valid(self.order, probe)[0]:
                raise RuntimeError("engine rejected a cross-cap page that the verifier accepts: "
                                   + ", ".join(f"{u}-{v}" for u, v in probe.edges))
            self.rejected.add(mask)
        return False

    def _lonely_cuts(self, unassigned: int, opened: int) -> bool:
        """Whether the lonely-vertex bound of the module docstring cuts this
        node, where `lonely` is non-zero: the need 2L + R - U exceeds L or
        the room, the sum over the pages of floor(U_p / `star_size`), U_p
        counted from `mask` only when 0 < need <= L.  `_rec` calls it, so
        its own frame holds none of these counts."""
        mask, cap, many = self.mask, self.cap_idx, self.lonely.bit_count()
        empty = self.disks - opened + (cap >= 0 and not mask[cap])
        need = 2 * many + unassigned.bit_count() - self.slack - empty
        if need <= 0:
            return False
        at, size = self.inc[1:], self.star_size  # the edges at each vertex
        return need > many or sum(
            [edges & page for edges in at].count(0) // size for page in mask) < need

    # search -------------------------------------------------------------

    def run(self) -> bool:
        """Search from the root, under a recursion limit raised for `_rec`'s
        one frame per placed edge and put back afterwards."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + len(self.all_edges) + 64)
        try:
            return self._rec(0, self.unassigned, 0)
        finally:
            sys.setrecursionlimit(limit)

    def _rec(self, depth: int, unassigned: int, opened: int) -> bool:
        """Search below this node, where disk pages 0 .. opened-1 are open
        and the rest are empty, in one Python frame.

        The limits are read only when the node count reaches `checkpoint`
        (see `__init__`).  Then come the counting bound, the unassigned
        edges against `slack` (proved in the module docstring), and the
        branched edge: the unassigned edge blocked by the most pages, read
        from the bit-sliced `counts` from the high bit down, ties by
        static rank; when that is every page, no disk page is empty and
        the edge has no page left, so the node is cut.  While a fixed edge
        is unassigned, the branched edge is the fixed edge of least rank,
        blocked by every page but its own (see Fixed pages in the module
        docstring).  Otherwise an empty page blocks nothing, so the
        branched edge is the one with the fewest pages left: those the
        loop below would try without the cross-cap rule, the open disk
        pages and the cross-cap page whose `blocked` bit is clear, plus
        the first empty disk page, which every edge has alike.  Most
        strict nodes end there, so the lonely-vertex bound (also proved
        in the module docstring) comes after it, tested only while
        `lonely` is non-zero.  The cross-cap page takes a chord in
        `cap_cross` when no page chord outside `cap_cross` crosses it and
        no flagged chord is parallel to it, and otherwise when
        `_cap_feasible` accepts.

        Each page the edge may take gets it inline, by the blocking rule:
        a new lone edge blocks itself and the edges from its ends to the
        vertices the page touches; an edge at a touched vertex makes its
        other end a leaf and blocks the edges there, and when the touched
        vertex ended a lone edge, the far end of that edge becomes a leaf
        too.  A disk page also blocks the chords crossing the edge; the
        cross-cap page adds them to `cap_cross`.  Then comes the child's
        recursion; the page's old values, `slack`, `cap_cross`, `lonely`
        and `counts` are held in locals and put back when the child
        fails.  A new lone edge takes its two ends out of `lonely` and 2
        untouched vertices from `slack`, and gives 1 back when it opens
        a page; any other edge takes 1.
        """
        nodes = self.nodes = self.nodes + 1
        if depth > self.max_depth:
            self.max_depth = depth
        if nodes >= self.checkpoint:
            if nodes > self.node_budget:
                raise _Abort("node_limit")
            if time.monotonic() > self.deadline:  # nodes is a multiple of 4096
                raise _Abort("time_limit")
            self.checkpoint = min(nodes + 4096, self.node_budget + 1)
        if not unassigned:
            return True
        slack = self.slack
        if unassigned.bit_count() > slack:
            return False
        counts = self.counts
        most = unassigned
        top = 0
        for j in self.slices:
            above = most & counts[j]
            if above:
                most = above
                top |= 1 << j
        if top == self.budget:
            return False  # every page blocks this edge, so no disk page is empty
        if self.lonely and self._lonely_cuts(unassigned, opened):
            return False
        bit = most & -most
        i = bit.bit_length() - 1
        rest = unassigned ^ bit
        depth += 1
        edges, inc = self.all_edges, self.inc
        u, v = edges[i]
        inc_u, inc_v = inc[u], inc[v]
        ends = inc_u | inc_v
        crossing = self.conflict[i]
        mask, blocked, near = self.mask, self.blocked, self.near
        cap, cap_cross, lonely = self.cap_idx, self.cap_cross, self.lonely
        for p, below in self.tried[opened]:
            old = blocked[p]
            if old & bit:
                continue
            if p == cap and cap_cross & bit and (
                    crossing & mask[p] & ~cap_cross or cap_cross & mask[p] & self.par[i]
            ) and not self._cap_feasible(i):
                continue
            page, was_near = mask[p], near[p]
            at = page & ends  # the page edges at u or v, all at one end
            if not at:  # a new lone edge
                new = old | ends & was_near | bit
                near[p] = was_near | ends
                if lonely:
                    self.lonely = lonely & ~(1 << u | 1 << v)
                self.slack = slack + (not page) - 2
            else:  # the untouched end becomes a leaf
                touched, at_leaf = (u, inc_v) if at & inc_u else (v, inc_u)
                new = old | at_leaf
                if not at & (at - 1):  # a lone edge (touched, far): far becomes a leaf too
                    a, b = edges[at.bit_length() - 1]
                    new |= inc[b if a == touched else a]
                near[p] = was_near | at_leaf
                self.slack = slack - 1
            if p == cap:
                self.cap_cross = cap_cross | crossing
            else:
                new |= crossing
            blocked[p] = new
            mask[p] = page | bit
            added = counts[:]
            carry = new ^ old
            j = 0
            while carry:
                c = added[j]
                added[j] = c ^ carry
                carry &= c
                j += 1
            self.counts = added
            if self._rec(depth, rest, below):
                return True
            mask[p], blocked[p], near[p] = page, old, was_near
            self.slack, self.cap_cross, self.counts = slack, cap_cross, counts
            self.lonely = lonely
        return False

    def extract_layout(self) -> BookLayout:
        pages = []
        for p in range(self.budget):
            if not self.mask[p]:
                continue
            kind = PageKind.CROSSCAP if p == self.cap_idx else PageKind.DISK
            pages.append(Page(kind, self._edges(self.mask[p])))
        return BookLayout(self.problem.graph, self.order, tuple(pages))


def canonical_orders(n: int):
    """Circular orders up to rotation and reflection: vertex 1 first and
    the forward reading lexicographically no larger than the reversed."""
    if n > MAX_ORDER_VERTICES:
        raise ValueError(f"order enumeration is limited to n <= {MAX_ORDER_VERTICES}")
    if n <= 2:
        yield identity_order(n)
        return
    for p in itertools.permutations(range(2, n + 1)):
        if p[0] > p[-1]:
            continue
        yield CircularOrder((1,) + p)


def distinct_orders(graph: SimpleGraph):
    """The canonical orders of the graph's vertices, one per class of
    orders that an automorphism of the graph maps onto each other: the
    first of each class in `canonical_orders`.

    An order's drawing is the set of position pairs {pos(u), pos(v)}
    over the graph's edges, kept as a bitmask with bit a*n + b for a < b.
    If order s's drawing is g of order t's for a rotation or reflection g
    of the positions, the map sending the vertex at position x in t to
    the one at g(x) in s takes edges to edges, so it is an automorphism,
    and it carries every layout on t onto one on s with the same
    crossings; conversely, such an automorphism makes the drawings equal
    up to g.  So an order is skipped when its drawing is one of the 2n
    images of an earlier yielded order's drawing.

    A position map sends one drawing onto another exactly when it sends
    their complements (the non-edges' position pairs) onto each other,
    so the drawing is taken from the sparser side: the non-edges when
    the graph has more than half of all vertex pairs.
    """
    n = graph.n
    drawn = graph.edges
    if 4 * len(drawn) > n * (n - 1):
        drawn = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in drawn]
    bit = [[1 << (min(a, b) * n + max(a, b)) for b in range(n)] for a in range(n)]
    images = [[(s * x + r) % n for x in range(n)] for r in range(n) for s in (1, -1)]
    seen: set[int] = set()
    for order in canonical_orders(n):
        pos = {v: x for x, v in enumerate(order)}
        pairs = [(pos[u], pos[v]) for u, v in drawn]
        if sum(bit[a][b] for a, b in pairs) in seen:
            continue
        for g in images:
            seen.add(sum(bit[g[a]][g[b]] for a, b in pairs))
        yield order


def solve(problem: SearchProblem) -> SearchOutcome:
    """Complete search for a layout within the page budget.

    Returns a verified Satisfiable certificate, an exhaustion proof with
    node statistics, or an Aborted outcome when a limit is hit (never a
    wrong verdict).  With optimize_order the search runs over the
    canonical spine orders, one per automorphism class
    (`distinct_orders`), and is satisfiable iff any order is: the orders
    of a class share a verdict, since an automorphism carries layouts on
    one onto the other, and the first SAT order of `canonical_orders`
    leads its class, so the certificate is the same as over every order.
    """
    start = time.monotonic()
    deadline = start + problem.time_limit
    nodes = 0
    max_depth = 0

    if problem.optimize_order:
        orders = distinct_orders(problem.graph)
    elif problem.order is not None:
        orders = [problem.order]
    else:
        orders = [identity_order(problem.graph.n)]

    try:
        for count, order in enumerate(orders):
            # An engine reads the clock only every 4,096 of its own nodes, so
            # the clock is read again between engines.
            if count and time.monotonic() > deadline:
                raise _Abort("time_limit")
            engine = _Engine(problem, order, problem.node_limit - nodes, deadline)
            try:
                found = engine.run()
            finally:
                nodes += engine.nodes
                max_depth = max(max_depth, engine.max_depth)
            if found:
                layout = engine.extract_layout()
                report = verify_layout(layout, problem.profile)
                if not report.passed:
                    raise RuntimeError(
                        "solver produced a certificate that fails verification: "
                        + "; ".join(v.describe() for v in report.violations)
                    )
                return SearchOutcome("sat", layout, nodes, max_depth, time.monotonic() - start)
    except _Abort as abort:
        return SearchOutcome("aborted", None, nodes, max_depth, time.monotonic() - start,
                             abort.reason)
    return SearchOutcome("unsat", None, nodes, max_depth, time.monotonic() - start)
