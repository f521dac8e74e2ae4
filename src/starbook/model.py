"""Core value types for circular book layouts of simple graphs.

Vertices are 1-based integer labels placed around a circle (the spine).
An edge is a canonical pair (u, v) with u < v.  A book layout assigns
every edge of a graph to one page; each page is drawn either in a disk
or in a disk with a single cross-cap.

All types here are immutable values and all operations are pure
functions, so everything is safe to share across threads.  The layout
containers are deliberately lenient: structural problems (orders that
are not permutations, pages whose edges are not graph edges, reversed
pairs and loops among them, duplicated edges) are representable and are
reported by the verifier rather than rejected at construction time, so
that untrusted certificates can be loaded and diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical edge key for the unordered pair {u, v}."""
    if u == v:
        raise ValueError(f"loop edge at vertex {u}")
    if u < 1 or v < 1:
        raise ValueError(f"vertex labels are 1-based, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """A simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge {u}-{v} outside vertex range 1..{self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CircularOrder:
    """A cyclic arrangement of vertex labels (the spine order).

    The sequence is normally a permutation of 1..n; that is checked by
    the verifier, not here, so that broken certificates stay loadable.
    """

    seq: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(self.seq))

    def __len__(self) -> int:
        return len(self.seq)

    def __iter__(self):
        return iter(self.seq)

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.seq)}

    def position(self, v: int) -> int:
        try:
            return self._pos[v]
        except KeyError:
            raise ValueError(f"vertex {v} is not in the circular order") from None

    def is_permutation_of(self, n: int) -> bool:
        return len(self.seq) == n and set(self.seq) == set(range(1, n + 1))


def identity_order(n: int) -> CircularOrder:
    """The canonical spine order 1, 2, ..., n."""
    return CircularOrder(tuple(range(1, n + 1)))


class PageKind(str, Enum):
    DISK = "disk"
    CROSSCAP = "crosscap"


@dataclass(frozen=True)
class Page:
    """One page of a layout: a kind plus the edges drawn on it, kept as
    given.  Callers pass canonical edges; a reversed pair or a loop is
    not a graph edge, and the verifier reports it as foreign."""

    kind: PageKind
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "kind", PageKind(self.kind))
        object.__setattr__(self, "edges", tuple(self.edges))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def disk_page(edges) -> Page:
    return Page(PageKind.DISK, tuple(edges))


def crosscap_page(edges) -> Page:
    return Page(PageKind.CROSSCAP, tuple(edges))


@dataclass(frozen=True)
class BookLayout:
    """A graph, a spine order, and a sequence of pages.

    Constructors in this package always produce layouts whose pages
    partition the graph's edges, but the type itself does not enforce
    that; run the verifier to decide validity.
    """

    graph: SimpleGraph
    order: CircularOrder
    pages: tuple[Page, ...]

    def __post_init__(self):
        object.__setattr__(self, "pages", tuple(self.pages))

    @property
    def n(self) -> int:
        return self.graph.n

    def page_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.pages)

