"""Star-forest book layouts: constructions, verification, exact search."""

from .model import (
    BookLayout,
    CircularOrder,
    Edge,
    Page,
    PageKind,
    SimpleGraph,
    crosscap_page,
    disk_page,
    edge,
    identity_order,
)
from .verify import (
    CrossCapSplit,
    Profile,
    StarForestCheck,
    VerificationReport,
    Violation,
    crosscap_page_valid,
    disk_page_valid,
    is_star_forest,
    verify_layout,
)
from .construct import (
    BoundsSummary,
    complete_graph,
    cycle_power,
    edge_count_bounds,
    minus_edge,
    octahedron,
    octahedron_pages,
    odd_extension,
    relaxed_complete,
    star_pages,
    strict_literal,
)
from .search import (
    SearchOutcome,
    SearchProblem,
    canonical_orders,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BookLayout", "CircularOrder", "Edge", "Page", "PageKind", "SimpleGraph",
    "crosscap_page", "disk_page", "edge", "identity_order",
    "CrossCapSplit", "Profile", "StarForestCheck", "VerificationReport",
    "Violation", "crosscap_page_valid", "disk_page_valid", "is_star_forest",
    "verify_layout",
    "BoundsSummary", "complete_graph", "cycle_power", "edge_count_bounds",
    "minus_edge", "octahedron", "octahedron_pages", "odd_extension",
    "relaxed_complete", "star_pages", "strict_literal",
    "SearchOutcome", "SearchProblem", "canonical_orders", "solve",
    "__version__",
]
