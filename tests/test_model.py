import pytest

import starbook
from starbook import (
    CircularOrder,
    SimpleGraph,
    complete_graph,
    edge,
    identity_order,
)


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from starbook import *", namespace)  # a stale name raises AttributeError
    assert set(starbook.__all__) <= namespace.keys()
    assert len(set(starbook.__all__)) == len(starbook.__all__)


def test_edge_canonicalization():
    assert edge(3, 1) == (1, 3)
    assert edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)
    with pytest.raises(ValueError):
        edge(0, 1)


def test_simple_graph_validation():
    g = SimpleGraph(4, frozenset({(1, 2), (3, 4)}))
    assert g.m == 2
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(1, 4)}))
    assert complete_graph(6).m == 15


def test_circular_order_permutation_check():
    assert identity_order(5).is_permutation_of(5)
    assert not CircularOrder((1, 2, 2, 4)).is_permutation_of(4)
    assert not CircularOrder((1, 2, 3)).is_permutation_of(4)
    assert CircularOrder((3, 1, 2)).is_permutation_of(3)


def test_circular_order_position():
    o = CircularOrder((3, 1, 2))
    assert [o.position(v) for v in (1, 2, 3)] == [1, 2, 0]
    with pytest.raises(ValueError, match="vertex 4 is not in the circular order"):
        o.position(4)
