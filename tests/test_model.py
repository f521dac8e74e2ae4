import itertools
import random

import pytest

import starbook
from starbook import (
    CircularOrder,
    SimpleGraph,
    arc_contains,
    complete_graph,
    edge,
    identity_order,
    interleaves,
)
from conftest import segments_cross


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


def test_arc_contains_examples():
    o = identity_order(6)
    assert arc_contains(o, 1, 4, 3)
    assert not arc_contains(o, 4, 1, 3)
    assert not arc_contains(o, 1, 4, 4)
    assert not arc_contains(o, 1, 4, 1)
    assert arc_contains(o, 4, 1, 5)
    with pytest.raises(ValueError):
        arc_contains(o, 2, 2, 1)
    with pytest.raises(ValueError):
        arc_contains(o, 1, 4, 9)


def test_interleaves_examples():
    o4 = identity_order(4)
    assert interleaves(o4, (1, 3), (2, 4))
    assert not interleaves(o4, (1, 2), (3, 4))
    o6 = identity_order(6)
    assert interleaves(o6, (1, 4), (2, 5))
    assert not interleaves(o6, (1, 3), (3, 5))  # shared endpoint convention


def _all_chord_pairs(n):
    verts = range(1, n + 1)
    chords = list(itertools.combinations(verts, 2))
    return itertools.combinations(chords, 2)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_interleaves_symmetric_and_matches_geometry(n):
    o = identity_order(n)
    for e, f in _all_chord_pairs(n):
        a = interleaves(o, e, f)
        assert a == interleaves(o, f, e)
        assert a == segments_cross(o, e, f)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_interleaves_rotation_reflection_invariant(n):
    base = identity_order(n)
    rng = random.Random(7)
    variants = []
    for shift in range(n):
        seq = tuple((v + shift - 1) % n + 1 for v in range(1, n + 1))
        variants.append(CircularOrder(seq))
        variants.append(CircularOrder(tuple(reversed(seq))))
    for _ in range(40):
        e = tuple(sorted(rng.sample(range(1, n + 1), 2)))
        f = tuple(sorted(rng.sample(range(1, n + 1), 2)))
        if e == f:
            continue
        want = interleaves(base, e, f)
        for o in variants:
            assert interleaves(o, e, f) == want


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_exactly_one_law(n):
    # For vertex-disjoint chords the two one-endpoint-inside formulations agree.
    o = identity_order(n)
    for e, f in _all_chord_pairs(n):
        if set(e) & set(f):
            continue
        one_of_f = arc_contains(o, e[0], e[1], f[0]) != arc_contains(o, e[0], e[1], f[1])
        one_of_e = arc_contains(o, f[0], f[1], e[0]) != arc_contains(o, f[0], f[1], e[1])
        assert one_of_f == one_of_e
        assert interleaves(o, e, f) == one_of_f


def test_circular_order_permutation_check():
    assert identity_order(5).is_permutation_of(5)
    assert not CircularOrder((1, 2, 2, 4)).is_permutation_of(4)
    assert not CircularOrder((1, 2, 3)).is_permutation_of(4)
    assert CircularOrder((3, 1, 2)).is_permutation_of(3)
