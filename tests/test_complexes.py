"""Simplicial complexes and barycentric subdivision.

The subdivision face counts are checked against an independent chain
counter on the face poset.
"""
import itertools
from fractions import Fraction as F

import pytest

from tverlab import SimplicialComplex, SplitMix64
from tverlab.complexes import simplex

import oracles
from oracles import (
    barycentric_subdivision,
    connected_components,
    dim,
    euler_characteristic,
    faces,
    faces_of_dim,
    full_simplex,
    has_face,
    skeleton,
    standard_center,
)


def count_chains(K, length):
    """Strictly nested chains of `length` nonempty faces, by poset DP."""
    face_list = faces(K)
    ending = {f: [0] * (length + 1) for f in face_list}
    for f in face_list:  # sorted by size, so proper subfaces come first
        ending[f][1] = 1
        for size in range(1, len(f)):
            for g in itertools.combinations(f, size):
                for ln in range(2, length + 1):
                    ending[f][ln] += ending[g][ln - 1]
    return sum(ending[f][length] for f in face_list)


def random_complex(rng, pool=5):
    facets = []
    for _ in range(rng.int_between(1, 4)):
        size = rng.int_between(1, 3)
        verts = set()
        while len(verts) < size:
            verts.add(rng.below(pool))
        facets.append(sorted(verts))
    return SimplicialComplex(facets)


def test_simplex_canonicalization():
    assert simplex([2, 0, 1]) == (0, 1, 2)
    with pytest.raises(ValueError):
        simplex([])
    with pytest.raises(ValueError):
        simplex([1, 1])
    with pytest.raises(ValueError):
        simplex(["a"])


def test_a_complex_needs_a_simplex():
    with pytest.raises(ValueError, match="a complex needs at least one simplex"):
        SimplicialComplex([])


def test_dominated_facets_removed():
    K = SimplicialComplex([[0, 1], [0], [1, 2], [2]])
    assert oracles.facets(K) == frozenset({(0, 1), (1, 2)})
    assert oracles.vertices(K) == (0, 1, 2)
    assert dim(K) == 1
    # dominated two and three dimensions down, and listed out of order
    K = SimplicialComplex([[2], [0, 1], [3, 2, 1, 0]])
    assert oracles.facets(K) == frozenset({(0, 1, 2, 3)})
    assert faces(K) == faces(full_simplex(3))


def facet_scan_has_face(K, s):
    """The definition: s lies in some facet."""
    return any(set(s) <= set(f) for f in oracles.facets(K))


def test_has_face_matches_facet_scan():
    K = SimplicialComplex([[0, 9], [0, 1, 2], [5]])
    for s, expected in (
        ((9, 0), True),
        ((0, 0, 9), True),
        ((2, 1, 0), True),
        ((1, 9), False),
        ((7,), False),
        ((0, 7), False),
        ((), True),
    ):
        assert has_face(K, s) is expected
        assert facet_scan_has_face(K, s) is expected
    rng = SplitMix64(77)
    for _ in range(25):
        K = random_complex(rng)
        for size in range(4):
            for s in itertools.product(range(6), repeat=size):
                assert has_face(K, s) == facet_scan_has_face(K, s)


def test_full_simplex_face_counts():
    K = full_simplex(2)
    assert len(faces(K)) == 7
    assert faces_of_dim(K, 0) == [(0,), (1,), (2,)]
    assert faces_of_dim(K, 1) == [(0, 1), (0, 2), (1, 2)]
    assert euler_characteristic(K) == 1


def test_skeleton():
    K = full_simplex(3)
    sk = skeleton(K, 1)
    assert dim(sk) == 1
    assert len(faces_of_dim(sk, 1)) == 6
    # graph K4: chi = 4 - 6
    assert euler_characteristic(sk) == -2


def test_connected_components():
    K = SimplicialComplex([[0, 1], [2, 3], [4]])
    assert connected_components(K) == 3


def test_subdivision_of_triangle_counts():
    bc = barycentric_subdivision(full_simplex(2))
    sd = bc.complex
    assert len(faces_of_dim(sd, 0)) == 7
    assert len(faces_of_dim(sd, 1)) == 12
    assert len(faces_of_dim(sd, 2)) == 6
    # every sd facet is a full flag: vertex < edge < triangle
    for f in oracles.facets(sd):
        chain = bc.chain_of(f)
        assert [len(c) for c in chain] == [1, 2, 3]


def test_subdivision_counts_match_chain_oracle():
    rng = SplitMix64(31)
    for _ in range(25):
        K = random_complex(rng)
        sd = barycentric_subdivision(K).complex
        for k in range(dim(K) + 1):
            assert len(faces_of_dim(sd, k)) == count_chains(K, k + 1)
        assert euler_characteristic(sd) == euler_characteristic(K)
        assert connected_components(sd) == connected_components(K)


def test_realize_standard_and_center():
    assert standard_center(2) == (F(1, 3), F(1, 3), F(1, 3))
