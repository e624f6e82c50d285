"""Simplicial complexes and barycentric subdivision.

The subdivision face counts are checked against an independent chain
counter on the face poset.
"""
import itertools
from fractions import Fraction as F

import pytest

from tverlab import (
    SimplicialComplex,
    SplitMix64,
    barycentric_subdivision,
    full_simplex,
    simplex,
    skeleton,
    standard_center,
)


def count_chains(K, length):
    """Strictly nested chains of `length` nonempty faces, by poset DP."""
    faces = K.faces()
    ending = {f: [0] * (length + 1) for f in faces}
    for f in faces:  # sorted by size, so proper subfaces come first
        ending[f][1] = 1
        for size in range(1, len(f)):
            for g in itertools.combinations(f, size):
                for ln in range(2, length + 1):
                    ending[f][ln] += ending[g][ln - 1]
    return sum(ending[f][length] for f in faces)


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


def test_dominated_facets_removed():
    K = SimplicialComplex([[0, 1], [0], [1, 2], [2]])
    assert K.facets == frozenset({(0, 1), (1, 2)})
    assert K.vertices == (0, 1, 2)
    assert K.dim == 1
    # dominated two and three dimensions down, and listed out of order
    K = SimplicialComplex([[2], [0, 1], [3, 2, 1, 0]])
    assert K.facets == frozenset({(0, 1, 2, 3)})
    assert K.faces() == full_simplex(3).faces()


def facet_scan_has_face(K, s):
    """The definition: s lies in some facet."""
    return any(set(s) <= set(f) for f in K.facets)


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
        assert K.has_face(s) is expected
        assert facet_scan_has_face(K, s) is expected
    rng = SplitMix64(77)
    for _ in range(25):
        K = random_complex(rng)
        for size in range(4):
            for s in itertools.product(range(6), repeat=size):
                assert K.has_face(s) == facet_scan_has_face(K, s)


def test_full_simplex_face_counts():
    K = full_simplex(2)
    assert len(K.faces()) == 7
    assert K.faces_of_dim(0) == [(0,), (1,), (2,)]
    assert K.faces_of_dim(1) == [(0, 1), (0, 2), (1, 2)]
    assert K.euler_characteristic() == 1


def test_skeleton():
    K = full_simplex(3)
    sk = skeleton(K, 1)
    assert sk.dim == 1
    assert len(sk.faces_of_dim(1)) == 6
    # graph K4: chi = 4 - 6
    assert sk.euler_characteristic() == -2


def test_connected_components():
    K = SimplicialComplex([[0, 1], [2, 3], [4]])
    assert K.connected_components() == 3


def test_subdivision_of_triangle_counts():
    bc = barycentric_subdivision(full_simplex(2))
    sd = bc.complex
    assert len(sd.faces_of_dim(0)) == 7
    assert len(sd.faces_of_dim(1)) == 12
    assert len(sd.faces_of_dim(2)) == 6
    # every sd facet is a full flag: vertex < edge < triangle
    for f in sd.facets:
        chain = bc.chain_of(f)
        assert [len(c) for c in chain] == [1, 2, 3]


def test_subdivision_counts_match_chain_oracle():
    rng = SplitMix64(31)
    for _ in range(25):
        K = random_complex(rng)
        sd = barycentric_subdivision(K).complex
        for k in range(K.dim + 1):
            assert len(sd.faces_of_dim(k)) == count_chains(K, k + 1)
        assert sd.euler_characteristic() == K.euler_characteristic()
        assert sd.connected_components() == K.connected_components()


def test_realize_standard_and_center():
    assert standard_center(2) == (F(1, 3), F(1, 3), F(1, 3))
