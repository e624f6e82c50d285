"""Free involutions, quotients, and the mod-2 index.

Quotient sizes are cross-checked against an independent chain count on
the cover: after one subdivision the quotient must contain exactly half
the faces of the cover in every dimension.
"""
import itertools

import pytest

from tverlab import (
    F2Cochain,
    FixedSimplexError,
    SimplicialComplex,
    SplitMix64,
    Z2Complex,
    characteristic_cocycle,
    cross_polytope_sphere,
    cup_power,
    disjoint_union_index,
    hind,
    is_coboundary,
    quotient,
    subdivide_z2,
    z2_disjoint_union,
)
from tverlab.z2 import _gf2_solvable, coboundary


def chain_count(K, length):
    faces = K.faces()
    ending = {f: [0] * (length + 1) for f in faces}
    for f in faces:
        ending[f][1] = 1
        for size in range(1, len(f)):
            for g in itertools.combinations(f, size):
                for ln in range(2, length + 1):
                    ending[f][ln] += ending[g][ln - 1]
    return sum(ending[f][length] for f in faces)


def test_cross_polytope_structure():
    for m in range(4):
        X = cross_polytope_sphere(m)
        assert len(X.complex.vertices) == 2 * (m + 1)
        assert len(X.complex.facets) == 2 ** (m + 1)
        assert X.complex.euler_characteristic() == 1 + (-1) ** m
        assert X.is_free()


def test_involution_validation():
    tri = SimplicialComplex([[0, 1, 2]])
    with pytest.raises(ValueError):
        Z2Complex(tri, {0: 1, 1: 2, 2: 0})  # order 3, not an involution
    with pytest.raises(ValueError):
        Z2Complex(SimplicialComplex([[0, 1], [2]]), {0: 2, 2: 0, 1: 1})


def test_fixed_simplices_rejected():
    edge = SimplicialComplex([[0, 1]])
    with pytest.raises(FixedSimplexError):
        quotient(Z2Complex(edge, {0: 0, 1: 1}))
    # swapping the endpoints fixes the edge as a set
    with pytest.raises(FixedSimplexError):
        quotient(Z2Complex(edge, {0: 1, 1: 0}))


def test_quotient_of_zero_sphere_is_a_point():
    q = quotient(cross_polytope_sphere(0))
    assert q.complex.facets == frozenset({(0,)})


def test_quotient_sizes_are_half_the_subdivided_cover():
    for m in (1, 2):
        X = cross_polytope_sphere(m)
        q = quotient(X)
        for k in range(X.complex.dim + 1):
            assert 2 * len(q.complex.faces_of_dim(k)) == chain_count(
                X.complex, k + 1
            )


def test_circle_and_projective_plane_quotients():
    q1 = quotient(cross_polytope_sphere(1))
    assert q1.complex.dim == 1
    assert q1.complex.euler_characteristic() == 0
    assert q1.complex.connected_components() == 1

    q2 = quotient(cross_polytope_sphere(2))
    assert q2.complex.euler_characteristic() == 1
    assert len(q2.complex.vertices) == 13


def test_characteristic_class_of_circle_quotient():
    q = quotient(cross_polytope_sphere(1))
    w = characteristic_cocycle(q)
    assert w.degree == 1 and w
    assert not is_coboundary(w, q)
    assert cup_power(w, 1, q).support == w.support


def test_section_change_shifts_cocycle_by_coboundary():
    rng = SplitMix64(808)
    for m in (1, 2):
        X = cross_polytope_sphere(m)
        q = quotient(X)
        w = characteristic_cocycle(q)
        for _ in range(5):
            section = dict(q.section)
            for v in q.complex.vertices:
                if rng.below(2):
                    section[v] = q.cover_involution[section[v]]
            q2 = q.with_section(section)
            w2 = characteristic_cocycle(q2)
            assert is_coboundary(w ^ w2, q)


def test_cup_powers_on_projective_plane():
    q = quotient(cross_polytope_sphere(2))
    w = characteristic_cocycle(q)
    ww = cup_power(w, 2, q)
    assert ww and not is_coboundary(ww, q)
    assert not cup_power(w, 3, q)  # no 3-faces to support it


def test_coboundaries_recognized():
    q = quotient(cross_polytope_sphere(2))
    K = q.complex
    rng = SplitMix64(4242)
    for _ in range(20):
        deg = rng.below(2)
        pool = K.faces_of_dim(deg)
        support = frozenset(f for f in pool if rng.below(2))
        x = coboundary(F2Cochain(deg, support), K)
        assert is_coboundary(x, q)
    zero = F2Cochain(1, frozenset())
    assert is_coboundary(zero, q)
    ones = F2Cochain(0, frozenset(K.faces_of_dim(0)))
    # constant-one function on a connected complex: a cocycle, not a coboundary
    assert not is_coboundary(ones, q)
    with pytest.raises(ValueError):
        is_coboundary(F2Cochain(1, frozenset([K.faces_of_dim(1)[0]])), q)


def brute_force_solvable(rows, ncols):
    rhs = 1 << ncols
    for y in range(1 << ncols):
        if all(
            bin(row & y & (rhs - 1)).count("1") % 2 == (1 if row & rhs else 0)
            for row in rows
        ):
            return True
    return False


def test_gf2_elimination_matches_exhaustive_search():
    rng = SplitMix64(2024)
    for _ in range(300):
        ncols = rng.int_between(1, 8)
        rows = [rng.below(1 << (ncols + 1)) for _ in range(rng.int_between(0, 9))]
        if rows and rng.below(3) == 0:
            rows.append(rows[rng.below(len(rows))])  # duplicate row
        if rng.below(4) == 0:
            rows.insert(rng.below(len(rows) + 1), 1 << ncols)  # reads 0 = 1
        assert _gf2_solvable(rows, ncols) == brute_force_solvable(rows, ncols)
    assert not _gf2_solvable([0b011, 0b011 | 0b100], 2)
    assert _gf2_solvable([0b101, 0b101, 0b110], 2)
    assert _gf2_solvable([], 3)


def test_sphere_index_values():
    for m in range(3):
        assert hind(cross_polytope_sphere(m)) == m


@pytest.mark.slow
def test_sphere_index_three_and_four():
    assert hind(cross_polytope_sphere(3)) == 3
    assert hind(cross_polytope_sphere(4)) == 4


def test_index_invariant_under_subdivision():
    for m in (0, 1):
        X = cross_polytope_sphere(m)
        assert hind(subdivide_z2(X)) == m


def test_disjoint_union_index_is_max():
    rng = SplitMix64(11)
    for _ in range(6):
        a, b = rng.below(3), rng.below(3)
        X, Y = cross_polytope_sphere(a), cross_polytope_sphere(b)
        u = z2_disjoint_union(X, Y)
        assert u.is_free()
        assert (
            u.complex.euler_characteristic()
            == X.complex.euler_characteristic() + Y.complex.euler_characteristic()
        )
        assert disjoint_union_index(X, Y) == max(a, b)
