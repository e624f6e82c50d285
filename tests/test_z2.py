"""Free involutions and the mod-2 index.

`hind` takes cup powers of the double cover's class on the orbits of X's
faces.  It is checked against two other algorithms for the same index,
which share its GF(2) elimination.  One is the cup-power path on a simplicial
quotient: quotient by the involution after one barycentric subdivision,
take the characteristic cocycle w of the double cover, and find the
largest n with w^n not a coboundary.  Quotient sizes are cross-checked
against an independent chain count on the cover: after one subdivision the
quotient must contain exactly half the faces of the cover in every
dimension.  The other is Yang's chain conditions solved in one system over
every face (`oracles.hind_by_yang_chains`).  `Z2Complex`'s
input checks on orbit masks are checked against the construction from the
canonical form (`oracles.canonical_z2_complex`) on drawn valid inputs and
on each kind of fault.
"""
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tverlab.cli
from tverlab import (
    FixedSimplexError,
    SimplicialComplex,
    SplitMix64,
    Z2Complex,
    cross_polytope_sphere,
    disjoint_union_index,
    hind,
)
from tverlab.complexes import Simplex
from tverlab.z2 import _gf2_solvable, z2_disjoint_union

from oracles import (
    barycentric_subdivision,
    canonical_z2_complex,
    connected_components,
    dim,
    euler_characteristic,
    faces,
    faces_of_dim,
    has_face,
    hind_by_yang_chains,
    image,
    skeleton,
    subdivide_z2,
)


# ---------------------------------------------------------------------------
# reference oracle: the index from cup powers on the quotient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class F2Cochain:
    """A mod-2 cochain, stored by its support."""

    degree: int
    support: FrozenSet[Simplex]

    def __bool__(self) -> bool:
        return bool(self.support)

    def __xor__(self, other: "F2Cochain") -> "F2Cochain":
        if self.degree != other.degree:
            raise ValueError("cochain degrees differ")
        return F2Cochain(self.degree, self.support ^ other.support)

    def value(self, s: Simplex) -> int:
        return 1 if tuple(s) in self.support else 0


class QuotientData:
    """The subdivided double cover, its involution, and the quotient."""

    def __init__(
        self,
        cover: SimplicialComplex,
        cover_involution: Dict[int, int],
        quotient_complex: SimplicialComplex,
        orbit_of: Dict[int, int],
        section: Dict[int, int],
    ):
        self.cover = cover
        self.cover_involution = cover_involution
        self.complex = quotient_complex
        self.orbit_of = orbit_of
        self.section = section

    def with_section(self, section: Dict[int, int]) -> "QuotientData":
        if set(section) != set(self.section):
            raise ValueError("section must cover every orbit")
        for orbit, rep in section.items():
            if self.orbit_of.get(rep) != orbit:
                raise ValueError(f"vertex {rep} does not lie over orbit {orbit}")
        return QuotientData(
            self.cover, self.cover_involution, self.complex, self.orbit_of, section
        )


def quotient(X: Z2Complex) -> QuotientData:
    """Quotient by the free involution, after one barycentric subdivision."""
    if not X.is_free():
        raise FixedSimplexError("fixed simplex found: the action is not free")
    bc = barycentric_subdivision(X.complex)
    g_faces = {
        v: bc.vertex_of_face[image(X, f)] for v, f in bc.face_of_vertex.items()
    }
    orbit_of: Dict[int, int] = {}
    section: Dict[int, int] = {}
    nxt = 0
    for v in bc.complex.vertices:
        if v in orbit_of:
            continue
        w = g_faces[v]
        if w == v:
            raise FixedSimplexError("fixed simplex found: the action is not free")
        orbit_of[v] = nxt
        orbit_of[w] = nxt
        section[nxt] = v
        nxt += 1
    facets = set()
    for f in bc.complex.facets:
        img = tuple(sorted(orbit_of[v] for v in f))
        if len(set(img)) != len(f):
            raise FixedSimplexError("simplex collapses onto its own orbit")
        facets.add(img)
    Q = SimplicialComplex(facets)
    data = QuotientData(bc.complex, g_faces, Q, orbit_of, section)
    _check_double_cover(data)
    return data


def _check_double_cover(q: QuotientData) -> None:
    """Every quotient simplex must have exactly two (swapped) lifts."""
    for k in range(dim(q.complex) + 1):
        up = len(faces_of_dim(q.cover, k))
        down = len(faces_of_dim(q.complex, k))
        if up != 2 * down:
            raise FixedSimplexError(
                f"quotient is not a double cover in dimension {k}"
            )


def characteristic_cocycle(q: QuotientData) -> F2Cochain:
    """The degree-1 cocycle classifying the double cover.

    An edge gets bit 1 when its lift starting at the section representative
    ends on the other sheet.  Independence of the section holds up to
    coboundary, which is all the cup powers see.
    """
    g = q.cover_involution
    support = set()
    for a, b in faces_of_dim(q.complex, 1):
        va, vb = q.section[a], q.section[b]
        if has_face(q.cover, (va, vb)):
            bit = 0
        else:
            if not has_face(q.cover, (va, g[vb])):
                raise RuntimeError(f"edge ({a},{b}) has no lift at the section")
            bit = 1
        if bit:
            support.add((a, b) if a < b else (b, a))
    w = F2Cochain(1, frozenset(support))
    if coboundary(w, q.complex):
        raise RuntimeError("characteristic cochain is not a cocycle")
    return w


def coboundary(x: F2Cochain, K: SimplicialComplex) -> F2Cochain:
    """delta x, mod 2: parity of supported facets of each (degree+1)-simplex."""
    support = set()
    for s in faces_of_dim(K, x.degree + 1):
        parity = sum(
            1
            for drop in range(len(s))
            if (s[:drop] + s[drop + 1:]) in x.support
        )
        if parity % 2:
            support.add(s)
    return F2Cochain(x.degree + 1, frozenset(support))


def cup_power(w: F2Cochain, n: int, q: QuotientData) -> F2Cochain:
    """n-fold cup power of a degree-1 cochain, by the front/back face rule.

    On an n-simplex v_0 < ... < v_n the value is the product of the bits of
    the consecutive edges (v_i, v_{i+1}); n = 0 gives the unit 0-cochain.
    """
    if w.degree != 1:
        raise ValueError("cup_power expects a degree-1 cochain")
    if n < 0:
        raise ValueError("cup power must be nonnegative")
    K = q.complex
    if n == 0:
        return F2Cochain(0, frozenset((v,) for v in K.vertices))
    support = set()
    for s in faces_of_dim(K, n):
        if all(
            ((s[i], s[i + 1]) in w.support) for i in range(n)
        ):
            support.add(s)
    return F2Cochain(n, frozenset(support))


def is_coboundary(x: F2Cochain, q: QuotientData) -> bool:
    """Solve delta y = x over F_2 on the quotient complex."""
    K = q.complex
    if coboundary(x, K):
        raise ValueError("not a cocycle; coboundary query is meaningless")
    if not x.support:
        return True
    if x.degree == 0:
        return False  # a nonzero 0-cochain is never a coboundary here
    cols = faces_of_dim(K, x.degree - 1)
    col_bit = {c: 1 << i for i, c in enumerate(cols)}
    rhs_bit = 1 << len(cols)
    rows = []
    for s in faces_of_dim(K, x.degree):
        row = rhs_bit if s in x.support else 0
        for drop in range(len(s)):
            row ^= col_bit[s[:drop] + s[drop + 1:]]
        rows.append(row)
    return _gf2_solvable(rows, len(cols)) is None


def hind_by_cup_powers(X: Z2Complex) -> int:
    """Largest n <= dim X with the n-th cup power of the classifying cocycle
    not a coboundary.  Raises FixedSimplexError on a non-free action."""
    q = quotient(X)
    w = characteristic_cocycle(q)
    best = 0
    for n in range(1, dim(X.complex) + 1):
        wn = cup_power(w, n, q)
        if wn.support and not is_coboundary(wn, q):
            best = n
    return best


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def chain_count(K, length):
    face_list = faces(K)
    ending = {f: [0] * (length + 1) for f in face_list}
    for f in face_list:
        ending[f][1] = 1
        for size in range(1, len(f)):
            for g in itertools.combinations(f, size):
                for ln in range(2, length + 1):
                    ending[f][ln] += ending[g][ln - 1]
    return sum(ending[f][length] for f in face_list)


def test_empty_unions_and_negative_spheres_are_refused():
    with pytest.raises(ValueError, match="need at least one part"):
        z2_disjoint_union()
    with pytest.raises(ValueError, match="sphere dimension must be nonnegative"):
        cross_polytope_sphere(-1)


def test_cross_polytope_structure():
    for m in range(4):
        X = cross_polytope_sphere(m)
        assert len(X.complex.vertices) == 2 * (m + 1)
        assert len(X.complex.facets) == 2 ** (m + 1)
        assert euler_characteristic(X.complex) == 1 + (-1) ** m
        assert X.is_free()


def test_involution_validation():
    tri = SimplicialComplex([[0, 1, 2]])
    with pytest.raises(ValueError):
        Z2Complex(tri, {0: 1, 1: 2, 2: 0})  # order 3, not an involution
    with pytest.raises(ValueError):
        Z2Complex(SimplicialComplex([[0, 1], [2]]), {0: 2, 2: 0, 1: 1})
    points = SimplicialComplex([[0], [1]])
    for involution in ({0: 1.0, 1: 0}, {0: True, 1: 0}, {0.0: 1, 1: 0}):
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            Z2Complex(points, involution)


def test_fixed_simplices_rejected():
    edge = SimplicialComplex([[0, 1]])
    for involution in ({0: 0, 1: 1}, {0: 1, 1: 0}):
        # swapping the endpoints fixes the edge as a set
        X = Z2Complex(edge, involution)
        with pytest.raises(FixedSimplexError):
            quotient(X)
        with pytest.raises(FixedSimplexError):
            hind(X)
    # Fixing vertex 1 makes the action non-free, but the construction
    # first finds that the edge (0, 1) has no image.
    K = SimplicialComplex([[0, 1], [2]])
    with pytest.raises(ValueError, match="does not map simplex") as e:
        Z2Complex(K, {0: 2, 2: 0, 1: 1})
    assert not isinstance(e.value, FixedSimplexError)


def test_images_may_be_faces_of_given_simplices():
    """Validation reads only the given simplices: an image that is a face
    of one but not given itself is accepted; one that is no face is
    rejected, naming the first maximal simplex whose image is missing."""
    swap = {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2}
    X = Z2Complex(SimplicialComplex([(0, 1, 2), (3, 4, 5), (0, 1)]), swap)
    assert X.is_free() and hind(X) == hind_by_cup_powers(X) == 0
    for simplices, involution, named in (
        ([(0, 1, 2), (3, 4), (5,)], swap, (0, 1, 2)),
        ([(0, 1, 2), (0, 1), (3, 4), (5,)], swap, (0, 1, 2)),
        ([(0, 1), (2, 3), (4, 5), (6, 7)],
         {0: 4, 4: 0, 1: 6, 6: 1, 2: 5, 5: 2, 3: 7, 7: 3}, (0, 1)),
        ([(1, 2, 3), (4, 5, 6), (1, 2), (7,), (8,)],
         {1: 4, 4: 1, 2: 7, 7: 2, 3: 8, 8: 3, 5: 6, 6: 5}, (1, 2, 3)),
    ):
        with pytest.raises(ValueError) as e:
            Z2Complex(SimplicialComplex(simplices), involution)
        assert str(e.value) == f"involution does not map simplex {named} to a simplex"


def test_quotient_of_zero_sphere_is_a_point():
    q = quotient(cross_polytope_sphere(0))
    assert q.complex.facets == frozenset({(0,)})


def test_quotient_sizes_are_half_the_subdivided_cover():
    for m in (1, 2):
        X = cross_polytope_sphere(m)
        q = quotient(X)
        for k in range(dim(X.complex) + 1):
            assert 2 * len(faces_of_dim(q.complex, k)) == chain_count(
                X.complex, k + 1
            )


def test_circle_and_projective_plane_quotients():
    q1 = quotient(cross_polytope_sphere(1))
    assert dim(q1.complex) == 1
    assert euler_characteristic(q1.complex) == 0
    assert connected_components(q1.complex) == 1

    q2 = quotient(cross_polytope_sphere(2))
    assert euler_characteristic(q2.complex) == 1
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
        pool = faces_of_dim(K, deg)
        support = frozenset(f for f in pool if rng.below(2))
        x = coboundary(F2Cochain(deg, support), K)
        assert is_coboundary(x, q)
    zero = F2Cochain(1, frozenset())
    assert is_coboundary(zero, q)
    ones = F2Cochain(0, frozenset(faces_of_dim(K, 0)))
    # constant-one function on a connected complex: a cocycle, not a coboundary
    assert not is_coboundary(ones, q)
    with pytest.raises(ValueError):
        is_coboundary(F2Cochain(1, frozenset([faces_of_dim(K, 1)[0]])), q)


def brute_force_solvable(rows, ncols):
    rhs = 1 << ncols
    for y in range(1 << ncols):
        if all(
            bin(row & y & (rhs - 1)).count("1") % 2 == (1 if row & rhs else 0)
            for row in rows
        ):
            return True
    return False


def brute_force_first_inconsistent(rows, ncols):
    """Index of the shortest inconsistent prefix of the rows, or None: the
    longest prefix that some assignment satisfies, over all assignments."""
    rhs = 1 << ncols
    longest = 0
    for y in range(1 << ncols):
        k = 0
        while k < len(rows) and bin(rows[k] & y & (rhs - 1)).count("1") % 2 == (
            1 if rows[k] & rhs else 0
        ):
            k += 1
        longest = max(longest, k)
    return None if longest == len(rows) else longest


def test_gf2_elimination_matches_exhaustive_search():
    rng = SplitMix64(2024)
    for _ in range(300):
        ncols = rng.int_between(1, 8)
        rows = [rng.below(1 << (ncols + 1)) for _ in range(rng.int_between(0, 9))]
        if rows and rng.below(3) == 0:
            rows.append(rows[rng.below(len(rows))])  # duplicate row
        if rng.below(4) == 0:
            rows.insert(rng.below(len(rows) + 1), 1 << ncols)  # reads 0 = 1
        first = _gf2_solvable(rows, ncols)
        assert (first is None) == brute_force_solvable(rows, ncols)
        assert first == brute_force_first_inconsistent(rows, ncols)
    assert _gf2_solvable([0b011, 0b011 | 0b100], 2) == 1
    assert _gf2_solvable([0b101, 0b101, 0b110], 2) is None
    assert _gf2_solvable([], 3) is None


def test_sphere_index_values():
    for m in range(3):
        assert hind(cross_polytope_sphere(m)) == m


def test_sphere_index_three_and_four():
    assert hind(cross_polytope_sphere(3)) == 3
    assert hind(cross_polytope_sphere(4)) == 4


def lowest_bit_solvable(rows, ncols):
    """The elimination keyed by each row's lowest set bit, with the
    right-hand side as bit `ncols` above every column: the reference for
    `_gf2_solvable`."""
    rhs_bit = 1 << ncols
    pivots = {}
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            if low == rhs_bit:
                return i
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return None


@st.composite
def gf2_systems(draw):
    """Rows over up to 300 columns: dense and sparse rows, zero rows,
    right-hand-side-only rows, duplicates, and xors of earlier rows with
    the right-hand side kept or flipped (so most systems become
    inconsistent somewhere)."""
    ncols = draw(st.integers(1, 300))
    rhs = 1 << ncols
    rows = []
    for kind in draw(st.lists(st.integers(0, 6), max_size=40)):
        if kind == 0 or not rows and kind >= 4:
            row = draw(st.integers(0, 2 * rhs - 1))
        elif kind == 1:
            row = sum(1 << c for c in draw(st.sets(st.integers(0, ncols), max_size=4)))
        elif kind == 2:
            row = 0
        elif kind == 3:
            row = rhs
        elif kind == 4:
            row = rows[draw(st.integers(0, len(rows) - 1))]
        else:
            row = 0
            for j in draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)):
                row ^= rows[j]
            row ^= rhs * (kind - 5)
        rows.append(row)
    return rows, ncols


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(gf2_systems())
def test_gf2_elimination_matches_the_lowest_bit_reference(system):
    rows, ncols = system
    assert _gf2_solvable(rows, ncols) == lowest_bit_solvable(rows, ncols)


def test_sphere_index_five_to_seven():
    for m in (5, 6, 7):
        assert hind(cross_polytope_sphere(m)) == m


def test_index_of_large_complexes():
    """sd S^4 has 24482 faces, S^8 19682 and S^10 177146."""
    assert hind(subdivide_z2(cross_polytope_sphere(4))) == 4
    assert hind(cross_polytope_sphere(8)) == 8
    assert hind(cross_polytope_sphere(10)) == 10


def test_hind_builds_no_complex(monkeypatch):
    X = z2_disjoint_union(
        subdivide_z2(cross_polytope_sphere(2)), cross_polytope_sphere(3)
    )
    builds = []
    init = SimplicialComplex.__init__

    def counted_init(self, facets):
        builds.append(1)
        init(self, facets)

    monkeypatch.setattr(SimplicialComplex, "__init__", counted_init)
    assert hind(X) == 3
    assert builds == []


def test_hind_builds_no_sorted_face_index(monkeypatch, tmp_path, capsys):
    def boom(self):
        raise AssertionError("the facets or vertices were listed")

    path = tmp_path / "circle.json"
    path.write_text(
        '{"maximal_simplices": [[5, 2], [5, -3], [9, 2], [9, -3]],'
        ' "involution": {"5": 9, "9": 5, "2": -3, "-3": 2}}'
    )
    for lazy in ("facets", "vertices"):
        monkeypatch.setattr(SimplicialComplex, lazy, property(boom))
    assert tverlab.cli.main(["hind", "--input", str(path)]) == 0
    assert tverlab.cli.main(["hind", "--sphere", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        '{"hind":1}',
        '{"expected":3,"hind":3,"ok":true,"sphere":3}',
    ]


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
            euler_characteristic(u.complex)
            == euler_characteristic(X.complex) + euler_characteristic(Y.complex)
        )
        assert disjoint_union_index(X, Y) == max(a, b)


def relabelled(X, rng):
    """X with its vertices sent to distinct random ids below twice their
    count."""
    ids = list(range(2 * len(X.complex.vertices)))
    for i in range(len(ids) - 1, 0, -1):
        j = rng.below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    new = dict(zip(X.complex.vertices, ids))
    return Z2Complex(
        SimplicialComplex([[new[v] for v in f] for f in X.complex.facets]),
        {new[v]: new[w] for v, w in X.involution.items()},
    )


def random_invariant_subcomplex(rng):
    """The complex spanned by random faces of S^1-S^3 and their images,
    relabelled, subdivided once in a quarter of the cases."""
    X = cross_polytope_sphere(rng.int_between(1, 3))
    face_list = faces(X.complex)
    count = rng.int_between(1, len(face_list) // 2)
    picked = [face_list[rng.below(len(face_list))] for _ in range(count)]
    picked += [image(X, f) for f in picked]
    verts = {v for f in picked for v in f}
    Y = Z2Complex(
        SimplicialComplex(picked),
        {v: w for v, w in X.involution.items() if v in verts},
    )
    Y = relabelled(Y, rng)
    return subdivide_z2(Y) if rng.below(4) == 0 else Y


def annulus():
    """The circle times an interval: two antipodal 4-cycles joined by a band
    of triangles, the involution antipodal on each cycle."""
    cycle = (0, 2, 1, 3)  # the cross-polytope circle, in cyclic order
    facets = []
    for i in range(4):
        a, b = cycle[i], cycle[(i + 1) % 4]
        facets += [(a, b, a + 4), (b, a + 4, b + 4)]
    involution = {v: v ^ 1 for v in range(8)}
    return Z2Complex(SimplicialComplex(facets), involution)


def sphere_times_simplex(m, k):
    """S^m x the k-simplex, g acting on the cross-polytope factor: each
    facet times the simplex is cut into its staircase simplices, the
    sphere's vertices ordered by axis (an order g keeps).  Its index is m
    and its dimension m + k."""
    S = cross_polytope_sphere(m)
    facets = []
    for f in S.complex.facets:
        f = sorted(f, key=lambda v: min(v, S.involution[v]))
        for ups in itertools.combinations(range(m + k), k):
            i = j = 0
            chain = [(f[0], 0)]
            for step in range(m + k):
                if step in ups:
                    j += 1
                else:
                    i += 1
                chain.append((f[i], j))
            facets.append([v * (k + 1) + j for v, j in chain])
    involution = {
        v * (k + 1) + j: w * (k + 1) + j for v, w in S.involution.items() for j in range(k + 1)
    }
    return Z2Complex(SimplicialComplex(facets), involution)


def fixed_cases():
    """(label, complex, index) for the cross-check against the oracle."""
    S = cross_polytope_sphere
    cases = [(f"S^{m}", S(m), m) for m in range(5)]
    cases += [(f"sd S^{m}", subdivide_z2(S(m)), m) for m in range(3)]
    cases += [
        ("S^0+S^0", z2_disjoint_union(S(0), S(0)), 0),
        ("S^1+S^2", z2_disjoint_union(S(1), S(2)), 2),
        ("sd S^1+S^2", z2_disjoint_union(subdivide_z2(S(1)), S(2)), 2),
        ("annulus", annulus(), 1),
        ("sd annulus", subdivide_z2(annulus()), 1),
    ]
    for m in (3, 4):
        for k in (1, 2):
            X = S(m)
            Y = Z2Complex(skeleton(X.complex, k), X.involution)
            cases.append((f"{k}-skeleton of S^{m}", Y, k))
    tetrahedra = SimplicialComplex([(0, 1, 2, 3), (4, 5, 6, 7)])
    swap = {v: v ^ 4 for v in range(8)}
    cases.append(("two swapped tetrahedra", Z2Complex(tetrahedra, swap), 0))
    return cases


def test_index_matches_cup_powers_on_fixed_cases():
    for label, X, expected in fixed_cases():
        assert hind(X) == hind_by_cup_powers(X) == expected, label
        assert hind_by_yang_chains(X) == expected, label


def test_index_matches_cup_powers_on_seeded_subcomplexes():
    rng = SplitMix64(707)
    seen = set()
    for _ in range(100):
        X = random_invariant_subcomplex(rng)
        index = hind(X)
        assert index == hind_by_cup_powers(X) == hind_by_yang_chains(X)
        seen.add((dim(X.complex), index))
    assert {index for _, index in seen} >= {0, 1, 2}


def test_union_index_is_the_max_over_its_parts():
    """hind and the Yang-chain oracle of a union of two seeded invariant
    subcomplexes equal the max of the cup-power oracle over the parts, and
    in some unions the higher part's index is below the lower part's
    dimension, so the lower part could raise the index."""
    rng = SplitMix64(2601)
    lower_could_raise = 0
    for _ in range(30):
        parts = [random_invariant_subcomplex(rng) for _ in range(2)]
        oracle = [hind_by_cup_powers(p) for p in parts]
        union = relabelled(z2_disjoint_union(*parts), rng)
        assert hind_by_yang_chains(union) == max(oracle)
        high, low = sorted(range(2), key=lambda i: -dim(parts[i].complex))
        lower_could_raise += oracle[high] < dim(parts[low].complex)
        assert hind(union) == max(oracle)
    assert lower_could_raise >= 3


def test_long_chains_and_many_components():
    """hind and the Yang-chain oracle agree on a relabelled 4000-cycle, 40
    disjoint circles and a long cycle beside a sphere."""
    def cycle(n):
        return Z2Complex(
            SimplicialComplex([(i, (i + 1) % (2 * n)) for i in range(2 * n)]),
            {i: (i + n) % (2 * n) for i in range(2 * n)},
        )

    X = relabelled(cycle(2000), SplitMix64(5))
    assert hind_by_yang_chains(X) == hind(X) == 1
    circles = z2_disjoint_union(*[cross_polytope_sphere(1)] * 40)
    assert hind_by_yang_chains(circles) == hind(circles) == 1
    X = relabelled(z2_disjoint_union(cycle(200), subdivide_z2(cross_polytope_sphere(2))), SplitMix64(7))
    assert hind_by_yang_chains(X) == hind(X) == 2


@st.composite
def invariant_subcomplexes(draw):
    """A g-invariant subcomplex of S^1-S^3, its vertices sent to arbitrary
    distinct ints (negative, with gaps), subdivided once or not."""
    X = cross_polytope_sphere(draw(st.integers(1, 3)))
    face_list = faces(X.complex)
    picked = draw(st.lists(st.sampled_from(face_list), min_size=1, max_size=8))
    picked += [image(X, f) for f in picked]
    verts = sorted({v for f in picked for v in f})
    ids = draw(
        st.lists(
            st.integers(-10**6, 10**6), min_size=len(verts), max_size=len(verts), unique=True
        )
    )
    new = dict(zip(verts, ids))
    Y = Z2Complex(
        SimplicialComplex([[new[v] for v in f] for f in picked]),
        {new[v]: new[X.involution[v]] for v in verts},
    )
    return subdivide_z2(Y) if draw(st.booleans()) else Y


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(invariant_subcomplexes())
def test_index_matches_cup_powers_on_relabelled_subcomplexes(X):
    assert hind(X) == hind_by_cup_powers(X) == hind_by_yang_chains(X)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(invariant_subcomplexes(), min_size=1, max_size=3))
def test_index_of_drawn_unions_matches_both_oracles(parts):
    """hind of a union of drawn subcomplexes equals the Yang-chain oracle on
    the union and the max of the cup-power oracle over the parts."""
    X = z2_disjoint_union(*parts)
    assert hind(X) == hind_by_yang_chains(X) == max(map(hind_by_cup_powers, parts))


@st.composite
def given_inputs(draw):
    """(given simplices, involution) of a disjoint union of one to three
    free complexes: cross-polytope spheres S^0-S^3, subdivided once or
    not, and drawn g-invariant subcomplexes.  The union's vertices are
    sent to arbitrary distinct ints; its facets are given, each with its
    ids in a drawn order, with some of their faces and some given twice,
    in a drawn order."""
    spheres = st.builds(
        lambda m, sd: subdivide_z2(cross_polytope_sphere(m)) if sd else cross_polytope_sphere(m),
        st.integers(0, 3), st.booleans(),
    )
    X = z2_disjoint_union(*draw(st.lists(spheres | invariant_subcomplexes(), min_size=1, max_size=3)))
    verts = X.complex.vertices
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(verts), max_size=len(verts), unique=True))
    new = dict(zip(verts, ids))
    simplices = [[new[v] for v in f] for f in sorted(X.complex.facets)]
    for s in draw(st.lists(st.sampled_from(simplices), max_size=4)):
        simplices.append(draw(st.lists(st.sampled_from(s), min_size=1, max_size=len(s), unique=True)))
    simplices += draw(st.lists(st.sampled_from(simplices), max_size=2))
    simplices = [draw(st.permutations(s)) for s in draw(st.permutations(simplices))]
    return simplices, {new[v]: new[w] for v, w in X.involution.items()}


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(given_inputs())
def test_checks_on_masks_build_what_the_canonical_form_built(data):
    """Valid input: the masks, the orbit bits and the index equal those of
    the construction that put every given simplex in canonical form."""
    simplices, involution = data
    X = Z2Complex(SimplicialComplex(simplices), involution)
    R = canonical_z2_complex(simplices, involution)
    assert set(X._masks) == set(R._masks)
    assert (X._bit, X._lo, X._fixed) == (R._bit, R._lo, R._fixed)
    assert hind(X) == hind(R)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(data=given_inputs(), draw=st.data())
def test_an_image_that_is_only_a_face_is_read_as_the_canonical_form_read_it(data, draw):
    """A proper face of a given simplex, given without its image: the image
    lies in the given image of that simplex, so both constructions accept
    the input and build the same masks."""
    simplices, involution = data
    s = draw.draw(st.sampled_from([s for s in simplices if len(s) > 1] or [None]))
    if s is not None:
        simplices = simplices + [s[1:]]
    X = Z2Complex(SimplicialComplex(simplices), involution)
    R = canonical_z2_complex(simplices, involution)
    assert set(X._masks) == set(R._masks) and hind(X) == hind(R)


def test_int_subclass_ids_are_read_from_the_canonical_form():
    """`simplex` accepts an int subclass other than bool as an id; the
    checks on masks pass such an input to the canonical form, which
    accepts it, and the masks are read from there."""
    class Id(int):
        pass

    simplices = [[Id(0), Id(2)], [Id(1), Id(3)]]
    X = Z2Complex(SimplicialComplex(simplices), {0: 1, 1: 0, 2: 3, 3: 2})
    R = canonical_z2_complex(simplices, {0: 1, 1: 0, 2: 3, 3: 2})
    assert set(X._masks) == set(R._masks) and hind(X) == hind(R) == 0


def fault(kind, simplices, involution, i, j):
    """The input broken by one fault of the kind, at given simplex i and
    its vertex j (each taken modulo the count)."""
    simplices, involution = list(simplices), dict(involution)
    i %= len(simplices)
    s = list(simplices[i])
    v = s[j % len(s)]
    fresh = max(involution) + 1
    if kind == "empty":
        simplices.insert(i, [])
    elif kind == "repeated":
        simplices[i] = s + [v]
    elif kind == "bool":  # ids shifted so that v is 1, then v written as True
        shift = 1 - v
        simplices = [[u + shift for u in t] for t in simplices]
        involution = {u + shift: w + shift for u, w in involution.items()}
        simplices[i] = [True if u == 1 else u for u in simplices[i]]
    elif kind == "float":
        simplices[i] = [float(u) if u == v else u for u in s]
    elif kind == "string":
        simplices[i] = [str(u) if u == v else u for u in s]
    elif kind == "nested":
        simplices[i] = [[u] if u == v else u for u in s]
    elif kind == "missing":  # an id that is no key of the involution
        simplices[i] = s + [fresh]
    elif kind == "unused":  # an orbit of the involution in no simplex
        involution |= {fresh: fresh + 1, fresh + 1: fresh}
    elif kind == "order three":  # v -> g v -> fresh -> v, fresh a new vertex
        involution |= {involution[v]: fresh, fresh: v}
        simplices.append([fresh])
    elif kind == "not a face":  # (fresh, v) maps to (fresh + 1, g v), and fresh + 1 is alone
        simplices += [[fresh, v], [fresh + 1]]
        involution |= {fresh: fresh + 1, fresh + 1: fresh}
    return simplices, involution


FAULTS = ["empty", "repeated", "bool", "float", "string", "nested", "missing", "unused",
          "order three", "not a face"]


# the circle with its vertex 1 given alone: written [1, 1], that simplex
# sums to the mask of {0}, a face of {0, 2} whose image {1} is a face too
CIRCLE_AND_A_VERTEX = ([[0, 2], [2, 1], [1, 3], [3, 0], [1]], {0: 1, 1: 0, 2: 3, 3: 2})


@pytest.mark.parametrize("kind", FAULTS)
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(data=given_inputs(), i=st.integers(0, 99), j=st.integers(0, 99))
@example(data=CIRCLE_AND_A_VERTEX, i=4, j=0)
def test_faults_raise_what_the_canonical_form_raised(kind, data, i, j):
    """Each kind of fault raises the exception, with the message, that the
    construction from the canonical form raised, on drawn inputs and on one
    fixed input on which a check left out lets the fault through."""
    simplices, involution = fault(kind, *data, i, j)
    with pytest.raises((ValueError, TypeError)) as expected:
        canonical_z2_complex(simplices, involution)
    with pytest.raises((ValueError, TypeError)) as raised:
        Z2Complex(SimplicialComplex(simplices), involution)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_hind_solves_one_system_per_degree_it_needs(monkeypatch):
    """The systems `hind` hands to the elimination, rows x columns: one row
    per orbit of n-faces and one column per orbit of (n-1)-faces, only for
    the degrees the scan reaches with w^n nonzero.  S^m stops at its top
    degree; the annulus has w^2 = 0 and solves degree 1; relabelled
    S^m x D^k has index m below its dimension m + k and w^n nonzero above
    m, so it solves every degree from m + k down to m; the swapped
    tetrahedra keep every vertex on one sheet, so w = 0 and nothing is
    solved."""
    S = cross_polytope_sphere
    systems = []
    solve = tverlab.z2._gf2_solvable
    monkeypatch.setattr(
        tverlab.z2, "_gf2_solvable",
        lambda rows, ncols: systems.append((len(rows), ncols)) or solve(rows, ncols),
    )
    cases = [(f"S^{m}", S(m), m, [(2**m, (m + 1) * 2**m // 2)] if m else [])
             for m in range(9)]
    cases += [
        ("sd S^2", subdivide_z2(S(2)), 2, [(24, 36)]),
        ("sd S^2+S^3", relabelled(z2_disjoint_union(subdivide_z2(S(2)), S(3)), SplitMix64(19)),
         3, [(8, 16)]),
        ("sd S^2+sd S^2", relabelled(z2_disjoint_union(subdivide_z2(S(2)), subdivide_z2(S(2))),
                                     SplitMix64(19)), 2, [(48, 72)]),
        ("annulus", annulus(), 1, [(8, 4)]),
        ("S^1 x D^3", relabelled(sphere_times_simplex(1, 3), SplitMix64(19)), 1,
         [(8, 32), (32, 48), (48, 32), (32, 8)]),
        ("S^2 x D^2", relabelled(sphere_times_simplex(2, 2), SplitMix64(19)), 2,
         [(24, 78), (78, 91), (91, 45)]),
        ("two swapped tetrahedra",
         Z2Complex(SimplicialComplex([(0, 1, 2, 3), (4, 5, 6, 7)]), {v: v ^ 4 for v in range(8)}),
         0, []),
    ]
    for label, X, index, expected in cases:
        systems.clear()
        assert hind(X) == index, label
        assert systems == expected, label
