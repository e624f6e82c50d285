"""Disjoint-face enumeration and count, isolation verification, and the probe.

The LP oracles read the cone map as a piecewise-linear map on the full
barycentric subdivision of the m-simplex; that map, realized exactly,
lives here and nowhere in the package.
"""
import itertools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Dict, Iterable, List, Sequence, Tuple

import pytest

from tverlab import (
    SimplicialComplex,
    build_counterexample,
    probe_tverberg_plus_one,
    verify_isolation,
)
from tverlab.cli import main
from tverlab.complexes import simplex
from tverlab.conemap import (
    IsolationFailure,
    _build_map,
    count_disjoint_tuples,
    enumerate_disjoint_tuples,
    isolation_rows,
)
from tverlab.rationals import Point

from oracles import (
    BarycentricComplex,
    barycentric_subdivision,
    common_point_with_weights,
    faces,
    full_simplex,
    grid_points_in_simplex,
    has_face,
    in_convex_hull,
    standard_center,
)


def disjoint_tuple_count(m, r):
    """Unordered r-tuples of pairwise disjoint nonempty subsets of an
    (m+1)-set, by inclusion-exclusion over ordered placements."""
    ordered = sum(
        (-1) ** j * comb(r, j) * (r + 1 - j) ** (m + 1) for j in range(r + 1)
    )
    return ordered // factorial(r)


def realize_standard(m: int) -> Dict[int, Point]:
    """Vertices 0..m on the unit coordinate vectors of R^{m+1}."""
    pts = {}
    for i in range(m + 1):
        e = [Fraction(0)] * (m + 1)
        e[i] = Fraction(1)
        pts[i] = tuple(e)
    return pts


def barycenter(points: Sequence[Point]) -> Point:
    n = len(points)
    return tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))


def realize_subdivision(bc: BarycentricComplex, base: Dict[int, Point]) -> Dict[int, Point]:
    """Each subdivision vertex sits at the exact barycenter of its face."""
    return {v: barycenter([base[u] for u in f]) for v, f in bc.face_of_vertex.items()}


@dataclass
class PLMapSpec:
    """A piecewise-linear map on the barycentric subdivision of a base
    complex, given by exact images of the subdivision vertices and extended
    affinely on each chain simplex."""

    source: BarycentricComplex
    vertex_images: Dict[int, Point]

    def __post_init__(self):
        dims = {len(p) for p in self.vertex_images.values()}
        if len(dims) != 1:
            raise ValueError("vertex images must share one ambient dimension")
        missing = set(self.source.complex.vertices) - set(self.vertex_images)
        if missing:
            raise ValueError(f"no image for subdivision vertices {sorted(missing)}")


def pl_image_of_face(spec: PLMapSpec, face: Iterable[int]) -> List[Tuple[Point, ...]]:
    """The image of a closed base face as a union of hulls, each given by
    its points: the map is affine on each maximal chain of the face's
    subdivision, so each chain contributes the hull of its vertex images."""
    f = simplex(face)
    if not has_face(spec.source.base, f):
        raise ValueError(f"{f} is not a face of the base complex")
    polys = {}
    for perm in itertools.permutations(f):
        pts = []
        for k in range(1, len(perm) + 1):
            v = spec.source.vertex_of_face[tuple(sorted(perm[:k]))]
            pts.append(spec.vertex_images[v])
        key = frozenset(pts)
        if key not in polys:
            polys[key] = tuple(sorted(set(pts)))
    return sorted(polys.values())


def as_fractions(spec, row) -> Point:
    """A row of the cone map's integer table read as the point row / scale."""
    return tuple(Fraction(c, spec.scale) for c in row)


def pl_map(spec):
    """The cone map as a PLMapSpec on the full barycentric subdivision of
    the m-simplex, each subdivision vertex sent to its face's image."""
    bc = barycentric_subdivision(full_simplex(spec.m))
    return PLMapSpec(
        source=bc,
        vertex_images={v: as_fractions(spec, spec.images[g]) for v, g in bc.face_of_vertex.items()},
    )


def identity_map(m):
    bc = barycentric_subdivision(full_simplex(m))
    return PLMapSpec(source=bc, vertex_images=realize_subdivision(bc, realize_standard(m)))


def test_pl_image_of_the_identity_covers_the_simplex():
    pieces = pl_image_of_face(identity_map(2), (0, 1, 2))
    assert len(pieces) == 6
    for p in grid_points_in_simplex(2, 4):
        assert any(in_convex_hull(p, poly) is not None for poly in pieces)


def test_pl_image_rejects_a_non_face():
    with pytest.raises(ValueError):
        pl_image_of_face(identity_map(1), (0, 7))


def test_pl_image_of_the_collapse_map():
    # send every subdivision vertex to the center: image of anything is {c}
    bc = barycentric_subdivision(full_simplex(2))
    c = standard_center(2)
    spec = PLMapSpec(source=bc, vertex_images={v: c for v in bc.face_of_vertex})
    assert pl_image_of_face(spec, (0, 1, 2)) == [(c,)]


def test_the_tuple_count_matches_the_enumeration():
    # 25 904 tuples enumerated; past m = 7 the tests' own formula stands in
    for m in range(8):
        for r in range(1, 6):
            assert count_disjoint_tuples(m, r) == len(list(enumerate_disjoint_tuples(m, r))), (m, r)
    for m in range(21):
        for r in range(1, 8):
            assert count_disjoint_tuples(m, r) == disjoint_tuple_count(m, r), (m, r)


def test_enumeration_counts_match_closed_form():
    for m, r in ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (5, 2)):
        tuples = list(enumerate_disjoint_tuples(m, r))
        assert len(tuples) == disjoint_tuple_count(m, r)
        seen = set()
        for faces in tuples:
            assert faces not in seen
            seen.add(faces)
            flat = [v for f in faces for v in f]
            assert len(flat) == len(set(flat))


def test_enumeration_matches_the_brute_force_oracle():
    # the pairwise-disjoint r-combinations of the faces sorted by (len, lex)
    cases = [(m, r) for m in range(6) for r in range(4)] + [(6, 3)]
    for m, r in cases:
        faces = sorted(
            (f for k in range(1, m + 2) for f in itertools.combinations(range(m + 1), k)),
            key=lambda f: (len(f), f),
        )
        oracle = [
            t
            for t in itertools.combinations(faces, r)
            if all(set(a).isdisjoint(b) for a, b in itertools.combinations(t, 2))
        ]
        assert list(enumerate_disjoint_tuples(m, r)) == oracle, (m, r)


def test_the_enumeration_holds_each_face_once():
    """Equal faces are one object, so the tables `isolation_rows` keys by
    faces compare them by identity."""
    tuples = list(enumerate_disjoint_tuples(7, 3))
    faces = {f for t in tuples for f in t}
    # every nonempty face but the 9 with 7 or 8 vertices, which leave no room for two more
    assert len({id(f) for t in tuples for f in t}) == len(faces) == 2**8 - 1 - 9


def test_enumeration_canonical_order():
    tuples = list(enumerate_disjoint_tuples(2, 2))
    assert tuples[0] == ((0,), (1,))
    assert ((2,), (0, 1)) in tuples
    # faces appear by (dimension, lex) within each tuple, tuples in scan order
    for faces in tuples:
        assert list(faces) == sorted(faces, key=lambda f: (len(f), f))


def test_build_counterexample_shape():
    spec = build_counterexample(1, 2)
    assert spec.m == 2
    center = as_fractions(spec, spec.center)
    assert center == standard_center(2)
    assert len(spec.images) == 7
    # vertices of the base keep their barycenter, everything else collapses
    assert as_fractions(spec, spec.images[(1,)]) == (0, 1, 0)
    assert spec.images[(0, 1)] == spec.images[(0, 1, 2)] == spec.center
    img = pl_image_of_face(pl_map(spec), (0, 1))
    assert len(img) == 2
    for poly in img:
        assert center in poly
    with pytest.raises(ValueError):
        build_counterexample(0, 2)
    with pytest.raises(ValueError):
        build_counterexample(1, 1)


def cli_records(capsys, *argv) -> List[dict]:
    """The records a successful command-line run prints."""
    assert main(list(argv)) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_isolation_on_the_tripod(capsys):
    report = verify_isolation(build_counterexample(1, 2))
    assert (report.d, report.r, report.m) == (1, 2, 2)
    assert len(report.rows) == 6
    for row in report.rows:
        assert row.small_indices
        assert row.isolated_index == row.small_indices[0]
        assert row.pair_checks == len(row.certificate_digests)
        assert all(len(dg) == 12 for dg in row.certificate_digests)
    assert cli_records(capsys, "counterexample", "--d", "1", "--r", "2")[0]["faces"] == [[0], [1]]


def test_isolation_failure_on_sabotaged_map():
    spec = build_counterexample(1, 2)
    # collapse a base vertex onto the center: its image now meets every
    # other image, so the predicted isolation must be reported broken
    spec.images[(2,)] = spec.center
    with pytest.raises(IsolationFailure):
        verify_isolation(spec)


def test_a_tuple_with_no_small_face_is_an_isolation_failure():
    """At d = 0 no face has dimension <= d - 1, so the first tuple already
    breaks the counting bound, and the failure names it."""
    spec = build_counterexample(1, 2)._replace(d=0)
    with pytest.raises(IsolationFailure, match=r"^tuple \(\(0,\), \(1,\)\) has no face of dimension <= -1; "
                                               "the counting bound is violated$"):
        next(isolation_rows(spec))


def test_probe_finds_first_canonical_witness(capsys):
    result = probe_tverberg_plus_one(1, 2)
    assert result.found
    assert result.faces == ((0, 1), (2, 3))
    assert result.point == standard_center(3)
    (rec,) = cli_records(capsys, "probe", "--d", "1", "--r", "2")
    assert rec["found"] and rec["point"] == ["1/4", "1/4", "1/4", "1/4"]
    with pytest.raises(ValueError):
        probe_tverberg_plus_one(1, 0)


def first_hit(d, r):
    """Oracle: the scan the probe once made, over the disjoint tuples in
    canonical order to the first whose faces all have dimension >= d and
    send their barycenters to c in the map's table, as (faces, point,
    scanned)."""
    m = (d + 1) * r - 1
    spec = _build_map(d, r, m)
    for scanned, faces in enumerate(enumerate_disjoint_tuples(m, r), 1):
        if all(len(f) - 1 >= d and spec.images[f] == spec.center for f in faces):
            return faces, as_fractions(spec, spec.center), scanned
    return None


def test_probe_skips_small_face_tuples():
    # every scanned-but-skipped tuple contains a face that maps into the
    # boundary; the witness is the first tuple of faces of dimension >= d
    cases = [(d, r) for d in range(1, 8) for r in range(2, 9) if (d + 1) * r <= 9]
    assert cases == [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]
    for d, r in cases:
        result = probe_tverberg_plus_one(d, r)
        assert result.found and (result.faces, result.point, result.tuples_scanned) == first_hit(d, r), (d, r)


def test_the_probe_enumerates_no_tuple(monkeypatch):
    """The witness and its rank are read off the construction: with the
    enumerator patched to raise, the probe still answers up to (6, 6),
    m = 41, whose 4.3e32 tuples no scan could reach, within a second."""
    def no_scan(*args):
        raise AssertionError("the probe enumerated tuples")

    monkeypatch.setattr("tverlab.conemap.enumerate_disjoint_tuples", no_scan)
    start = time.perf_counter()
    for d in range(1, 7):
        for r in range(2, 7):
            m = (d + 1) * r - 1
            result = probe_tverberg_plus_one(d, r)
            assert result.found and sorted(v for f in result.faces for v in f) == list(range(m + 1))
            assert [len(f) for f in result.faces] == [d + 1] * r
            assert result.point == standard_center(m)
            assert 0 < result.tuples_scanned <= count_disjoint_tuples(m, r)
    assert time.perf_counter() - start < 1
    assert result.tuples_scanned == 429290872166522118401853901608836


def test_a_tuple_the_enumerator_drops_is_an_internal_error(monkeypatch, capsys):
    """The report claims every disjoint tuple, so one the enumerator
    drops fails the count: exit 3 with one internal_error record."""
    enumerate_all = enumerate_disjoint_tuples
    monkeypatch.setattr("tverlab.conemap.enumerate_disjoint_tuples", lambda m, r: itertools.islice(enumerate_all(m, r), 1, None))
    assert main(["counterexample", "--d", "1", "--r", "3"]) == 3
    assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == [
        {"command": "counterexample", "internal_error": "64 disjoint tuples checked, not 65"}
    ]


def lp_disjoint(f, s, t):
    """Oracle: under the PL map f the images of faces s and t share no
    point, shown by one exact LP per pair of pieces; the LP's Farkas
    certificate is checked before None is returned."""
    return all(
        common_point_with_weights([P, Q]) is None
        for P in pl_image_of_face(f, s)
        for Q in pl_image_of_face(f, t)
    )


def lp_probe(d, r):
    """Oracle: the LP scan over image pieces, as (faces, point, scanned)."""
    m = (d + 1) * r - 1
    f = pl_map(_build_map(d, r, m))
    for scanned, faces in enumerate(enumerate_disjoint_tuples(m, r), 1):
        if any(len(g) - 1 <= d - 1 for g in faces):
            continue
        pieces = [pl_image_of_face(f, g) for g in faces]
        for choice in itertools.product(*pieces):
            found = common_point_with_weights(list(choice))
            if found is not None:
                return faces, found[0], scanned
    return None


def test_certified_pairs_are_lp_disjoint():
    for d, r in ((1, 2), (1, 3), (2, 2)):
        spec = build_counterexample(d, r)
        f = pl_map(spec)
        pairs = {
            (row.faces[i], g)
            for row in verify_isolation(spec).rows
            for i in row.small_indices
            for j, g in enumerate(row.faces)
            if j != i
        }
        assert pairs
        for s, t in sorted(pairs):
            assert lp_disjoint(f, s, t), (d, r, s, t)


def test_probe_matches_the_lp_scan():
    for (d, r), scanned in zip(((1, 2), (1, 3), (2, 2)), (23, 336, 292)):
        result = probe_tverberg_plus_one(d, r)
        assert (result.faces, result.point, result.tuples_scanned) == lp_probe(d, r)
        assert result.found and result.tuples_scanned == scanned


def test_isolation_and_probe_solve_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr("tverlab.exactlp.lp_feasible", no_lp)
    for d, r in ((1, 2), (2, 2)):
        assert verify_isolation(build_counterexample(d, r)).rows
        assert probe_tverberg_plus_one(d, r).found


def test_isolation_beyond_the_small_cases():
    for d, r in ((1, 4), (3, 2), (2, 3)):
        report = verify_isolation(build_counterexample(d, r))
        assert len(report.rows) == disjoint_tuple_count(report.m, r)
        for row in report.rows:
            assert row.isolated_index in row.small_indices
            assert row.pair_checks == len(row.certificate_digests) > 0


def test_isolation_failure_when_a_disjoint_image_reaches_the_small_face():
    spec = build_counterexample(1, 2)
    # the barycenter of the edge (0, 1) now maps onto the vertex 2
    spec.images[(0, 1)] = spec.images[(2,)]
    with pytest.raises(IsolationFailure, match=r"\(\(2,\), \(0, 1\)\).*\(0/1, 0/1, 1/1\)"):
        verify_isolation(spec)


def test_images_match_the_subdivision_construction():
    # the table against the subdivision vertices realized at their
    # barycenters, at the critical m and one above
    for d, r in ((1, 2), (1, 3), (2, 2), (1, 4)):
        for m in ((d + 1) * r - 2, (d + 1) * r - 1):
            spec = _build_map(d, r, m)
            base = full_simplex(m)
            bc = barycentric_subdivision(base)
            points = realize_subdivision(bc, realize_standard(m))
            assert set(spec.images) == set(faces(base))
            for g, row in spec.images.items():
                y = as_fractions(spec, row)
                if len(g) - 1 <= d - 1:
                    assert y == points[bc.vertex_of_face[g]], (d, r, m, g)
                else:
                    assert y == standard_center(m), (d, r, m, g)


def test_the_map_table_builds_no_fraction():
    """The cone map's table is integer rows over its one scale: building it
    at (d, r, m) = (2, 2, 4) builds no Fraction."""
    built = []
    new = vars(Fraction)["__new__"]

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        spec = _build_map(2, 2, 4)
    finally:
        Fraction.__new__ = new
    assert built == []
    assert spec.scale == 10 and len(spec.images) == 31
    assert spec.images[(0, 3)] == (5, 0, 0, 5, 0) and spec.center == (2,) * 5


def test_isolation_and_probe_build_no_complex(monkeypatch):
    builds = []
    init = SimplicialComplex.__init__

    def counted_init(self, facets):
        builds.append(1)
        init(self, facets)

    monkeypatch.setattr(SimplicialComplex, "__init__", counted_init)
    for d, r in ((1, 2), (2, 2)):
        assert verify_isolation(build_counterexample(d, r)).rows
        assert probe_tverberg_plus_one(d, r).found
    assert builds == []


def test_probe_at_seven_dimensions():
    result = probe_tverberg_plus_one(1, 4)
    assert result.found
    assert all(len(f) - 1 >= 1 for f in result.faces)
    assert result.point == standard_center(7)


def test_counterexample_cli_at_seven_dimensions(capsys):
    assert main(["counterexample", "--d", "2", "--r", "3"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
    assert summary["tuples"] == disjoint_tuple_count(7, 3)
