"""The cone-over-skeleton map and its disjoint-face intersection checks.

For m = (d+1)r - 2 the map f on the subdivided m-simplex that fixes the
barycenters of faces of dimension <= d-1 and sends every higher
barycenter to the global barycenter c has the property that among any r
pairwise disjoint faces, at least one (any one of dimension <= d-1, and
by counting there always is one) has image disjoint from the images of
the others.  f is affine on each chain simplex of the subdivision, so
the images of the 2^{m+1} - 1 face barycenters give it whole, and this
module writes them as one closed-form table: 1/|g| on the coordinates of
g when dim g <= d-1, and c otherwise.  No complex is built.  It then
enumerates all disjoint r-tuples and certifies each isolation by a
separating functional: for a small face s, h_s(y) = sum_{j in s} y_j is
1 on every vertex image of s and at most |s|/(m+1) < 1 on every vertex
image of a disjoint face.  The images are unions of hulls of those vertex
images, so the exact check on the vertices proves the images disjoint.
No LP is solved.

One dimension higher, at m = (d+1)r - 1, the same map admits r disjoint
faces with intersecting images: every face of dimension >= d has its
barycenter mapped to c.  The probe returns the first such tuple, checked
by reading each face's barycenter image from the table.  `tverlab.cli`
writes both reports.
"""
from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from .complexes import Simplex, standard_center
from .rationals import Point, rat_str, read_scaled


class IsolationFailure(AssertionError):
    """A disjoint tuple whose predicted-isolated face is not isolated."""


class CounterexampleSpec(NamedTuple):
    """The map at m = (d+1)r - 2 (or the probe's m + 1) as the image of
    each nonempty face's barycenter; the map is affine on every chain of
    faces, so these images determine it."""

    d: int
    r: int
    m: int
    center: Point
    images: Dict[Simplex, Point]


def _build_map(d: int, r: int, m: int) -> CounterexampleSpec:
    c = standard_center(m)
    images: Dict[Simplex, Point] = {}
    for k in range(1, m + 2):
        for g in itertools.combinations(range(m + 1), k):
            if k - 1 <= d - 1:
                images[g] = tuple(
                    Fraction(1, k) if i in g else Fraction(0) for i in range(m + 1)
                )
            else:
                images[g] = c
    return CounterexampleSpec(d=d, r=r, m=m, center=c, images=images)


def build_counterexample(d: int, r: int) -> CounterexampleSpec:
    """The construction at the critical dimension m = (d+1)r - 2."""
    if d < 1 or r < 2:
        raise ValueError("need d >= 1 and r >= 2")
    return _build_map(d, r, (d + 1) * r - 2)


def enumerate_disjoint_tuples(m: int, r: int) -> List[Tuple[Simplex, ...]]:
    """Unordered r-tuples of pairwise disjoint nonempty faces of the
    m-simplex, canonical order (faces ordered by dimension then lex).

    Each next face is drawn from the combinations of the still-unused
    vertices, no smaller than the previous face (and after it at equal
    size), and small enough that the faces still to come fit; so every
    branch ends in a tuple and the work is proportional to the output."""
    out: List[Tuple[Simplex, ...]] = []

    def rec(chosen: List[Simplex], free: Tuple[int, ...]):
        if len(chosen) == r:
            out.append(tuple(chosen))
            return
        prev = chosen[-1] if chosen else ()
        for k in range(max(1, len(prev)), len(free) // (r - len(chosen)) + 1):
            for f in itertools.combinations(free, k):
                if k == len(prev) and f < prev:
                    continue
                chosen.append(f)
                rec(chosen, tuple(v for v in free if v not in f))
                chosen.pop()

    rec([], tuple(range(m + 1)))
    return out


class IsolationRow(NamedTuple):
    faces: Tuple[Simplex, ...]
    isolated_index: int
    small_indices: Tuple[int, ...]
    pair_checks: int
    certificate_digests: Tuple[str, ...]


class IsolationReport(NamedTuple):
    d: int
    r: int
    m: int
    rows: List[IsolationRow]


def verify_isolation(spec: CounterexampleSpec) -> IsolationReport:
    """Check every disjoint r-tuple for an isolated face.

    Combinatorially, any face of dimension <= d-1 in the tuple is isolated
    (it maps to itself inside the boundary, which the other images only
    meet inside their own faces), and by counting every tuple has one.
    Each such face s is certified against every other face t of the tuple
    by h_s(y) = sum_{j in s} y_j: its largest value on t's vertex images
    (the threshold) must lie below its smallest on s's.  The vertex images
    are read from the table, each (s, t) pair is checked once, and a tuple
    with no small face or a pair the functional fails to separate raises
    IsolationFailure naming the tuple.  The sums are taken over integers:
    every image is scaled once by L, the lcm of the table's denominators,
    which is exact by construction."""
    L, rows = read_scaled(spec.images.values())
    scaled = dict(zip(spec.images, rows))
    unscaled = lambda v: rat_str(Fraction(v, L))
    image_cache: Dict[Simplex, List[Tuple[int, ...]]] = {}
    certified: Dict[Tuple[Simplex, Simplex], str] = {}

    def images(f: Simplex) -> List[Tuple[int, ...]]:
        """L times the images of f's subdivision vertices, one per nonempty
        subface."""
        if f not in image_cache:
            image_cache[f] = [
                scaled[g]
                for k in range(1, len(f) + 1)
                for g in itertools.combinations(f, k)
            ]
        return image_cache[f]

    def certify(faces, s: Simplex, t: Simplex) -> str:
        if (s, t) not in certified:
            low = min(sum(y[j] for j in s) for y in images(s))
            high, worst = max((sum(y[j] for j in s), y) for y in images(t))
            if high >= low:
                raise IsolationFailure(
                    f"tuple {faces}: predicted-isolated face {s} is not "
                    f"separated from {t}: h = {unscaled(high)} at the vertex "
                    f"image ({', '.join(map(unscaled, worst))}) of {t}, not "
                    f"below {unscaled(low)}"
                )
            payload = f'[{list(s)}, {list(t)}, "{unscaled(high)}"]'.encode()  # as json.dumps wrote it
            certified[s, t] = hashlib.sha256(payload).hexdigest()[:12]
        return certified[s, t]

    rows = []
    for faces in enumerate_disjoint_tuples(spec.m, spec.r):
        small = tuple(
            i for i, f in enumerate(faces) if len(f) - 1 <= spec.d - 1
        )
        if not small:
            raise IsolationFailure(
                f"tuple {faces} has no face of dimension <= {spec.d - 1}; "
                "the counting bound is violated"
            )
        digests = tuple(
            certify(faces, faces[i], g)
            for i in small
            for j, g in enumerate(faces)
            if j != i
        )
        rows.append(
            IsolationRow(
                faces=faces,
                isolated_index=small[0],
                small_indices=small,
                pair_checks=len(digests),
                certificate_digests=digests,
            )
        )
    return IsolationReport(d=spec.d, r=spec.r, m=spec.m, rows=rows)


class ProbeResult(NamedTuple):
    found: bool
    faces: Optional[Tuple[Simplex, ...]] = None
    point: Optional[Point] = None
    tuples_scanned: int = 0


def probe_tverberg_plus_one(d: int, r: int) -> ProbeResult:
    """Search one dimension above the counterexample, m = (d+1)r - 1, for r
    disjoint faces whose images share a point.

    A tuple containing a face of dimension <= d-1 cannot succeed (that
    image is the face itself, and the other images only meet the boundary
    inside their own disjoint faces).  Every face of dimension >= d owns
    c, the image of its barycenter, so the witness is the first tuple in
    canonical order whose faces all have dimension >= d, at the point c,
    checked by reading each face's barycenter image from the table."""
    if d < 1 or r < 2:
        raise ValueError("need d >= 1 and r >= 2")
    m = (d + 1) * r - 1
    spec = _build_map(d, r, m)
    c, images = spec.center, spec.images
    tuples = enumerate_disjoint_tuples(m, r)
    for scanned, faces in enumerate(tuples, 1):
        if all(len(f) - 1 >= d and images[f] == c for f in faces):
            return ProbeResult(found=True, faces=faces, point=c, tuples_scanned=scanned)
    return ProbeResult(found=False, tuples_scanned=len(tuples))
