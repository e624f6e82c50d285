"""The cone-over-skeleton map and its disjoint-face intersection checks.

For m = (d+1)r - 2 the map f on the subdivided m-simplex that fixes the
barycenters of faces of dimension <= d-1 and sends every higher
barycenter to the global barycenter c has the property that among any r
pairwise disjoint faces, at least one (any one of dimension <= d-1, and
by counting there always is one) has image disjoint from the images of
the others.  f is affine on each chain simplex of the subdivision, so
the images of the 2^{m+1} - 1 face barycenters give it whole, and this
module writes them as one closed-form table of integer rows over one
denominator L = lcm(1, ..., d, m+1): L/|g| on the coordinates of g when
dim g <= d-1, and L c otherwise.  No complex is built.  It then
enumerates all disjoint r-tuples and certifies each isolation by a
separating functional: for a small face s, h_s(y) = sum_{j in s} y_j is
1 on every vertex image of s and at most |s|/(m+1) < 1 on every vertex
image of a disjoint face.  The images are unions of hulls of those vertex
images, so the exact check on the vertices proves the images disjoint.
Each face's vertex images are read from the table into one list, once;
h_s is read over such a list in C (`operator.itemgetter`, `sum`, `max`),
and s's smallest value on its own images is taken once per small face.
No LP is solved.  `isolation_rows` yields one row a tuple, each naming
its functionals by a 12-character digest from the interpreter's built-in
SHA-256, so that no OpenSSL is loaded; `list(isolation_rows(spec))` is
the whole check, and d, r and m are the spec's own.

One dimension higher, at m = (d+1)r - 1, the same map admits r disjoint
faces with intersecting images: every face of dimension >= d has its
barycenter mapped to c.  The probe reads the first such tuple and its
rank in canonical order off the construction, by counting, with no
search and no table, and checks each face's barycenter image through the
map's one definition, `_image`.  `tverlab.cli` writes the rows as they
come, and the probe's result.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

from .rationals import Point, rat_str

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

Simplex = Tuple[int, ...]


class IsolationFailure(AssertionError):
    """A disjoint tuple whose predicted-isolated face is not isolated."""


class CounterexampleSpec(NamedTuple):
    """The map at m = (d+1)r - 2 (or the probe's m + 1) as the image of
    each nonempty face's barycenter, an integer row over `scale`; the map
    is affine on every chain of faces, so these images determine it."""

    d: int
    r: int
    m: int
    scale: int
    center: Tuple[int, ...]
    images: Dict[Simplex, Tuple[int, ...]]


def _scale(d: int, m: int) -> int:
    """L = lcm(1, ..., d, m+1), the lcm of the map's denominators."""
    return lcm(*range(1, d + 1), m + 1)


def _image(g: Simplex, d: int, m: int, L: int) -> Tuple[int, ...]:
    """L times the image of the barycenter of the face g of the m-simplex:
    that barycenter itself if dim g <= d-1, else the global barycenter c."""
    if len(g) <= d:
        return tuple(L // len(g) if i in g else 0 for i in range(m + 1))
    return (L // (m + 1),) * (m + 1)


def _build_map(d: int, r: int, m: int) -> CounterexampleSpec:
    """The table of `_image` over every nonempty face, over one scale L."""
    L = _scale(d, m)
    images = {
        g: _image(g, d, m, L)
        for k in range(1, m + 2)
        for g in itertools.combinations(range(m + 1), k)
    }
    return CounterexampleSpec(d=d, r=r, m=m, scale=L, center=images[tuple(range(m + 1))], images=images)


def build_counterexample(d: int, r: int) -> CounterexampleSpec:
    """The construction at the critical dimension m = (d+1)r - 2."""
    if d < 1 or r < 2:
        raise ValueError("need d >= 1 and r >= 2")
    return _build_map(d, r, (d + 1) * r - 2)


def enumerate_disjoint_tuples(m: int, r: int) -> Iterator[Tuple[Simplex, ...]]:
    """Unordered r-tuples of pairwise disjoint nonempty faces of the
    m-simplex, yielded in canonical order (faces ordered by dimension then
    lex).

    Each next face is drawn from the combinations of the still-unused
    vertices, no smaller than the previous face (and after it at equal
    size), and small enough that the faces still to come fit; so every
    branch ends in a tuple and the work is proportional to the output.
    The last face completes a tuple where it is drawn, with no call below
    it.  Each face is one object however many tuples hold it, so a
    caller's tables keyed by faces compare them by identity."""
    shared: Dict[Simplex, Simplex] = {}

    def rec(chosen: List[Simplex], free: Tuple[int, ...]):
        prev = chosen[-1] if chosen else ()
        last = len(chosen) == r - 1
        for k in range(max(1, len(prev)), len(free) // (r - len(chosen)) + 1):
            for f in itertools.combinations(free, k):
                if k == len(prev) and f < prev:
                    continue
                f = shared.setdefault(f, f)
                if last:
                    yield (*chosen, f)
                else:
                    chosen.append(f)
                    yield from rec(chosen, tuple(v for v in free if v not in f))
                    chosen.pop()

    if r == 0:
        yield ()  # the one 0-tuple
    else:
        yield from rec([], tuple(range(m + 1)))


def count_disjoint_tuples(m: int, r: int) -> int:
    """How many tuples enumerate_disjoint_tuples(m, r) yields, counted:
    each vertex joins one of r labelled faces or none, by
    inclusion-exclusion over the labels left empty, and each tuple is
    counted once per labelling, r! times."""
    placements = sum((-1) ** j * comb(r, j) * (r + 1 - j) ** (m + 1) for j in range(r + 1))
    return placements // factorial(r)


class IsolationRow(NamedTuple):
    faces: Tuple[Simplex, ...]
    isolated_index: int
    small_indices: Tuple[int, ...]
    pair_checks: int
    certificate_digests: Tuple[str, ...]


def isolation_rows(spec: CounterexampleSpec) -> Iterator[IsolationRow]:
    """Check every disjoint r-tuple for an isolated face, one row a tuple.

    Combinatorially, any face of dimension <= d-1 in the tuple is isolated
    (it maps to itself inside the boundary, which the other images only
    meet inside their own faces), and by counting every tuple has one.
    Each such face s is certified against every other face t of the tuple
    by h_s(y) = sum_{j in s} y_j: its largest value on t's vertex images
    (the threshold) must lie below its smallest on s's (s's floor).  Each
    face's vertex images are read from the table once, into one list, and
    h_s over such a list is `operator.itemgetter(*s)` mapped over it (and
    `sum` mapped over that when |s| > 1): the threshold is one `max` of it
    per (s, t) pair, s's floor one `min` per small face.  Each (s, t) pair
    is checked once, and a tuple with no small face or a pair the
    functional fails to separate raises IsolationFailure naming the tuple
    and, for a pair, the vertex image y of t with the largest (h_s(y), y):
    the largest h_s, ties broken by the largest row.  The sums are taken
    over the table's integer rows, all over its one scale L.  The rows
    claim every tuple, so after the last one RuntimeError unless there
    were count_disjoint_tuples of them."""
    d, L, scaled = spec.d, spec.scale, spec.images
    unscaled = lambda v: rat_str(Fraction(v, L))
    vertex_images: Dict[Simplex, List[Tuple[int, ...]]] = {}
    labels: Dict[Simplex, str] = {}  # each face as the digests' payloads write it
    functionals: Dict[Simplex, Tuple[Callable, int]] = {}  # h_s and s's floor, per small face
    certified: Dict[Tuple[Simplex, Simplex], str] = {}

    def images(f: Simplex) -> List[Tuple[int, ...]]:
        """L times the images of f's subdivision vertices, one per nonempty
        subface."""
        if f not in vertex_images:
            vertex_images[f] = [scaled[g] for k in range(1, len(f) + 1) for g in itertools.combinations(f, k)]
            labels[f] = str(list(f))
        return vertex_images[f]

    def certify(faces, s: Simplex, t: Simplex) -> str:
        digest = certified.get((s, t))
        if digest is None:
            if s not in functionals:
                get = itemgetter(*s)  # one coordinate alone, else a tuple to sum
                h = (lambda ys: map(get, ys)) if len(s) == 1 else (lambda ys: map(sum, map(get, ys)))
                functionals[s] = h, min(h(images(s)))
            h, low = functionals[s]
            ys = images(t)
            high = max(h(ys))
            if high >= low:
                worst = max(zip(h(ys), ys))[1]  # the largest (h, y)
                raise IsolationFailure(
                    f"tuple {faces}: predicted-isolated face {s} is not "
                    f"separated from {t}: h = {unscaled(high)} at the vertex "
                    f"image ({', '.join(map(unscaled, worst))}) of {t}, not "
                    f"below {unscaled(low)}"
                )
            g = gcd(high, L)  # high / L reduced, as rat_str writes it
            payload = f'[{labels[s]}, {labels[t]}, "{high // g}/{L // g}"]'.encode()  # as json.dumps wrote it
            digest = certified[s, t] = sha256(payload).hexdigest()[:12]
        return digest

    count = 0
    for faces in enumerate_disjoint_tuples(spec.m, spec.r):
        small = tuple([i for i, f in enumerate(faces) if len(f) <= d])
        if not small:
            raise IsolationFailure(
                f"tuple {faces} has no face of dimension <= {d - 1}; "
                "the counting bound is violated"
            )
        digests = tuple([certify(faces, faces[i], g) for i in small for j, g in enumerate(faces) if j != i])
        count += 1
        yield IsolationRow(
            faces=faces,
            isolated_index=small[0],
            small_indices=small,
            pair_checks=len(digests),
            certificate_digests=digests,
        )
    if count != count_disjoint_tuples(spec.m, spec.r):
        raise RuntimeError(f"{count} disjoint tuples checked, not {count_disjoint_tuples(spec.m, spec.r)}")


class ProbeResult(NamedTuple):
    found: bool
    faces: Tuple[Simplex, ...]
    point: Point
    tuples_scanned: int


def probe_tverberg_plus_one(d: int, r: int) -> ProbeResult:
    """One dimension above the counterexample, m = (d+1)r - 1, the first
    r disjoint faces in canonical order whose images share a point, and
    its rank in that order (`tuples_scanned`), read off the construction.

    A tuple holding a face of dimension <= d-1 cannot succeed (that image
    is the face itself, which the other images meet only inside their own
    faces).  Every face of dimension >= d owns c, its barycenter's image.
    r such faces use all (d+1)r vertices, d+1 each: they are the
    (m+1)!/((d+1)!^r r!) partitions into blocks of d+1.  Their smallest
    face is as large as a tuple's can be, so they come last in canonical
    order, the consecutive blocks first.  Each face's barycenter image is
    checked against c by `_image` (RuntimeError if one misses); the point
    is c."""
    if d < 1 or r < 2:
        raise ValueError("need d >= 1 and r >= 2")
    m = (d + 1) * r - 1
    L = _scale(d, m)
    c = _image(tuple(range(m + 1)), d, m, L)
    faces = tuple(tuple(range(i * (d + 1), (i + 1) * (d + 1))) for i in range(r))
    if any(_image(f, d, m, L) != c for f in faces):
        raise RuntimeError(f"a face of {faces} does not send its barycenter to c")
    partitions = factorial(m + 1) // (factorial(d + 1) ** r * factorial(r))
    rank = count_disjoint_tuples(m, r) - partitions + 1
    return ProbeResult(found=True, faces=faces, point=tuple(Fraction(x, L) for x in c), tuples_scanned=rank)
