"""Claim lists for the benchmark's workloads, and the per-claim check.

A claim is one ``tverlab.cli.main(argv)`` call.  Every input is generated
here from the benchmark's seed, with a generator of the benchmark's own, so
the inputs do not change when the program's code does.  Inputs that a
subcommand can read from ``--input`` are written as JSON files; ``argv``
holds the placeholder ``{input}`` for the file's path.  No claim repeats an
input within a run, so a cache kept across CLI calls cannot inflate a number.

The check never compares output bytes.  It needs exit code 0 and no record
with ``ok: false``, and then checks facts the benchmark knows from how it
built the input: the index of a sphere, depth >= r, blocks that partition
the labels, delta >= 1 for a facet-touching set, and so on.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

INPUT = "{input}"

_MASK = (1 << 64) - 1


class Rng:
    """SplitMix64, kept apart from the program's copy so that the inputs
    stay fixed while the program changes."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.u64()
            if x < limit:
                return x % n

    def between(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def shuffled(self, items: Sequence) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class Claim:
    """One CLI call, its input file (canonical JSON text or None), and the
    facts its output must show."""

    kind: str
    argv: Tuple[str, ...]
    input: Optional[str] = None
    expect: Dict = field(default_factory=dict)


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# input builders
# ---------------------------------------------------------------------------

def point_config(rng: Rng, d: int, n: int) -> dict:
    """n points of R^d with coordinates p/q, |p| <= 9, 1 <= q <= 4."""
    return {
        "d": d,
        "points": [
            [_q(Fraction(rng.between(-9, 9), rng.between(1, 4))) for _ in range(d)]
            for _ in range(n)
        ],
    }


def _weights_point(weights: Sequence[int]) -> List[str]:
    total = sum(weights)
    return [_q(Fraction(w, total)) for w in weights]


def cover_points(rng: Rng, n: int, touching: bool) -> dict:
    """Barycentric points of the standard n-simplex.

    A touching set has one point on each facet (that coordinate zero) plus
    two interior points; a non-touching set has n + 3 interior points, so
    every coordinate of every point is positive."""
    pts = []
    if touching:
        for i in range(n + 1):
            pts.append(
                _weights_point([0 if j == i else rng.between(1, 9) for j in range(n + 1)])
            )
        extra = 2
    else:
        extra = n + 3
    for _ in range(extra):
        pts.append(_weights_point([rng.between(1, 9) for _ in range(n + 1)]))
    return {"barycentric_points": pts}


Facets = List[Tuple[int, ...]]


def cross_polytope(m: int) -> Tuple[Facets, Dict[int, int]]:
    """Boundary of the (m+1)-cross-polytope with the antipodal involution:
    vertices 2i and 2i+1 are the poles of axis i."""
    facets = [
        tuple(2 * i + s for i, s in enumerate(signs))
        for signs in itertools.product((0, 1), repeat=m + 1)
    ]
    inv = {}
    for i in range(m + 1):
        inv[2 * i], inv[2 * i + 1] = 2 * i + 1, 2 * i
    return facets, inv


def subdivide(facets: Facets, inv: Dict[int, int]) -> Tuple[Facets, Dict[int, int]]:
    """Barycentric subdivision: a vertex per face, a facet per maximal chain,
    and the involution induced on faces."""
    faces = sorted(
        {c for f in facets for k in range(1, len(f) + 1) for c in itertools.combinations(f, k)},
        key=lambda s: (len(s), s),
    )
    vid = {f: i for i, f in enumerate(faces)}
    new = set()
    for f in facets:
        for perm in itertools.permutations(f):
            new.add(tuple(sorted(vid[tuple(sorted(perm[:k]))] for k in range(1, len(perm) + 1))))
    new_inv = {vid[f]: vid[tuple(sorted(inv[v] for v in f))] for f in faces}
    return sorted(new), new_inv


def disjoint_union(parts) -> Tuple[Facets, Dict[int, int]]:
    facets, inv, offset = [], {}, 0
    for part_facets, part_inv in parts:
        relabel = {v: offset + i for i, v in enumerate(sorted(part_inv))}
        facets.extend(tuple(relabel[v] for v in f) for f in part_facets)
        inv.update({relabel[v]: relabel[w] for v, w in part_inv.items()})
        offset += len(part_inv)
    return facets, inv


def relabelled(rng: Rng, facets: Facets, inv: Dict[int, int]) -> dict:
    """The complex with its vertices sent to distinct random ids below
    twice the vertex count, as ``hind --input`` reads it."""
    verts = sorted(inv)
    ids = rng.shuffled(range(2 * len(verts)))[: len(verts)]
    new = dict(zip(verts, ids))
    return {
        "maximal_simplices": sorted(sorted(new[v] for v in f) for f in facets),
        "involution": {str(new[v]): new[w] for v, w in sorted(inv.items())},
    }


# Shapes of the index workload: label -> parts as (sphere dimension,
# subdivided once).  hind of a union is the max over its parts.
_SPHERES = {
    "S2": ((2, False),),
    "S3": ((3, False),),
    "sd S2": ((2, True),),
    "S2+S2": ((2, False), (2, False)),
    "S2+S3": ((2, False), (3, False)),
    "sd S2+sd S2": ((2, True), (2, True)),
    "sd S2+S3": ((2, True), (3, False)),
}


def sphere_shape(label: str):
    """(facets, involution) of the shape before relabelling, and its hind."""
    parts = []
    for m, sd in _SPHERES[label]:
        part = cross_polytope(m)
        parts.append(subdivide(*part) if sd else part)
    return disjoint_union(parts), max(m for m, _ in _SPHERES[label])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _guaranteed(d: int, r: int) -> int:
    return (d + 1) * (r - 1) + 1


# Nominal seconds of one round; a run makes round(seconds / ROUND_S) rounds,
# so the claim list is a pure function of (workload, seed, seconds) and never
# of the machine's speed.  At the seed commit on the reference box a 30 s
# list takes 21-41 s unadjusted, as the host's speed varies; depth gets more
# rounds than its cost alone would give, because its claims' cost varies
# most with the seed.
ROUND_S = {"depth": 2.3, "index": 2.7, "certify": 1.5}


def _depth_round(k: int):
    """Ten claims: three at (1,2), four at (2,2), one at (1,3), two at
    (3,2).  Sorted by cost, (2,2) spans 30-70 % and (3,2) 80-100 %, so
    that p50 and p90 each fall in the middle of one kind."""
    alt = ("centerpoint", "tverberg")[k % 2]
    return [
        ("centerpoint", 1, 2), ("tverberg", 1, 2), (alt, 1, 2),
        ("centerpoint", 2, 2), ("tverberg", 2, 2), ("centerpoint", 2, 2), ("tverberg", 2, 2),
        (alt, 1, 3), ("centerpoint", 3, 2), ("tverberg", 3, 2),
    ]


# One heavy claim every third round, so that p90 falls inside the (3,2)
# claims and not on the edge between two kinds.
_DEPTH_HEAVY = [("centerpoint", 2, 3), ("reduce", 1, 4), ("tverberg", 2, 3), ("reduce", 1, 4)]

_INDEX_ROUND = [
    "S2", "S2+S2", "sd S2", "sd S2", "S3", "S3", "S2+S3", "sd S2+sd S2", "sd S2+S3", "sd S2+S3",
]

_CONEMAP = [
    ("counterexample", 1, 2), ("probe", 1, 2), ("counterexample", 1, 3),
    ("probe", 1, 3), ("counterexample", 2, 2), ("probe", 2, 2),
]
# (d, density) pairs for fiber-demo, one every other round, each used once.
# Densities are high enough that every one does measurable work.
_FIBER = [
    (1, 12), (2, 3), (1, 14), (3, 1), (1, 16), (2, 4), (1, 18), (3, 2), (1, 20), (1, 13),
    (1, 15), (1, 17), (1, 19), (2, 2), (1, 11), (1, 10),
]


def _depth_claim(rng: Rng, sub: str, d: int, r: int) -> Claim:
    if sub == "reduce":
        seed = str(rng.u64() >> 1)
        return Claim(
            f"reduce d={d} r={r}",
            ("reduce", "--d", str(d), "--r", str(r), "--trials", "1", "--seed", seed),
            expect={"d": d, "r": r},
        )
    n = _guaranteed(d, r)
    return Claim(
        f"{sub} d={d} r={r}",
        (sub, "--r", str(r), "--input", INPUT),
        _canon(point_config(rng, d, n)),
        {"d": d, "r": r, "n": n},
    )


def _depth(rng: Rng, rounds: int) -> List[Claim]:
    out = []
    for k in range(rounds):
        out.extend(_depth_claim(rng, *spec) for spec in _depth_round(k))
        if k % 3 == 2:
            out.append(_depth_claim(rng, *_DEPTH_HEAVY[(k // 3) % len(_DEPTH_HEAVY)]))
    return out


def _index(rng: Rng, rounds: int) -> List[Claim]:
    shapes = {label: sphere_shape(label) for label in set(_INDEX_ROUND)}
    out = []
    for _ in range(rounds):
        for label in _INDEX_ROUND:
            (facets, inv), expected = shapes[label]
            out.append(
                Claim(
                    f"hind {label}",
                    ("hind", "--input", INPUT),
                    _canon(relabelled(rng, facets, inv)),
                    {"hind": expected},
                )
            )
    return out


def _certify(rng: Rng, rounds: int) -> List[Claim]:
    out = []
    fibers = iter(_FIBER)
    for k in range(rounds):
        # Four facet-touching sets and one interior set per round; two of
        # the five are n = 3, so that p50 falls inside that kind.
        for n, touching in ((2, True), (3, True), (3, True), (4, True), (2 + k % 3, False)):
            out.append(
                Claim(
                    f"cover n={n} {'touching' if touching else 'interior'}",
                    ("cover", "--input", INPUT),
                    _canon(cover_points(rng, n, touching)),
                    {"n": n, "touching": touching},
                )
            )
        if k < len(_CONEMAP):
            sub, d, r = _CONEMAP[k]
            seed = str(rng.u64() >> 1)
            out.append(
                Claim(
                    f"{sub} d={d} r={r}",
                    (sub, "--d", str(d), "--r", str(r), "--seed", seed),
                    expect={"d": d, "r": r},
                )
            )
        d, density = next(fibers, (None, None)) if k % 2 == 0 else (None, None)
        if d is not None:
            out.append(
                Claim(
                    f"fiber-demo d={d}",
                    ("fiber-demo", "--d", str(d), "--trials", str(density), "--seed", str(rng.u64() >> 1)),
                    expect={"d": d, "density": density},
                )
            )
    return out


WORKLOADS: Dict[str, Callable[[Rng, int], List[Claim]]] = {
    "depth": _depth,
    "index": _index,
    "certify": _certify,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def claims(workload: str, seed: int, seconds: float) -> List[Claim]:
    """The run's fixed claim list: a pure function of its arguments.

    A claim whose (argv, input) pair already occurred is drawn again, so
    no input repeats within a run."""
    build = WORKLOADS[workload]
    rng = Rng(seed)
    out = build(rng, rounds_for(workload, seconds))
    seen = set()
    for i, claim in enumerate(out):
        while (claim.argv, claim.input) in seen:
            claim = _redraw(rng, claim)
        out[i] = claim
        seen.add((claim.argv, claim.input))
    return out


def _redraw(rng: Rng, claim: Claim) -> Claim:
    sub = claim.argv[0]
    if sub in ("centerpoint", "tverberg", "reduce"):
        return _depth_claim(rng, sub, claim.expect["d"], claim.expect["r"])
    if sub == "cover":
        data = cover_points(rng, claim.expect["n"], claim.expect["touching"])
        return Claim(claim.kind, claim.argv, _canon(data), claim.expect)
    if sub == "hind":
        data = json.loads(claim.input)
        facets = [tuple(f) for f in data["maximal_simplices"]]
        inv = {int(v): w for v, w in data["involution"].items()}
        return Claim(claim.kind, claim.argv, _canon(relabelled(rng, facets, inv)), claim.expect)
    raise ValueError(f"claim {claim.kind} has a fixed input and cannot be drawn again")


# ---------------------------------------------------------------------------
# the per-claim check
# ---------------------------------------------------------------------------

def check(claim: Claim, code, stdout: str) -> Optional[str]:
    """None when the claim passed, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except ValueError as exc:
        return f"output is not JSON lines: {exc}"
    if not records:
        return "no output records"
    if not all(isinstance(rec, dict) for rec in records):
        return "a record is not a JSON object"
    if any(rec.get("ok") is False for rec in records):
        return "a record reports ok:false"
    return _FACTS[claim.argv[0]](claim.expect, records)


def _facts_depth(expect, records):
    (rec,) = records
    if rec["depth"] < expect["r"]:
        return f"depth {rec['depth']} < r = {expect['r']}"
    if len(rec["point"]) != expect["d"]:
        return "point has the wrong dimension"
    return None


def _facts_tverberg(expect, records):
    problem = _facts_depth(expect, records)
    if problem:
        return problem
    blocks = records[0]["blocks"]
    labels = sorted(label for b in blocks for label in b)
    if len(blocks) != expect["r"] or not all(blocks):
        return f"{len(blocks)} blocks, expected {expect['r']} nonempty ones"
    if labels != list(range(expect["n"])):
        return "blocks do not partition the labels"
    return None


def _facts_reduce(expect, records):
    plan, *trials = records
    if plan["plan"]["r"] != expect["r"] or plan["plan"]["d"] != expect["d"] or len(trials) != 1:
        return "unexpected plan or trial count"
    if trials[0]["depth"] < expect["r"]:
        return f"depth {trials[0]['depth']} < r = {expect['r']}"
    return None


def _facts_hind(expect, records):
    (rec,) = records
    if rec["hind"] != expect["hind"]:
        return f"hind {rec['hind']}, expected {expect['hind']}"
    return None


def _facts_cover(expect, records):
    (rec,) = records
    delta = Fraction(rec["delta"])
    if rec["touches_all_facets"] != expect["touching"]:
        return "facet-touching flag disagrees with the construction"
    if expect["touching"] and delta < 1:
        return f"touching set has delta {delta} < 1"
    if not expect["touching"] and delta >= 1:
        return f"interior set has delta {delta} >= 1"
    return None


def _disjoint(faces) -> bool:
    flat = [v for f in faces for v in f]
    return len(flat) == len(set(flat))


def _facts_counterexample(expect, records):
    *rows, last = records
    summary = last.get("summary", {})
    if not summary.get("all_isolated"):
        return "all_isolated is not true"
    if (summary.get("d"), summary.get("r")) != (expect["d"], expect["r"]):
        return "summary names other parameters"
    if summary.get("tuples") != len(rows) or not rows:
        return "tuple count disagrees with the rows"
    for row in rows:
        if len(row["faces"]) != expect["r"] or not _disjoint(row["faces"]):
            return f"row {row['faces']} is not a disjoint {expect['r']}-tuple"
        if row["isolated_index"] not in row["small_indices"]:
            return "isolated face is not a small face"
    return None


def _facts_probe(expect, records):
    (rec,) = records
    if not rec["found"] or rec["point"] is None:
        return "found is not true"
    if len(rec["faces"]) != expect["r"] or not _disjoint(rec["faces"]):
        return "witness faces are not a disjoint r-tuple"
    return None


def _facts_fiber(expect, records):
    d, density = expect["d"], expect["density"]
    grid = len(list(itertools.combinations(range(density + d), d)))
    headers = [rec for rec in records if "evidence" in rec]
    if {h["evidence"] for h in headers} != {"coordinate projection", "constant map"}:
        return "missing evidence headers"
    for h in headers:
        if h["source_dim"] != d or h["density"] != density:
            return "header names other parameters"
        cells = [rec for rec in records if rec.get("map") == h["evidence"]]
        if sum(c["count"] for c in cells) != grid:
            return f"{h['evidence']}: cells do not hold every grid point"
        if any(not 0 <= Fraction(c["delta"]) <= 1 for c in cells):
            return f"{h['evidence']}: a cell delta lies outside [0, 1]"
        # The constant map has one fiber, the whole grid with the vertices.
        if h["evidence"] == "constant map" and Fraction(h["max_delta"]) != 1:
            return "constant map fiber does not need the whole simplex"
    return None


_FACTS = {
    "centerpoint": _facts_depth,
    "tverberg": _facts_tverberg,
    "reduce": _facts_reduce,
    "hind": _facts_hind,
    "cover": _facts_cover,
    "counterexample": _facts_counterexample,
    "probe": _facts_probe,
    "fiber-demo": _facts_fiber,
}
