"""Command-line front end: one subcommand per verifiable claim.

Output is JSON lines with sorted keys and exact "p/q" scalars, written to
stdout or --output.  Runs are deterministic functions of (subcommand,
parameters, seed); --jobs is accepted for interface stability but the
pipeline is sequential and results are emitted in canonical order, so
output bytes never depend on it.

Exit codes: 0 all checks passed; 1 exactly when some record says
"ok": false (the falsified claim is in the output); 2 usage error; 3
internal error (a self-check failed, or a KeyError or TypeError arose
with no --input; the output holds one record {"command": ...,
"internal_error": ...} and nothing else).  A point configuration below
(d+1)(r-1)+1 points with no partition falsifies nothing: its record has
"outside_hypotheses": true and "ok": true.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from typing import List, Optional

from . import conemap, cover, depth, z2
from .rationals import point_strs, rat_str, read_json_rows, read_scaled
from .rng import SplitMix64

PASS, FALSIFIED, USAGE, INTERNAL = 0, 1, 2, 3


def _emit(records: List[dict], output: Optional[str]) -> None:
    text = "\n".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records
    )
    if text:
        text += "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its records
# ---------------------------------------------------------------------------

def _input_object(path: str) -> dict:
    """The JSON value of an --input file, which must be an object."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _configs(args, parser) -> List[depth.PointConfig]:
    if args.r is None or (args.d is None and not args.input):
        parser.error(f"{args.command}: need --r, and --d or --input")
    if args.input:
        with open(args.input) as fh:
            return [depth.PointConfig.from_json(fh.read())]
    rng = SplitMix64(args.seed)
    n = depth.guaranteed_size(args.d, args.r)
    return [
        depth.random_point_config(args.d, n, rng) for _ in range(args.trials)
    ]


def cmd_centerpoint(args, parser):
    records = []
    for i, config in enumerate(_configs(args, parser)):
        cert = depth.centerpoint(config, args.r)
        outside = cert is None and config.n < depth.guaranteed_size(config.d, args.r)
        records.append(
            {
                "trial": i,
                "n": config.n,
                "point": None if cert is None else point_strs(cert.point),
                "depth": None if cert is None else cert.depth,
                "r": args.r,
                "ok": outside or (cert is not None and cert.depth >= args.r),
            }
            | ({"outside_hypotheses": True} if outside else {})
        )
    return records


def cmd_tverberg(args, parser):
    records = []
    for i, config in enumerate(_configs(args, parser)):
        cert = depth.tverberg_partition(config, args.r)
        if cert is None:
            ok = config.n < depth.guaranteed_size(config.d, args.r)  # no claim applies
            rec = {"trial": i, "ok": ok, "r": args.r} | ({"outside_hypotheses": True} if ok else {})
        else:
            dep = depth.tukey_depth(cert.point, config)
            rec = {
                "trial": i,
                "blocks": [list(b) for b in cert.blocks],
                "point": point_strs(cert.point),
                "depth": dep.depth,
                "r": args.r,
                "ok": dep.depth >= args.r,
            }
        records.append(rec)
    return records


def cmd_reduce(args, parser):
    if args.d is None or args.r is None:
        parser.error("need --d and --r")
    plan = depth.reduction_plan(args.r, args.d)
    records = [{"plan": dataclasses.asdict(plan)}]
    rng = SplitMix64(args.seed)
    for i in range(args.trials):
        config = depth.random_point_config(args.d, plan.m + 1, rng)
        cert = depth.reduce_central_from_tverberg(config, args.r)
        records.append(
            {
                "trial": i,
                "point": point_strs(cert.point),
                "depth": cert.depth,
                "ok": cert.depth >= args.r,
            }
        )
    return records


def cmd_hind(args, parser):
    if args.input:
        data = _input_object(args.input)
        if not isinstance(data["involution"], dict):
            raise ValueError('"involution" must be a JSON object')
        involution = {}
        for k, v in data["involution"].items():
            try:
                u = int(k)
            except ValueError:
                raise ValueError(f'"involution" key {k!r} is not an integer vertex id') from None
            if u in involution:
                raise ValueError(f"vertex {u} appears twice in the involution")
            involution[u] = v
        try:
            K = z2.SimplicialComplex(data["maximal_simplices"])
        except TypeError:  # a value that does not iterate, or ids that do not compare or hash
            raise ValueError('"maximal_simplices" must be an array of arrays of vertex ids') from None
        X = z2.Z2Complex(K, involution)
        return [{"hind": z2.hind(X)}]
    m = args.sphere if args.sphere is not None else args.m
    if m is None:
        parser.error("need --m (sphere dimension) or --input")
    value = z2.hind(z2.cross_polytope_sphere(m))
    return [{"sphere": m, "hind": value, "expected": m, "ok": value == m}]


def cmd_counterexample(args, parser):
    if args.d is None or args.r is None:
        parser.error("need --d and --r")
    spec = conemap.build_counterexample(args.d, args.r)
    try:
        report = conemap.verify_isolation(spec)
    except conemap.IsolationFailure as exc:
        return [{"ok": False, "error": str(exc)}]
    records = [row.to_record() for row in report.rows]
    records.append(
        {
            "summary": {
                "d": args.d,
                "r": args.r,
                "m": spec.m,
                "tuples": len(report.rows),
                "all_isolated": True,
            }
        }
    )
    return records


def cmd_probe(args, parser):
    if args.d is None or args.r is None:
        parser.error("need --d and --r")
    result = conemap.probe_tverberg_plus_one(args.d, args.r)
    return [result.to_record() | {"ok": result.found}]


def _random_facet_touching(n: int, rng: SplitMix64, extra: int = 2):
    """One barycentric point per facet (that coordinate zero), plus a few
    interior points."""
    pts = []
    for i in range(n + 1):
        weights = [0] * (n + 1)
        for j in range(n + 1):
            if j != i:
                weights[j] = rng.int_between(1, 9)
        total = sum(weights)
        pts.append(tuple(Fraction(w, total) for w in weights))
    for _ in range(extra):
        weights = [rng.int_between(1, 9) for _ in range(n + 1)]
        total = sum(weights)
        pts.append(tuple(Fraction(w, total) for w in weights))
    return pts


def cmd_cover(args, parser):
    if args.input:
        pts = read_json_rows(_input_object(args.input), "barycentric_points")
        touches = cover.touches_all_facets(pts)
        cert = cover.min_cover_barycentric(pts)
        rec = cert.to_record()
        rec["touches_all_facets"] = touches
        rec["ok"] = (not touches) or cert.delta >= 1
        return [rec]
    if args.d is None:
        parser.error("need --d (simplex dimension) or --input")
    cover.standard_simplex_body(args.d)  # rejects --d 0 before a trial is drawn
    rng = SplitMix64(args.seed)
    records = []
    for i in range(args.trials):
        pts = read_scaled(_random_facet_touching(args.d, rng))
        touches = cover.touches_all_facets(pts)
        cert = cover.min_cover_barycentric(pts)
        records.append(
            {
                "trial": i,
                "delta": rat_str(cert.delta),
                "touches_all_facets": touches,
                "ok": touches and cert.delta >= 1,
            }
        )
    return records


def cmd_fiber_demo(args, parser):
    if args.d is None:
        parser.error("need --d (source simplex dimension)")
    density = max(1, args.trials)
    records = []
    for label, f in (
        ("coordinate projection", cover.coordinate_projection_map),
        ("constant map", cover.constant_map),
    ):
        records.extend(cover.fiber_width_demo(args.d, f, density, label=label).to_records())
    return records


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="tverlab",
        description="exact-arithmetic checks for depth, partitions, index, and covering claims",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials_default=5):
        p.add_argument("--d", type=int, default=None, help="ambient or simplex dimension")
        p.add_argument("--r", type=int, default=None, help="number of parts / depth target")
        p.add_argument("--m", type=int, default=None, help="simplex or sphere dimension")
        p.add_argument("--seed", type=int, default=0, help="64-bit seed (SplitMix64)")
        p.add_argument("--trials", type=int, default=trials_default, help="trial count or grid density")
        p.add_argument("--output", type=str, default=None, help="write JSON lines here instead of stdout")
        p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; output never depends on it")

    handlers = {}
    for name, fn, help_text in (
        ("centerpoint", cmd_centerpoint, "depth >= r certificates on seeded configurations"),
        ("tverberg", cmd_tverberg, "canonical Tverberg partitions with common-point certificates"),
        ("reduce", cmd_reduce, "prime-lift reduction: depth via an R-part partition of the lifted cloud"),
        ("hind", cmd_hind, "Z2 index of cross-polytope spheres (or an --input complex)"),
        ("counterexample", cmd_counterexample, "isolated-face verification for the cone map at m=(d+1)r-2"),
        ("probe", cmd_probe, "common-point witness one dimension up, m=(d+1)r-1"),
        ("cover", cmd_cover, "covering-radius certificates; facet-touching sets need delta >= 1"),
        ("fiber-demo", cmd_fiber_demo, "sampled fiber-width evidence for maps off the simplex"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        if name in ("centerpoint", "tverberg", "hind", "cover"):
            p.add_argument("--input", type=str, default=None, help="input JSON path")
        if name == "hind":
            p.add_argument("--sphere", type=int, default=None, help="alias for --m")
        handlers[name] = fn
    parser.set_defaults(_handlers=handlers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        parser.error(f"{args.command}: unrecognized arguments: {' '.join(extra)}")
    for field in ("trials", "jobs"):
        if getattr(args, field) is not None and getattr(args, field) < 1:
            parser.error(f"--{field} must be at least 1")
    for field in ("d", "r", "m"):
        value = getattr(args, field)
        if value is not None and value < 0:
            parser.error(f"--{field} must be nonnegative")
    try:
        records = args._handlers[args.command](args, parser)
    except (OSError, ValueError) as exc:
        # Unreadable --input files, malformed JSON, and out-of-range
        # dimensions are usage errors, not falsified checks.
        parser.error(f"{args.command}: {exc}")
    except (KeyError, TypeError) as exc:
        # A missing key or a non-exact scalar (a JSON float) in --input is
        # bad input; anywhere else it is a bug.
        if getattr(args, "input", None):
            what = "missing input key " if isinstance(exc, KeyError) else ""
            parser.error(f"{args.command}: {what}{exc}")
        code, records = INTERNAL, [
            {"command": args.command, "internal_error": f"{type(exc).__name__}: {exc}"}
        ]
    except RuntimeError as exc:
        # A certificate or self-check that failed is a bug, not a falsified
        # claim.
        code, records = INTERNAL, [{"command": args.command, "internal_error": str(exc)}]
    else:
        code = FALSIFIED if any(r.get("ok") is False for r in records) else PASS
    _emit(records, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
