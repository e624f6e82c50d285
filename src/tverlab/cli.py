"""Command-line front end: one subcommand per verifiable claim, its flags,
needs, ranges and defaults read from the FLAGS and COMMANDS tables below.

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


def _configs(args) -> List[depth.PointConfig]:
    if args.input is not None:
        with open(args.input) as fh:
            config = depth.PointConfig.from_json(fh.read())
        if args.d is not None and args.d != config.d:
            raise ValueError(f'--d {args.d} differs from the input\'s "d" {config.d}')
        return [config]
    rng = SplitMix64(args.seed)
    n = depth.guaranteed_size(args.d, args.r)
    return [
        depth.random_point_config(args.d, n, rng) for _ in range(args.trials)
    ]


def cmd_centerpoint(args):
    records = []
    for i, config in enumerate(_configs(args)):
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


def cmd_tverberg(args):
    records = []
    for i, config in enumerate(_configs(args)):
        cert = depth.tverberg_partition(config, args.r)
        if cert is None:
            ok = config.n < depth.guaranteed_size(config.d, args.r)  # no claim applies
            rec = {"trial": i, "ok": ok, "r": args.r} | ({"outside_hypotheses": True} if ok else {})
        else:
            dep = depth._depth_from_lifted_partition(config, 1, args.r, cert)
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


def cmd_reduce(args):
    plan = depth.reduction_plan(args.r, args.d)
    records = [{"plan": plan._asdict()}]
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


def cmd_hind(args):
    if args.input is not None:
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
    m = args.m if args.sphere is None else args.sphere
    value = z2.hind(z2.cross_polytope_sphere(m))
    return [{"sphere": m, "hind": value, "expected": m, "ok": value == m}]


def cmd_counterexample(args):
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


def cmd_probe(args):
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


def cmd_cover(args):
    if args.input is not None:
        pts = read_json_rows(_input_object(args.input), "barycentric_points")
        if args.d is not None and pts.rows and args.d != len(pts.rows[0]) - 1:
            raise ValueError(f"--d {args.d} differs from the input's n {len(pts.rows[0]) - 1}")
        touches = cover.touches_all_facets(pts)
        cert = cover.min_cover_barycentric(pts)
        rec = cert.to_record()
        rec["touches_all_facets"] = touches
        rec["ok"] = (not touches) or cert.delta >= 1
        return [rec]
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


def cmd_fiber_demo(args):
    records = []
    for label, f in (
        ("coordinate projection", cover.coordinate_projection_map),
        ("constant map", cover.constant_map),
    ):
        records.extend(cover.fiber_width_demo(args.d, f, args.trials, label=label).to_records())
    return records


# ---------------------------------------------------------------------------
# flag: type, help, least and greatest value (None: no bound), and the value
# it takes when not given, set only once the checks have seen whether it was
FLAGS = {
    "seed": (int, "64-bit seed (SplitMix64, default 0)", 0, 2**64 - 1, 0),
    "output": (str, "write JSON lines here instead of stdout", None, None, None),
    "jobs": (int, "accepted for compatibility; output never depends on it", 1, None, 1),
    "d": (int, "ambient or simplex dimension", 0, None, None),
    "r": (int, "number of parts / depth target", 0, None, None),
    "trials": (int, "trial count or grid density (default 5)", 1, None, 5),
    "m": (int, "sphere dimension", 0, None, None),
    "sphere": (int, "alias for --m", 0, None, None),
    "input": (str, "input JSON path", None, None, None),
}

# subcommand: handler, the flags it reads beside --seed, --output and --jobs
# ("a|b": a mutually exclusive pair), the flags it needs ("a|b": either one),
# the flags an --input file decides (it gives one configuration, complex or
# point set, and no draw; only these subcommands take --input), and help
COMMANDS = {
    "centerpoint": (cmd_centerpoint, "d r trials", "r d|input", "trials seed",
                    "depth >= r certificates on seeded configurations"),
    "tverberg": (cmd_tverberg, "d r trials", "r d|input", "trials seed",
                 "canonical Tverberg partitions with common-point certificates"),
    "reduce": (cmd_reduce, "d r trials", "d r", "",
               "prime-lift reduction: depth via an R-part partition of the lifted cloud"),
    "hind": (cmd_hind, "m|sphere", "m|sphere|input", "m sphere",
             "Z2 index of cross-polytope spheres (or an --input complex)"),
    "counterexample": (cmd_counterexample, "d r", "d r", "",
                       "isolated-face verification for the cone map at m=(d+1)r-2"),
    "probe": (cmd_probe, "d r", "d r", "", "common-point witness one dimension up, m=(d+1)r-1"),
    "cover": (cmd_cover, "d trials", "d|input", "trials seed",
              "covering-radius certificates; facet-touching sets need delta >= 1"),
    "fiber-demo": (cmd_fiber_demo, "d trials", "d", "", "sampled fiber-width evidence for maps off the simplex"),
}


def _split(handler, reads, needs, decides, text) -> tuple:
    """A COMMANDS entry as tuples, its words split at "|" into groups, plus
    (flag, least, greatest, default) for each flag read that has a range."""
    def groups(words):
        return tuple(tuple(word.split("|")) for word in words.split())

    reads = groups(f"seed output jobs {reads}" + (" input" if decides else ""))
    bounds = tuple((flag, *FLAGS[flag][2:]) for group in reads for flag in group if FLAGS[flag][2] is not None)
    return handler, reads, groups(needs), tuple(decides.split()), text, bounds


COMMANDS = {name: _split(*entry) for name, entry in COMMANDS.items()}  # once, at import


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process from COMMANDS and FLAGS."""
    parser = argparse.ArgumentParser(
        prog="tverlab",
        description="exact-arithmetic checks for depth, partitions, index, and covering claims",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # one parent parser per flag or exclusive pair, shared by the subcommands
    # that read it: an add_argument per subparser costs resident memory
    parents = {}
    for group in dict.fromkeys(group for entry in COMMANDS.values() for group in entry[1]):
        parents[group] = parent = argparse.ArgumentParser(add_help=False)
        holder = parent.add_mutually_exclusive_group() if len(group) > 1 else parent
        for flag in group:
            holder.add_argument(f"--{flag}", type=FLAGS[flag][0], default=None, help=FLAGS[flag][1])
    for name, (_, reads, _, _, text, _) in COMMANDS.items():
        sub.add_parser(name, help=text, parents=[parents[group] for group in reads])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    handler, _, needs, decides, _, bounds = COMMANDS[args.command]
    try:
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        if decides and args.input is not None:
            for flag in decides:
                if getattr(args, flag) is not None:
                    raise ValueError(f"--{flag} does not apply to --input")
        for group in needs:
            if all(getattr(args, flag) is None for flag in group):
                raise ValueError("need " + " or ".join(f"--{flag}" for flag in group))
        for flag, low, high, default in bounds:
            value = getattr(args, flag)
            if value is None:
                setattr(args, flag, default)
            elif not (low <= value and (high is None or value <= high)):
                raise ValueError(f"--{flag} must be " + (f"at least {low}" if high is None else f"in {low}..{high}"))
        records = handler(args)
    except (OSError, ValueError) as exc:
        # The tables' checks, unreadable --input files, malformed JSON, and
        # out-of-range dimensions are usage errors, not falsified checks.
        parser.error(f"{args.command}: {exc}")
    except (KeyError, TypeError) as exc:
        # A missing key or a non-exact scalar (a JSON float) in --input is
        # bad input; anywhere else it is a bug.
        if getattr(args, "input", None) is not None:
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
    try:
        _emit(records, args.output)
    except OSError as exc:  # an --output path that cannot be written
        parser.error(f"{args.command}: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
