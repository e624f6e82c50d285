"""Command-line front end: one subcommand per verifiable claim, its flags,
needs, ranges and defaults read from the FLAGS and COMMANDS tables below.

argv is walked straight from the tables and read as the argparse parser
they replaced read it (see `parse`); usage errors end in its error lines,
and -h prints a usage line and one line per flag, made from the tables.

Output is JSON lines with sorted keys, written to stdout or --output by
this module alone, as it alone reads --input files: the layers return
NamedTuples, tuples and Fractions, written as arrays and exact "p/q"
strings (`rat_str`).  An --input file is read in one call and decoded
as UTF-8, as text mode decoded it under a UTF-8 locale (`_input_object`).
Runs are deterministic functions of (subcommand, parameters, seed);
--jobs is accepted for interface stability but the pipeline is
sequential and results are emitted in canonical order, so output bytes
never depend on it.  Handlers yield their records, and
`_emit` encodes each as it comes: up to SPOOL_CHARS in memory, the rest
in a temporary file.  Nothing reaches stdout or --output until the
handler ends, so a failure discards the spool and prints only what its
exit code below says.

Exit codes: 0 all checks passed; 1 exactly when some record says "ok":
false (the falsified claim is in the output; an IsolationFailure's
record {"ok": false, "error": ...} is all of it); 2 usage error (an
unwritable --output, an --input nested too deeply to decode, or an input
or record integer past the 4300-digit limit for str, is one too; the
output is empty); 3 internal error (a self-check failed, or a KeyError
or TypeError arose with no --input; the output holds one record
{"command": ..., "internal_error": ...} and nothing else).  A point
configuration below (d+1)(r-1)+1 points with no partition falsifies
nothing: its record has "outside_hypotheses": true and "ok": true.
"""
from __future__ import annotations

import contextlib
import functools
import json
import re
import sys
from math import lcm
from types import SimpleNamespace
from typing import Iterable, List, Optional

from . import conemap, cover, depth, z2
from .rationals import Scaled, rat_str, read_scaled
from .rng import SplitMix64

PASS, FALSIFIED, USAGE, INTERNAL = 0, 1, 2, 3


ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=rat_str)  # one per process
# ENCODER's C encoder, built once (its encode builds one per record); no markers dict, which a
# record that raised would leave holding ids; None where json has no C encoder
C_ENCODER = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, rat_str, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True)
SPOOL_CHARS = 1 << 20  # encoded output held in memory; past it, the lines go to a temporary file


def _emit(records: Iterable[dict], output: Optional[str]) -> int:
    """Encode the records as they come, then write them all to output (None:
    stdout), or nothing if the records raise.  FALSIFIED if some record
    says "ok": false, else PASS."""
    code, lines, size, spill = PASS, [], 0, None
    try:
        for record in records:
            if record.get("ok") is False:
                code = FALSIFIED
            try:
                line = ("".join(C_ENCODER(record, 0)) if C_ENCODER else ENCODER.encode(record)) + "\n"
            except ValueError:  # an int past the digit limit for str, which no flag raises
                raise ValueError(f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for an integer in a record") from None
            lines.append(line)
            size += len(line)
            if size > SPOOL_CHARS:
                if spill is None:
                    import tempfile
                    spill = tempfile.TemporaryFile("w+")
                spill.write("".join(lines))
                lines, size = [], 0
        text = "".join(lines)
        with contextlib.nullcontext(sys.stdout) if output is None else open(output, "w") as fh:
            if spill is not None:
                spill.seek(0)
                while chunk := spill.read(SPOOL_CHARS):
                    fh.write(chunk)
            fh.write(text)
    finally:
        if spill is not None:
            spill.close()
    return code


# ---------------------------------------------------------------------------
# subcommand handlers: each yields its records
# ---------------------------------------------------------------------------

def _input_object(path: str) -> dict:
    """The JSON value of an --input file, which must be an object.  The
    file is read in one call and decoded as UTF-8, strictly, with universal
    newlines: as open(path) read it in text mode under a UTF-8 locale, so
    an invalid byte, a byte-order mark and a UTF-16 file give the messages
    they gave, and so does a JSON error after a "\r\n"."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("input nests arrays or objects too deeply to read") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int's digit limit, whose message names sys.set_int_max_str_digits
        raise ValueError(f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for an integer in the input") from None
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _json_rows(data: dict, key: str) -> Scaled:
    """read_scaled of data[key], a JSON value that must be an array of
    arrays (a string or an object would iterate as a row of scalars)."""
    rows = data[key]
    if type(rows) is not list or not {*map(type, rows)} <= {list}:
        raise ValueError(f'"{key}" must be an array of arrays of scalars')
    return read_scaled(rows)


def _configs(args) -> List[depth.PointConfig]:
    if args.input is not None:  # {"d": d, "points": [[scalar, ...], ...]}
        data = _input_object(args.input)
        d = data["d"]
        if type(d) is not int or d < 0:
            raise ValueError('"d" must be a nonnegative integer')
        config = depth.PointConfig(d, _json_rows(data, "points"))
        if args.d is not None and args.d != config.d:
            raise ValueError(f'--d {args.d} differs from the input\'s "d" {config.d}')
        return [config]
    rng = SplitMix64(args.seed)
    n = depth.guaranteed_size(args.d, args.r)
    return [depth.random_point_config(args.d, n, rng) for _ in range(args.trials)]


def cmd_centerpoint(args):
    for i, config in enumerate(_configs(args)):
        cert = depth.centerpoint(config, args.r)
        outside = cert is None and config.n < depth.guaranteed_size(config.d, args.r)
        yield {
            "trial": i, "n": config.n, "r": args.r,
            "point": None if cert is None else cert.point,
            "depth": None if cert is None else cert.depth,
            "ok": outside or (cert is not None and cert.depth >= args.r),
        } | ({"outside_hypotheses": True} if outside else {})


def cmd_tverberg(args):
    for i, config in enumerate(_configs(args)):
        cert, dep = depth._partition_and_depth(config, args.r)
        if cert is None:
            ok = config.n < depth.guaranteed_size(config.d, args.r)  # no claim applies
            rec = {"trial": i, "ok": ok, "r": args.r} | ({"outside_hypotheses": True} if ok else {})
        else:
            rec = {"trial": i, "blocks": cert.blocks, "point": cert.point,
                   "depth": dep.depth, "r": args.r, "ok": dep.depth >= args.r}
        yield rec


def cmd_reduce(args):
    plan = depth.reduction_plan(args.r, args.d)
    yield {"plan": plan._asdict()}
    rng = SplitMix64(args.seed)
    for i in range(args.trials):
        config = depth.random_point_config(args.d, plan.m + 1, rng)
        cert = depth.reduce_central_from_tverberg(config, args.r)
        yield {"trial": i, "point": cert.point, "depth": cert.depth, "ok": cert.depth >= args.r}


def cmd_hind(args):
    if args.input is not None:
        data = _input_object(args.input)
        given = data["involution"]
        if not isinstance(given, dict):
            raise ValueError('"involution" must be a JSON object')
        involution = {}
        for k, v in given.items():
            try:
                u = int(k)
            except ValueError:
                raise ValueError(f'"involution" key {k!r} is not an integer vertex id') from None
            if u in involution:
                raise ValueError(f"vertex {u} appears twice in the involution")
            involution[u] = v
        # Z2Complex reads only the given simplices, but the complex is still
        # built per claim: perfbench's tracer counts SimplicialComplex builds,
        # and its test pins some on a sample where only these claims build one.
        try:
            X = z2.Z2Complex(z2.SimplicialComplex(data["maximal_simplices"]), involution)
        except TypeError:  # a value that does not iterate, or ids that do not compare or hash
            raise ValueError('"maximal_simplices" must be an array of arrays of vertex ids') from None
        yield {"hind": z2.hind(X)}
        return
    value = z2.hind(z2.cross_polytope_sphere(args.sphere))
    yield {"sphere": args.sphere, "hind": value, "expected": args.sphere, "ok": value == args.sphere}


def cmd_counterexample(args):
    """The rows, then the summary; an IsolationFailure is main's to write."""
    spec = conemap.build_counterexample(args.d, args.r)
    tuples = 0
    for tuples, row in enumerate(conemap.isolation_rows(spec), 1):
        yield row._asdict()
    yield {"summary": {"d": args.d, "r": args.r, "m": spec.m, "tuples": tuples, "all_isolated": True}}


def cmd_probe(args):
    result = conemap.probe_tverberg_plus_one(args.d, args.r)
    yield result._asdict() | {"ok": result.found}


def _random_facet_touching(n: int, rng: SplitMix64) -> Scaled:
    """One barycentric point per facet (coordinate i zero), then two
    interior points (i None), each drawn as integer weights over their sum
    and returned over the lcm of the sums."""
    rows = [[0 if j == i else rng.int_between(1, 9) for j in range(n + 1)]
            for i in [*range(n + 1), None, None]]
    L = lcm(*map(sum, rows))
    return Scaled(L, [tuple(w * (L // sum(row)) for w in row) for row in rows])


def cmd_cover(args):
    if args.input is not None:
        pts = _json_rows(_input_object(args.input), "barycentric_points")
        if args.d is not None and pts.rows and args.d != len(pts.rows[0]) - 1:
            raise ValueError(f"--d {args.d} differs from the input's n {len(pts.rows[0]) - 1}")
        touches = cover.touches_all_facets(pts)
        cert = cover.min_cover_barycentric(pts)
        yield cert._asdict() | {"touches_all_facets": touches, "ok": (not touches) or cert.delta >= 1}
        return
    if args.d < 1:  # before a trial is drawn
        raise ValueError("need n >= 1")
    rng = SplitMix64(args.seed)
    for i in range(args.trials):
        pts = _random_facet_touching(args.d, rng)
        touches = cover.touches_all_facets(pts)
        cert = cover.min_cover_barycentric(pts)
        yield {"trial": i, "delta": cert.delta, "touches_all_facets": touches, "ok": touches and cert.delta >= 1}


def cmd_fiber_demo(args):
    # per map, a header, then one record per cell tagged with the map
    for label, f in (("coordinate projection", cover.coordinate_projection_map),
                     ("constant map", cover.constant_map)):
        report = cover.fiber_width_demo(args.d, f, args.trials)
        yield {"evidence": label, "source_dim": args.d, "density": args.trials, "max_delta": report.max_delta}
        yield from ({"cell": c.cell, "count": c.count, "map": label} | c.certificate._asdict() for c in report.cells)


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
    "sphere": (int, "sphere dimension", 0, None, None),
    "input": (str, "input JSON path", None, None, None),
}

# subcommand: handler, the flags it reads beside --seed, --output and --jobs,
# the flags it needs ("a|b": either one), the flags an --input file decides
# (it gives one configuration, complex or point set, and no draw; only these
# subcommands take --input), and help
COMMANDS = {
    "centerpoint": (cmd_centerpoint, "d r trials", "r d|input", "trials seed",
                    "depth >= r certificates on seeded configurations"),
    "tverberg": (cmd_tverberg, "d r trials", "r d|input", "trials seed",
                 "canonical Tverberg partitions with common-point certificates"),
    "reduce": (cmd_reduce, "d r trials", "d r", "",
               "prime-lift reduction: depth via an R-part partition of the lifted cloud"),
    "hind": (cmd_hind, "sphere", "sphere|input", "sphere",
             "Z2 index of cross-polytope spheres (or an --input complex)"),
    "counterexample": (cmd_counterexample, "d r", "d r", "",
                       "isolated-face verification for the cone map at m=(d+1)r-2"),
    "probe": (cmd_probe, "d r", "d r", "", "common-point witness one dimension up, m=(d+1)r-1"),
    "cover": (cmd_cover, "d trials", "d|input", "trials seed",
              "covering-radius certificates; facet-touching sets need delta >= 1"),
    "fiber-demo": (cmd_fiber_demo, "d trials", "d", "", "sampled fiber-width evidence for maps off the simplex"),
}


def _split(handler, reads, needs, decides, text) -> tuple:
    """A COMMANDS entry as tuples, its needs split at "|" into alternatives,
    plus (flag, least, greatest, default) for each flag read with a range."""
    reads = tuple(f"seed output jobs {reads}".split()) + (("input",) if decides else ())
    bounds = tuple((flag, *FLAGS[flag][2:]) for flag in reads if FLAGS[flag][2] is not None)
    return handler, reads, tuple(tuple(w.split("|")) for w in needs.split()), tuple(decides.split()), text, bounds


COMMANDS = {name: _split(*entry) for name, entry in COMMANDS.items()}  # once, at import


# ---------------------------------------------------------------------------
# the parser: argv walked with one dict lookup a token, read as argparse read it
NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match  # a value, though it starts with "-"


@functools.cache
def build_parser() -> dict:
    """Once per process, from COMMANDS and FLAGS, per subcommand (None: the
    top level): {option or prefix: [(option, flag)]}, its usage and its
    flags."""
    parsers = {}
    for name, reads in [(None, ()), *((name, entry[1]) for name, entry in COMMANDS.items())]:
        options = [(o, "help") for o in ("-h", "--help")] + [(f"--{flag}", flag) for flag in reads]
        prefixes = dict.fromkeys(option[:k] for option, _ in options for k in range(2, len(option)))
        lookup = {prefix: [(o, f) for o, f in options if o.startswith(prefix)] for prefix in prefixes}
        parts = [f"[--{flag} {flag.upper()}]" for flag in reads]
        usage = " ".join(["usage: tverlab", name, "[-h]", *parts]) if name else (  # as argparse wrapped it
            "usage: tverlab [-h]\n{0}{{{1}}}\n{0}...".format(" " * 15, ",".join(COMMANDS)))
        parsers[name] = lookup | {option: [(option, flag)] for option, flag in options}, usage, dict.fromkeys(reads)
    return parsers


def _fail(name, message: str):
    """A usage error as argparse printed it, on stderr; exit 2."""
    sys.stderr.write(f"{build_parser()[name][1]}\n{'tverlab ' + name if name else 'tverlab'}: error: {message}\n")
    raise SystemExit(USAGE)


def _help(name):
    """-h: the usage, then one line per subcommand or flag with its help."""
    _, usage, flags = build_parser()[name]
    rows = [(f"--{f} {f.upper()}", FLAGS[f][1]) for f in flags] if name else [(c, e[4]) for c, e in COMMANDS.items()]
    rows.insert(0, ("-h, --help", "show this help message and exit"))
    text = COMMANDS[name][4] if name else "exact-arithmetic checks for depth, partitions, index, and covering claims"
    sys.stdout.write(f"{usage}\n\n{text}\n\n" + "".join(f"  {a:<18}{b}\n" for a, b in rows))
    raise SystemExit(PASS)


def _read(name, lookup: dict, token: str):
    """One token as argparse read it, before taking any: None for a value,
    else (the option's flag or None if it is unknown, the value written
    after "=" or run on after "-h", or None)."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    value = value if eq else None
    if token[1] != "-":  # -h, the one short option, runs on into its value: "-hh" is "-h -h"
        head, value = token[:2], (value if head == "-h" else token[2:])
        value = (value.lstrip("h") or None) if value else value
    found = lookup.get(head, ())
    if len(found) > 1:
        _fail(name, f"ambiguous option: {token} could match {', '.join(option for option, _ in found)}")
    if found:
        return found[0][1], value
    return None if NUMBER(token) or " " in token else (None, None)


def _take(name, tokens: list, args, extra: list):
    """Take tokens as argparse's parser for `name` took them: set each flag
    on args, the last one winning, and append unknown tokens to extra.  At
    the top level (None) return the command's index (None if there is none)."""
    lookup = build_parser()[name][0]
    cut = tokens.index("--") if "--" in tokens else len(tokens)  # all after it are values
    reads = [_read(name, lookup, token) for token in tokens[:cut]]
    i = 0
    while i < cut:
        read, token, i = reads[i], tokens[i], i + 1
        if read is None and name is None:
            return i - 1
        if read is None or read[0] is None:
            extra.append(token)
            continue
        flag, value = read
        if flag == "help":
            if value is not None:
                _fail(name, f"argument -h/--help: ignored explicit argument {value!r}")
            _help(name)
        if value is None:
            if i == cut or reads[i] is not None:
                _fail(name, f"argument --{flag}: expected one argument")
            value, i = tokens[i], i + 1
        kind = FLAGS[flag][0]
        try:
            value = kind(value)
        except ValueError:
            _fail(name, f"argument --{flag}: invalid {kind.__name__} value: {value!r}")
        setattr(args, flag, value)
    if name is None and cut + 1 < len(tokens):
        return cut  # argparse read a "--" with a token after it as the command
    extra += tokens[cut:]


def parse(argv: list):
    """argv as the argparse parser that the tables replaced read it ("--flag
    value" or "--flag=value", a unique prefix of a flag, a negative number
    as a value, the last of a repeated flag, "--" ending the flags): the
    subcommand's namespace and the tokens it did not know.  A command name
    is a value wherever it stands, so one in argv[0] needs no top-level walk."""
    extra = []
    at = 0 if argv and argv[0] in COMMANDS else _take(None, argv, None, extra)
    if at is None:
        _fail(None, "the following arguments are required: command")
    name = argv[at]
    if name not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {name!r} (choose from {', '.join(map(repr, COMMANDS))})")
    args = SimpleNamespace(command=name, **build_parser()[name][2])
    _take(name, argv[at + 1:], args, extra)
    return args, extra


def main(argv=None) -> int:
    args, extra = parse(list(sys.argv[1:] if argv is None else argv))
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
        return _emit(handler(args), args.output)
    except (OSError, ValueError) as exc:
        # The tables' checks, unreadable --input files, malformed JSON,
        # out-of-range dimensions, an unwritable --output and too long an int
        # in a record are usage errors, not falsified checks.
        _fail(None, f"{args.command}: {exc}")
    except (KeyError, TypeError) as exc:
        # A missing key or a non-exact scalar (a JSON float) in --input is
        # bad input; anywhere else it is a bug.
        if getattr(args, "input", None) is not None:
            what = "missing input key " if isinstance(exc, KeyError) else ""
            _fail(None, f"{args.command}: {what}{exc}")
        code, record = INTERNAL, {"command": args.command, "internal_error": f"{type(exc).__name__}: {exc}"}
    except RuntimeError as exc:
        # A failed certificate or self-check is a bug, not a falsified claim.
        code, record = INTERNAL, {"command": args.command, "internal_error": str(exc)}
    except conemap.IsolationFailure as exc:  # the claim falsified: its record alone
        code, record = FALSIFIED, {"ok": False, "error": str(exc)}
    try:
        _emit([record], args.output)
    except OSError as exc:  # an unwritable --output
        _fail(None, f"{args.command}: {exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
