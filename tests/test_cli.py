"""The command line front end: exit codes, JSON shape, and byte stability."""
import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tverlab
import tverlab.cli
from tverlab.cli import main
from tverlab.rationals import rat, rat_str

from oracles import argparse_parser, canonical_z2_complex, subdivide_z2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines()], out


def test_centerpoint_smoke(capsys):
    code, records, _ = run(
        capsys, "centerpoint", "--d", "1", "--r", "2", "--trials", "3", "--seed", "5"
    )
    assert code == 0
    assert len(records) == 3
    for rec in records:
        assert rec["ok"] and rec["depth"] >= 2
        assert all("/" in c for c in rec["point"])


def test_tverberg_smoke(capsys):
    code, records, _ = run(
        capsys, "tverberg", "--d", "2", "--r", "2", "--trials", "2"
    )
    assert code == 0
    for rec in records:
        assert rec["ok"] and len(rec["blocks"]) == 2


def test_reduce_smoke(capsys):
    code, records, _ = run(capsys, "reduce", "--d", "1", "--r", "4", "--trials", "1")
    assert code == 0
    assert records[0]["plan"] == {"r": 4, "d": 1, "k": 2, "R": 7, "m": 6, "M": 13}
    assert records[1]["depth"] >= 4


@pytest.mark.parametrize("d, r, k, R", [(2, 4, 2, 7), (2, 6, 2, 11), (3, 4, 2, 7)])
def test_reduce_off_the_line_refuses_a_lift_up_front(capsys, d, r, k, R):
    """In d >= 2 a composite r is a usage error, raised before any search:
    exit 2 within a second, empty stdout, and r, k and R on stderr."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as e:
        main(["reduce", "--d", str(d), "--r", str(r), "--trials", "1"])
    assert time.perf_counter() - start < 1 and e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"r = {r} lifts each point k = {k} times into R = {R} parts" in captured.err


@pytest.mark.parametrize("d, r", [(3, 2), (2, 3)])
def test_reduce_at_k_1_gives_the_centerpoint_records(capsys, d, r):
    """For prime r the lift is the configuration itself (k = 1), drawn as
    centerpoint draws it: the trial records of reduce hold centerpoint's
    point and depth with the same arguments."""
    argv = ("--d", str(d), "--r", str(r), "--trials", "4", "--seed", "13")
    code, (plan, *trials), _ = run(capsys, "reduce", *argv)
    assert code == 0 and plan["plan"]["k"] == 1
    code, records, _ = run(capsys, "centerpoint", *argv)
    assert code == 0 and len(trials) == len(records) == 4
    assert [(t["point"], t["depth"]) for t in trials] == [(c["point"], c["depth"]) for c in records]


def test_hind_sphere_and_alias(capsys):
    code, records, _ = run(capsys, "hind", "--sphere", "2")
    assert code == 0 and records[0] == {
        "sphere": 2, "hind": 2, "expected": 2, "ok": True
    }
    code, records, _ = run(capsys, "hind", "--sphere", "1")
    assert code == 0 and records[0]["hind"] == 1
    code, records, _ = run(capsys, "hind", "--sphere", "5")
    assert code == 0 and records[0] == {
        "sphere": 5, "hind": 5, "expected": 5, "ok": True
    }


def test_hind_sphere_eleven_answers(capsys):
    """S^11 (4096 facets, 531440 faces) solves one 2048 x 12288 system at its
    top degree and exits 0."""
    code, records, out = run(capsys, "hind", "--sphere", "11")
    assert code == 0 and '"hind":11' in out
    assert records == [{"sphere": 11, "hind": 11, "expected": 11, "ok": True}]


def test_hind_from_input_file(tmp_path, capsys):
    path = tmp_path / "sphere.json"
    path.write_text(
        json.dumps(
            {
                "maximal_simplices": [[0, 2], [0, 3], [1, 2], [1, 3]],
                "involution": {"0": 1, "1": 0, "2": 3, "3": 2},
            }
        )
    )
    code, records, _ = run(capsys, "hind", "--input", str(path))
    assert code == 0 and records[0] == {"hind": 1}


def test_hind_rejects_non_integer_involution_values(tmp_path, capsys):
    for value in ("1.0", "true"):
        path = tmp_path / "points.json"
        path.write_text(
            '{"maximal_simplices": [[0], [1]], "involution": {"0": %s, "1": 0}}' % value
        )
        with pytest.raises(SystemExit) as e:
            main(["hind", "--input", str(path)])
        assert e.value.code == 2, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "vertex ids must be integers" in captured.err
        assert "Traceback" not in captured.err


def test_hind_rejects_colliding_involution_keys(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(
        '{"maximal_simplices": [[0], [1]], "involution": {"0": 1, "1": 0, "01": 0}}'
    )
    with pytest.raises(SystemExit) as e:
        main(["hind", "--input", str(path)])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vertex 1 appears twice" in captured.err


def test_counterexample_and_probe(capsys):
    code, records, _ = run(capsys, "counterexample", "--d", "1", "--r", "2")
    assert code == 0
    assert records[-1]["summary"]["all_isolated"]
    assert len(records) == records[-1]["summary"]["tuples"] + 1

    code, records, _ = run(capsys, "probe", "--d", "1", "--r", "2")
    assert code == 0
    assert records[0]["found"] and records[0]["faces"] == [[0, 1], [2, 3]]


def test_cover_seeded_and_from_file(tmp_path, capsys):
    code, records, _ = run(capsys, "cover", "--d", "2", "--trials", "2", "--seed", "3")
    assert code == 0
    assert all(rec["ok"] and rec["touches_all_facets"] for rec in records)

    path = tmp_path / "pts.json"
    path.write_text(
        json.dumps(
            {"barycentric_points": [["1/1", "0/1"], ["0/1", "1/1"]]}
        )
    )
    code, records, _ = run(capsys, "cover", "--input", str(path))
    assert code == 0
    assert records[0]["delta"] == "1/1" and records[0]["touches_all_facets"]


def test_fiber_demo_output(capsys):
    code, records, _ = run(capsys, "fiber-demo", "--d", "1", "--trials", "2")
    assert code == 0
    labels = {rec["evidence"] for rec in records if "evidence" in rec}
    assert labels == {"coordinate projection", "constant map"}


# sha256 of `fiber-demo --d D --trials DENSITY` stdout, as printed when the
# maps were still evaluated through a barycentric subdivision
FIBER_DEMO_SHA256 = {
    (1, 12): "37e2d901f1265818dcf6a0d8bc0f8645def9732e9f50ef5c4f9ffd967813050c",
    (2, 3): "76f409167c24dc6c4505e5d5ab2fd3934ea54f9aa85cb9089b847f0e58d749ab",
    (3, 1): "c6b42d6edb2d7e19fe09ec74ee3854afe3c1359c94a876169a5c084946f9b7cb",
    (3, 2): "78f4bb9e73cef3ff448e86c4b3311114ef29ecb2ac4bff7ec3f5545e120997b1",
}


def test_fiber_demo_bytes_are_pinned(capsys):
    for (d, density), digest in FIBER_DEMO_SHA256.items():
        code, _, out = run(capsys, "fiber-demo", "--d", str(d), "--trials", str(density))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (d, density)


# sha256 of `counterexample --d D --r R` stdout, as printed when the
# isolation certificates were summed in Fractions
COUNTEREXAMPLE_SHA256 = {
    (1, 2): "028e309abfaafbd7d69941bf7dc26f489d16009dec25afd0b61e28bad83d10fe",
    (1, 3): "8c0fecd46fbb7e3c5b7d604c4193d9a9afc8dc58eba15e33c35dbb9ef65dac19",
    (2, 2): "9a408bcee669700996d31d5febe5367eeba4f2baf4b48309064e2770c48ef08d",
    (3, 2): "300bd020ca4ef179971b63f93a44eb818ecbaf5a0c597422c010a8f9f21f471e",
    (2, 3): "e5c1e8a4edb99c263a8686f12711cf58e8a02a16fbabc8b49cb456972b65b721",
}


def test_counterexample_bytes_are_pinned(capsys):
    for (d, r), digest in COUNTEREXAMPLE_SHA256.items():
        code, _, out = run(capsys, "counterexample", "--d", str(d), "--r", str(r))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (d, r)


def in_fresh_interpreter(code: str) -> str:
    """The stdout of `code` run by a fresh interpreter on this tree."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tverlab.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


QUIET_MAIN = """
import contextlib, io, tverlab.cli
def main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tverlab.cli.main(list(argv)) == 0
    return out.getvalue()
"""


def test_no_tverlab_run_loads_openssl():
    """The digests come from the interpreter's own SHA-256, so neither
    hashlib nor OpenSSL's `_hashlib` is loaded by the CLI or its digests."""
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    code = QUIET_MAIN + "main('counterexample', '--d', '1', '--r', '2')\n"
    code += "import sys; print(*(m in sys.modules for m in ('hashlib', '_hashlib', '_blake2')))"
    assert in_fresh_interpreter(code).split() == ["False"] * 3


def test_the_hashlib_fallback_prints_the_pinned_bytes():
    """With no built-in SHA-256 module, hashlib's gives the same digests."""
    code = "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n" + QUIET_MAIN + """
import hashlib, json, tverlab.conemap
assert tverlab.conemap.sha256 is hashlib.sha256
print(json.dumps([hashlib.sha256(main('counterexample', '--d', str(d), '--r', str(r)).encode()).hexdigest()
                  for d, r in %r]))""" % list(COUNTEREXAMPLE_SHA256)
    assert json.loads(in_fresh_interpreter(code)) == list(COUNTEREXAMPLE_SHA256.values())


@pytest.fixture
def spills(monkeypatch):
    """The temporary files the output spool opens."""
    import tempfile

    opened, real = [], tempfile.TemporaryFile

    def counted(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", counted)
    return opened


def test_a_spilled_spool_writes_the_bytes_kept_in_memory(monkeypatch, tmp_path, capsys, spills):
    """Past SPOOL_CHARS the lines go to a temporary file, closed once
    copied; stdout and --output get the pinned bytes either way."""
    argv = ["counterexample", "--d", "1", "--r", "3"]
    code, _, kept = run(capsys, *argv)
    assert code == 0 and not spills and len(kept) > 5000
    monkeypatch.setattr(tverlab.cli, "SPOOL_CHARS", 1000)
    code, _, spilled = run(capsys, *argv)
    path = tmp_path / "records.jsonl"
    assert main([*argv, "--output", str(path)]) == 0 and capsys.readouterr().out == ""
    assert code == 0 and spilled == path.read_text() == kept
    assert len(spills) == 2 and all(f.closed for f in spills)
    assert hashlib.sha256(kept.encode()).hexdigest() == COUNTEREXAMPLE_SHA256[1, 3]


def test_a_long_output_is_held_in_bounded_memory(monkeypatch, tmp_path, spills):
    """20 000 records, 1.9 MB of output, pass through a 16 KiB spool with
    under 0.2 MB allocated at any time."""
    def handler(args):
        for i in range(20000):
            yield {"ok": True, "trial": i, "point": ["1/3"] * 10}

    monkeypatch.setitem(tverlab.cli.COMMANDS, "probe", (handler, *tverlab.cli.COMMANDS["probe"][1:]))
    monkeypatch.setattr(tverlab.cli, "SPOOL_CHARS", 1 << 14)
    path = tmp_path / "records.jsonl"
    tracemalloc.start()
    try:
        assert main(["probe", "--d", "1", "--r", "2", "--output", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_900_000 and peak < 200_000 and len(spills) == 1


@pytest.mark.parametrize("error, code, expected", [
    (RuntimeError("a self-check failed"), 3, [{"command": "probe", "internal_error": "a self-check failed"}]),
    (ValueError("a bad value"), 2, []),
    (tverlab.conemap.IsolationFailure("tuple ((0,), (1,)) is not isolated"), 1,
     [{"ok": False, "error": "tuple ((0,), (1,)) is not isolated"}]),
])
def test_a_handler_failing_after_its_records_prints_only_the_failure(
        monkeypatch, tmp_path, capsys, spills, error, code, expected):
    """The records a handler yielded before it failed are discarded, whether
    they were kept in memory or spilled: stdout, or --output, holds only
    what the failure prints, and no temporary file is left."""
    def handler(args):
        yield {"ok": True, "trial": 0}
        yield {"ok": False, "trial": 1}
        raise error

    monkeypatch.setitem(tverlab.cli.COMMANDS, "probe", (handler, *tverlab.cli.COMMANDS["probe"][1:]))
    argv = ["probe", "--d", "1", "--r", "2"]
    for spool_chars in (tverlab.cli.SPOOL_CHARS, 10):
        monkeypatch.setattr(tverlab.cli, "SPOOL_CHARS", spool_chars)
        folder = tmp_path / str(spool_chars)
        folder.mkdir()
        for output in ([], ["--output", str(folder / "records.jsonl")]):
            try:
                got = main(argv + output)
            except SystemExit as e:
                got = e.code
            out = capsys.readouterr().out
            if output:
                assert out == "" and os.listdir(folder) == (["records.jsonl"] if expected else [])
                out = (folder / "records.jsonl").read_text() if expected else ""
            assert got == code and [json.loads(line) for line in out.splitlines()] == expected
    assert len(spills) >= 2 and all(f.closed for f in spills)  # the yielded records spilled, for each destination


# sha256 of the stdout of commands that print exact LP witnesses, as printed
# when the LP kernel still ran phase 2 on feasible systems
LP_WITNESS_SHA256 = {
    ("centerpoint", "--d", "2", "--r", "3", "--trials", "20", "--seed", "7"):
        "16485c62f8dd9a0e3d03ac371227dfed44dd389c2f382f7c70c68574269cd504",
    ("tverberg", "--d", "2", "--r", "3", "--trials", "5"):
        "2c2d1851181d65177c8b4e2339dc0abe1a5f0e0b982e38794898ba22f8011bcd",
    ("reduce", "--d", "1", "--r", "6", "--trials", "10"):
        "fc4a207754910a19f2c37b8ddc8afb431a968d7918f9fc0ea86e04f92255e795",
    ("reduce", "--d", "2", "--r", "3", "--trials", "3", "--seed", "2"):
        "fb3eae18b199420160d188b6a6bb4fda7fb36c3953a85620ca51770e36940dbd",
}


def test_lp_witness_bytes_are_pinned(capsys):
    for argv, digest in LP_WITNESS_SHA256.items():
        code, _, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# a point configuration whose scalars mix JSON integers, "p/q" strings and
# a padded " 1/2 "
MIXED_CONFIG = {"d": 2, "points": [[0, "1/3"], [" 1/2 ", 2], ["-3/4", "5/2"], [3, " 1/2 "],
                                   ["7/5", -1], [-2, "-2/3"], ["1/6", 4]]}

# sha256 of the stdout of `probe` and of `--input` runs on MIXED_CONFIG, as
# printed when each layer still wrote its own JSON records
RECORD_SHA256 = {
    ("probe", "--d", "1", "--r", "3"): "7000ea6daaa81f683deaa134ecf3e1656e01bf2c8cdf0ad744a2c1d6e8e4eb6c",
    ("probe", "--d", "2", "--r", "2"): "0657288d1f799ac6aecaac678d537e3889a21a36576b7e2eab2d2768486f76ba",
    ("centerpoint", "--r", "2", "--input"): "bc30718b47b4852a91ca82ca513135cd3272a0c052b33f0a1555f585f37b5040",
    ("tverberg", "--r", "3", "--input"): "0cac649f45e11dbb5ebc696d691e2d4803dcda2520fd4fb986e0b8d95b9b18e8",
}


def test_record_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MIXED_CONFIG))
    for argv, digest in RECORD_SHA256.items():
        code, _, out = run(capsys, *argv, *([str(path)] if argv[-1] == "--input" else []))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# `cover --input` sets: facet-touching, interior, one point, repeated points
# (some coordinates as JSON integers) and widely mixed denominators
COVER_INPUTS = {
    "touching": [["1/2", "1/2", "0/1"], ["0/1", "1/3", "2/3"], ["3/4", "0/1", "1/4"],
                 ["1/3", "1/3", "1/3"]],
    "interior": [["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"], ["1/5", "2/5", "2/5"]],
    "one point": [["1/10", "2/10", "3/10", "4/10"]],
    "repeated": [["1/2", "0", "1/2"], ["1/2", "0", "1/2"], [0, 1, 0], [0, 1, 0]],
    "mixed denominators": [
        ["1/3", "1/7", "1/1024", "1/999983", "11242787365/21503634432"],
        ["2/1000000007", "5/11", "0", "3/8", "14999999929/88000000616"],
        ["999/1000", "1/1000000000039", "0", "0", "999999999039/1000000000039000"],
        ["1/6", "1/6", "1/6", "1/6", "1/3"],
    ],
}

# sha256 of `cover --d N --trials 50 --seed S` and of `cover --input` on the
# sets above, as printed when the covering loop still ran in Fractions.  A
# seeded record carries only delta, which is 1 on every facet-touching set,
# so the four seeded digests agree; the `--input` records also pin the
# translate and the tight pairs.
COVER_SHA256 = {
    (1, 1): "ae586c42e0c5bfeb77cd2cf7cec9d033f040ffc55582eddbd0ba76075b441952",
    (2, 2): "ae586c42e0c5bfeb77cd2cf7cec9d033f040ffc55582eddbd0ba76075b441952",
    (3, 3): "ae586c42e0c5bfeb77cd2cf7cec9d033f040ffc55582eddbd0ba76075b441952",
    (4, 4): "ae586c42e0c5bfeb77cd2cf7cec9d033f040ffc55582eddbd0ba76075b441952",
    "touching": "6c2672dd5bdd5995f81218a20ffe1ee657a9720da0f6250bfce9a74ddb9326e6",
    "interior": "6f37c86de98a5464c4b3dc0cdd63d5130cf13a8914c83ffb9be1bb6ed6cdd416",
    "one point": "ccb887bcde8c7465e716d92ca0dc7070acbc1a7c0645877341f8091af5fc9d1b",
    "repeated": "6fed0d34568e783f1ec5dcfa2d19cf63cf194db2ff701ee1d782a715b783f398",
    "mixed denominators": "002a06e812330f5ba6485c6b46d7bed7db04f812ed1c43f0b03d844002058cb9",
}


def test_cover_bytes_are_pinned(tmp_path, capsys):
    for key, digest in COVER_SHA256.items():
        if key in COVER_INPUTS:
            path = tmp_path / "pts.json"
            path.write_text(json.dumps({"barycentric_points": COVER_INPUTS[key]}))
            argv = ("cover", "--input", str(path))
        else:
            n, seed = key
            argv = ("cover", "--d", str(n), "--trials", "50", "--seed", str(seed))
        code, _, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


def test_fiber_demo_builds_no_complex(monkeypatch, capsys):
    builds = []
    init = tverlab.SimplicialComplex.__init__

    def counted_init(self, facets):
        builds.append(1)
        init(self, facets)

    monkeypatch.setattr(tverlab.SimplicialComplex, "__init__", counted_init)
    for d in (1, 2, 3):
        assert run(capsys, "fiber-demo", "--d", str(d), "--trials", "2")[0] == 0
    assert builds == []


def test_hind_input_sorts_no_given_simplex(monkeypatch, tmp_path, capsys):
    """hind --input builds one SimplicialComplex per run and checks its
    given simplices on orbit masks, never putting one in canonical form;
    a file with a fault still reaches the walk that names it."""
    builds, sorts = [], []
    init, simplex = tverlab.SimplicialComplex.__init__, tverlab.complexes.simplex

    def counted_init(self, facets):
        builds.append(1)
        init(self, facets)

    def counted_simplex(vertices):
        sorts.append(1)
        return simplex(vertices)

    monkeypatch.setattr(tverlab.SimplicialComplex, "__init__", counted_init)
    monkeypatch.setattr(tverlab.complexes, "simplex", counted_simplex)
    rng = tverlab.SplitMix64(40)
    S2, S3 = tverlab.cross_polytope_sphere(2), tverlab.cross_polytope_sphere(3)
    path = tmp_path / "complex.json"
    for X in (S2, subdivide_z2(S2), tverlab.z2.z2_disjoint_union(subdivide_z2(S2), S3)):
        ids = list(range(2 * len(X.complex.vertices)))
        for i in range(len(ids) - 1, 0, -1):
            j = rng.below(i + 1)
            ids[i], ids[j] = ids[j], ids[i]
        new = dict(zip(X.complex.vertices, ids))
        facets = [[new[v] for v in f] for f in sorted(X.complex.facets)]
        involution = {new[v]: new[w] for v, w in X.involution.items()}
        expected = tverlab.hind(canonical_z2_complex(facets, involution))
        path.write_text(json.dumps({"maximal_simplices": facets,
                                    "involution": {str(v): w for v, w in involution.items()}}))
        builds.clear()
        sorts.clear()
        assert run(capsys, "hind", "--input", str(path))[1] == [{"hind": expected}]
        assert (len(builds), len(sorts)) == (1, 0)
    path.write_text('{"maximal_simplices": [[0, 0], [1]], "involution": {"0": 1, "1": 0}}')
    sorts.clear()
    assert usage_error(capsys, ["hind", "--input", str(path)]) == (
        2, "tverlab: error: hind: repeated vertex in simplex (0, 0)"
    )
    assert sorts == [1]


def test_point_config_input(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"d": 1, "points": [["0/1"], ["1/1"], ["2/1"]]})
    )
    code, records, _ = run(capsys, "centerpoint", "--r", "2", "--input", str(path))
    assert code == 0 and records[0]["depth"] == 2


def test_a_d_that_differs_from_the_input_is_a_usage_error(tmp_path, capsys):
    """--d next to --input must agree with the file's "d"; unchecked, the
    run answered the file's dimension and exited 0."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"d": 1, "points": [[1], [2], [3]]}))
    for command in ("centerpoint", "tverberg"):
        with pytest.raises(SystemExit) as e:
            main([command, "--d", "3", "--r", "2", "--input", str(path)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f'error: {command}: --d 3 differs from the input\'s "d" 1\n'
        )
        _, _, matching = run(capsys, command, "--d", "1", "--r", "2", "--input", str(path))
        _, _, unset = run(capsys, command, "--r", "2", "--input", str(path))
        assert matching == unset and json.loads(unset)["ok"]


def test_flags_that_input_overrides_are_usage_errors(tmp_path, capsys):
    """Next to --input, hind's --sphere, an explicit --trials or
    --seed of centerpoint, tverberg and cover, and a cover --d other than
    the file's n are usage errors; unchecked, each run answered the file
    and exited 0."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"d": 1, "points": [[1], [2], [3]]}))
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"maximal_simplices": [[0, 1], [1, 2], [2, 3], [3, 0]],
                                 "involution": {"0": 2, "1": 3, "2": 0, "3": 1}}))
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"barycentric_points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    for argv, message in (
        (["hind", "--sphere", "5", "--input", str(cycle)], "hind: --sphere does not apply to --input"),
        (["centerpoint", "--r", "2", "--trials", "3", "--input", str(config)],
         "centerpoint: --trials does not apply to --input"),
        (["tverberg", "--r", "2", "--trials", "5", "--input", str(config)],
         "tverberg: --trials does not apply to --input"),
        (["centerpoint", "--r", "2", "--seed", "3", "--input", str(config)],
         "centerpoint: --seed does not apply to --input"),
        (["tverberg", "--r", "2", "--seed", "0", "--input", str(config)],
         "tverberg: --seed does not apply to --input"),
        (["cover", "--seed", "3", "--input", str(points)], "cover: --seed does not apply to --input"),
        (["cover", "--trials", "7", "--input", str(points)], "cover: --trials does not apply to --input"),
        (["cover", "--d", "5", "--input", str(points)], "cover: --d 5 differs from the input's n 2"),
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")
    assert run(capsys, "hind", "--input", str(cycle))[1] == [{"hind": 1}]
    _, _, matching = run(capsys, "cover", "--d", "2", "--input", str(points))
    _, _, unset = run(capsys, "cover", "--input", str(points))
    assert matching == unset and json.loads(unset)["ok"]
    for command in ("centerpoint", "tverberg"):
        code, records, _ = run(capsys, command, "--r", "2", "--input", str(config))
        assert code == 0 and len(records) == 1


def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys):
    """An --output that is a directory, or whose directory is missing, exits
    2 with a usage message and writes nothing to stdout; it raised
    IsADirectoryError or FileNotFoundError and exited 1."""
    for path, reason in ((tmp_path, "Is a directory"), (tmp_path / "no" / "x.json", "No such file")):
        with pytest.raises(SystemExit) as e:
            main(["hind", "--sphere", "1", "--output", str(path)])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: hind: [Errno " in captured.err and reason in captured.err
        assert "Traceback" not in captured.err


def test_scalars_too_large_to_write_or_read_are_usage_errors(tmp_path, capsys):
    """A point past int's 4300-digit limit for str, which `rat_str` cannot
    write, and a scalar whose decimal exponent exceeds 4300 in magnitude,
    which `rat` refuses before it builds the power of 10, each exit 2
    within a second, with a usage message, empty stdout and no traceback.
    The first printed a traceback and exited 1; the second ran for minutes.
    So does an integer past the limit written four ways, read by the JSON
    decoder, by `_reduced`'s int or by `rat`: each once exited 2 with
    Python's hint to call sys.set_int_max_str_digits, which no flag does."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tverlab.__file__)))
    path = tmp_path / "config.json"
    X = "1" * 5000
    rows = [(json.dumps({"d": 1, "points": points}), message) for points, message in (
        ([["1e4300"], ["2e4300"], ["0"]], "Exceeds the limit (4300 digits)"),
        ([["1e100000000"], ["2"], ["0"]], "decimal exponent beyond 4300"),
        ([[X], [0], [1]], "Exceeds the limit (4300 digits) for an integer in '1111"),
        ([[" " + X], [0], [1]], "Exceeds the limit (4300 digits) for an integer in ' 1111"),
        ([["1/" + X], [0], [1]], "Exceeds the limit (4300 digits) for an integer in '1/1111"),
    )]
    rows.append(('{"d": 1, "points": [[%s], [0], [1]]}' % X,
                 "Exceeds the limit (4300 digits) for an integer in the input"))
    for text, message in rows:
        path.write_text(text)
        argv = ["centerpoint", "--r", "2", "--input", str(path)]
        start = time.perf_counter()
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert time.perf_counter() - start < 1
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: centerpoint: {message}" in captured.err
        proc = subprocess.run([sys.executable, "-m", "tverlab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"error: centerpoint: {message}" in proc.stderr and "Traceback" not in proc.stderr
        assert "set_int_max_str_digits" not in captured.err + proc.stderr


def test_the_prebuilt_encoder_writes_what_json_encode_wrote(monkeypatch, capsys):
    """The C encoder built once at import gives ENCODER.encode's text, also
    after a record it could not write, and the fallback through
    ENCODER.encode (where json has no C encoder) prints the same bytes."""
    encode = tverlab.cli.C_ENCODER
    records = [{"z": [Fraction(-1, 3), (2, Fraction(4))], "a": "é\n", "m": None, "t": True, "f": 0.5},
               {"b": {"y": [], "x": {}}, "a": [[Fraction(10**40, 3)]]}]
    for record in records:
        assert "".join(encode(record, 0)) == tverlab.cli.ENCODER.encode(record)
        with pytest.raises(ValueError):
            encode({"p": [Fraction(10**5000 + 1, 3)], "q": record}, 0)
    assert "".join(encode(records[0], 0)) == tverlab.cli.ENCODER.encode(records[0])
    argv = ["centerpoint", "--d", "2", "--r", "2", "--trials", "3", "--seed", "7"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(tverlab.cli, "C_ENCODER", None)
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_inputs_below_the_guaranteed_size_falsify_nothing(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"d": 1, "points": [[0], [1], [2]]}))
    for command in ("centerpoint", "tverberg"):
        code, records, _ = run(capsys, command, "--r", "3", "--input", str(path))
        assert code == 0
        assert records[0]["outside_hypotheses"] and records[0]["ok"]
    # below the guaranteed size a partition that exists is still checked
    path.write_text(json.dumps({"d": 2, "points": [[0, 0], [1, 0], [2, 0]]}))
    code, records, _ = run(capsys, "tverberg", "--r", "2", "--input", str(path))
    assert code == 0 and records[0]["ok"] and records[0]["depth"] == 2
    assert "outside_hypotheses" not in records[0]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["centerpoint"])  # missing --d/--r
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["centerpoint", "--d", "1", "--r", "2", "--jobs", "0"])
    assert e.value.code == 2
    # --m, once the sphere dimension, is gone: each subcommand refuses it
    for argv in (
        ["hind", "--m", "2"],
        ["reduce", "--d", "1", "--r", "2", "--trials", "1", "--m", "7"],
        ["centerpoint", "--m", "4"],
        *([sub, "--d", "1", "--r", "2", "--m", "1"]
          for sub in ("tverberg", "counterexample", "probe")),
        *([sub, "--d", "1", "--m", "1"] for sub in ("cover", "fiber-demo")),
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {argv[0]}: unrecognized arguments: {' '.join(argv[-2:])}\n")
    # hind reads no --d, --r or --trials, probe and counterexample no
    # --trials, cover and fiber-demo no --r
    for argv, message in (
        (["probe", "--d", "1", "--r", "2", "--trials", "9"],
         "probe: unrecognized arguments: --trials 9"),
        (["counterexample", "--d", "1", "--r", "2", "--trials", "9"],
         "counterexample: unrecognized arguments: --trials 9"),
        (["cover", "--d", "2", "--r", "7", "--trials", "1"],
         "cover: unrecognized arguments: --r 7"),
        (["fiber-demo", "--d", "1", "--r", "7", "--trials", "1"],
         "fiber-demo: unrecognized arguments: --r 7"),
        (["hind", "--sphere", "2", "--d", "5", "--r", "9", "--trials", "3"],
         "hind: unrecognized arguments: --d 5 --r 9 --trials 3"),
        (["hind", "--sphere", "2", "--d", "5"], "hind: unrecognized arguments: --d 5"),
        (["hind", "--sphere", "2", "--r", "9"], "hind: unrecognized arguments: --r 9"),
        (["hind", "--sphere", "2", "--trials", "3"], "hind: unrecognized arguments: --trials 3"),
        # every usage error names its subcommand: a needed flag left out,
        # and a negative --sphere
        (["centerpoint", "--d", "1"], "centerpoint: need --r"),
        (["tverberg", "--r", "2"], "tverberg: need --d or --input"),
        (["reduce", "--d", "1"], "reduce: need --r"),
        (["hind", "--seed", "1"], "hind: need --sphere or --input"),
        (["counterexample", "--r", "2"], "counterexample: need --d"),
        (["probe", "--d", "1"], "probe: need --r"),
        (["cover", "--trials", "2"], "cover: need --d or --input"),
        (["fiber-demo", "--trials", "2"], "fiber-demo: need --d"),
        (["hind", "--sphere", "-1"], "hind: --sphere must be at least 0"),
        # the layers' own checks of their parameters
        (["reduce", "--d", "1", "--r", "1"], "reduce: reduction needs r >= 2"),
        (["reduce", "--d", "0", "--r", "3"], "reduce: dimension must be positive"),
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")


def test_a_seed_outside_64_bits_is_a_usage_error(capsys):
    """SplitMix64 reduces its seed mod 2^64: unchecked, --seed -1 printed the
    bytes of --seed 2^64 - 1, and --seed 2^64 those of --seed 0."""
    for seed in (-1, 2**64, -(2**64)):
        for argv in (["centerpoint", "--d", "1", "--r", "2", "--trials", "1"],
                     ["cover", "--d", "2", "--trials", "1"], ["hind", "--sphere", "1"]):
            with pytest.raises(SystemExit) as e:
                main([*argv, "--seed", str(seed)])
            assert e.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"error: {argv[0]}: --seed must be in 0..{2**64 - 1}\n")
    for seed in (0, 2**64 - 1):
        code, records, _ = run(capsys, "centerpoint", "--d", "1", "--r", "2", "--trials", "1", "--seed", str(seed))
        assert code == 0 and len(records) == 1


def test_the_readme_flag_table_is_the_cli_table():
    """Each row of the README's flag table (reads, needs, decided by
    --input; "," between entries, "or" between alternatives of a need) is
    the subcommand's COMMANDS entry less the shared --seed, --output and
    --jobs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| subcommand | reads |"):].split("\n\n")[0].splitlines()[2:]

    def flags(cell):
        return tuple(re.findall(r"`--([a-z]+)`", cell))

    rows = {}
    for line in table:
        name, reads, needs, decides = (cell.strip() for cell in line.strip("|").split("|"))
        assert " or " not in reads + decides, name
        alternatives = tuple(flags(part) for part in needs.split(",") if "`--" in part)
        rows[name.strip("`")] = flags(reads), alternatives, flags(decides)
    shared = {"seed", "output", "jobs"}
    assert rows == {
        name: (tuple(flag for flag in reads if flag not in shared), needs, decides)
        for name, (_, reads, needs, decides, *_) in tverlab.cli.COMMANDS.items()
    }


def test_one_block_holds_at_one_point(capsys):
    """r = 1 is a claim like any other: one point, one block, the point
    itself at depth 1, and exit 0."""
    point = ["7/1", "-9/1"]
    for argv, record in (
        (["tverberg", "--d", "2", "--r", "1", "--trials", "1"],
         {"blocks": [[0]], "depth": 1, "ok": True, "point": point, "r": 1, "trial": 0}),
        (["centerpoint", "--d", "2", "--r", "1", "--trials", "1"],
         {"depth": 1, "n": 1, "ok": True, "point": point, "r": 1, "trial": 0}),
    ):
        code, records, _ = run(capsys, *argv)
        assert (code, records) == (0, [record]), argv


def test_internal_errors_exit_three(monkeypatch, capsys):
    # the check of every depth halfspace: r = 2 sets on a line are Radon sets
    monkeypatch.setattr("tverlab.depth._depth_holds", lambda *args: False)
    code, records, _ = run(capsys, "centerpoint", "--d", "1", "--r", "2", "--trials", "2")
    assert code == 3
    assert records == [
        {"command": "centerpoint", "internal_error": "depth certificate failed verification"}
    ]
    assert "Traceback" not in capsys.readouterr().err


def test_an_internal_error_that_cannot_be_written_is_a_usage_error(monkeypatch, tmp_path, capsys):
    """The record of an internal error goes to --output like any other, so
    a missing directory exits 2 there too, with nothing on stdout."""
    monkeypatch.setattr("tverlab.depth._depth_holds", lambda *args: False)
    with pytest.raises(SystemExit) as e:
        main(["centerpoint", "--d", "1", "--r", "2", "--output", str(tmp_path / "no" / "x.json")])
    captured = capsys.readouterr()
    assert e.value.code == 2 and captured.out == ""
    assert "error: centerpoint: [Errno " in captured.err and "No such file" in captured.err


def test_the_package_resolves_its_modules_and_lists_its_exports():
    """A bare `import tverlab` reaches a module by attribute, through the
    package's __getattr__ until the import binds it, and dir() lists every
    export."""
    assert tverlab.__getattr__("depth") is tverlab.depth
    assert set(tverlab.__all__) <= set(dir(tverlab))


def test_a_falsified_claim_exits_one_with_its_record(monkeypatch, tmp_path, capsys):
    """Exit 1 exactly when a record says "ok": false: each subcommand's
    claim, falsified by a patched layer, is printed as its record, and
    nothing goes to stderr."""
    build = tverlab.conemap.build_counterexample

    def collapsed(d, r):  # the vertex (2,) sent to the barycenter, as faces of dim >= d are
        spec = build(d, r)
        spec.images[(2,)] = spec.center
        return spec

    path = tmp_path / "interior.json"
    path.write_text(json.dumps({"barycentric_points": [["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"]]}))
    cases = [
        ("tverlab.z2.hind", lambda X: 0, ["hind", "--sphere", "2"],
         [{"expected": 2, "hind": 0, "ok": False, "sphere": 2}]),
        ("tverlab.conemap.build_counterexample", collapsed, ["counterexample", "--d", "1", "--r", "2"],
         [{"error": "tuple ((2,), (0, 1)): predicted-isolated face (2,) is not separated from "
                    "(0, 1): h = 1/3 at the vertex image (1/3, 1/3, 1/3) of (0, 1), not below 1/3",
           "ok": False}]),
        ("tverlab.depth._partition_and_depth", lambda config, r: (None, None),
         ["centerpoint", "--d", "1", "--r", "2", "--trials", "1"],
         [{"depth": None, "n": 3, "ok": False, "point": None, "r": 2, "trial": 0}]),
        ("tverlab.cover.touches_all_facets", lambda pts: True, ["cover", "--input", str(path)],
         [{"delta": "1/6", "ok": False, "tight": [[0, 0], [1, 1], [1, 2]],
           "touches_all_facets": True, "translate": ["1/18", "-1/36"]}]),
    ]
    for target, patched, argv, expected in cases:
        with monkeypatch.context() as m:
            m.setattr(target, patched)
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert [json.loads(line) for line in captured.out.splitlines()] == expected
        assert captured.err == ""


def test_a_failed_partition_check_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr("tverlab.depth._tverberg_holds", lambda *args: False)
    with pytest.raises(RuntimeError, match="partition certificate"):
        tverlab.depth.tverberg_partition(tverlab.PointConfig(1, [[0], [1], [2]]), 2)
    code, records, _ = run(capsys, "tverberg", "--d", "1", "--r", "2", "--trials", "2")
    assert code == 3
    assert records == [
        {"command": "tverberg", "internal_error": "partition certificate failed verification"}
    ]


def test_input_is_a_usage_error_where_it_is_not_read(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"d": 1, "points": [["0"], ["1"], ["2"]]}')
    for argv in (
        *([sub, "--d", "1", "--r", "2"] for sub in ("reduce", "counterexample", "probe")),
        ["fiber-demo", "--d", "1"],  # which reads no --r
    ):
        sub = argv[0]
        with pytest.raises(SystemExit) as e:
            main([*argv, "--input", str(path)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {sub}: unrecognized arguments: --input" in err


def test_key_and_type_errors_without_input_exit_three(monkeypatch, capsys):
    for error in (KeyError((2,)), TypeError("unsupported operand")):
        def broken(*args):
            raise error

        monkeypatch.setattr("tverlab.conemap.build_counterexample", broken)
        code, records, _ = run(capsys, "counterexample", "--d", "1", "--r", "2")
        assert code == 3
        assert records == [
            {"command": "counterexample", "internal_error": f"{type(error).__name__}: {error}"}
        ]
        assert "Traceback" not in capsys.readouterr().err


def test_main_builds_the_parser_once(capsys):
    tverlab.cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["hind", "--sphere", "1"]) == 0
    assert tverlab.cli.build_parser.cache_info().misses == 1


def test_bad_input_files_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    float_config = tmp_path / "float_config.json"
    float_config.write_text('{"d": 1, "points": [[0.5], [1], [2]]}')
    float_points = tmp_path / "float_points.json"
    float_points.write_text('{"barycentric_points": [[0.5, 0.5]]}')
    config = tmp_path / "config.json"
    config.write_text('{"d": 1, "points": [["0"], ["1"], ["2"]]}')
    zero_config = tmp_path / "zero_config.json"
    zero_config.write_text('{"d": 1, "points": [["1/0"], ["1"], ["2"]]}')
    zero_points = tmp_path / "zero_points.json"
    zero_points.write_text('{"barycentric_points": [["1/0", "1"]]}')
    list_involution = tmp_path / "list_involution.json"
    list_involution.write_text('{"maximal_simplices": [[0, 1]], "involution": [1, 0]}')
    cases = [
        ["hind", "--input", str(bad)],
        ["cover", "--input", str(tmp_path / "missing.json")],
        ["cover", "--input", str(empty)],
        ["counterexample", "--d", "0", "--r", "2"],
        ["cover", "--d", "0"],
        ["fiber-demo", "--d", "0"],
        ["centerpoint", "--r", "2", "--input", str(float_config)],
        ["cover", "--input", str(float_points)],
        ["centerpoint", "--input", str(config)],  # no --r
        ["tverberg", "--input", str(config)],
        ["centerpoint", "--r", "2", "--input", str(zero_config)],  # "p/0" scalar
        ["cover", "--input", str(zero_points)],
        ["hind", "--input", str(list_involution)],  # involution not an object
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert argv[0] in err


def test_malformed_barycentric_sets_are_usage_errors(tmp_path, capsys):
    """cover --input rejects each of these sets with exit 2 and no traceback."""
    sets = [
        [["1/2", "-1/2", "1"], ["0", "1", "0"]],  # a negative coordinate
        [["1/2", "1/4", "1/3"], ["0", "1", "0"]],  # a sum other than 1
        [["1/2", "1/2"], ["0", "1", "0"]],  # mixed widths
        [],
        [[]],
    ]
    for pts in sets:
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"barycentric_points": pts}))
        with pytest.raises(SystemExit) as e:
            main(["cover", "--input", str(path)])
        assert e.value.code == 2, pts
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "cover" in captured.err


def test_output_bytes_do_not_depend_on_jobs(tmp_path):
    outs = []
    for jobs in ("1", "4"):
        path = tmp_path / f"out-{jobs}.jsonl"
        code = main(
            [
                "tverberg", "--d", "2", "--r", "2", "--trials", "3",
                "--seed", "11", "--jobs", jobs, "--output", str(path),
            ]
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    # sorted keys, compact separators: stable canonical encoding
    first = outs[0].decode().splitlines()[0]
    assert first == json.dumps(json.loads(first), sort_keys=True, separators=(",", ":"))


def test_cli_import_needs_no_numpy():
    """Nor `dataclasses`, nor the `inspect` it imports: the records are
    NamedTuples and two plain classes, built with no generated code."""
    src = os.path.dirname(os.path.dirname(tverlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tverlab.cli; print(*(m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False"] * 3


# The package's public names.
EXPORTED = """
    CoverCertificate DepthCertificate FixedSimplexError
    LPOutcome LinearSystem PointConfig ProbeResult SimplicialComplex
    SplitMix64 TverbergCertificate Z2Complex build_counterexample
    centerpoint constant_map
    coordinate_projection_map cross_polytope_sphere disjoint_union_index
    facet_touching_check fiber_width_demo hind lp_feasible
    min_cover_barycentric probe_tverberg_plus_one
    random_point_config reduce_central_from_tverberg
    reduction_plan strict_separator tukey_depth tverberg_partition
    verify_isolation
""".split()


def tverlab_modules_after(code):
    """The tverlab.* modules a fresh interpreter has loaded after `code`."""
    src = os.path.dirname(os.path.dirname(tverlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code += "; print(*sorted(m for m in sys.modules if m.startswith('tverlab.')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_every_exported_name_resolves():
    """Each name resolves, on first use, to its module's own object; the
    package imports no module until a name or module of it is used, and
    the CLI imports every layer (the benchmark's tracer wraps them all
    right after `import tverlab.cli`)."""
    assert len(EXPORTED) == 30 and sorted(tverlab.__all__) == EXPORTED
    modules = [getattr(tverlab, m) for m in (
        "complexes", "conemap", "cover", "depth", "exactlp", "rationals", "rng", "z2"
    )]
    for name in tverlab.__all__:
        value = getattr(tverlab, name)
        assert any(vars(module).get(name) is value for module in modules), name
    namespace = {}
    exec("from tverlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED
    with pytest.raises(AttributeError, match="no attribute 'tukey'"):
        tverlab.tukey
    assert tverlab_modules_after("import sys, tverlab") == []
    assert tverlab_modules_after(
        "import sys, tverlab; tverlab.depth.tukey_depth"
    ) == ["tverlab.depth", "tverlab.exactlp", "tverlab.rationals", "tverlab.rng"]
    assert tverlab_modules_after("import sys, tverlab.z2") == ["tverlab.complexes", "tverlab.z2"]
    assert tverlab_modules_after(
        "import sys, tverlab; tverlab.build_counterexample"
    ) == ["tverlab.conemap", "tverlab.rationals"]
    layers = ["complexes", "conemap", "cover", "depth", "exactlp", "z2"]
    loaded = tverlab_modules_after("import sys, tverlab.cli")
    assert set(f"tverlab.{layer}" for layer in layers) <= set(loaded)


def test_the_exports_are_what_callers_use():
    """Each exported name is imported by a demo or named, in backticks, by
    the README (`name`, `name(...)` or `tverlab.module.name`); a name that
    only tests use is imported from its module."""
    root = Path(__file__).parents[1]
    imported = set()
    for path in (root / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tverlab":
                imported.update(alias.name for alias in node.names)
    named = {
        m.group(1).rsplit(".", 1)[-1]
        for span in re.findall(r"`([^`\n]+)`", (root / "README.md").read_text())
        for m in [re.match(r"\s*([A-Za-z_][\w.]*)", span)] if m
    }
    assert [name for name in tverlab.__all__ if name not in imported | named] == []


def test_the_readme_counts_the_exports():
    """The README's count of the names in `tverlab._EXPORTS` is their number."""
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    count = re.search(r"(\d+) names, listed once under their modules in `tverlab._EXPORTS`", readme)
    assert count and int(count.group(1)) == len(tverlab.__all__)


def test_the_file_formats_live_in_the_cli():
    """The layers return records and Fractions, and `tverlab.cli` reads and
    writes the files: no other module imports json, and no record writes
    itself."""
    importers, writers = set(), set()
    for path in Path(tverlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("to_record"):
                writers.add(path.stem)
            modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(m.split(".")[0] == "json" for m in modules):
                importers.add(path.stem)
    assert importers == {"cli"}
    assert writers == set()


def test_complexes_and_z2_import_no_arithmetic():
    """`tverlab.complexes` and `tverlab.z2` import nothing from `fractions`
    or `tverlab.rationals`."""
    for name in ("complexes", "z2"):
        imported = set()
        for node in ast.walk(ast.parse((Path(tverlab.__file__).parent / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ["tverlab" if node.level else "", node.module]))
                imported |= {module, *(f"{module}.{alias.name}" for alias in node.names)}
        assert not imported & {"fractions", "tverlab.rationals"}, (name, imported)


def test_importing_z2_loads_no_fractions():
    """`import tverlab.z2`, which `from tverlab import hind` runs, leaves
    `fractions` and `decimal` out of `sys.modules`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tverlab.__file__)))
    code = "import sys, tverlab.z2; print(*sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_d_must_be_a_nonnegative_integer(tmp_path, capsys):
    """A "d" that is not a JSON integer >= 0 is one usage error.  Unchecked,
    `true` runs as d = 1, -1 with no points passes as outside the
    hypotheses, and 1.0 and "1" fail with Python's own messages."""
    path = tmp_path / "config.json"
    for d, points in (("true", '[["0"], ["1"], ["2"]]'), ("-1", "[]"),
                      ("1.0", '[["0"], ["1"], ["2"]]'), ('"1"', '[["0"], ["1"], ["2"]]')):
        path.write_text('{"d": %s, "points": %s}' % (d, points))
        for command in ("centerpoint", "tverberg"):
            with pytest.raises(SystemExit) as e:
                main([command, "--r", "2", "--input", str(path)])
            assert e.value.code == 2, (d, command)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(
                f'error: {command}: "d" must be a nonnegative integer\n'
            ), (d, command)


# sha256 of "exit code, stdout, stderr" of `cover --input` on the set
# [[s, 1 - s, "0"], ["0", "1/2", "1/2"], ["1/3", "1/3", "1/3"]] for each
# scalar s that `rat` reads (1 - s written "p/q"), and on
# [[s, "1/2", "0"], ...] for each it rejects, as printed when every input
# scalar was read through `rat`
READ_SCALARS_SHA256 = {
    0: "f8c31fa6efb8a74721c727803f145d3415ca24ccdd38dc9c66730461514eed3e",
    1: "bf6c6e3d572fd2392c7a015695456a4cd126c8669b5172dd238229abf2b974a0",
    "3": "3f447c7e7b837de46348311063ca408a802b28f71d4f8b002b84bca1954ffaed",
    "+3/4": "cd85587a80f832d85b519307a294a64f55bf59b7c64d503a64c3e962be98df44",
    "-0": "f8c31fa6efb8a74721c727803f145d3415ca24ccdd38dc9c66730461514eed3e",
    " 1/2 ": "efa0e579291d7dd531e8894b40aeb7bf117f5139b9dcd767e97fc996d56dc490",
    "0.5": "efa0e579291d7dd531e8894b40aeb7bf117f5139b9dcd767e97fc996d56dc490",
    "1e-1": "efa0e579291d7dd531e8894b40aeb7bf117f5139b9dcd767e97fc996d56dc490",
    "1_0/20": "efa0e579291d7dd531e8894b40aeb7bf117f5139b9dcd767e97fc996d56dc490",
    "2/4": "efa0e579291d7dd531e8894b40aeb7bf117f5139b9dcd767e97fc996d56dc490",
}
REJECTED_SCALARS_SHA256 = {
    True: "8412ef2ac8e7d9cc575cffd65c49e9b0fdad8430582894bf85d3f3849b02d18e",
    0.5: "c57a476a5fb94f0cbfe52b3bfd5f5ff8316894b3ff8a6ec588946bed82a47936",
    "1/0": "07fb96e98d5c3225659c9615827766cc5d8e7022cac41fae9c891504487a1bf2",
    "1/-2": "1373c2922557b1284f6f3f75e1dde9b879fbae27335d70f81d950e232a1e40ae",
    "": "a39492f9eef311815c4fbd920ea6dc1bd8d401b6226d7271fb61b35fee37b0c9",
    "abc": "626c4a4a10c914920a6533a16f62a62f9ffbbdc8dd7dbcc057178df68f5f60c9",
}


def test_cover_input_scalars_read_as_rat_reads_them(tmp_path, capsys):
    path = tmp_path / "pts.json"
    rest = [["0", "1/2", "1/2"], ["1/3", "1/3", "1/3"]]
    cases = [(s, [[s, rat_str(1 - rat(s)), "0"]] + rest, digest, None)
             for s, digest in READ_SCALARS_SHA256.items()]
    cases += [(s, [[s, "1/2", "0"]] + rest, digest, 2)
              for s, digest in REJECTED_SCALARS_SHA256.items()]
    for s, pts, digest, usage in cases:
        path.write_text(json.dumps({"barycentric_points": pts}))
        try:
            code = main(["cover", "--input", str(path)])
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        got = f"{code}\n{captured.out}\n{captured.err}"
        assert hashlib.sha256(got.encode()).hexdigest() == digest, repr(s)
        assert usage is None or code == usage


def test_a_cover_input_builds_only_delta_and_the_translate(tmp_path, capsys):
    """Read straight into integers, a `cover --input` set of ints and "p/q"
    strings builds n + 1 Fractions in all: delta and the translate."""
    path = tmp_path / "pts.json"
    built = []
    new = vars(Fraction)["__new__"]

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new.__func__(cls, *args, **kwargs)

    for key, pts in COVER_INPUTS.items():
        n = len(pts[0]) - 1
        path.write_text(json.dumps({"barycentric_points": pts}))
        built.clear()
        Fraction.__new__ = staticmethod(counted)
        try:
            code = main(["cover", "--input", str(path)])
        finally:
            Fraction.__new__ = new
        capsys.readouterr()
        assert code == 0
        assert len(built) == n + 1, key


def test_no_cli_cover_builds_a_body(tmp_path, capsys, monkeypatch):
    """`cover --input`, `cover --d` and `fiber-demo` cover the standard
    simplex in closed form: no HPolytopeBody is built, and `--d 0` is still
    the usage error it was when `standard_simplex_body` refused n = 0."""
    builds = []
    post_init = tverlab.cover.HPolytopeBody.__post_init__
    monkeypatch.setattr(tverlab.cover.HPolytopeBody, "__post_init__",
                        lambda self: builds.append(self) or post_init(self))
    path = tmp_path / "pts.json"
    runs = [["cover", "--d", str(n), "--trials", "5"] for n in (1, 2, 4)]
    runs += [["fiber-demo", "--d", str(n), "--trials", "4"] for n in (1, 2, 3)]
    for key, pts in COVER_INPUTS.items():
        path.write_text(json.dumps({"barycentric_points": pts}))
        assert main(["cover", "--input", str(path)]) == 0, key
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert builds == []
    for command in ("cover", "fiber-demo"):
        assert usage_error(capsys, [command, "--d", "0"]) == (2, f"tverlab: error: {command}: need n >= 1")
    assert builds == []


def usage_error(capsys, argv):
    """Exit code and the last stderr line of a run that must print nothing."""
    with pytest.raises(SystemExit) as e:
        main(argv)
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    return e.value.code, captured.err.splitlines()[-1]


def test_an_input_that_is_not_a_json_object_is_a_usage_error(tmp_path, capsys):
    """Indexed unchecked, a list, null, string or number printed Python's
    own "list indices must be integers or slices, not str" and the like."""
    path = tmp_path / "input.json"
    for value in ("[1, 2]", "null", '"d"', "3"):
        path.write_text(value)
        for command in (["centerpoint", "--r", "2"], ["tverberg", "--r", "2"], ["cover"], ["hind"]):
            argv = command + ["--input", str(path)]
            assert usage_error(capsys, argv) == (
                2, f"tverlab: error: {command[0]}: input must be a JSON object"
            ), (value, command)


def test_input_nested_past_the_decoders_limit_is_a_usage_error(tmp_path, capsys):
    """An array or object nested 200 000 deep makes json raise RecursionError,
    a RuntimeError, which exited 3 as an internal error; it is bad input."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tverlab.__file__)))
    path = tmp_path / "deep.json"
    message = "input nests arrays or objects too deeply to read"
    for text in ('{"d": 1, "points": ' + "[" * 200_000 + "]" * 200_000 + "}",
                 '{"maximal_simplices": ' + '{"a": ' * 200_000 + "0" + "}" * 200_001):
        path.write_text(text)
        for command in (["centerpoint", "--r", "2"], ["tverberg", "--r", "2"], ["cover"], ["hind"]):
            argv = command + ["--input", str(path)]
            assert usage_error(capsys, argv) == (2, f"tverlab: error: {command[0]}: {message}")
    argv = ["centerpoint", "--r", "2", "--input", str(path)]
    path.write_text('{"d": 1, "points": ' + "[" * 200_000 + "]" * 200_000 + "}")
    proc = subprocess.run([sys.executable, "-m", "tverlab", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == f"tverlab: error: centerpoint: {message}"


BARYCENTRIC = '{"barycentric_points": [["1/2", "1/2"], ["0/1", "1/1"], ["1/1", "0/1"]]}'.encode()


@pytest.mark.parametrize("raw, message", [
    (BARYCENTRIC[:30] + b"\xff" + BARYCENTRIC[30:],
     "'utf-8' codec can't decode byte 0xff in position 30: invalid start byte"),
    (BARYCENTRIC + b"\xe2\x82", "'utf-8' codec can't decode bytes in position 72-73: unexpected end of data"),
    (b"\xef\xbb\xbf" + BARYCENTRIC, "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (BARYCENTRIC.decode().encode("utf-16"), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b'{\r\n"barycentric_points":\r\n [["1/2", "1/2"]],\r\n x}',
     "Expecting property name enclosed in double quotes: line 4 column 2 (char 44)"),
    (b'{"barycentric_points": [["1/2\r", "1/2"]]}', "Invalid control character at: line 1 column 30 (char 29)"),
], ids=["invalid byte", "cut sequence", "byte-order mark", "UTF-16", "CRLF", "CR in a string"])
def test_input_bytes_are_decoded_as_open_decoded_them(tmp_path, capsys, raw, message):
    """An --input file is decoded as UTF-8, strictly, with universal
    newlines, as open(path) decoded it in text mode: bytes that are not
    UTF-8, a byte-order mark and a UTF-16 file exit 2 with empty stdout and
    the message they gave, and a JSON error after "\\r\\n" or "\\r" names
    the line, column and character it named."""
    path = tmp_path / "input.json"
    path.write_bytes(raw)
    assert usage_error(capsys, ["cover", "--input", str(path)]) == (2, f"tverlab: error: cover: {message}")


def test_a_refused_scalar_is_named_in_one_short_line(tmp_path, capsys):
    """A scalar refused by `rat` is named by at most 60 characters of its
    repr: an array nested 900 deep, under the decoder's limit, printed an
    error line of about 1800 characters, and a long non-number string all
    of itself.  Short values are named whole, as before."""
    path = tmp_path / "config.json"
    deep = json.loads("[" * 900 + "1" + "]" * 900)
    for scalar, message in ((deep, "cannot interpret [[[[[[[[["),
                            ("x" * 10_000, "Invalid literal for Fraction: 'xxxxxxxxx"),
                            (0.5, "cannot interpret 0.5 as an exact rational"),
                            ([1], "cannot interpret [1] as an exact rational"),
                            ("a", "Invalid literal for Fraction: 'a'"),
                            ("1/0", "zero denominator in '1/0'")):
        path.write_text(json.dumps({"d": 1, "points": [[0], [1], [scalar]]}))
        with pytest.raises(SystemExit) as e:
            main(["centerpoint", "--r", "2", "--input", str(path)])
        captured = capsys.readouterr()
        assert (e.value.code, captured.out) == (2, "")
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and len(errors[0]) <= 200, len(errors[0])
        assert errors[0].startswith(f"tverlab: error: centerpoint: {message}")
        assert all(len(line) <= 200 for line in captured.err.splitlines())


def test_1100_collinear_points_exit_zero_with_a_checked_partition(tmp_path, capsys):
    """Past Python's recursion limit of 1000 labels the recursive partition
    enumerator raised RecursionError, and `tverberg --r 2` exited 3 with
    "maximum recursion depth exceeded in comparison"."""
    points = [[v] for v in range(1100)]
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"d": 1, "points": points}))
    code, records, _ = run(capsys, "tverberg", "--r", "2", "--input", str(path))
    assert code == 0 and records[0]["ok"] and records[0]["depth"] >= 2
    config = tverlab.PointConfig(1, points)
    cert = tverlab.tverberg_partition(config, 2)
    assert tverlab.depth.check_tverberg_certificate(cert, config)
    assert [list(b) for b in cert.blocks] == records[0]["blocks"]
    assert [rat_str(c) for c in cert.point] == records[0]["point"]


def test_maximal_simplices_that_are_not_an_array_are_a_usage_error(tmp_path, capsys):
    path = tmp_path / "complex.json"
    for value in ("5", "null", "1.5", "true"):
        path.write_text('{"maximal_simplices": %s, "involution": {"0": 1, "1": 0}}' % value)
        assert usage_error(capsys, ["hind", "--input", str(path)]) == (
            2, 'tverlab: error: hind: "maximal_simplices" must be an array of arrays of vertex ids'
        ), value


def test_maximal_simplices_that_are_not_arrays_are_a_usage_error(tmp_path, capsys):
    """An entry that does not iterate, or vertex ids that do not compare,
    printed "'int' object is not iterable" and the like; an entry whose
    ids are not integers keeps its own message."""
    path = tmp_path / "complex.json"
    cases = {
        "[[0], 1]": '"maximal_simplices" must be an array of arrays of vertex ids',
        "[[0], null]": '"maximal_simplices" must be an array of arrays of vertex ids',
        '[[0, "1"]]': '"maximal_simplices" must be an array of arrays of vertex ids',
        '[[0, 0], 1]': "repeated vertex in simplex (0, 0)",
        '["01"]': "vertex ids must be integers",
    }
    for value, message in cases.items():
        path.write_text('{"maximal_simplices": %s, "involution": {"0": 1, "1": 0}}' % value)
        assert usage_error(capsys, ["hind", "--input", str(path)]) == (
            2, f"tverlab: error: hind: {message}"
        ), value


def test_malformed_involution_entries_are_a_usage_error(tmp_path, capsys):
    """A key that is not an integer string printed Python's "invalid literal
    for int() with base 10: 'a'", and a list value "unhashable type: 'list'"."""
    path = tmp_path / "complex.json"
    cases = {
        '{"a": 1, "1": 0}': "\"involution\" key 'a' is not an integer vertex id",
        '{"0": [1], "1": 0}': "involution vertex ids must be integers",
        '{"0": 0, "1": 2}': "involution must be a permutation of the vertices",
        '{"0": 1, "1": 1}': "involution must be a permutation of the vertices",
    }
    for involution, message in cases.items():
        path.write_text('{"maximal_simplices": [[0], [1]], "involution": %s}' % involution)
        assert usage_error(capsys, ["hind", "--input", str(path)]) == (
            2, f"tverlab: error: hind: {message}"
        ), involution


def test_points_that_are_not_arrays_of_arrays_are_a_usage_error(tmp_path, capsys):
    """A string or an object iterated as a row of scalars: "points":
    ["12", "34", "56", "70"] ran as (1, 2), (3, 4), (5, 6), (7, 0) and
    exited 0, and an object row printed "Invalid literal for Fraction: 'a'"."""
    path = tmp_path / "input.json"
    cases = [
        (["tverberg", "--r", "2"], '{"d": 2, "points": ["12", "34", "56", "70"]}'),
        (["centerpoint", "--r", "2"], '{"d": 1, "points": "123"}'),
        (["tverberg", "--r", "2"], '{"d": 1, "points": [{"a": 1}, ["1"], ["2"]]}'),
        (["cover"], '{"barycentric_points": ["01", "10"]}'),
        (["cover"], '{"barycentric_points": {"a": 1}}'),
        (["cover"], '{"barycentric_points": [["1", "0"], {"a": 1}]}'),
    ]
    for command, value in cases:
        path.write_text(value)
        key = next(iter(json.loads(value).keys() - {"d"}))
        assert usage_error(capsys, command + ["--input", str(path)]) == (
            2, f'tverlab: error: {command[0]}: "{key}" must be an array of arrays of scalars'
        ), value


def test_an_empty_output_path_is_a_usage_error(capsys):
    """--output "" names no file: it printed to stdout and exited 0."""
    code, line = usage_error(capsys, ["hind", "--sphere", "1", "--output", ""])
    assert code == 2 and line.startswith("tverlab: error: hind: [Errno ")


def parsed(parse, argv):
    """(namespace, leftover tokens) of an argv that parses, else (exit code,
    last stderr line): 0 for help, 2 for a usage error."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args, extra = parse(argv)
    except SystemExit as e:
        return e.code, (err.getvalue().splitlines() or [""])[-1] if e.code else ""
    return vars(args), extra


# what the argv lists below are drawn from: names, each flag in full, by a
# unique and an ambiguous prefix and with "=value", values, "--", a stray
# token and help
NAMES = [*tverlab.cli.COMMANDS, "nope"]
VALUES = ["3", "3", "0", "-1", "x", "", "-x", "-x y"]
TOKENS = [
    *(f"--{flag}" for flag in tverlab.cli.FLAGS), "--se", "--tri", "--sph", "--inp", "--o", "--j",
    "--t", "--he", "--s", "--s=1", "--d=3", "--m=-1", "--tri=x", "--seed=", "--sphere=2", "--=3",
    *VALUES, "--", "stray", "-h", "--help", "-hh", "-hx", "--help=1", *NAMES,
]


def test_the_table_walk_reads_argv_as_argparse_did():
    """Over 3000 seeded argv lists, the walk gives argparse's subcommand,
    values and leftover tokens, or its last error line, or help."""
    kinds = ("expected one argument", "invalid int value", "invalid choice", "are required: command",
             "ignored explicit argument", "ambiguous option")
    oracle, rng, seen = argparse_parser(), random.Random(29), set()
    for _ in range(3000):
        name = rng.choice(NAMES + ["hind"] * 3)  # where "--s" is ambiguous
        flags = [f"--{flag}" for flag in tverlab.cli.COMMANDS.get(name, (0, ()))[1]]
        argv = [name] if rng.random() < 0.9 else []
        for _ in range(rng.randrange(6)):
            argv += [rng.choice(flags), rng.choice(VALUES)] if flags and rng.random() < 0.6 else [rng.choice(TOKENS)]
        want = parsed(oracle.parse_known_args, argv)
        assert parsed(tverlab.cli.parse, argv) == want, argv
        seen.add("parsed" if isinstance(want[0], dict) else "help" if want[0] == 0 else
                 next(kind for kind in kinds if kind in want[1]))
    assert seen == {"parsed", "help", *kinds}


def test_help_lists_each_flag_with_its_table_help(capsys):
    """-h and every subcommand's --help exit 0, print nothing on stderr, and
    list the flags that COMMANDS says the subcommand reads, each with its
    FLAGS help."""
    for argv in (["-h"], *([name, "--help"] for name in tverlab.cli.COMMANDS)):
        with pytest.raises(SystemExit) as e:
            main(argv)
        captured = capsys.readouterr()
        assert e.value.code == 0 and captured.err == ""
        if argv[0] == "-h":
            assert all(name in captured.out for name in tverlab.cli.COMMANDS)
            continue
        lines = captured.out.splitlines()
        if argv[0] == "hind":  # one flag per value, so no "[--a A | --b B]" group
            assert lines[0] == ("usage: tverlab hind [-h] [--seed SEED] [--output OUTPUT] [--jobs JOBS] "
                                "[--sphere SPHERE] [--input INPUT]")
        for flag in tverlab.cli.COMMANDS[argv[0]][1]:
            assert any(line.split() == [f"--{flag}", flag.upper(), *tverlab.cli.FLAGS[flag][1].split()]
                       for line in lines), flag


def test_the_cli_loads_no_argparse():
    src = os.path.dirname(os.path.dirname(tverlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tverlab.cli; tverlab.cli.build_parser(); print('argparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


# ---------------------------------------------------------------------------
# the exit-code contract over argv drawn from the tables and --input files
# drawn from the README's grammar, kept small: d, r and the sphere dimension
# at most 3, (d+1)r at most 6 for counterexample and probe, --trials at
# most 2 and at most 8 points

EXACT = st.one_of(st.integers(-9, 9), st.sampled_from(["3", "-2/4", " 1/2 ", "0.5", "1e-1", "1_0/20"]))
REFUSED = st.sampled_from([0.5, True, None, [1], [[1]], "1/0", "1/-2", "", "x", "1e99999", {"a": 1}])
NOT_ROWS = st.sampled_from(["12", 3, None, {"a": [1]}, [1, 2], [[1], "12"]])
# each value list opens with a value every subcommand takes, the one that
# hypothesis draws most often
IN_RANGE = {"seed": st.sampled_from([0, 1, 2**64 - 1]), "jobs": st.sampled_from([1, 2]),
            "d": st.sampled_from([1, 2, 3, 0]), "r": st.sampled_from([2, 3, 1, 0]),
            "trials": st.sampled_from([1, 2]), "sphere": st.sampled_from([2, 3, 1, 0])}
OUT_OF_RANGE = {"seed": st.sampled_from([-1, 2**64]), "jobs": st.just(0), "d": st.just(-1), "r": st.just(-1),
                "trials": st.just(0), "sphere": st.just(-1)}


def scalars(draw):
    """Exact scalars, or now and then any of the listed forms, refused ones too."""
    return st.one_of(EXACT, REFUSED) if draw(st.sampled_from([False] * 5 + [True])) else EXACT


@st.composite
def point_configs(draw):
    d = draw(st.integers(0, 3))
    points = draw(st.lists(st.lists(scalars(draw), min_size=d, max_size=d), max_size=8))
    data, kind = {"d": d, "points": points}, draw(st.sampled_from(["whole"] * 6 + ["d", "rows", "key", "row"]))
    if kind == "d":
        data["d"] = draw(st.sampled_from([-1, True, 1.0, "1", None, d + 1]))
    elif kind == "rows":
        data["points"] = draw(NOT_ROWS)
    elif kind == "key":
        del data[draw(st.sampled_from(["d", "points"]))]
    elif kind == "row" and points:
        points[0] = [*points[0], 0]  # a row of another length
    return data


@st.composite
def barycentric_sets(draw):
    n = draw(st.integers(0, 3))
    weights = st.lists(st.integers(0, 4), min_size=n + 1, max_size=n + 1).filter(any)
    rows = [[f"{w}/{sum(row)}" for w in row] for row in draw(st.lists(weights, max_size=8))]
    kind = draw(st.sampled_from(["whole"] * 6 + ["any", "rows", "row"]))
    if kind == "any":  # rows of any scalars, not barycentric
        rows = draw(st.lists(st.lists(scalars(draw), min_size=n + 1, max_size=n + 1), max_size=8))
    elif kind == "rows":
        rows = draw(NOT_ROWS)
    elif kind == "row" and rows:
        rows[-1] = rows[-1][1:]  # a row of another length
    return {"barycentric_points": rows}


@st.composite
def z2_complexes(draw):
    """Simplices on the vertex pairs (0, 1), (2, 3), ... that take at most
    one vertex of each pair, under the swap v -> v ^ 1: closed under it
    (free) or not, with a simplex that holds a pair (not free), or broken."""
    pairs = draw(st.sampled_from([1, 2, 3]))
    simplex = st.lists(st.sampled_from(range(pairs)), min_size=1, max_size=pairs, unique=True).flatmap(
        lambda chosen: st.tuples(*(st.sampled_from([2 * i, 2 * i + 1]) for i in chosen)).map(list))
    simplices = draw(st.lists(simplex, min_size=1, max_size=6))
    kind = draw(st.sampled_from(["free"] * 6 + ["open", "pair", "value", "involution", "simplices", "key"]))
    if kind != "open":
        simplices += [[v ^ 1 for v in s] for s in simplices]
    if kind == "pair":
        simplices.append([0, 1])
    vertices = sorted({v for s in simplices for v in s})
    data = {"maximal_simplices": simplices, "involution": {str(v): v ^ 1 for v in vertices}}
    if kind == "value":
        data["involution"][str(vertices[0])] = draw(st.sampled_from([vertices[0], 1.5, "1", None, 99]))
    elif kind == "involution":
        data["involution"] = draw(st.sampled_from([[1, 0], None, {"a": 1}, {"0": 1}]))
    elif kind == "simplices":
        data["maximal_simplices"] = draw(st.sampled_from([5, [5], [["a", 0]], [[0, [1]]], [[0, 0.5]]]))
    elif kind == "key":
        del data[draw(st.sampled_from(["maximal_simplices", "involution"]))]
    return data


INPUTS = {"centerpoint": point_configs(), "tverberg": point_configs(), "cover": barycentric_sets(),
          "hind": z2_complexes()}


@st.composite
def contract_runs(draw):
    """A subcommand with its needed flags and some of the others it reads,
    in range, and an --input file for one that reads it (now and then one of
    another kind, or not a JSON object); then, in about half the draws, one
    usage fault: a flag it does not read, a value out of range, a flag left
    out, or a flag the file decides.  --output is never drawn: the records
    must reach stdout."""
    name = draw(st.sampled_from(list(tverlab.cli.COMMANDS)))
    _, reads, needs, decides, _, _ = tverlab.cli.COMMANDS[name]
    data = None
    if "input" in reads and draw(st.sampled_from([False, True])):
        kind = draw(st.sampled_from([name] * 6 + [*INPUTS, "array"]))
        data = [1] if kind == "array" else draw(INPUTS[kind])
    given = {flag for group in needs for flag in group[:1] if not (data is not None and "input" in group)}
    values = {flag: draw(IN_RANGE[flag]) for flag in IN_RANGE if flag in reads
              and not (data is not None and flag in decides) and (flag in given or draw(st.sampled_from([False, True])))}
    fault = draw(st.sampled_from(["none"] * 4 + ["unread", "range", "missing", "decided"]))
    if fault == "unread":
        flag = draw(st.sampled_from([f for f in IN_RANGE if f not in reads]))
        values[flag] = draw(IN_RANGE[flag])
    elif fault == "range" and values:
        flag = draw(st.sampled_from(sorted(values)))
        values[flag] = draw(OUT_OF_RANGE[flag])
    elif fault == "missing" and values:
        del values[draw(st.sampled_from(sorted(values)))]
    elif fault == "decided" and data is not None:
        flag = draw(st.sampled_from(decides))
        values[flag] = draw(IN_RANGE[flag])
    if name in ("counterexample", "probe") and values.get("d", -1) >= 0 and "r" in values:
        values["r"] = min(values["r"], 6 // (values["d"] + 1))
    return [name, *(token for flag, value in values.items() for token in (f"--{flag}", str(value)))], data


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(contract_runs())
def test_the_exit_code_contract_holds_on_drawn_runs(tmp_path_factory, run_and_input):
    """Exit 0, 1 or 2, never 3: 1 exactly when a record says "ok": false,
    with nothing on stderr, and 2 with empty stdout and one error line that
    names the subcommand."""
    argv, data = run_and_input
    if data is not None:
        path = tmp_path_factory.mktemp("contract") / "input.json"
        path.write_text(json.dumps(data))
        argv = [*argv, "--input", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2), (argv, data, out.getvalue())
    if code == 2:
        assert out.getvalue() == "" and "Traceback" not in err.getvalue()
        assert err.getvalue().splitlines()[-1].startswith(f"tverlab: error: {argv[0]}: "), (argv, data)
    else:
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert (code == 1) == any(r.get("ok") is False for r in records) and err.getvalue() == ""
