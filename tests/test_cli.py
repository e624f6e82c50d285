"""The command line front end: exit codes, JSON shape, and byte stability."""
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import tverlab
import tverlab.cli
from tverlab.cli import main
from tverlab.rationals import rat, rat_str


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


def test_hind_sphere_and_alias(capsys):
    code, records, _ = run(capsys, "hind", "--m", "2")
    assert code == 0 and records[0] == {
        "sphere": 2, "hind": 2, "expected": 2, "ok": True
    }
    code, records, _ = run(capsys, "hind", "--sphere", "1")
    assert code == 0 and records[0]["hind"] == 1
    code, records, _ = run(capsys, "hind", "--sphere", "5")
    assert code == 0 and records[0] == {
        "sphere": 5, "hind": 5, "expected": 5, "ok": True
    }


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


def test_point_config_input(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"d": 1, "points": [["0/1"], ["1/1"], ["2/1"]]})
    )
    code, records, _ = run(capsys, "centerpoint", "--r", "2", "--input", str(path))
    assert code == 0 and records[0]["depth"] == 2


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


def test_internal_errors_exit_three(monkeypatch, capsys):
    def broken(*args):
        raise RuntimeError("depth certificate failed verification")

    monkeypatch.setattr("tverlab.depth.tukey_depth", broken)
    code, records, _ = run(capsys, "centerpoint", "--d", "1", "--r", "2", "--trials", "2")
    assert code == 3
    assert records == [
        {"command": "centerpoint", "internal_error": "depth certificate failed verification"}
    ]
    assert "Traceback" not in capsys.readouterr().err


def test_a_failed_partition_check_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr("tverlab.depth.check_tverberg_certificate", lambda *args: False)
    with pytest.raises(RuntimeError, match="partition certificate"):
        tverlab.depth.tverberg_partition(tverlab.point_config(1, [[0], [1], [2]]), 2)
    code, records, _ = run(capsys, "tverberg", "--d", "1", "--r", "2", "--trials", "2")
    assert code == 3
    assert records == [
        {"command": "tverberg", "internal_error": "partition certificate failed verification"}
    ]


def test_input_is_a_usage_error_where_it_is_not_read(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"d": 1, "points": [["0"], ["1"], ["2"]]}')
    for sub in ("reduce", "counterexample", "probe", "fiber-demo"):
        with pytest.raises(SystemExit) as e:
            main([sub, "--d", "1", "--r", "2", "--input", str(path)])
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
        assert main(["hind", "--m", "1"]) == 0
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
    src = os.path.dirname(os.path.dirname(tverlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tverlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# The package's public names, as the eager package exported them.
EXPORTED = """
    BarycentricComplex CounterexampleSpec CoverCertificate DepthCertificate EQ
    FarkasCertificate FiberReport FixedSimplexError HPolytopeBody INFEASIBLE
    IsolationFailure IsolationReport LE LPOutcome LinearSystem OPTIMAL PointConfig
    ProbeResult Rational ReductionPlan SimplicialComplex SplitMix64
    TverbergCertificate UnboundedBodyError Z2Complex barycentric_subdivision
    barycentric_to_centered build_counterexample centerpoint check_depth_certificate
    check_farkas check_tverberg_certificate check_witness common_point_with_weights
    constant_map coordinate_projection_map cross_polytope_sphere disjoint_union_index
    enumerate_disjoint_tuples eq facet_touching_check fiber_width_demo full_simplex
    grid_points_in_simplex guaranteed_size h_polytope hind hull_membership_depth
    in_convex_hull interval_body iter_partitions le lp_feasible min_cover_barycentric
    min_cover_homothety point_config point_strs probe_tverberg_plus_one
    random_point_config rat rat_str reduce_central_from_tverberg reduction_plan simplex
    skeleton standard_center standard_simplex_body strict_separator subdivide_z2
    tukey_depth tverberg_partition verify_isolation z2_disjoint_union
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
    assert len(EXPORTED) == 73 and sorted(tverlab.__all__) == EXPORTED
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
    assert tverlab_modules_after("import sys, tverlab.z2") == [
        "tverlab.complexes", "tverlab.rationals", "tverlab.z2"
    ]
    layers = ["complexes", "conemap", "cover", "depth", "exactlp", "z2"]
    loaded = tverlab_modules_after("import sys, tverlab.cli")
    assert set(f"tverlab.{layer}" for layer in layers) <= set(loaded)


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
        tverlab.standard_simplex_body(n)  # built and cached once per n
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
