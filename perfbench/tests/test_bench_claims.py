"""The claim lists, the per-claim check, and the benchmark's contract."""
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import child
import run
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_claim_list_is_a_pure_function_of_the_seed(workload):
    seconds = SPEC["run_seconds"]
    a = workloads.claims(workload, 7, seconds)
    assert a == workloads.claims(workload, 7, seconds)
    assert [c.input for c in a] != [c.input for c in workloads.claims(workload, 8, seconds)]
    assert len({(c.argv, c.input) for c in a}) == len(a), "an input repeats within a run"
    # p90 needs at least ten samples beyond it.
    assert len(a) >= 100


@pytest.mark.parametrize("kind, workload", [
    ("centerpoint d=2 r=2", "depth"), ("reduce d=1 r=4", "depth"),
    ("hind sd S2", "index"), ("cover n=4 interior", "certify"),
])
def test_a_repeated_input_is_drawn_again_as_the_same_kind(kind, workload):
    claim = _claim(kind, workload)
    again = workloads._redraw(workloads.Rng(99), claim)
    assert again.kind == claim.kind and again.expect == claim.expect
    assert (again.argv, again.input) != (claim.argv, claim.input)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in tracer.LAYER_METRICS
    ]


def _claim(kind, workload="certify"):
    return next(c for c in workloads.claims(workload, 1, 30) if c.kind == kind)


def test_check_counts_each_kind_of_failure():
    hind = _claim("hind S3", "index")
    assert workloads.check(hind, 0, '{"hind":3}\n') is None
    assert "hind 2" in workloads.check(hind, 0, '{"hind":2}\n')
    assert "exit code 1" in workloads.check(hind, 1, '{"hind":3}\n')
    assert "exit code None" in workloads.check(hind, None, "")
    assert "no output" in workloads.check(hind, 0, "")
    assert "not a JSON object" in workloads.check(hind, 0, "3\n")
    assert "not a JSON object" in workloads.check(hind, 0, '{"hind":3}\n[]\n')

    touching = _claim("cover n=2 touching")
    ok = {"delta": "1/1", "touches_all_facets": True, "ok": True}
    assert workloads.check(touching, 0, json.dumps(ok)) is None
    assert "ok:false" in workloads.check(touching, 0, json.dumps(ok | {"ok": False}))
    assert "< 1" in workloads.check(touching, 0, json.dumps(ok | {"delta": "9/10"}))
    interior = _claim("cover n=3 interior")
    assert ">= 1" in workloads.check(interior, 0, json.dumps(ok | {"touches_all_facets": False}))

    tverberg = _claim("tverberg d=1 r=2", "depth")
    rec = {"blocks": [[0], [1, 2]], "point": ["0/1"], "depth": 2, "r": 2, "ok": True}
    assert workloads.check(tverberg, 0, json.dumps(rec)) is None
    assert "partition" in workloads.check(tverberg, 0, json.dumps(rec | {"blocks": [[0], [1, 1]]}))
    assert "depth 1" in workloads.check(tverberg, 0, json.dumps(rec | {"depth": 1}))

    probe = _claim("probe d=1 r=2")
    assert "found" in workloads.check(probe, 0, json.dumps({"found": False, "faces": None, "point": None}))


def test_a_malformed_record_fails_the_claim_not_the_pass(tmp_path):
    class Cli:
        @staticmethod
        def main(argv):
            print('{"summary": []}')
            return 0

    _, _, failures, _ = child.run_claims(Cli, [_claim("counterexample d=1 r=2")], tmp_path)
    assert "malformed output" in failures[0]


def test_speed_is_sampled_inside_a_timed_section_only():
    sampler = speed.SpeedSampler()
    sampler.start()
    end = perf_counter() + 0.2
    while perf_counter() < end:
        pass
    mean = sampler.stop()
    taken = list(sampler.samples)
    assert len(taken) >= 4
    assert sampler.spent == pytest.approx(sum(taken)) == pytest.approx(mean * len(taken))
    end = perf_counter() + 0.1
    while perf_counter() < end:
        pass
    assert sampler.samples == taken


def test_subdivided_and_union_shapes_have_the_expected_size():
    (facets, inv), expected = workloads.sphere_shape("sd S2+S3")
    assert expected == 3
    assert len(facets) == 8 * 6 + 16
    assert all(inv[inv[v]] == v != inv[v] for v in inv)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "index", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_latencies_are_scaled_to_the_reference_speed():
    ref = run.CALIBRATION_REF_S
    # The second claim ran while the machine was twice as slow.
    assert run.speed_adjusted([0.1, 0.4], [ref, 2 * ref]) == pytest.approx([0.1, 0.2])


def test_end_to_end_metrics_of_a_pass():
    ref = run.CALIBRATION_REF_S
    result = {
        "latencies": [0.2, 0.1, 0.4, 0.3],
        "speed": [ref] * 4,
        "failures": {2: "hind S3: hind 2, expected 3"},
        "setup": [[0.3, run.SETUP_CALIBRATION_REF_S], [0.1, run.SETUP_CALIBRATION_REF_S],
                  [0.4, 2 * run.SETUP_CALIBRATION_REF_S]],
        "maxrss_kib": 3072,
    }
    value = {name: m["value"] for name, m in run.end_to_end(result).items()}
    assert value["setup_s"] == 0.2
    assert value["claims_per_s"] == pytest.approx(3 / 1.0)
    assert value["claim_p50_ms"] == pytest.approx(250.0)
    assert value["peak_rss_mib"] == 3.0
    assert value["claim_ok_frac"] == 0.75
