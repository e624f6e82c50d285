"""The outside-in tracer: it changes no output, restores what it wrapped,
computes self time right, and gives counts that repeat exactly."""
import contextlib
import io

import pytest

import child
import run
import tracer
import workloads

CHEAP = {
    "depth": ("centerpoint d=1 r=2", "tverberg d=2 r=2", "centerpoint d=1 r=3"),
    "index": ("hind S2", "hind S2+S2", "hind sd S2"),
    "certify": ("cover n=2 touching", "cover n=3 interior", "counterexample d=1 r=2", "probe d=1 r=2",
                "fiber-demo d=1"),
}


@pytest.fixture(scope="module")
def cli():
    return child.import_program()


def _sample(workload):
    picked, seen = [], set()
    for claim in workloads.claims(workload, 11, 10):
        if claim.kind in CHEAP[workload] and claim.kind not in seen:
            picked.append(claim)
            seen.add(claim.kind)
    assert seen == set(CHEAP[workload])
    return picked


def _outputs(cli, claim_list, workdir):
    out = []
    for i, claim in enumerate(claim_list):
        argv = [str(child.input_path(workdir, i)) if a == workloads.INPUT else a for a in claim.argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        out.append(buf.getvalue())
    return out


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_traced_and_untraced_output_bytes_agree(cli, tmp_path, workload):
    import tverlab.depth
    import tverlab.exactlp

    claim_list = _sample(workload)
    child.write_inputs(claim_list, tmp_path)
    plain = _outputs(cli, claim_list, tmp_path)
    original = tverlab.exactlp.strict_separator
    tr = tracer.Tracer()
    with tr.installed():
        assert tverlab.depth.strict_separator is not original
        assert tverlab.depth.strict_separator is tverlab.exactlp.strict_separator
        traced = _outputs(cli, claim_list, tmp_path)
    assert traced == plain
    assert tr.spans
    assert tverlab.depth.strict_separator is original


def test_two_traced_passes_give_identical_counts(cli, tmp_path):
    claim_list = [c for w in sorted(CHEAP) for c in _sample(w)]
    child.write_inputs(claim_list, tmp_path)
    results = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr.installed():
            latencies, speed, failures, _ = child.run_claims(cli, claim_list, tmp_path, tr)
        assert not failures and len(speed) == len(latencies) and min(speed) > 0
        results.append(tracer.layer_metrics(tr.spans))
    timed = {m[0] for m in tracer.LAYER_METRICS if m[1] in ("s", "ms", "us")}
    counts = {n: v for n, v in results[0].items() if n not in timed}
    assert counts == {n: v for n, v in results[1].items() if n not in timed}
    assert set(results[0]) | {"trace.overhead_frac"} == {m[0] for m in tracer.LAYER_METRICS}
    assert counts["exactlp.solves"] > 0 and counts["complexes.builds"] > 0


def _span(name, parent, start, end, hidden=0.0):
    return [name, parent, 0, start, end, hidden, None]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("depth.tukey_depth", 0, 1.0, 6.0, hidden=0.5),
        _span("exactlp.lp_minimize", 1, 2.0, 3.0),
        _span("exactlp.lp_minimize", 1, 4.0, 5.5),
        _span("cover.min_cover_homothety", 0, 7.0, 9.0),
        _span("exactlp.lp_feasible", 4, 7.5, 8.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 0.5])


def test_layer_metrics_of_a_synthetic_tree():
    solve = {"cells": 6, "infeasible": False, "repeat": False}
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("depth.tukey_depth", 0, 1.0, 6.0),
        _span("exactlp.lp_minimize", 1, 2.0, 3.0),
        _span("exactlp.lp_minimize", 1, 4.0, 5.0),
    ]
    spans[2][tracer.ATTRS] = solve
    spans[3][tracer.ATTRS] = solve | {"infeasible": True, "repeat": True}
    m = tracer.layer_metrics(spans)
    assert m["exactlp.solves"] == 2 and m["exactlp.cells"] == 12
    assert m["exactlp.ms_per_solve"] == pytest.approx(1000.0)
    assert m["exactlp.infeasible_frac"] == m["exactlp.repeat_frac"] == 0.5
    assert m["depth.tukey_calls"] == 1 and m["depth.lps_per_tukey"] == 2
    assert m["depth.self_s"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["complexes.builds"] == 0


def test_overhead_compares_the_traced_pass_with_the_untraced_one():
    speed = [run.CALIBRATION_REF_S] * 10
    plain = {"latencies": [0.1] * 10, "speed": speed, "failures": {}}
    traced = {"latencies": [0.125] * 10, "speed": speed,
              "failures": {3: "cover n=2 touching: exit code 1"},
              "layers": {m[0]: 0 for m in tracer.LAYER_METRICS if m[0] != "trace.overhead_frac"}}
    metrics, failures = run.per_layer(plain, traced)
    # 9 verified claims in 1.25 s against 10 in 1 s
    assert metrics["trace.overhead_frac"]["value"] == pytest.approx(1 - 7.2 / 10)
    assert list(failures) == [3]
