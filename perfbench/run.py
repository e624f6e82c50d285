"""Run one benchmark workload against the tverlab source tree beside it.

    python3 perfbench/run.py --workload depth --seed 1 --seconds 30 --trace 0

A run issues a fixed claim list, a pure function of (workload, seed,
seconds) built in workloads.py.  A claim is one ``tverlab.cli.main([...])``
call.  A pass over the list is a closed loop in a fresh interpreter
(child.py): one client issues one claim at a time on one thread and checks
every claim's output.

``--trace 0`` makes one pass that also samples set-up in fresh
interpreters spread over the pass, and prints the end-to-end metrics.  Claim latencies are given at the
reference speed (see ``speed_adjusted``).  ``--trace 1`` makes one untraced
and one traced pass and prints the per-layer metrics; the spans go to
``perfbench/_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when a result
was printed, whatever the claims did; it is 2, with no result, when the
program's sources are missing, and 1 when a pass could not be completed.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from child import write_inputs  # noqa: E402

SETUP_PROBES = 12  # fresh interpreters timed until ready, spread over the pass
DEADLINE_S = 170  # a run must end within 180 s
# Seconds speed.calibration_loop() takes on the reference box (2-core Intel
# Xeon VM, CPython 3.11.7) when the host lets it run at full speed: inside
# a claim, and inside a fresh interpreter while it imports the program
# (slower there, as the loop's code is cold).  About the 2nd percentile of
# the samples of one run of each workload.
CALIBRATION_REF_S = 600e-6
SETUP_CALIBRATION_REF_S = 750e-6

# (name, unit, better); claim_ok_frac stands for the failure fraction,
# which is 0 whenever the program is right and so has no relative bound.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("claims_per_s", "1/s", "higher"),
    ("claim_p50_ms", "ms", "lower"),
    ("claim_p90_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("claim_ok_frac", "ratio", "higher"),
)


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            raise TimeoutError("the run is over its time limit")
        return left


def run_pass(args, workdir: Path, deadline: Deadline, trace: Path = None, probes: int = 0) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--inputs", str(workdir), "--setup-probes", str(probes)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=deadline.left())
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or lines[:1] != ["ready"]:
        raise RuntimeError(f"{CHILD.name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["failures"] = {int(i): why for i, why in result["failures"].items()}
    return result


def speed_adjusted(latencies, speed, ref: float = CALIBRATION_REF_S) -> list:
    """Each time at the reference speed.

    The host this was built on slows a process down by up to half, in
    phases from milliseconds to minutes long, and the calibration loop
    slows with it.  A time is scaled by ``ref`` over the mean loop time
    sampled while it was measured (speed.py)."""
    return [lat * ref / s for lat, s in zip(latencies, speed)]


def claims_per_s(latencies, failed: int) -> float:
    return (len(latencies) - failed) / sum(latencies)


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of one untraced pass."""
    latencies = speed_adjusted(result["latencies"], result["speed"])
    failed = len(result["failures"])
    values = {
        "setup_s": statistics.median(speed_adjusted(*zip(*result["setup"]), SETUP_CALIBRATION_REF_S)),
        "claims_per_s": claims_per_s(latencies, failed),
        "claim_p50_ms": 1e3 * statistics.median(latencies),
        "claim_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mib": result["maxrss_kib"] / 1024,
        "claim_ok_frac": (len(latencies) - failed) / len(latencies),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(plain: dict, traced: dict) -> tuple:
    """(metrics, failures) of one untraced and one traced pass."""
    values = dict(traced["layers"])
    untraced_cps, traced_cps = (
        claims_per_s(speed_adjusted(r["latencies"], r["speed"]), len(r["failures"]))
        for r in (plain, traced)
    )
    values["trace.overhead_frac"] = 1 - traced_cps / untraced_cps
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in tracing.LAYER_METRICS}
    return metrics, {**plain["failures"], **traced["failures"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tverlab" / "cli.py").is_file():
        print(f"no tverlab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    claim_list = workloads.claims(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        write_inputs(claim_list, workdir)
        if args.trace:
            plain = run_pass(args, workdir, deadline)
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            traced = run_pass(args, workdir, deadline, trace=spans)
            metrics, failures = per_layer(plain, traced)
        else:
            result = run_pass(args, workdir, deadline, probes=SETUP_PROBES)
            metrics, failures = end_to_end(result), result["failures"]
            setup, setup_speed = zip(*result["setup"])
            print(f"unadjusted: {sum(result['latencies']):.2f} s in claims, "
                  f"calibration median {1e6 * statistics.median(result['speed']):.0f} us "
                  f"(reference {1e6 * CALIBRATION_REF_S:.0f} us); set-up median "
                  f"{statistics.median(setup):.4f} s, calibration median "
                  f"{1e6 * statistics.median(setup_speed):.0f} us "
                  f"(reference {1e6 * SETUP_CALIBRATION_REF_S:.0f} us)")
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for i, reason in sorted(failures.items())[:20]:
        print(f"FAILED claim {i} {reason}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(claim_list)} claims, "
          f"{len(failures)} failed")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(claim_list),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
