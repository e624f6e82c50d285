"""One pass over a run's claim list, in the interpreter that runs this file.

    python3 perfbench/child.py --workload W --seed N --seconds S --inputs DIR \
        [--setup-probes K] [--trace FILE]

run.py starts this once per pass, in a fresh interpreter each time.  It
imports tverlab from the source tree beside this directory, builds the CLI
parser and prints ``ready``.  It then issues every claim of
``workloads.claims(W, N, S)`` in order, one at a time on one thread, checks
each output, and prints one JSON line with every claim's latency, the
failed claims and its ``ru_maxrss``.  While a claim runs, a timer signal
interrupts it every ``speed.SAMPLE_PERIOD_S`` to time a fixed calibration
loop (``speed.SpeedSampler``), so that run.py can tell how fast the machine
ran during each claim; the time spent in the loop is taken out of the
latency.  With ``--setup-probes K`` it also times K fresh interpreters
until they are ready for a first claim (``setup_probe``), spread evenly
over the pass, and the JSON line carries those times too, each with the
speed sampled the same way inside the probe.  The input files must already
be in DIR (``write_inputs``).

With ``--trace FILE`` the tracer is installed for the pass, the spans go to
FILE, and the JSON line carries the per-layer metrics as well.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import select
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402

PROBE_TIMEOUT_S = 60
_READY = """
import sys
sys.path.insert(0, {here!r})
from speed import SpeedSampler
sampler = SpeedSampler()
sampler.start()
sys.path.insert(0, {src!r})
import tverlab, tverlab.cli
tverlab.cli.build_parser()
speed = sampler.stop()
sys.stdout.write(f"ready {{sampler.spent!r}} {{speed!r}}\\n")
sys.stdout.flush()
"""


def setup_probe() -> list:
    """[seconds, mean calibration loop time in s] of a fresh interpreter,
    from its start until it has imported tverlab and its CLI and built the
    parser, without the speed samples taken inside it."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _READY.format(here=str(HERE), src=str(SRC))],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                raise TimeoutError("a set-up probe did not get ready")
            line = proc.stdout.readline()
            ready = perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if not line.startswith("ready ") or proc.returncode != 0:
        raise RuntimeError(f"a set-up probe exited {proc.returncode}: {err.strip()[-2000:]}")
    spent, speed = map(float, line.split()[1:])
    return [ready - spent, speed]


def import_program():
    sys.path.insert(0, str(SRC))
    import tverlab.cli

    if not Path(tverlab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"tverlab imported from {tverlab.__file__}, not {SRC}")
    tverlab.cli.build_parser()
    return tverlab.cli


def input_path(workdir: Path, i: int) -> Path:
    return workdir / f"claim-{i}.json"


def write_inputs(claim_list, workdir: Path) -> None:
    for i, claim in enumerate(claim_list):
        if claim.input is not None:
            input_path(workdir, i).write_text(claim.input)


def run_claims(cli, claim_list, workdir: Path, tracer=None, probes: int = 0):
    """Issue every claim in order; returns (latencies in s, mean calibration
    loop time during each claim in s, {claim index: failure reason}, set-up
    probes as ``setup_probe`` gives them).  A latency is the time of the
    ``cli.main`` call without the calibration samples taken inside it; the
    check and the set-up probes run outside it.  The probes come before
    claims spread evenly over the list, so that their median samples the
    machine over the whole pass."""
    latencies, speed, failures, setup = [], [], {}, []
    probe_at = {k * len(claim_list) // probes for k in range(probes)}
    sampler = SpeedSampler()
    for i, claim in enumerate(claim_list):
        if i in probe_at:
            setup.append(setup_probe())
        argv = [str(input_path(workdir, i)) if a == workloads.INPUT else a for a in claim.argv]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.start_claim(i)
        crash = None
        t0 = perf_counter()
        sampler.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed claim, not a failed run
            code, crash = None, f"crash: {exc!r}"
        finally:
            loop_s = sampler.stop()
        latencies.append(perf_counter() - t0 - sampler.spent)
        speed.append(loop_s)
        try:
            problem = crash or workloads.check(claim, code, out.getvalue())
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem:
            failures[i] = f"{claim.kind}: {problem}"
    return latencies, speed, failures, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-probes", type=int, default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    claim_list = workloads.claims(args.workload, args.seed, args.seconds)
    result = {}
    if args.trace:
        tr = tracing.Tracer()
        with tr.installed():
            latencies, speed, failures, setup = run_claims(
                cli, claim_list, args.inputs, tr, args.setup_probes)
        tr.write(args.trace)
        result["layers"] = tracing.layer_metrics(tr.spans)
    else:
        latencies, speed, failures, setup = run_claims(
            cli, claim_list, args.inputs, probes=args.setup_probes)
    result.update(
        latencies=latencies,
        speed=speed,
        failures=failures,
        setup=setup,
        maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
