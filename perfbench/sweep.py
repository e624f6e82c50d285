"""Run every workload on seeds 1 to 10 and report each metric's spread.

    python3 perfbench/sweep.py [--traced] [--out perfbench/results/baseline.json]

Each run lasts BENCHMARK.json's run_seconds.  For every workload and
end-to-end metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json, and flags a spread of a third of the bound or more.
``--traced`` adds two traced runs per workload with seed 1 and checks that
their counts agree exactly.  ``--out`` writes every run, the summary and
the machine details as JSON.  The exit code is 1 when a spread was flagged
or a count did not repeat.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr}")
    *notes, last = proc.stdout.strip().splitlines()
    return {**json.loads(last), "notes": notes}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = list(SEEDS)
        runs = [run(workload, s, seconds, 0) for s in seeds]
        entry = {"seeds": seeds, "runs": runs, "summary": {}}
        print(f"{workload}: {[r['attempted'] for r in runs]} claims, "
              f"{sum(r['failed'] for r in runs)} failed, all correct: {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            entry["summary"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            steady &= not flag
            print(f"  {name:15s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}"
                  f"  spread {s['spread']:.4f}  bound {bound}{flag}")
        if args.traced:
            a, b = (run(workload, seeds[0], seconds, 1) for _ in range(2))
            counts = [n for n, m in a["metrics"].items() if m["unit"] not in ("s", "ms", "us")
                      and n != "trace.overhead_frac"]
            same = all(a["metrics"][n]["value"] == b["metrics"][n]["value"] for n in counts)
            entry["traced"] = {"seed": seeds[0], "runs": [a, b], "counts_repeat": same}
            print(f"  traced: counts repeat exactly: {same}")
            steady &= same
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
