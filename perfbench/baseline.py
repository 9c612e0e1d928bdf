"""Run the benchmark over several seeds and record medians and quartiles.

Usage, from the repository root::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed, trace mode), one at
a time, and prints, per end-to-end metric, the quartile spread
``(Q3 - Q1) / median`` beside a third of the metric's bound.  With
``--out`` it writes every run's values and their summary to JSON.
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

import manifest

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(
            f"{workload} seed {seed}: run failed\n{proc.stderr}"
        )
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"# {workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(manifest.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", default="0",
                        help="trace modes to run: 0, 1 or 0,1")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {name: bound for name, _, _, bound in manifest.END_TO_END}
    record = {
        "machine": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "run_seconds": args.seconds,
        "seeds": _seeds(args.seeds),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        entry = record["workloads"].setdefault(workload, {})
        for trace in (int(t) for t in args.trace.split(",")):
            runs = [
                run_once(workload, seed, args.seconds, trace)
                for seed in record["seeds"]
            ]
            stats = {
                name: summarize([run[name] for run in runs])
                for name in runs[0]
            }
            entry[f"trace{trace}"] = {"runs": runs, "summary": stats}
            for name, s in stats.items():
                bound = bounds.get(name)
                flag = ""
                if bound is not None:
                    flag = "ok" if s["spread"] < bound / 3 else "WIDE"
                print(f"{workload:8} {name:40} median {s['median']:12.6g} "
                      f"spread {s['spread']:.3f} {flag}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
