"""Run the benchmark over several seeds and summarise each metric.

From the root of the checkout::

    python3 perfbench/spread.py --workload replan --seeds 0 1 2 3 4
    python3 perfbench/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 --out summary.json

Runs are made one after another, never in parallel.  For every metric the
summary gives the median, the quartiles from ``statistics.quantiles(n=4)``
and the spread, which is the distance between the quartiles as a share of
the median.  A spread is flagged when it is not below a third of the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def run_once(workload, seed, seconds, trace):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    environment = json.loads(lines[-2])["environment"]
    return json.loads(lines[-1]), environment


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            result, environment = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} operations failed", file=sys.stderr)
            runs.append(result)
            summary["environment"] = environment
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = entry["unit"]
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and m["spread"] >= bound / 3:
                flag = f"  <-- spread not below a third of bound {bound}"
            print(f"{workload:12s} {name:32s} median {m['median']:.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
