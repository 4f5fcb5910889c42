"""Record the references the benchmark checks every unit against.

Run from the root of the checkout whose behaviour is the reference::

    python3 perfbench/record.py --profile full
    python3 perfbench/record.py --profile short

It writes ``perfbench/refs/<profile>/``: the sweep CSV of every pool seed,
the ``SimMetrics`` of every replan pool seed, and the dense value-iteration
policy and values of every solve-large draw.  It refuses to record a NaN or
empty-transmission row, or a draw on which sparse and dense solvers disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import BLAS_THREAD_VARS, HERE, SRC

for var in BLAS_THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def record_sweep(workload, refs_dir):
    refs = {}
    for seed in range(workload.pool):
        csv_text = workload.reference(seed)
        refs[str(seed)] = csv_text
        workload.refs = refs
        if workload.check(seed, csv_text)[1]:
            raise SystemExit(f"sweep seed {seed} has a NaN or empty-transmission row")
    write_json(workloads.refs_path(refs_dir, workload.name), refs)


def record_replan(workload, refs_dir):
    refs = {str(seed): workload.reference(seed) for seed in range(workload.pool)}
    for seed, metrics in refs.items():
        if workloads.has_nan(metrics.values()) or metrics["packets_transmitted"] == 0:
            raise SystemExit(f"replan seed {seed} yields NaN or no transmissions")
    write_json(workloads.refs_path(refs_dir, workload.name), refs)


def record_solve_large(workload, refs_dir):
    policies, values = [], []
    for index in range(len(workload.draws)):
        policy, value = workload.reference(index)
        sparse = workload.solve(index)
        if not (
            np.array_equal(sparse.policy, policy)
            and np.max(np.abs(sparse.values - value)) <= workloads.VALUE_TOLERANCE
        ):
            raise SystemExit(f"solve-large draw {index}: sparse and dense solvers disagree")
        policies.append(policy)
        values.append(value)
    np.savez_compressed(
        workloads.refs_path(refs_dir, workload.name),
        policy=np.array(policies, dtype=np.int8),
        values=np.array(values),
    )


def write_json(path, data):
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


RECORDERS = {
    workloads.Sweep: record_sweep,
    workloads.Replan: record_replan,
    workloads.SolveLarge: record_solve_large,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--profile", choices=tuple(workloads.PROFILES), default="full")
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), nargs="*",
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args()
    refs_dir = HERE / "refs" / args.profile
    refs_dir.mkdir(parents=True, exist_ok=True)
    profile = workloads.PROFILES[args.profile]
    for name in args.workload:
        cls = workloads.WORKLOADS[name]
        RECORDERS[cls](cls(profile), refs_dir)
        print(f"recorded {name} -> {workloads.refs_path(refs_dir, name)}")


if __name__ == "__main__":
    main()
