"""compactmdp benchmark: one workload per process, metrics as JSON on the last line.

Usage, from the root of a source checkout (the package is imported from
``src/``, not from an installed copy)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1`` runs
each unit untraced and then traced, and reports the per-layer metrics and
the tracing overhead; the spans go to ``perfbench/out/``.  Every unit's
output is checked against the recorded references, outside the timed region.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Thread-count variables of the BLAS builds numpy may load; all pinned to 1.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "replan", "solve-large"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "short"), default="full",
                        help="workload sizes; 'short' is for the benchmark's tests")
    parser.add_argument("--refs", type=Path, default=None,
                        help="reference directory (default: perfbench/refs/<profile>)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def monotonic_ns():
    """Clock shared by this process and the set-up processes it starts."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def setup_only(args):
    """Child process: the workload's set-up, then report its time and exit."""
    import workloads
    from compactmdp import config
    from spans import Tracer

    tracer = Tracer()
    config.load_scenario = tracer.wrap("config.load_scenario", config.load_scenario)
    workloads.WORKLOADS[args.workload](workloads.PROFILES[args.profile])
    setup_s = (monotonic_ns() - args.spawned_at) / 1e9
    load_ms = tracer.stats["config.load_scenario"].total_ns / 1e6
    print(json.dumps({"setup_s": setup_s, "load_scenario_ms": load_ms}))


def measure_setup(args):
    """Median set-up time and ``load_scenario`` time over fresh processes."""
    setups, loads = [], []
    for _ in range(SETUP_REPEATS):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--profile", args.profile, "--setup-only", "--spawned-at", str(monotonic_ns()),
        ]
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr}")
        child = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(child["setup_s"])
        loads.append(child["load_scenario_ms"])
    return statistics.median(setups), statistics.median(loads)


class Phase:
    """Units run one at a time, each timed; its output is checked after it."""

    def __init__(self, workload, solve_clock):
        self.workload = workload
        self.solve_clock = solve_clock
        self.walls_ns = []
        self.attempted = 0
        self.failed = 0

    def run(self, item, run_unit):
        """Run one unit.  Operations are the solves the clock saw plus those
        the check counts; a unit that raises counts as one failed operation."""
        clock = self.solve_clock
        solves_before, failures_before = len(clock.times_ns), clock.failures
        start = time.perf_counter_ns()
        try:
            output = run_unit(item, clock)
        except Exception:
            traceback.print_exc()
            output = None
        self.walls_ns.append(time.perf_counter_ns() - start)
        self.attempted += len(clock.times_ns) - solves_before
        self.failed += clock.failures - failures_before
        attempted, failed = (1, 1) if output is None else self.workload.check(item, output)
        self.attempted += attempted
        self.failed += failed

    @property
    def frames(self):
        return len(self.walls_ns) * self.workload.frames_per_unit

    @property
    def wall_ns(self):
        return sum(self.walls_ns)


def percentile_ms(times_ns, q):
    import numpy as np

    return float(np.percentile(times_ns, q)) / 1e6


def end_to_end(phase, setup_s):
    solve_times_ns = phase.solve_clock.times_ns
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(phase.walls_ns) / 1e9,
        "solve_ms_p50": percentile_ms(solve_times_ns, 50),
        "solve_ms_p90": percentile_ms(solve_times_ns, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, untraced, traced, load_scenario_ms):
    """Per-layer metrics from the traced phase; see README.md for each."""
    from spans import LAYERS
    from workloads import SERIES

    stats = tracer.stats

    def median_ms(name):
        stat = stats.get(name)
        return statistics.median(stat.durations) / 1e6 if stat and stat.durations else 0.0

    def mean(name, scale, attr="total_ns"):
        stat = stats.get(name)
        return getattr(stat, attr) / stat.count / scale if stat and stat.count else 0.0

    solves = tracer.solves
    n_solves = len(solves)
    iterations = sum(r.iterations for r in solves)
    last = solves[-1] if solves else None
    nnz = last.k_nz if last else 0
    svi = stats.get("solver.svi_solve")
    metrics = {
        "config.load_scenario_ms": (load_scenario_ms, "ms"),
        "node.build_mdp_ms": (median_ms("node.build_mdp"), "ms"),
        "node.assemble_stm_ms": (median_ms("node.assemble_stm"), "ms"),
        "node.reward_vector_ms": (median_ms("node.reward_vector"), "ms"),
        "node.stm_dense_bytes": (tracer.stm_bytes, "bytes"),
        "sparse.to_csr_ms": (median_ms("sparse.to_sparse") + median_ms("sparse.coo_to_csr"), "ms"),
        "sparse.sparse_mult_us": (mean("sparse.sparse_mult", 1e3), "us"),
        "sparse.saxpy_us": (mean("sparse.saxpy", 1e3), "us"),
        "sparse.max_reduce_us": (mean("sparse.max_reduce", 1e3), "us"),
        "sparse.inf_norm_diff_us": (mean("sparse.inf_norm_diff", 1e3), "us"),
        "sparse.nnz": (nnz, "count"),
        "sparse.bytes_per_iter": (
            kernel_bytes(nnz, last.n_states, last.n_actions) if last else 0, "bytes"),
        "solver.svi_solve_ms": (median_ms("solver.svi_solve"), "ms"),
        "solver.validate_ms": (median_ms("solver.validate"), "ms"),
        "solver.iterations_per_solve": (iterations / n_solves if n_solves else 0.0, "count"),
        "solver.macs_per_solve": (
            sum(r.kernel_op_count for r in solves) / n_solves if n_solves else 0.0, "count"),
        "solver.loop_self_us_per_iter": (
            svi.self_ns / iterations / 1e3 if svi and iterations else 0.0, "us"),
    }
    for series in SERIES.values():
        metrics[f"controllers.act_ns.{series}"] = (
            mean(f"controllers.act.{series}", 1, "self_ns"), "ns")
        metrics[f"controllers.observe_ns.{series}"] = (
            mean(f"controllers.observe.{series}", 1), "ns")
    resolve = stats.get("controllers.resolve_policy")
    solved = resolve.count if resolve else 0
    metrics["controllers.resolve_policy_ms"] = (median_ms("controllers.resolve_policy"), "ms")
    metrics["controllers.solves"] = (solved - traced.solve_clock.failures, "count")
    metrics["controllers.solver_failures"] = (traced.solve_clock.failures, "count")
    frames = 0
    for series in SERIES.values():
        act = stats.get(f"controllers.act.{series}")
        sim_stat = stats.get(f"sim.simulate.{series}")
        series_frames = act.count if act else 0
        frames += series_frames
        metrics[f"sim.self_ns_per_frame.{series}"] = (
            sim_stat.self_ns / series_frames if sim_stat and series_frames else 0.0, "ns")
    metrics["sim.frames"] = (frames, "count")
    metrics["sim.frames_per_s"] = (
        untraced.frames / (untraced.wall_ns / 1e9) if untraced.frames else 0.0, "1/s")
    layer_ns = tracer.layer_self_ns()
    traced_ns = traced.wall_ns
    metrics["trace.overhead_pct"] = (100.0 * (traced_ns / untraced.wall_ns - 1.0), "%")
    metrics["trace.accounted_pct"] = (
        100.0 * sum(layer_ns[layer] for layer in LAYERS) / traced_ns, "%")
    for layer in ("node", "sparse", "solver", "controllers", "sim"):
        metrics[f"trace.self_pct.{layer}"] = (100.0 * layer_ns[layer] / traced_ns, "%")
    return metrics


def kernel_bytes(nnz, n_states, n_actions):
    """Bytes the four kernels must touch per iteration, computed at 8 bytes a
    number: per nonzero a value, a column index, a gathered value and a row
    index; per row the product and the backup's two reads and one write, and
    the reduction's read; per state the new value and policy, and the two
    values the delta reads."""
    return 8 * (4 * nnz + 5 * n_states * n_actions + 4 * n_states)


def environment():
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def git_commit():
    """Commit of the checkout, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args):
    import workloads
    from spans import Tracer

    setup_s, load_scenario_ms = measure_setup(args)
    profile = workloads.PROFILES[args.profile]
    workload = workloads.WORKLOADS[args.workload](profile)
    refs_dir = args.refs or HERE / "refs" / args.profile
    workloads.load_refs(workload, refs_dir)
    items = workload.items(args.seed)

    budget_ns = args.seconds * 1e9
    untraced = Phase(workload, workloads.SolveClock())
    if args.trace == 0:
        with untraced.solve_clock.installed():
            for item in items:
                untraced.run(item, workload.run)
                if untraced.wall_ns >= budget_ns:
                    break
        phases = [untraced]
        metrics = {
            name: (value, END_TO_END_UNITS[name])
            for name, value in end_to_end(untraced, setup_s).items()
        }
    else:
        # Each unit runs untraced and then traced, so that drift in the host's
        # speed falls on both sides of the overhead alike.
        tracer = Tracer()
        traced = Phase(workload, workloads.SolveClock())
        traced_unit = tracer.wrap("bench.unit", workload.run, keep=True)
        for item in items:
            with untraced.solve_clock.installed():
                untraced.run(item, workload.run)
            with tracer.installed(), traced.solve_clock.installed():
                traced.run(item, traced_unit)
            if untraced.wall_ns + traced.wall_ns >= budget_ns:
                break
        phases = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced, load_scenario_ms)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"untraced: {len(untraced.walls_ns)} units, "
          f"{len(untraced.solve_clock.times_ns)} solves")
    print(f"ops_failed_frac = {failed}/{attempted} = {failed / max(attempted, 1)!r}")
    print(json.dumps({"environment": environment()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "compactmdp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'compactmdp'}; run from the root of "
              "a compactmdp checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup_only(args)
    else:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
