"""Command-line interface.

Subcommands:

* ``solve``    — assemble the node MDP and run sparse value iteration.
* ``simulate`` — run one controller through a scenario, print the metrics.
* ``sweep``    — latency/energy trade-off sweep across controllers, CSV out.
* ``storage``  — byte budgets (dense vs sparse vs Q-function).
* ``power``    — MCU average-power model and crossover periods.

Exit codes: 0 on success, 1 on validation/config errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .config import ConfigError, load_scenario
from .controllers import (
    DEFAULT_ALPHA, DEFAULT_EPSILON, DEFAULT_EPSILON_DECAY, DEFAULT_SOLVE_PERIOD,
    QLearningController, StructuredController,
)
from .core import ConvergenceError
from .node import (
    ACTION_ON, N_ACTIONS, N_MODEM_STATES, assemble_stm, build_mdp, floor_frames,
)
from .sim import (
    DEFAULT_SEEDS,
    NQ_SWEEP,
    R2_SWEEP,
    REFERENCE_POWER_MODELS,
    SERIES_LABELS,
    average_power,
    check_run_options,
    crossover_period,
    make_controller,
    pareto_sweep,
    simulate,
    write_sweep_csv,
)
from .solver import solve_cost, svi_solve
from .sparse import storage_report


def _add_config_arg(parser):
    parser.add_argument(
        "--config",
        default="default",
        help="scenario file path, or 'default' for the packaged scenario",
    )


def _add_run_args(parser):
    """Options shared by the commands that run controllers through a scenario."""
    _add_config_arg(parser)
    parser.add_argument("--duration", type=float, help="override the duration (seconds)")
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="learning rate")
    parser.add_argument(
        "--epsilon", type=float, default=DEFAULT_EPSILON, help="exploration rate"
    )
    parser.add_argument(
        "--epsilon-decay", type=float, default=DEFAULT_EPSILON_DECAY,
        help="per-frame exploration decay (1.0 for constant epsilon)",
    )
    parser.add_argument(
        "--solve-period", type=float, default=DEFAULT_SOLVE_PERIOD,
        help="seconds between re-solves",
    )


def _add_model_args(parser):
    """Overrides of the node's planning parameters, applied by :func:`_tuned_node`."""
    parser.add_argument("--r2", type=float, help="override the per-packet reward weight")
    parser.add_argument(
        "--beta", type=float,
        help="override the discount factor (the planner and Q-learning both use it)",
    )
    parser.add_argument("--tau", type=float, help="override the solver tolerance")


def _run_inputs(args):
    """The scenario and the controller options that the shared run options give."""
    scenario = load_scenario(args.config)
    if args.duration is not None:
        frames = floor_frames(args.duration, scenario.node.frame_period)
        scenario = replace(scenario, duration_frames=frames)
    options = dict(alpha=args.alpha, epsilon=args.epsilon, solve_period=args.solve_period,
                   epsilon_decay=args.epsilon_decay)
    check_run_options(scenario.node, **options)
    return scenario, options


def _tuned_node(node, args):
    w1, w2, w3 = node.reward_weights
    return replace(
        node,
        reward_weights=(w1, w2 if args.r2 is None else args.r2, w3),
        discount=node.discount if args.beta is None else args.beta,
        tolerance=node.tolerance if args.tau is None else args.tau,
    )


def _cmd_solve(args):
    scenario = load_scenario(args.config)
    node = _tuned_node(scenario.node, args)
    spec = build_mdp(node)
    result = svi_solve(spec)
    cost = solve_cost(result)
    sparsity = storage_report(node.n_states, N_ACTIONS, result.k_nz).sparsity
    print(f"states={node.n_states} actions={N_ACTIONS} rows={node.n_states * N_ACTIONS}")
    print(f"nonzeros={result.k_nz} sparsity={sparsity:.4f}")
    print(f"iterations={result.iterations} final_delta={result.final_delta:.3e}")
    print(
        f"macs sparse={cost.sparse_macs} dense={cost.dense_macs} "
        f"ratio={cost.ratio:.1f}x"
    )
    on = int(sum(result.policy))
    print(f"policy: modem on in {on}/{node.n_states} states")
    modem_names = ("off", "connecting", "connected")
    grid = result.policy.reshape(node.n_app_modes, node.queue_states, N_MODEM_STATES)
    for mode in range(node.n_app_modes):
        for modem in range(N_MODEM_STATES):
            marks = "".join("N" if a == ACTION_ON else "." for a in grid[mode, :, modem])
            print(f"  mode {mode} {modem_names[modem]:<10} queue 0..{node.capacity}: {marks}")
    return 0


def _cmd_simulate(args):
    scenario, options = _run_inputs(args)
    node = _tuned_node(scenario.node, args)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    value = args.queue_threshold if args.method == "on-off" else node.reward_weights[1]
    controller = make_controller(args.method, node, value, seed=scenario.seed, **options)
    metrics = simulate(scenario, controller)
    print(f"method={args.method} seed={scenario.seed} frames={metrics.frames}")
    print(
        f"packets generated={metrics.packets_generated} "
        f"transmitted={metrics.packets_transmitted} "
        f"dropped={metrics.packets_dropped} queued={metrics.packets_queued_at_end}"
    )
    print(f"avg_latency_s={metrics.avg_latency:.6g}")
    print(f"energy_per_packet_j={metrics.energy_per_packet:.6g}")
    print(
        f"transactions={metrics.transactions} "
        f"transaction_energy_j={metrics.transaction_energy:.6g} "
        f"modem_current_energy_j={metrics.modem_current_energy:.6g}"
    )
    print(f"reward_total={metrics.reward_total:.6g}")
    if args.method == "mdp":
        print(
            f"solves={metrics.solver_invocations} "
            f"solver_failures={controller.solver_failures} "
            f"solver_macs={metrics.solver_kernel_ops}"
        )
    return 0


def _cmd_sweep(args):
    scenario, options = _run_inputs(args)
    if args.out != "-":
        # Before any run, and creating nothing: a bad grid value leaves no CSV.
        directory = os.path.dirname(os.path.abspath(args.out))
        target = args.out if os.path.exists(args.out) else directory
        if (os.path.isdir(args.out) or not os.path.isdir(directory)
                or not os.access(target, os.W_OK)):
            raise ValueError(f"cannot write the sweep CSV to {args.out}")
    points = pareto_sweep(
        scenario,
        series=args.methods,
        r2_values=args.r2_values,
        nq_values=args.nq_values,
        seeds=tuple(range(args.seeds)),
        **options,
    )
    if args.out == "-":
        write_sweep_csv(points, sys.stdout)
    else:
        with open(args.out, "w", newline="") as stream:
            write_sweep_csv(points, stream)
        print(f"wrote {len(points)} sweep points to {args.out}")
    return 0


def _cmd_storage(args):
    scenario = load_scenario(args.config)
    node = scenario.node
    sizes = [node.queue_states]
    if args.queue_range:
        lo, hi = args.queue_range
        sizes = list(range(lo, hi + 1))
    print("queue_states,states,nonzeros,dense_bytes,sparse_bytes,qfunction_bytes,sparsity")
    for queue_states in sizes:
        sized = replace(node, queue_states=queue_states)
        k_nz = assemble_stm(sized).nnz
        report = storage_report(sized.n_states, N_ACTIONS, k_nz)
        print(
            f"{queue_states},{sized.n_states},{k_nz},{report.dense_bytes},"
            f"{report.sparse_bytes},{report.qfunction_bytes},{report.sparsity:.4f}"
        )
    return 0


def _cmd_power(args):
    node = load_scenario(args.config).node
    powers = [(name, average_power(model, args.update_period, node.frame_period))
              for name, model in REFERENCE_POWER_MODELS.items()]
    print(f"update_period_s={args.update_period} frame_period_s={node.frame_period}")
    for name, power in powers:
        print(f"{name}: average_power_uw={power * 1e6:.6g}")
    pairs = [("dense-vi", "svi"), ("dense-vi", "ql"), ("svi", "ql")]
    for a, b in pairs:
        period = crossover_period(
            REFERENCE_POWER_MODELS[a],
            REFERENCE_POWER_MODELS[b],
            frame_period=node.frame_period,
        )
        shown = "none" if period is None else f"{period:.6g}"
        print(f"crossover {a} vs {b}: period_s={shown}")
    ql = len(QLearningController(node).q)
    structured = StructuredController(node).estimates.size
    print(f"learned_parameters: ql={ql} structured={structured}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compactmdp",
        description="Compact-MDP toolkit and cellular sensor-node case study.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the node MDP by sparse value iteration")
    _add_config_arg(p_solve)
    _add_model_args(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="run one controller through a scenario")
    _add_run_args(p_sim)
    p_sim.add_argument("--method", choices=SERIES_LABELS, default="mdp")
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    _add_model_args(p_sim)
    p_sim.add_argument(
        "--queue-threshold", type=int, default=3, help="threshold for --method on-off"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="latency/energy trade-off sweep, CSV out")
    _add_run_args(p_sweep)
    p_sweep.add_argument(
        "--methods",
        nargs="+",
        choices=SERIES_LABELS,
        default=list(SERIES_LABELS),
        help="series to run",
    )
    p_sweep.add_argument(
        "--r2-values", nargs="+", type=float, default=list(R2_SWEEP),
        help="per-packet reward weights for mdp/ql",
    )
    p_sweep.add_argument(
        "--nq-values", nargs="+", type=int, default=list(NQ_SWEEP),
        help="queue thresholds for on-off",
    )
    p_sweep.add_argument(
        "--seeds", type=int, default=len(DEFAULT_SEEDS), help="seeds 0..N-1 to average"
    )
    p_sweep.add_argument("--out", default="-", help="CSV path, or '-' for stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_storage = sub.add_parser("storage", help="dense/sparse/Q-function byte budgets")
    _add_config_arg(p_storage)
    p_storage.add_argument(
        "--queue-range",
        type=_parse_range,
        metavar="LO:HI",
        help="report a row per queue size in the range",
    )
    p_storage.set_defaults(func=_cmd_storage)

    p_power = sub.add_parser("power", help="MCU average power and crossover periods")
    _add_config_arg(p_power)
    p_power.add_argument("--update-period", type=float, default=DEFAULT_SOLVE_PERIOD)
    p_power.set_defaults(func=_cmd_power)

    return parser


def _parse_range(text):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from exc
    if lo < 2 or hi < lo:
        raise argparse.ArgumentTypeError(f"need 2 <= LO <= HI, got {text!r}")
    return lo, hi


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
