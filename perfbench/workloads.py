"""The benchmark's three workloads: set-up, the timed unit of work, and its check.

Each workload draws its units from a pool of recorded inputs, in an order
fixed by the benchmark seed, and checks every unit's output against the
references that ``record.py`` took from the package (see README.md).
"""

from __future__ import annotations

import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from compactmdp import config, node, sim, solver
from compactmdp.controllers import (
    QLearningController,
    StructuredController,
    ThresholdController,
)
from compactmdp.core import dense_value_iteration

#: Series label of each controller class, as in the sweep CSV.
SERIES = {
    ThresholdController: "on-off",
    StructuredController: "mdp",
    QLearningController: "ql",
}

#: Fixed generator seed of the solve-large draw pool; the benchmark seed only
#: picks the order in which the pool is solved.
DRAW_POOL_SEED = 20060866

#: Largest absolute difference allowed between a solve's values and the
#: dense-oracle reference.
VALUE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Profile:
    """Sizes of the three workloads and of their recorded input pools."""

    sweep_duration_s: float
    replan_duration_s: float
    replan_solve_period_s: float
    large_queue_states: int
    large_batch: int
    sweep_pool: int
    replan_pool: int
    large_pool: int


PROFILES = {
    # Sweep duration crosses both drift points (3 000 s, 5 400 s) and the
    # hourly re-solves at 3 600 s and 7 200 s; replan makes 120 solves per run.
    "full": Profile(
        sweep_duration_s=7500.0,
        replan_duration_s=7200.0,
        replan_solve_period_s=60.0,
        large_queue_states=200,
        large_batch=8,
        sweep_pool=16,
        replan_pool=64,
        large_pool=16,
    ),
    # Seconds-long variant for the benchmark's own tests.
    "short": Profile(
        sweep_duration_s=600.0,
        replan_duration_s=600.0,
        replan_solve_period_s=60.0,
        large_queue_states=20,
        large_batch=4,
        sweep_pool=4,
        replan_pool=8,
        large_pool=4,
    ),
}


def seed_order(seed, salt, pool):
    """Endless sequence of pool indices: the seed's permutation, repeated."""
    order = np.random.default_rng([seed, salt]).permutation(pool).tolist()
    while True:
        yield from order


class SolveClock:
    """Times every solve and counts the failed ones.

    Each solve is one operation.  While installed, every planner re-solve
    (``resolve_policy``) is timed; it failed when it did not advance the
    controller's ``solve_count``, that is, the planner kept its old policy.
    """

    def __init__(self):
        self.times_ns = []
        self.failures = 0

    def timed(self, solve, *args):
        start = time.perf_counter_ns()
        result = solve(*args)
        self.times_ns.append(time.perf_counter_ns() - start)
        return result

    @contextmanager
    def installed(self):
        original = StructuredController.resolve_policy

        def timed(controller):
            before = controller.solve_count
            self.timed(original, controller)
            if controller.solve_count == before:
                self.failures += 1

        StructuredController.resolve_policy = timed
        try:
            yield self
        finally:
            StructuredController.resolve_policy = original


def has_nan(values):
    return any(isinstance(v, float) and math.isnan(v) for v in values)


class Sweep:
    """``pareto_sweep`` over all three series and the default grids, one seed
    per unit: 30 simulate runs that share the seed's exogenous trace."""

    name = "sweep"
    salt = 1

    def __init__(self, profile):
        scenario = config.load_scenario()
        frames = node.floor_frames(profile.sweep_duration_s, scenario.node.frame_period)
        self.scenario = replace(scenario, duration_frames=frames)
        self.pool = profile.sweep_pool
        self.refs = None

    @property
    def frames_per_unit(self):
        points = len(sim.NQ_SWEEP) + 2 * len(sim.R2_SWEEP)
        return points * self.scenario.duration_frames

    def items(self, seed):
        return seed_order(seed, self.salt, self.pool)

    def run(self, seed, clock):
        points = sim.pareto_sweep(self.scenario, seeds=(seed,))
        out = io.StringIO()
        sim.write_sweep_csv(points, out)
        return out.getvalue()

    def reference(self, seed):
        return self.run(seed, None)

    def check(self, seed, csv_text):
        """One operation per CSV row (one simulate run): ``(operations, failed)``."""
        rows = csv_text.splitlines()
        expected = self.refs[str(seed)].splitlines()
        failed = 0
        for i in range(1, len(expected)):
            if i >= len(rows) or rows[0] != expected[0] or rows[i] != expected[i]:
                failed += 1
            else:
                fields = rows[i].split(",")
                if "nan" in fields or float(fields[7]) == 0.0:
                    failed += 1
        return len(expected) - 1, failed


class Replan:
    """The ``mdp`` planner alone, re-solving every minute: one simulate run
    per unit, 120 re-solves per 72 000 frames."""

    name = "replan"
    salt = 2

    def __init__(self, profile):
        scenario = config.load_scenario()
        frames = node.floor_frames(profile.replan_duration_s, scenario.node.frame_period)
        self.scenario = replace(scenario, duration_frames=frames)
        self.solve_period = profile.replan_solve_period_s
        self.pool = profile.replan_pool
        self.refs = None

    @property
    def frames_per_unit(self):
        return self.scenario.duration_frames

    def items(self, seed):
        return seed_order(seed, self.salt, self.pool)

    def run(self, seed, clock):
        controller = StructuredController(self.scenario.node, solve_period=self.solve_period)
        return sim.simulate(replace(self.scenario, seed=seed), controller)

    def reference(self, seed):
        return asdict(self.run(seed, None))

    def check(self, seed, metrics):
        """One operation, the simulate run: ``(operations, failed)``."""
        got = asdict(metrics)
        bad = (
            got != self.refs[str(seed)]
            or has_nan(got.values())
            or got["packets_transmitted"] == 0
        )
        return 1, int(bad)


class SolveLarge:
    """A stream of ``build_mdp`` + ``svi_solve`` at 200 queue levels
    (1 200 states), each on estimates drawn near the prior."""

    name = "solve-large"
    salt = 3

    def __init__(self, profile):
        scenario = config.load_scenario()
        self.model_config = replace(scenario.node, queue_states=profile.large_queue_states)
        self.batch = profile.large_batch
        self.draws = large_draws(self.model_config, profile.large_pool)
        self.refs = None

    frames_per_unit = 0

    def items(self, seed):
        order = seed_order(seed, self.salt, len(self.draws))
        while True:
            yield tuple(next(order) for _ in range(self.batch))

    def spec(self, index):
        sigma, rho = self.draws[index]
        return node.build_mdp(self.model_config, sigma=sigma, rho=rho)

    def solve(self, index):
        return solver.svi_solve(self.spec(index))

    def run(self, indices, clock):
        return [clock.timed(self.solve, index) for index in indices]

    def reference(self, index):
        """Dense value iteration on the same model: ``(policy, values)``."""
        values, policy, _ = dense_value_iteration(self.spec(index))
        return policy, values

    def check(self, indices, results):
        """The solves were counted by the clock: ``(0, failed)``."""
        failed = 0
        for index, result in zip(indices, results):
            policy, values = self.refs["policy"][index], self.refs["values"][index]
            ok = (
                not np.isnan(result.values).any()
                and np.array_equal(result.policy, policy)
                and float(np.max(np.abs(result.values - values))) <= VALUE_TOLERANCE
            )
            failed += not ok
        return 0, failed


def large_draws(model_config, count):
    """Planner estimates near the design-time prior: ``[(sigma, rho), ...]``.

    The switching probabilities and the attach delay are perturbed the way a
    planner's runtime estimates wander: multiplicatively for the rare
    switch, additively for the burst exit.
    """
    rng = np.random.default_rng(DRAW_POOL_SEED)
    prior = np.asarray(model_config.app_transition, dtype=float)
    draws = []
    for _ in range(count):
        leave = np.clip(prior[0, 1] * math.exp(rng.normal(0.0, 0.5)), 1e-3, 0.2)
        stay = np.clip(prior[1, 1] + rng.normal(0.0, 0.1), 0.05, 0.95)
        sigma = np.array([[1.0 - leave, leave], [1.0 - stay, stay]])
        connect_time = model_config.connect_time * math.exp(rng.normal(0.0, 0.25))
        rho = node.rho_from_connect_time(
            max(connect_time, model_config.frame_period), model_config.frame_period
        )
        draws.append((sigma, rho))
    return draws


WORKLOADS = {cls.name: cls for cls in (Sweep, Replan, SolveLarge)}


def refs_path(refs_dir, workload):
    suffix = ".npz" if workload == SolveLarge.name else ".json"
    return refs_dir / f"{workload}{suffix}"


def load_refs(workload, refs_dir):
    path = refs_path(refs_dir, workload.name)
    if isinstance(workload, SolveLarge):
        with np.load(path) as data:
            workload.refs = {"policy": data["policy"], "values": data["values"]}
    else:
        workload.refs = json.loads(path.read_text())
