"""Frame-stepped node simulator, scenario schedule, sweeps, and MCU power model.

The simulator advances the true node exactly as the transition factors in
:mod:`compactmdp.node` describe: per frame the controller picks an action, the
modem moves (a real attach takes a deterministic ``floor(connect_time /
frame_period)`` frames), the application may emit a packet, and the queue
drains or absorbs.  Latency is tracked per packet from enqueue frame to
transmit frame; energy is tracked per modem transaction with the affine
transaction model, :func:`~compactmdp.node.energy_per_transaction`.

Scenarios can change the true environment parameters mid-run (attach delay,
app-mode statistics, packet probabilities) through a piecewise-constant
schedule, which is what makes runtime learning worth measuring.  The
environment's randomness does not depend on the controller, so a scenario
draws its whole app-mode and arrival path once, on its first run, and every
run on it (all of a sweep's points at one seed) reads that one path.

A :class:`Scenario` is checked once, when it is built, like its ``NodeConfig``.
Every controller carries the ``config`` it was built for, and :func:`simulate`
checks only that it matches the scenario's layout and frame period.  The
scenario owns the physics (dynamics, currents, energy constants, schedule);
the controller owns the objective, so each frame is rewarded by the
``reward_weights`` of that config.

The power model at the bottom turns per-solve and per-frame energy costs into
average power draws and solves for the update period at which two controller
implementations break even.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .node import (
    ACTION_ON,
    M_CONNECTED,
    M_CONNECTING,
    M_OFF,
    N_MODEM_STATES,
    SUPPLY_VOLTS,
    NodeConfig,
    energy_per_transaction,
    floor_frames,
)
from .controllers import (
    DEFAULT_ALPHA,
    DEFAULT_EPSILON,
    DEFAULT_EPSILON_DECAY,
    DEFAULT_SOLVE_PERIOD,
    QLearningController,
    StructuredController,
    ThresholdController,
)

#: Fields of the true environment a schedule entry may change.
SCHEDULABLE_FIELDS = ("connect_time", "app_transition", "app_packet_prob")

#: Series labels used in sweep output: threshold rule, structured planner,
#: Q-learning.
SERIES_LABELS = ("on-off", "mdp", "ql")

#: Default sweep grids: reward-per-packet values for the learning controllers,
#: queue thresholds for the duty-cycling rule.
R2_SWEEP = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 100.0, 1000.0)
NQ_SWEEP = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class ScheduleChange:
    """One piecewise-constant change of a true environment parameter.

    ``time`` is in seconds from the start of the run, finite and >= 0, and
    ``parameter`` is one of :data:`SCHEDULABLE_FIELDS`.
    """

    time: float
    parameter: str
    value: object

    def __post_init__(self):
        if self.parameter not in SCHEDULABLE_FIELDS:
            raise ValueError(
                f"{self.parameter!r} is not schedulable (one of {SCHEDULABLE_FIELDS})"
            )
        if not 0.0 <= self.time < math.inf:
            raise ValueError(f"schedule time must be finite and >= 0, got {self.time}")


class ScheduleError(ValueError):
    """A change, ``Scenario.schedule[index]``, that leaves an invalid node."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(message)


@dataclass(frozen=True)
class Scenario:
    """A node config plus run length (>= 1 frame), seed (>= 0), and schedule.

    Each change, applied in time order on top of the earlier ones, must leave a
    valid node; ``_steps`` keeps that walk as ``[(first frame, config), ...]``.
    ``_trace`` is the scenario's exogenous sample path, drawn on first use and
    then shared by every run of the scenario; a pickled scenario leaves it out
    and draws it again.
    """

    node: NodeConfig = field(default_factory=NodeConfig)
    duration_frames: int = 270000
    seed: int = 0
    schedule: tuple = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.duration_frames < 1:
            raise ValueError(f"duration_frames must be >= 1, got {self.duration_frames}")
        config = self.node
        steps = [(0, config)]
        for index, change in sorted(enumerate(self.schedule), key=lambda item: item[1].time):
            try:
                config = replace(config, **{change.parameter: change.value})
            except ValueError as exc:
                message = f"schedule change at {change.time:g} s ({change.parameter}): {exc}"
                raise ScheduleError(index, message) from exc
            steps.append((floor_frames(change.time, config.frame_period), config))
        object.__setattr__(self, "_steps", tuple(steps))

    @cached_property
    def _trace(self):
        return _exogenous_trace(self.seed, self.duration_frames, self._steps)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_trace", None)
        return state

    @property
    def duration_seconds(self):
        return self.duration_frames * self.node.frame_period


@dataclass(frozen=True)
class SimMetrics:
    """Whole-run accounting for one simulation.

    ``packets_generated == packets_transmitted + packets_dropped +
    packets_queued_at_end`` holds exactly (integer conservation).

    ``transaction_energy`` uses the affine transaction model only;
    ``modem_current_energy`` is the separate current-draw integral, kept as a
    diagnostic and never mixed into ``energy_per_packet``.
    """

    frames: int
    packets_generated: int
    packets_transmitted: int
    packets_dropped: int
    packets_queued_at_end: int
    avg_latency: float
    energy_per_packet: float
    transaction_energy: float
    transactions: int
    modem_current_energy: float
    reward_total: float
    solver_invocations: int
    solver_kernel_ops: int


def _exogenous_trace(seed, frames, steps):
    """The controller-independent part of a scenario's runs, drawn at once.

    Returns ``(app_path, arrivals)``: ``app_path[f]`` is the app mode during
    frame ``f`` (``frames + 1`` entries, starting in mode 0) and
    ``arrivals[f]`` is 1 when the application emits a packet in frame ``f``.
    Both hold one byte per frame (the path for up to 256 modes).  ``steps``
    is a scenario's ``_steps``; only their ``app_transition`` and
    ``app_packet_prob`` matter here.
    """
    ends = [at for at, _ in steps[1:]] + [frames]
    segments = [
        (start, min(end, frames), config)
        for (start, config), end in zip(steps, ends)
        if start < min(end, frames)
    ]
    n_modes = steps[0][1].n_app_modes
    dtype = np.uint8 if n_modes <= 256 else np.intp
    rng = np.random.default_rng(seed)

    # Successor of every mode in every frame: one vectorised search per mode
    # and segment, the same comparisons a per-frame search would make.  The
    # last cumulative sum is +inf, so a draw beyond a row's rounded total
    # lands in the last mode.
    u_mode = rng.random(frames)
    successor = np.empty((n_modes, frames), dtype=dtype)
    for start, end, config in segments:
        cum_sigma = np.cumsum(np.asarray(config.app_transition, dtype=float), axis=1)
        cum_sigma[:, -1] = np.inf
        for mode in range(n_modes):
            successor[mode, start:end] = np.searchsorted(
                cum_sigma[mode], u_mode[start:end], side="right"
            )
    del u_mode  # keeps one float array alive at a time, not two

    path = np.zeros(frames + 1, dtype=dtype)
    app_path = memoryview(path)
    next_mode = [memoryview(row) for row in successor]
    app = 0
    for frame in range(frames):
        app = next_mode[app][frame]
        app_path[frame + 1] = app

    u_arrival = rng.random(frames)
    arrivals = np.empty(frames, dtype=bool)
    for start, end, config in segments:
        packet_prob = np.asarray(config.app_packet_prob, dtype=float)
        arrivals[start:end] = u_arrival[start:end] < packet_prob[path[start:end]]
    return app_path, arrivals.tobytes()


def simulate(scenario, controller):
    """Run one controller through one scenario; return :class:`SimMetrics`.

    Deterministic: the environment randomness is a pure function of
    ``scenario.seed`` and does not depend on the controller's choices, so two
    runs with equal (scenario, controller state, seeds) are bitwise identical,
    and different controllers at the same seed face the same arrival/mode
    sample path.  That path (app modes and packet arrivals, under the
    schedule) is drawn once per scenario, before frame 0 of its first run,
    and every later run of the same scenario reuses it; the frame loop then
    only steps the modem and the queue and calls the controller once to
    ``act`` and once to ``observe``, with flat state indices.  The ``config``
    the controller was built for must match the scenario's app modes, queue
    levels and frame period, and each frame's reward (passed to ``observe``
    and summed in ``reward_total``) uses that config's ``reward_weights``.
    """
    config = scenario.node
    frames = scenario.duration_frames
    built = controller.config
    if (built.n_app_modes, built.queue_states, built.frame_period) != (
        config.n_app_modes, config.queue_states, config.frame_period
    ):
        raise ValueError(
            f"controller is built for {built.n_states} states ({built.n_app_modes} app "
            f"modes x {built.queue_states} queue levels) in {built.frame_period} s frames, "
            f"the scenario's node has {config.n_states} ({config.n_app_modes} x "
            f"{config.queue_states}) in {config.frame_period} s frames"
        )
    steps = scenario._steps
    app_path, arrivals = scenario._trace

    frame_period = config.frame_period
    nq = config.queue_states
    cap = config.capacity
    tx_per_frame = config.tx_per_frame
    c1, c2 = config.energy_c1, config.energy_c2
    w_current, w_tx, w_drop = built.reward_weights
    amps = [c * 1e-3 for c in config.currents_ma]
    frame_energy = [a * SUPPLY_VOLTS * frame_period for a in amps]
    # Attach length in frames for the connect_time in force at each step.
    step_frames = [at for at, _ in steps]
    attach_lengths = [floor_frames(c.connect_time, frame_period) for _, c in steps]
    act = controller.act
    observe = controller.observe

    queue_len = 0
    modem = M_OFF
    s = (app_path[0] * nq + queue_len) * N_MODEM_STATES + modem
    queue = deque()
    attach_frames_left = 0

    transaction_packets = 0
    transactions = 0
    transaction_energy = 0.0
    current_energy = 0.0
    transmitted = dropped = 0
    latency_frames = 0
    reward_total = 0.0

    for frame in range(frames):
        action = act(s, frame)

        # Modem first: the frame is spent in the state being entered.
        if action == ACTION_ON:
            if modem == M_OFF:
                modem = M_CONNECTING
                attach_frames_left = attach_lengths[bisect_right(step_frames, frame) - 1]
                transaction_packets = 0
            elif modem == M_CONNECTING:
                attach_frames_left -= 1
                if attach_frames_left == 0:
                    modem = M_CONNECTED
        elif modem != M_OFF:
            modem = M_OFF
            transactions += 1
            transaction_energy += energy_per_transaction(transaction_packets, c1, c2)

        # Application: packet emission uses this frame's mode.
        n_tx = 0
        n_drop = 0
        if modem == M_CONNECTED:
            if arrivals[frame]:
                queue.append(frame)
                queue_len += 1
            n_tx = min(queue_len, tx_per_frame)
            for _ in range(n_tx):
                latency_frames += frame - queue.popleft()
            queue_len -= n_tx
            transmitted += n_tx
            transaction_packets += n_tx
        elif arrivals[frame]:
            if queue_len < cap:
                queue.append(frame)
                queue_len += 1
            else:
                dropped += 1
                n_drop = 1

        current_energy += frame_energy[modem]
        frame_reward = w_current * amps[modem] + w_tx * n_tx + w_drop * n_drop
        reward_total += frame_reward

        s_next = (app_path[frame + 1] * nq + queue_len) * N_MODEM_STATES + modem
        observe(s, action, frame_reward, s_next, frame)
        s = s_next

    # A transaction still open at the end (modem not off) is counted too.
    if modem != M_OFF:
        transactions += 1
        transaction_energy += energy_per_transaction(transaction_packets, c1, c2)

    avg_latency = (
        latency_frames * frame_period / transmitted if transmitted else float("nan")
    )
    energy_per_packet = (
        transaction_energy / transmitted if transmitted else float("nan")
    )
    return SimMetrics(
        frames=frames,
        packets_generated=arrivals.count(1),
        packets_transmitted=transmitted,
        packets_dropped=dropped,
        packets_queued_at_end=queue_len,
        avg_latency=avg_latency,
        energy_per_packet=energy_per_packet,
        transaction_energy=transaction_energy,
        transactions=transactions,
        modem_current_energy=current_energy,
        reward_total=reward_total,
        solver_invocations=getattr(controller, "solve_count", 0),
        solver_kernel_ops=getattr(controller, "total_kernel_ops", 0),
    )


def make_controller(series, config, value, seed=None, alpha=DEFAULT_ALPHA,
                    epsilon=DEFAULT_EPSILON, solve_period=DEFAULT_SOLVE_PERIOD,
                    epsilon_decay=DEFAULT_EPSILON_DECAY):
    """Build the controller for one sweep point.

    ``series`` follows :data:`SERIES_LABELS`: ``"on-off"`` takes a queue
    threshold, ``"mdp"`` and ``"ql"`` take the reward-per-packet weight (the
    config's middle reward weight is replaced by ``value``).  The tuned node
    is the controller's ``config``, whose weights :func:`simulate` rewards
    by.  Both learning controllers discount by the config's ``discount``.
    """
    if series == "on-off":
        return ThresholdController(config, int(value))
    w1, _, w3 = config.reward_weights
    tuned = replace(config, reward_weights=(w1, float(value), w3))
    if series == "mdp":
        return StructuredController(tuned, solve_period=solve_period, alpha=alpha)
    if series == "ql":
        # Exploration stream is decoupled from the environment stream, which
        # uses the bare seed.
        return QLearningController(
            tuned,
            alpha=alpha,
            epsilon=epsilon,
            epsilon_decay=epsilon_decay,
            seed=((0 if seed is None else seed), 1),
        )
    raise ValueError(f"unknown series {series!r}; expected one of {SERIES_LABELS}")


#: The seed-averaged sweep metrics, each a :class:`SimMetrics` and a
#: :class:`SweepPoint` field, with its CSV column.
SWEEP_AVERAGES = (
    ("avg_latency", "avg_latency_s"),
    ("energy_per_packet", "energy_per_packet_j"),
    ("packets_generated", "packets_generated"),
    ("packets_transmitted", "packets_transmitted"),
    ("packets_dropped", "packets_dropped"),
    ("reward_total", "reward_total"),
)


@dataclass(frozen=True)
class SweepPoint:
    """Seed-averaged metrics for one (series, parameter value) pair."""

    series: str
    parameter: str
    value: float
    seeds: int
    avg_latency: float
    energy_per_packet: float
    packets_generated: float
    packets_transmitted: float
    packets_dropped: float
    reward_total: float


def pareto_sweep(scenario, series=SERIES_LABELS, r2_values=R2_SWEEP,
                 nq_values=NQ_SWEEP, seeds=DEFAULT_SEEDS, **controller_kwargs):
    """Latency/energy trade-off sweep for the requested series.

    The learning controllers sweep the reward-per-packet weight; the threshold
    rule sweeps its queue threshold.  Every point's controllers, one per seed,
    are built before the first run, so a bad grid value fails before any
    simulation.  Returns the :class:`SweepPoint` list, series by series.
    """
    if len(seeds) < 1:
        raise ValueError("a sweep needs at least one seed")
    scenarios = [replace(scenario, seed=seed) for seed in seeds]
    grid = [
        (label, value, [
            make_controller(label, scenario.node, value, seed=seed, **controller_kwargs)
            for seed in seeds
        ])
        for label in series
        for value in (nq_values if label == "on-off" else r2_values)
    ]
    points = []
    for label, value, controllers in grid:
        runs = [simulate(s, c) for s, c in zip(scenarios, controllers)]
        means = {
            name: float(np.mean([getattr(r, name) for r in runs]))
            for name, _ in SWEEP_AVERAGES
        }
        parameter = "queue_threshold" if label == "on-off" else "tx_reward"
        points.append(SweepPoint(label, parameter, float(value), len(seeds), **means))
    return points


SWEEP_CSV_COLUMNS = ("series", "parameter", "value", "seeds") + tuple(
    column for _, column in SWEEP_AVERAGES
)


def _fmt(x):
    return format(x, ".6g")


def write_sweep_csv(points, stream):
    """Write sweep points as CSV: fixed column order, 6 significant digits."""
    writer = csv.writer(stream)
    writer.writerow(SWEEP_CSV_COLUMNS)
    for p in points:
        averages = [_fmt(getattr(p, name)) for name, _ in SWEEP_AVERAGES]
        writer.writerow([p.series, p.parameter, _fmt(p.value), p.seeds, *averages])


# --- MCU power model ---------------------------------------------------------

#: Sleep floor fitted from bench measurements (a few microamps of always-on
#: draw at the low-voltage rail).
SLEEP_POWER = 8.2e-6


@dataclass(frozen=True)
class PowerModel:
    """Energy costs of running one controller on the target MCU.

    ``solver_cost`` is joules per policy update (0 for methods with no
    solver), ``frame_cost`` joules per per-frame control iteration, and
    ``sleep_power`` the always-on floor in watts.
    """

    solver_cost: float
    frame_cost: float
    sleep_power: float = SLEEP_POWER


#: Bench figures for a Cortex-M4F-class MCU: sparse solve, dense solve, and a
#: Q-learning step, plus the shared per-frame table-lookup cost.
MCU_SVI = PowerModel(solver_cost=0.187, frame_cost=117e-9)
MCU_DENSE_VI = PowerModel(solver_cost=1.67, frame_cost=117e-9)
MCU_QL = PowerModel(solver_cost=0.0, frame_cost=7.06e-6)

REFERENCE_POWER_MODELS = {
    "svi": MCU_SVI,
    "dense-vi": MCU_DENSE_VI,
    "ql": MCU_QL,
}


def average_power(model, update_period=DEFAULT_SOLVE_PERIOD,
                  frame_period=NodeConfig.frame_period):
    """Average controller power: solver amortized over its period, frame cost
    amortized over the frame, plus the sleep floor."""
    if frame_period <= 0:
        raise ValueError(f"frame_period must be > 0, got {frame_period}")
    solver_power = 0.0
    if model.solver_cost > 0:
        if update_period is None or update_period <= 0:
            raise ValueError(
                "update_period must be > 0 for a model with solver cost"
            )
        solver_power = model.solver_cost / update_period
    return solver_power + model.frame_cost / frame_period + model.sleep_power


def crossover_period(a, b, frame_period=NodeConfig.frame_period):
    """Update period at which models ``a`` and ``b`` draw equal average power.

    Solves ``average_power(a, T) == average_power(b, T)`` for ``T``.  Returns
    ``None`` when there is no positive crossover (equal solver costs, or the
    cheaper-solver side is also cheaper per frame).
    """
    numerator = a.solver_cost - b.solver_cost
    denominator = (b.frame_cost - a.frame_cost) / frame_period + (
        b.sleep_power - a.sleep_power
    )
    if numerator == 0.0 or denominator == 0.0:
        return None
    period = numerator / denominator
    return period if period > 0 else None
