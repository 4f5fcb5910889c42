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
draws its whole app-mode and arrival path once, on its first run, and keeps
it as the list of its events (the frames with an arrival or an app-mode
change); every run on it (all of a sweep's points at one seed) reads that
one list.  The frame loop keeps one pointer to the next event, and takes
each frame's reward from a table built before frame 0 with the frame-reward
expression.  It calls the controller once a frame or holds the frame: over
the still frames before the next event, in which the controller keeps the
modem where it is, one ``hold`` call stands for every frame it holds, and
the loop jumps over them.

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
    check_frame_period,
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
    valid node; ``_segments`` keeps that walk clipped to the run, with no
    empty segment, as ``((first frame, end frame, config), ...)``.
    ``_trace`` is the scenario's exogenous record (:func:`_exogenous_trace`),
    the frame, arrival and app mode of each of its events, drawn on first
    use and then shared by every run of the scenario; a pickled scenario
    leaves it out and draws it again.
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
        ends = [min(at, self.duration_frames) for at, _ in steps[1:]] + [self.duration_frames]
        segments = tuple((at, end, c) for (at, c), end in zip(steps, ends) if at < end)
        object.__setattr__(self, "_segments", segments)

    @cached_property
    def _trace(self):
        return _exogenous_trace(self.seed, self._segments)

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


def _exogenous_trace(seed, segments):
    """The controller-independent part of a scenario's runs, drawn at once.

    Returns the run's events as ``(event_frames, arrivals, modes)``.  An
    event is a frame in which the application emits a packet or the app
    mode changes; every other frame is still.  For the ``i``-th event,
    ``event_frames[i]`` is its frame, ``arrivals[i]`` is 1 when a packet
    arrives in it, and ``modes[i]`` is the app mode after it (the run starts
    in mode 0).  A sentinel at the run's end, frame ``frames``, with no
    arrival, ends the three.  The frames are ``intp`` and the modes one byte
    each up to 256 modes, so the record takes about 10 bytes an event: 1.5
    bytes a frame in the default scenario, where about one frame in seven
    is an event, and 10 in the worst case, where every frame is one.
    ``segments`` is a scenario's ``_segments``; only their ``app_transition``
    and ``app_packet_prob`` matter here.  The path is walked one
    ``bisect_right`` a frame, of the draw into the mode's cumulative row,
    whose last entry is +inf so that a draw beyond the row's rounded total
    lands in the last mode: the comparisons of ``np.searchsorted``.
    """
    frames = segments[-1][1]
    n_modes = segments[0][2].n_app_modes
    dtype = np.uint8 if n_modes <= 256 else np.intp
    rng = np.random.default_rng(seed)

    u_mode = rng.random(frames)
    draws = memoryview(u_mode)
    path = np.zeros(frames + 1, dtype=dtype)
    app_path = memoryview(path)
    app = 0
    for start, end, config in segments:
        cum_sigma = np.cumsum(np.asarray(config.app_transition, dtype=float), axis=1)
        cum_sigma[:, -1] = np.inf
        rows = cum_sigma.tolist()
        for frame, draw in zip(range(start + 1, end + 1), draws[start:end]):
            app = bisect_right(rows[app], draw)
            app_path[frame] = app
    del draws, u_mode  # keeps one float array alive at a time, not two

    u_arrival = rng.random(frames)
    arrivals = np.zeros(frames + 1, dtype=bool)  # entry frames is the sentinel's
    for start, end, config in segments:
        packet_prob = np.asarray(config.app_packet_prob, dtype=float)
        arrivals[start:end] = u_arrival[start:end] < packet_prob[path[start:end]]
    del u_arrival  # freed, as u_mode is, before the events are found
    at = np.append(np.flatnonzero((path[1:] != path[:-1]) | arrivals[:-1]), frames)
    # The sentinel's mode, clipped to the last frame's, is never read.
    return memoryview(at), arrivals[at].tobytes(), memoryview(path.take(at + 1, mode="clip"))


def simulate(scenario, controller):
    """Run one controller through one scenario; return :class:`SimMetrics`.

    Deterministic: the environment randomness is a pure function of
    ``scenario.seed`` and does not depend on the controller's choices, so two
    runs with equal (scenario, controller state, seeds) are bitwise identical,
    and different controllers at the same seed face the same arrival/mode
    sample path.  That path (app modes and packet arrivals, under the
    schedule) is drawn once per scenario, before frame 0 of its first run,
    and every later run of the same scenario reuses its events; the frame
    loop then walks the frames with one pointer to the next event, only
    steps the modem and the queue, and calls the controller's ``act`` and
    ``observe`` once a frame or holds the frame, with flat state indices
    (``act``, ``observe`` and ``hold`` are looked up on the controller when
    the run starts); ``act`` gets the state alone.

    A still frame has no arrival and no app-mode change.  After a frame that
    leaves the modem off, attaching, or connected with an empty queue, a
    still frame keeps the state as it is if the controller keeps the modem
    where it is (off, or on); an attach must not complete in it.  Over such
    a stretch of ``k`` frames the loop asks ``hold(s, action, reward, k)``
    once for the number ``j`` in ``[0, k]`` it holds, which must leave the
    controller as ``j`` frames of ``act(s) -> action`` and ``observe(s,
    action, reward, s)`` would; it adds the frame's energy and reward ``j``
    times, in order, and jumps ``j`` frames ahead.  The still frames ahead
    are those before the next event, ``next_event - frame`` of them, with
    no cap: a run with no event is one ``act`` and one ``hold``.

    A controller keeps its state across runs (Q-table and
    epsilon, the planner's estimates and re-solve clock), so a second run
    goes on where the first stopped; ``solver_invocations`` and
    ``solver_kernel_ops`` count only this run's solves.  The ``config``
    the controller was built for must match the scenario's app modes, queue
    levels and frame period, and each frame's reward (passed to ``observe``
    and summed in ``reward_total``) uses that config's ``reward_weights``.
    The loop reads the reward from a table built before frame 0 with the
    frame-reward expression, ``w_current * amps[modem] + w_tx * n_tx +
    w_drop * n_drop``, so its bits are those of evaluating it every frame.
    An attach takes the frames of the ``connect_time`` in force, by the
    scenario's ``_segments``, in the frame it starts.
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
    segments = scenario._segments
    event_frames, arrivals, modes = scenario._trace

    frame_period = config.frame_period
    nq = config.queue_states
    cap = config.capacity
    tx_per_frame = config.tx_per_frame
    c1, c2 = config.energy_c1, config.energy_c2
    w_current, w_tx, w_drop = built.reward_weights
    amps = [c * 1e-3 for c in config.currents_ma]
    frame_energy = [a * SUPPLY_VOLTS * frame_period for a in amps]
    # Attach length in frames for the connect_time in force in each segment.
    step_frames = [start for start, _, _ in segments]
    attach_lengths = [floor_frames(c.connect_time, frame_period) for _, _, c in segments]

    def reward(modem, n_tx, n_drop):
        return w_current * amps[modem] + w_tx * n_tx + w_drop * n_drop

    # The reward of every frame outcome, tabulated before frame 0: by modem
    # state with nothing sent or dropped, by modem state with one arrival
    # dropped, and connected by the number of packets sent.
    idle = [reward(modem, 0, 0) for modem in range(N_MODEM_STATES)]
    dropping = [reward(modem, 0, 1) for modem in range(N_MODEM_STATES)]
    sent = [reward(M_CONNECTED, n_tx, 0) for n_tx in range(tx_per_frame + 1)]
    # Looked up through the controller when the run starts, so a rebinding of
    # the class's methods made before the run sees every call.
    act = controller.act
    observe = controller.observe
    hold = controller.hold
    # By modem state, whether a still frame's energy and reward are both
    # zero.  Neither sum below can be -0.0, since each starts at +0.0, so
    # adding a zero leaves it as it is.
    zero = [e == 0.0 and r == 0.0 for e, r in zip(frame_energy, idle)]
    # The planner's totals run across runs; this run reports its own share.
    solves_before = getattr(controller, "solve_count", 0)
    kernel_ops_before = getattr(controller, "total_kernel_ops", 0)
    on, off, connecting, connected = ACTION_ON, M_OFF, M_CONNECTING, M_CONNECTED
    stride = N_MODEM_STATES

    app = 0
    queue_len = 0
    modem = off
    s = (app * nq + queue_len) * stride + modem
    queue = deque()
    attach_frames_left = 0

    transaction_packets = 0
    transactions = 0
    transaction_energy = 0.0
    current_energy = 0.0
    transmitted = dropped = 0
    latency_frames = 0
    reward_total = 0.0

    # The next event's frame, arrival and app mode after it.
    events = zip(event_frames, arrivals, modes)
    event, event_arrived, event_app = next(events)
    frame = 0
    while frame < frames:
        action = act(s)

        # Modem first: the frame is spent in the state being entered.
        if action == on:
            if modem == off:
                modem = connecting
                attach_frames_left = attach_lengths[bisect_right(step_frames, frame) - 1]
                transaction_packets = 0
            elif modem == connecting:
                attach_frames_left -= 1
                if attach_frames_left == 0:
                    modem = connected
        elif modem != off:
            modem = off
            transactions += 1
            transaction_energy += energy_per_transaction(transaction_packets, c1, c2)

        # Application: packet emission uses this frame's mode.
        if frame == event:
            arrived, app = event_arrived, event_app
            event, event_arrived, event_app = next(events)
        else:
            arrived = 0
        if modem == connected:
            if arrived:
                queue.append(frame)
                queue_len += 1
            if queue_len:
                n_tx = min(queue_len, tx_per_frame)
                for _ in range(n_tx):
                    latency_frames += frame - queue.popleft()
                queue_len -= n_tx
                transmitted += n_tx
                transaction_packets += n_tx
                frame_reward = sent[n_tx]
            else:
                frame_reward = sent[0]
        elif arrived:
            if queue_len < cap:
                queue.append(frame)
                queue_len += 1
                frame_reward = idle[modem]
            else:
                dropped += 1
                frame_reward = dropping[modem]
        else:
            frame_reward = idle[modem]

        current_energy += frame_energy[modem]
        reward_total += frame_reward

        s_next = (app * nq + queue_len) * stride + modem
        observe(s, action, frame_reward, s_next)
        s = s_next

        # Still frames ahead keep this state if the controller repeats this
        # frame's action, which kept the modem off or on: short of an
        # attach's last frame, and unless a connected queue drains.  Their
        # reward is idle[modem] (sent[0] is idle[connected]).
        frame += 1
        ahead = event - frame
        if ahead and (modem != connected or not queue_len):
            if modem == connecting and ahead >= attach_frames_left:
                ahead = attach_frames_left - 1
            if ahead:
                held = hold(s, action, idle[modem], ahead)
                if held:
                    if not zero[modem]:
                        energy, frame_reward = frame_energy[modem], idle[modem]
                        for _ in range(held):
                            current_energy += energy
                            reward_total += frame_reward
                    if modem == connecting:
                        attach_frames_left -= held
                    frame += held

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
        solver_invocations=getattr(controller, "solve_count", 0) - solves_before,
        solver_kernel_ops=getattr(controller, "total_kernel_ops", 0) - kernel_ops_before,
    )


def make_controller(series, config, value, seed=None, alpha=DEFAULT_ALPHA,
                    epsilon=DEFAULT_EPSILON, solve_period=DEFAULT_SOLVE_PERIOD,
                    epsilon_decay=DEFAULT_EPSILON_DECAY):
    """Build the controller for one sweep point.

    ``series`` follows :data:`SERIES_LABELS`: ``"on-off"`` takes a queue
    threshold (a whole number; 3.0 is 3, 2.5 is refused), ``"mdp"`` and
    ``"ql"`` take the reward-per-packet weight (the config's middle reward
    weight is replaced by ``value``).  The tuned node is the controller's
    ``config``, whose weights :func:`simulate` rewards by.  Both learning
    controllers discount by the config's ``discount``.
    """
    if series == "on-off":
        return ThresholdController(config, value)
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


def check_run_options(config, **options):
    """Refuse a run option that a learning series would refuse, whichever
    series will run: each option goes through the constructor that reads it,
    ``"mdp"``'s first, so a value no series would take is not dropped
    unchecked.  ``options`` are :func:`make_controller`'s keywords."""
    for series in ("mdp", "ql"):
        make_controller(series, config, config.reward_weights[1], **options)


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
    are built and the run options checked (:func:`check_run_options`) before
    the first run, so a bad grid value or option fails before any
    simulation.  The runs go seed by seed, every point at one seed before
    the next seed, and drop that seed's scenario and record after them;
    each point's means take its runs in seed order.  Returns the
    :class:`SweepPoint` list, series by series.
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
    check_run_options(scenario.node, **controller_kwargs)
    # Seed by seed: the planners at one seed observe one app-mode path, so
    # they share its estimate folds while the fold cache still holds them.
    runs = []
    for i in range(len(seeds)):
        seeded, scenarios[i] = scenarios[i], None
        runs.append([simulate(seeded, controllers[i]) for _, _, controllers in grid])
    points = []
    for (label, value, _), point_runs in zip(grid, zip(*runs)):
        means = {
            name: float(np.mean([getattr(r, name) for r in point_runs]))
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
    solver) and ``frame_cost`` joules per per-frame control iteration.  Every
    model shares the always-on floor, :data:`SLEEP_POWER`.
    """

    solver_cost: float
    frame_cost: float


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
    amortized over the frame, plus the sleep floor.  Both periods must be
    finite and > 0; a frame-only model ignores ``update_period``."""
    check_frame_period(frame_period)
    solver_power = 0.0
    if model.solver_cost > 0:
        if update_period is None or not 0.0 < update_period < math.inf:
            raise ValueError(
                "update_period must be finite and > 0 for a model with solver cost, "
                f"got {update_period}"
            )
        solver_power = model.solver_cost / update_period
    return solver_power + model.frame_cost / frame_period + SLEEP_POWER


def crossover_period(a, b, frame_period=NodeConfig.frame_period):
    """Update period at which models ``a`` and ``b`` draw equal average power.

    Solves ``average_power(a, T) == average_power(b, T)`` for ``T``.  Returns
    ``None`` when there is no positive crossover (equal solver costs, or the
    cheaper-solver side is also cheaper per frame).  ``frame_period`` must be
    finite and > 0, as for :func:`average_power`.
    """
    check_frame_period(frame_period)
    numerator = a.solver_cost - b.solver_cost
    denominator = (b.frame_cost - a.frame_cost) / frame_period
    if numerator == 0.0 or denominator == 0.0:
        return None
    period = numerator / denominator
    return period if period > 0 else None
