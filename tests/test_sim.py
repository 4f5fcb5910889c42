"""Frame-stepped simulator, sweep harness, and MCU power model."""

import csv
import gc
import io
import math
import pickle
import tracemalloc
import weakref
from bisect import bisect_right
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from compactmdp import (
    MCU_DENSE_VI,
    MCU_QL,
    MCU_SVI,
    NodeConfig,
    NodeState,
    PowerModel,
    QLearningController,
    Scenario,
    ScheduleChange,
    StructuredController,
    ThresholdController,
    average_power,
    crossover_period,
    load_scenario,
    make_controller,
    pareto_sweep,
    simulate,
    write_sweep_csv,
)
from compactmdp import controllers, sim
from compactmdp.controllers import DEFAULT_EPSILON_DECAY
from compactmdp.node import (
    ACTION_ON,
    M_CONNECTED,
    M_CONNECTING,
    M_OFF,
    N_MODEM_STATES,
    SUPPLY_VOLTS,
    energy_per_transaction,
    floor_frames,
)
from compactmdp.sim import (
    NQ_SWEEP,
    R2_SWEEP,
    SERIES_LABELS,
    SWEEP_AVERAGES,
    SWEEP_CSV_COLUMNS,
    SimMetrics,
)
from support import AlwaysOnController, NeverHolds, controller_state, sticky_node

QUIET = NodeConfig(app_packet_prob=(0.0, 0.0))


def run(controller, frames=1000, seed=0, node=None, schedule=()):
    scenario = Scenario(
        node=node or NodeConfig(), duration_frames=frames, seed=seed,
        schedule=schedule,
    )
    return simulate(scenario, controller)


class TestSimulateBasics:
    def test_no_traffic_no_activity(self):
        m = run(ThresholdController(NodeConfig(), 1), node=QUIET)
        assert m.packets_generated == 0
        assert m.packets_transmitted == 0
        assert m.packets_dropped == 0
        assert m.packets_queued_at_end == 0
        assert m.transactions == 0
        assert m.transaction_energy == 0.0
        assert m.modem_current_energy == 0.0
        assert m.reward_total == 0.0
        assert math.isnan(m.avg_latency)
        assert math.isnan(m.energy_per_packet)

    def test_idle_connection_costs_the_intercept(self):
        # One transaction with zero packets: the affine model's intercept.
        m = run(AlwaysOnController(QUIET), frames=100, node=QUIET)
        assert m.transactions == 1
        assert abs(m.transaction_energy - 5.07) < 1e-12

    def test_idle_connection_current_accounting(self):
        # 20 frames attaching at 120 mA, 80 connected at 162.5 mA, 4 V rail.
        m = run(AlwaysOnController(QUIET), frames=100, node=QUIET)
        assert abs(m.reward_total - (-154.0)) < 1e-9
        assert abs(m.modem_current_energy - 6.16) < 1e-9

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            simulate(Scenario(duration_frames=0), ThresholdController(NodeConfig(), 1))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            Scenario(seed=-1)

    def test_always_on_latency_is_bounded_by_the_attach(self):
        m = run(AlwaysOnController(NodeConfig()), frames=20000)
        assert m.packets_transmitted > 0
        assert m.avg_latency <= 2.0 + 0.1

    def test_threshold_extremes_trade_latency_for_energy(self):
        for seed in (0, 1):
            eager = run(ThresholdController(NodeConfig(), 1), frames=50000, seed=seed)
            lazy = run(ThresholdController(NodeConfig(), 10), frames=50000, seed=seed)
            assert eager.avg_latency < lazy.avg_latency
            assert eager.energy_per_packet > lazy.energy_per_packet


class TestConservationAndDeterminism:
    def controllers(self):
        yield ThresholdController(NodeConfig(), 1)
        yield ThresholdController(NodeConfig(), 5)
        yield AlwaysOnController(NodeConfig())
        yield StructuredController(NodeConfig(), solve_period=100.0)
        yield QLearningController(NodeConfig(), seed=9)

    def test_packet_conservation_exact(self):
        for seed, controller in enumerate(self.controllers()):
            m = run(controller, frames=5000, seed=seed)
            assert (
                m.packets_generated
                == m.packets_transmitted + m.packets_dropped + m.packets_queued_at_end
            )

    def test_transaction_energy_identity(self):
        for controller in self.controllers():
            m = run(controller, frames=5000, seed=2)
            expected = 5.07 * m.transactions + 1.55 * m.packets_transmitted
            assert m.transaction_energy == pytest.approx(expected, rel=1e-9)

    def test_bitwise_determinism(self):
        def make():
            return QLearningController(NodeConfig(), seed=4, epsilon_decay=0.999)

        first = run(make(), frames=8000, seed=7)
        second = run(make(), frames=8000, seed=7)
        assert first == second

    def test_arrivals_are_controller_independent(self):
        counts = {
            run(controller, frames=5000, seed=3).packets_generated
            for controller in self.controllers()
        }
        assert len(counts) == 1

    def test_solver_counters_surface_in_metrics(self):
        controller = StructuredController(NodeConfig(), solve_period=100.0)
        m = run(controller, frames=3000, seed=0)
        assert m.solver_invocations == 3
        assert m.solver_kernel_ops == controller.total_kernel_ops
        assert m.solver_kernel_ops > 0
        assert run(ThresholdController(NodeConfig(), 1), frames=100).solver_invocations == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: StructuredController(NodeConfig()),
            lambda: QLearningController(NodeConfig()),
            lambda: ThresholdController(NodeConfig(), 1),
        ],
        ids=["mdp", "ql", "on-off"],
    )
    @pytest.mark.parametrize("queue_states", [5, 20])
    def test_controller_for_another_state_count_is_refused(self, make, queue_states):
        node = NodeConfig(queue_states=queue_states)
        with pytest.raises(ValueError, match=f"built for 66 states.* has {node.n_states}"):
            run(make(), frames=1000, node=node)

    def test_controller_for_another_layout_of_the_same_size_is_refused(self):
        # 1 mode x 22 levels and 2 modes x 11 levels are both 66 states; a
        # 2 x 11 threshold rule would read the queue level off the wrong cells.
        node = NodeConfig(app_packet_prob=(0.3,), app_transition=((1.0,),), queue_states=22)
        with pytest.raises(ValueError, match=r"\(2 app modes x 11 queue levels\).* \(1 x 22\)"):
            run(ThresholdController(NodeConfig(), 10), frames=20000, node=node)

    def test_controller_for_another_frame_period_is_refused(self):
        # Built for 0.1 s frames, the planner would count the 10-frame (2 s)
        # attach of 0.2 s frames as 1 s and re-solve every 1 200 s.
        controller = StructuredController(NodeConfig(), solve_period=600.0)
        with pytest.raises(ValueError, match=r"levels\) in 0\.1 s frames, .* in 0\.2 s frames$"):
            run(controller, frames=20000, node=NodeConfig(frame_period=0.2))
        assert controller.solve_count == 0

    def test_controller_without_config_is_refused_before_it_acts(self):
        class Undeclared:
            def act(self, state):
                raise AssertionError("the run started")

            def observe(self, s, action, reward, s_next):
                return None

        with pytest.raises(AttributeError, match="config"):
            run(Undeclared(), frames=100)


class TestReusedController:
    """A controller keeps its state across runs; each run reports its own."""

    def test_a_reused_planner_keeps_its_re_solve_clock(self, monkeypatch):
        """Hourly at 0.1 s frames, a planner run twice for 75 000 frames
        re-solves on its acts 0, 36 000 and 72 000, then on 108 000 and
        144 000 (frames 33 000 and 69 000 of the second run).  A held frame
        counts as an act."""
        scenario = Scenario(duration_frames=75000)
        controller = StructuredController(scenario.node)
        acts = {"count": 0}
        solved_on = []
        kernel_ops = []
        act = StructuredController.act
        hold = StructuredController.hold
        resolve_policy = StructuredController.resolve_policy
        svi_solve = controllers.svi_solve

        def counted_act(self, *args):
            acts["count"] += 1
            return act(self, *args)

        def counted_hold(self, *args):
            held = hold(self, *args)
            acts["count"] += held
            return held

        def counted_resolve(self, *args):
            solved_on.append(acts["count"] - 1)
            return resolve_policy(self, *args)

        def kept_solve(spec):
            result = svi_solve(spec)
            kernel_ops.append(result.kernel_op_count)
            return result

        monkeypatch.setattr(StructuredController, "act", counted_act)
        monkeypatch.setattr(StructuredController, "hold", counted_hold)
        monkeypatch.setattr(StructuredController, "resolve_policy", counted_resolve)
        monkeypatch.setattr(controllers, "svi_solve", kept_solve)
        first = simulate(scenario, controller)
        assert solved_on == [0, 36000, 72000]
        second = simulate(scenario, controller)
        assert solved_on == [0, 36000, 72000, 108000, 144000]
        assert (first.solver_invocations, second.solver_invocations) == (3, 2)
        assert first.solver_kernel_ops == sum(kernel_ops[:3])
        assert second.solver_kernel_ops == sum(kernel_ops[3:]) > 0
        assert controller.solve_count == 5
        assert controller.total_kernel_ops == sum(kernel_ops)


class RecordingController(NeverHolds, ThresholdController):
    """The threshold rule at 3 packets, keeping every reward it observes."""

    def __init__(self, config):
        super().__init__(config, 3)
        self.rewards = []

    def observe(self, s, action, reward, s_next):
        self.rewards.append(reward)


class TestRewardOwner:
    """The scenario owns the physics; the controller owns the objective."""

    def test_frames_are_rewarded_by_the_controllers_weights(self):
        weights = (-1.0, 2.0, -50.0)
        units = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        runs = {}
        for w in (weights, *units):
            controller = RecordingController(NodeConfig(reward_weights=w))
            runs[w] = run(controller, frames=20000), controller.rewards
        # Unit weights read off each frame's current (A), packets sent and dropped.
        amps, sent, dropped = (runs[unit][1] for unit in units)
        assert max(amps) > 0.0 and max(sent) > 0.0 and max(dropped) > 0.0
        expected = [
            weights[0] * a + weights[1] * n_tx + weights[2] * n_drop
            for a, n_tx, n_drop in zip(amps, sent, dropped)
        ]
        metrics, rewards = runs[weights]
        assert rewards == expected
        total = 0.0
        for reward in expected:
            total += reward
        assert metrics.reward_total == total
        # The rule run with holds sums the same rewards.
        held = run(ThresholdController(NodeConfig(reward_weights=weights), 3), frames=20000)
        assert repr(held) == repr(metrics)
        # Everything but the reward follows the scenario alone.
        base = run(ThresholdController(NodeConfig(), 3), frames=20000)
        assert replace(metrics, reward_total=base.reward_total) == base


def reference_simulate(scenario, controller):
    """The reference frame loop: it draws the app-mode path and the arrivals
    frame by frame (:func:`reference_trace`), indexes them twice a frame and
    evaluates the reward expression every frame.  ``simulate`` must give its
    runs bit for bit."""
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
    app_path, arrivals = reference_trace(scenario)

    frame_period = config.frame_period
    nq = config.queue_states
    cap = config.capacity
    tx_per_frame = config.tx_per_frame
    c1, c2 = config.energy_c1, config.energy_c2
    w_current, w_tx, w_drop = built.reward_weights
    amps = [c * 1e-3 for c in config.currents_ma]
    frame_energy = [a * SUPPLY_VOLTS * frame_period for a in amps]
    # Attach length in frames for the connect_time in force at each step.
    step_frames, connect_times = reference_steps(scenario, "connect_time")
    attach_lengths = [floor_frames(t, frame_period) for t in connect_times]
    act = controller.act
    observe = controller.observe
    solves_before = getattr(controller, "solve_count", 0)
    kernel_ops_before = getattr(controller, "total_kernel_ops", 0)

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
        action = act(s)

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
        observe(s, action, frame_reward, s_next)
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
        packets_generated=sum(arrivals),
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


class RecordingProxy(NeverHolds):
    """Passes every call to ``inner`` and keeps each ``observe`` argument
    tuple; it holds no frame, so it sees every frame's."""

    def __init__(self, inner):
        self.inner = inner
        self.config = inner.config
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def act(self, s):
        return self.inner.act(s)

    def observe(self, s, action, reward, s_next):
        self.seen.append((s, action, reward, s_next))
        self.inner.observe(s, action, reward, s_next)


#: Nodes whose runs reach every frame outcome the reward table holds: a
#: 2-packet queue (so arrivals are dropped), one and three transmissions per
#: frame, and a zero packet reward with the 0 mA off current (each frame's
#: reward a signed zero sum).
REFERENCE_NODES = {
    "tx1": NodeConfig(queue_states=3, tx_per_frame=1, app_packet_prob=(0.1, 0.7)),
    "tx3": NodeConfig(queue_states=3, tx_per_frame=3, app_packet_prob=(0.1, 0.9)),
    "zero": NodeConfig(queue_states=3, reward_weights=(-10.0, 0.0, -100.0)),
}


def reference_scenario(config):
    """2 400 s on ``config``, with mid-run changes of the attach delay and
    the packet probabilities."""
    schedule = (
        ScheduleChange(400.0, "connect_time", 3.5),
        ScheduleChange(900.0, "app_packet_prob", (0.3, 0.95)),
        ScheduleChange(1500.0, "connect_time", 0.5),
    )
    return Scenario(node=config, duration_frames=24000, seed=11, schedule=schedule)


def reference_controllers(config):
    """One controller of each series, all by ``config``'s reward weights."""
    packet_reward = config.reward_weights[1]
    return {
        "on-off": make_controller("on-off", config, 2),
        "mdp": make_controller("mdp", config, packet_reward, solve_period=120.0),
        "ql": make_controller("ql", config, packet_reward, seed=3, epsilon=0.3,
                              epsilon_decay=1.0),
    }


def outcome_rewards(config):
    """The reward of every reachable (modem, sent, dropped) frame outcome."""
    w_current, w_tx, w_drop = config.reward_weights
    amps = [c * 1e-3 for c in config.currents_ma]
    outcomes = [(modem, 0, 0) for modem in range(N_MODEM_STATES)]
    outcomes += [(M_OFF, 0, 1), (M_CONNECTING, 0, 1)]
    outcomes += [(M_CONNECTED, n_tx, 0) for n_tx in range(1, config.tx_per_frame + 1)]
    return {
        outcome: w_current * amps[outcome[0]] + w_tx * outcome[1] + w_drop * outcome[2]
        for outcome in outcomes
    }


class TestAgainstTheReferenceLoop:
    """``simulate`` gives bit for bit the reference loop's runs: the same
    metrics and the same ``observe`` calls, down to a reward's sign bit.  A
    third controller, run with holds, ends with the same metrics and state."""

    def check(self, scenario, reference, controller, held):
        reference, changed = RecordingProxy(reference), RecordingProxy(controller)
        expected = reference_simulate(scenario, reference)
        metrics = simulate(scenario, changed)
        assert metrics == expected
        assert repr(metrics) == repr(expected)
        assert repr(changed.seen) == repr(reference.seen)
        assert repr(simulate(scenario, held)) == repr(expected)
        assert controller_state(held) == controller_state(reference.inner)
        return changed.seen

    @pytest.mark.parametrize("name", sorted(REFERENCE_NODES))
    def test_every_series_matches_the_reference_loop(self, name):
        config = REFERENCE_NODES[name]
        scenario = reference_scenario(config)
        want, got = reference_controllers(config), reference_controllers(config)
        held = reference_controllers(config)
        rewards = set()
        for series in SERIES_LABELS:
            seen = self.check(scenario, want[series], got[series], held[series])
            rewards.update(repr(frame[2]) for frame in seen)
        assert rewards == {repr(r) for r in outcome_rewards(config).values()}
        assert got["mdp"].solve_count == 2400 // 120
        assert np.array_equal(np.array(got["ql"].q).view(np.int64),
                              np.array(want["ql"].q).view(np.int64))

    def test_a_run_that_ends_with_the_modem_on(self):
        config = REFERENCE_NODES["tx1"]
        scenario = reference_scenario(config)
        always_on = [make_controller("mdp", config, 1000.0) for _ in range(3)]
        seen = self.check(scenario, *always_on)
        assert seen[-1][3] % N_MODEM_STATES != M_OFF

    def test_the_zero_packet_reward_sums_signed_zeros(self):
        config = REFERENCE_NODES["zero"]
        w_current, w_tx, w_drop = config.reward_weights
        parts = (w_current * config.currents_ma[M_OFF], w_tx * 0, w_drop * 0)
        assert [math.copysign(1.0, p) for p in parts] == [-1.0, 1.0, -1.0]
        assert math.copysign(1.0, outcome_rewards(config)[(M_OFF, 0, 0)]) == 1.0

class TestSchedule:
    def test_parameter_step_changes_the_run(self):
        busier = ScheduleChange(50.0, "app_packet_prob", (0.5, 1.0))
        base = run(ThresholdController(NodeConfig(), 3), frames=2000)
        stepped = run(ThresholdController(NodeConfig(), 3), frames=2000, schedule=(busier,))
        assert stepped.packets_generated > base.packets_generated

    def test_step_beyond_the_run_is_inert(self):
        late = ScheduleChange(1e9, "app_packet_prob", (0.5, 1.0))
        base = run(ThresholdController(NodeConfig(), 3), frames=2000)
        same = run(ThresholdController(NodeConfig(), 3), frames=2000, schedule=(late,))
        assert base == same

    def test_connect_time_step_slows_later_attaches(self):
        slow = ScheduleChange(100.0, "connect_time", 4.0)
        base = run(ThresholdController(NodeConfig(), 1), frames=20000)
        stepped = run(ThresholdController(NodeConfig(), 1), frames=20000, schedule=(slow,))
        assert stepped.avg_latency > base.avg_latency

    @pytest.mark.parametrize(
        "change, problem",
        [
            (ScheduleChange(10.0, "app_packet_prob", (0.5,)), "does not match 1 modes"),
            (
                ScheduleChange(10.0, "app_transition", ((0.5, 0.9), (0.5, 0.5))),
                "do not sum to 1",
            ),
            (ScheduleChange(20.0, "connect_time", 0.01), "shorter than one frame"),
            (
                ScheduleChange(10.0, "app_transition", ((0.5, 0.5), (1.0,))),
                "unequal lengths",
            ),
        ],
    )
    def test_invalid_change_fails_before_frame_zero(self, change, problem):
        class Untouched:
            def act(self, state):
                raise AssertionError("the run started")

        with pytest.raises(ValueError, match=f"schedule change at .*{problem}"):
            run(Untouched(), frames=1000, schedule=(change,))

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            ScheduleChange(10.0, "frame_period", 0.2)

    @pytest.mark.parametrize("time", [-5.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_time(self, time):
        with pytest.raises(ValueError, match="finite and >= 0"):
            ScheduleChange(time, "connect_time", 3.0)


class TestMakeController:
    def test_threshold_series(self):
        controller = make_controller("on-off", NodeConfig(), 4)
        assert isinstance(controller, ThresholdController)
        assert controller.queue_threshold == 4
        assert controller.config == NodeConfig()

    def test_learning_series_replace_the_packet_reward(self):
        for series, cls in (("mdp", StructuredController), ("ql", QLearningController)):
            controller = make_controller(series, NodeConfig(), 7.0, seed=0)
            assert isinstance(controller, cls)
            assert controller.config.reward_weights == (-10.0, 7.0, -100.0)

    def test_ql_controllers_with_equal_seed_explore_identically(self):
        state = NodeState(0, 0, 0).flat(11)
        a = make_controller("ql", NodeConfig(), 5.0, seed=0)
        b = make_controller("ql", NodeConfig(), 5.0, seed=0)
        assert [a.act(state) for _ in range(20)] == [b.act(state) for _ in range(20)]

    def test_threshold_policy_is_one_action_per_flat_state(self):
        config = NodeConfig(queue_states=4)
        controller = ThresholdController(config, 2)
        assert len(controller.policy) == config.n_states
        for s, action in enumerate(controller.policy):
            state = NodeState.from_flat(s, 4)
            on = state.queue >= 2 or (state.modem != 0 and state.queue > 0)
            assert action == int(on)
            assert controller.act(s) == action

    def test_threshold_above_capacity_is_refused(self):
        controller = make_controller("on-off", NodeConfig(), 10)
        assert controller.queue_threshold == NodeConfig().capacity
        with pytest.raises(ValueError, match="above the queue capacity 10"):
            make_controller("on-off", NodeConfig(), 11)

    def test_unknown_series(self):
        with pytest.raises(ValueError):
            make_controller("sarsa", NodeConfig(), 1.0)


@pytest.fixture(scope="module")
def tiny_points():
    scenario = Scenario(duration_frames=1500)
    return pareto_sweep(scenario, seeds=(0, 1), solve_period=3600.0)


class TestSweep:
    def test_full_grid_shape(self, tiny_points):
        assert len(tiny_points) == len(R2_SWEEP) * 2 + len(NQ_SWEEP)
        assert [p.series for p in tiny_points[:10]] == ["on-off"] * 10
        labels = {p.series for p in tiny_points}
        assert labels == set(SERIES_LABELS)

    def test_parameter_names_follow_series(self, tiny_points):
        for p in tiny_points:
            expected = "queue_threshold" if p.series == "on-off" else "tx_reward"
            assert p.parameter == expected
            assert p.seeds == 2

    def test_rejects_an_empty_seed_list(self):
        with pytest.raises(ValueError, match="at least one seed"):
            pareto_sweep(
                Scenario(duration_frames=500), series=("on-off",), nq_values=[2], seeds=()
            )

    def test_single_value_sweep(self):
        points = pareto_sweep(
            Scenario(duration_frames=500), series=("on-off",), nq_values=[2], seeds=(0,)
        )
        assert len(points) == 1
        assert points[0].value == 2.0

    def test_bad_grid_value_fails_before_any_run(self, monkeypatch):
        def unreachable(scenario, controller):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(sim, "simulate", unreachable)
        with pytest.raises(ValueError, match="queue threshold 20 is above the queue capacity 10"):
            pareto_sweep(
                Scenario(duration_frames=500), series=("mdp", "on-off"),
                r2_values=[5.0], nq_values=[3, 20], seeds=(0, 1),
            )

    def test_fractional_threshold_fails_before_any_run(self, monkeypatch):
        def unreachable(scenario, controller):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(sim, "simulate", unreachable)
        with pytest.raises(ValueError, match="queue_threshold must be a whole number, got 2.5$"):
            pareto_sweep(
                Scenario(duration_frames=500), series=("on-off",),
                nq_values=(2, 2.5), seeds=(0,),
            )

    def test_csv_round_trip(self, tiny_points):
        buffer = io.StringIO()
        write_sweep_csv(tiny_points, buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows[0] == list(SWEEP_CSV_COLUMNS)
        assert len(rows) == len(tiny_points) + 1
        for row, point in zip(rows[1:], tiny_points):
            assert row[0] == point.series
            assert float(row[2]) == point.value
            assert float(row[4]) == pytest.approx(point.avg_latency, rel=1e-5)
            assert float(row[5]) == pytest.approx(point.energy_per_packet, rel=1e-5)

    @pytest.mark.parametrize(
        "options, message",
        [
            # The call that once returned a NaN point: the planner's option first.
            (dict(alpha=7, solve_period=math.nan, epsilon=3),
             "solve_period must be finite and > 0, got nan"),
            (dict(alpha=7), r"alpha must be in \(0, 1\], got 7"),
            (dict(epsilon=3), r"epsilon must be in \[0, 1\], got 3"),
            (dict(epsilon_decay=0.0), r"epsilon_decay must be in \(0, 1\], got 0.0"),
        ],
    )
    def test_a_bad_run_option_fails_before_any_run_whatever_the_series(
            self, monkeypatch, options, message):
        def unreachable(scenario, controller):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(sim, "simulate", unreachable)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pareto_sweep(Scenario(duration_frames=10), series=("on-off",), nq_values=[3],
                         seeds=(0,), **options)

    def test_in_range_options_a_series_ignores_are_accepted(self):
        scenario = Scenario(duration_frames=500)
        points = pareto_sweep(scenario, series=("on-off",), nq_values=[3], seeds=(0,),
                              alpha=0.5, solve_period=60.0, epsilon=0.0)
        assert points == pareto_sweep(scenario, series=("on-off",), nq_values=[3], seeds=(0,))

    def test_a_seeds_planners_share_their_folds(self):
        """Three ``mdp`` points at two seeds, re-solving every 500 acts: at
        each seed the first point misses its 5 folds and the other two hit
        them.  The 10 folds of both seeds would not fit in the cache, so a
        point-major order would miss them all.  The points are those of
        fresh runs that share nothing."""
        scenario = Scenario(duration_frames=3000)
        values = (3.0, 5.0, 8.0)
        assert 2 * 5 > controllers.FOLD_CACHE_SIZE
        controllers.fold_transitions.cache_clear()
        points = pareto_sweep(scenario, series=("mdp",), r2_values=values,
                              seeds=(0, 1), solve_period=50.0)
        info = controllers.fold_transitions.cache_info()
        assert (info.hits, info.misses) == (2 * 2 * 5, 2 * 5)
        for point, value in zip(points, values):
            runs = []
            for seed in (0, 1):
                controllers.fold_transitions.cache_clear()
                controller = make_controller("mdp", scenario.node, value, solve_period=50.0)
                runs.append(simulate(replace(scenario, seed=seed), controller))
            for name, _ in SWEEP_AVERAGES:
                assert getattr(point, name) == float(np.mean([getattr(r, name) for r in runs]))

    def test_a_seed_below_zero_fails_before_any_run(self, monkeypatch):
        def unreachable(scenario, controller):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(sim, "simulate", unreachable)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            pareto_sweep(Scenario(duration_frames=10), series=("on-off",), nq_values=[3],
                         seeds=(0, -1))

    def test_a_seeds_scenario_is_freed_before_the_next_seed_runs(self, monkeypatch):
        """So the sweep keeps one seed's exogenous record at a time."""
        run_one, first, freed = sim.simulate, [], []

        def watching(scenario, controller):
            if scenario.seed == 0 and not first:
                first.append(weakref.ref(scenario))
            elif scenario.seed == 1 and not freed:
                gc.collect()
                freed.append(first[0]() is None)
            return run_one(scenario, controller)

        monkeypatch.setattr(sim, "simulate", watching)
        pareto_sweep(Scenario(duration_frames=300), series=("on-off",), nq_values=[2, 3],
                     seeds=(0, 1))
        assert freed == [True]

    def test_sweep_default_decay_is_applied(self):
        controller = make_controller("ql", NodeConfig(), 5.0, seed=0)
        assert controller.epsilon_decay == DEFAULT_EPSILON_DECAY


def reference_steps(scenario, parameter):
    """``(starts, values)``: the first frame of each step of ``scenario``'s
    schedule and the value of ``parameter`` in force from it, read from the
    schedule itself."""
    node = scenario.node
    starts, values = [0], [getattr(node, parameter)]
    for change in sorted(scenario.schedule, key=lambda change: change.time):
        starts.append(floor_frames(change.time, node.frame_period))
        values.append(change.value if change.parameter == parameter else values[-1])
    return starts, values


def reference_app_path(scenario):
    """The app-mode path of ``scenario``, one ``np.searchsorted`` a frame of
    its draw in the cumulative row, by the ``app_transition`` the schedule
    has in force, of the mode the frame leaves."""
    starts, sigmas = reference_steps(scenario, "app_transition")
    cumulative = []
    for sigma in sigmas:
        rows = np.cumsum(np.asarray(sigma, dtype=float), axis=1)
        rows[:, -1] = np.inf
        cumulative.append(rows)
    draws = np.random.default_rng(scenario.seed).random(scenario.duration_frames)
    path = [0]
    for frame, draw in enumerate(draws):
        rows = cumulative[bisect_right(starts, frame) - 1]
        path.append(int(np.searchsorted(rows[path[-1]], draw, side="right")))
    return path


def reference_trace(scenario):
    """``(path, arrivals)``: the app-mode path (:func:`reference_app_path`)
    and, frame by frame, whether a packet arrives, which it does when the
    frame's second draw of the seed is below the packet probability of the
    frame's mode by the ``app_packet_prob`` in force."""
    path = reference_app_path(scenario)
    starts, probs = reference_steps(scenario, "app_packet_prob")
    rng = np.random.default_rng(scenario.seed)
    rng.random(scenario.duration_frames)
    draws = rng.random(scenario.duration_frames)
    arrivals = [
        bool(draw < probs[bisect_right(starts, frame) - 1][path[frame]])
        for frame, draw in enumerate(draws.tolist())
    ]
    return path, arrivals


def record_path(scenario):
    """The per-frame app-mode path that the events of ``scenario._trace``
    imply: each event's mode from the frame after it on."""
    event_frames, _, modes = scenario._trace
    after = dict(zip(event_frames, modes))
    path = [0]
    for frame in range(scenario.duration_frames):
        path.append(after.get(frame, path[-1]))
    return path


#: Scenarios of 3, 5 and 257 app modes.  The first two change their
#: ``app_transition`` mid-run, to rows with zero entries, so that two
#: cumulative entries tie; the 5-mode one also has a change at 0 s, one
#: overtaken in its own frame and one past the end.
PATH_SCENARIOS = {
    "3-modes": Scenario(
        node=NodeConfig(
            app_transition=((0.9, 0.1, 0.0), (0.05, 0.9, 0.05), (0.0, 0.2, 0.8)),
            app_packet_prob=(0.1, 0.3, 0.6),
        ),
        duration_frames=3000,
        seed=4,
        schedule=(ScheduleChange(
            100.0, "app_transition", ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5))
        ),),
    ),
    "5-modes": Scenario(
        node=sticky_node(5, seed=3),
        duration_frames=3000,
        seed=7,
        schedule=(
            ScheduleChange(0.0, "app_packet_prob", (0.2, 0.0, 0.4, 0.1, 0.9)),
            ScheduleChange(120.0, "app_transition", sticky_node(5, seed=8).app_transition),
            ScheduleChange(120.04, "app_transition", (
                (0.6, 0.0, 0.0, 0.2, 0.2),
                (0.0, 0.7, 0.3, 0.0, 0.0),
                (0.25, 0.25, 0.0, 0.0, 0.5),
                (0.0, 0.0, 0.1, 0.9, 0.0),
                (0.3, 0.0, 0.0, 0.0, 0.7),
            )),
            ScheduleChange(1e6, "app_transition", sticky_node(5, seed=9).app_transition),
        ),
    ),
    "257-modes": Scenario(node=sticky_node(257), duration_frames=3000, seed=2),
}


class TestSharedTrace:
    """A scenario draws its exogenous trace once and every run reuses it."""

    def test_sweep_draws_one_trace_per_seed(self, monkeypatch):
        draws = []
        exogenous_trace = sim._exogenous_trace

        def counting(*args):
            draws.append(args[0])
            return exogenous_trace(*args)

        monkeypatch.setattr(sim, "_exogenous_trace", counting)
        pareto_sweep(Scenario(duration_frames=300), seeds=(0, 1))
        assert sorted(draws) == [0, 1]

    def test_a_scenario_that_has_run_keeps_its_value_semantics(self):
        scenario = Scenario(duration_frames=2000, seed=3)
        first = simulate(scenario, ThresholdController(NodeConfig(), 2))
        fresh = replace(scenario)
        assert scenario == fresh
        assert hash(scenario) == hash(fresh)
        assert simulate(scenario, ThresholdController(NodeConfig(), 2)) == first
        restored = pickle.loads(pickle.dumps(scenario))
        assert restored == scenario
        assert simulate(restored, ThresholdController(NodeConfig(), 2)) == first

    @pytest.mark.parametrize("name", sorted(PATH_SCENARIOS))
    def test_the_app_path_is_a_per_frame_search(self, name):
        scenario = PATH_SCENARIOS[name]
        expected = reference_app_path(scenario)
        assert record_path(scenario) == expected
        assert len(set(expected)) > 2

    @staticmethod
    def record_bytes(scenario):
        """``(retained, peak)``: the bytes ``tracemalloc`` sees while
        ``scenario._trace`` is built, after a 100-frame build of its node."""
        Scenario(node=scenario.node, duration_frames=100)._trace
        tracemalloc.start()
        try:
            scenario._trace
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_a_record_is_built_in_few_bytes_a_frame(self):
        """No stage of the build grows with the mode count: at 64 modes the
        peak stays under 40 bytes a frame, the record included."""
        frames = 50000
        scenario = Scenario(node=sticky_node(64), duration_frames=frames, seed=1)
        _, peak = self.record_bytes(scenario)
        assert peak < 40 * frames

    def test_the_record_keeps_events_not_frames(self):
        """About one frame in seven is an event in the default scenario,
        and its record of them retains under 2 bytes a frame."""
        frames = 270000
        retained, _ = self.record_bytes(replace(load_scenario(), duration_frames=frames))
        assert retained < 2 * frames


class TestPowerModel:
    def test_frame_only_model_reference_value(self):
        # 7.06 uJ per frame at 10 Hz plus the 8.2 uW sleep floor.
        assert average_power(MCU_QL) == pytest.approx(78.8e-6, rel=1e-12)

    def test_solver_model_at_one_hour(self):
        power = average_power(MCU_SVI, update_period=3600.0)
        assert power == pytest.approx(6.131444444444445e-05, rel=1e-12)

    def test_dense_solver_is_heavier_at_the_same_period(self):
        assert average_power(MCU_DENSE_VI, 3600.0) > average_power(MCU_SVI, 3600.0)

    def test_power_strictly_decreasing_in_update_period(self):
        periods = [60.0, 300.0, 3600.0, 86400.0]
        values = [average_power(MCU_SVI, t) for t in periods]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_frame_only_model_ignores_update_period(self):
        assert average_power(MCU_QL, 60.0) == average_power(MCU_QL, None)

    def test_crossover_reference_value(self):
        t = crossover_period(MCU_SVI, MCU_QL)
        assert t == pytest.approx(2693.3602190987, rel=1e-9)

    def test_crossover_equalizes_power(self):
        t = crossover_period(MCU_SVI, MCU_QL)
        assert average_power(MCU_SVI, t) == pytest.approx(
            average_power(MCU_QL, t), rel=1e-12
        )
        t2 = crossover_period(MCU_QL, MCU_SVI)
        assert t2 == pytest.approx(t, rel=1e-12)

    def test_no_crossover_when_solver_costs_match(self):
        assert crossover_period(MCU_QL, MCU_QL) is None
        assert crossover_period(MCU_SVI, MCU_DENSE_VI) is None

    def test_no_crossover_when_one_side_wins_everywhere(self):
        heavy = PowerModel(solver_cost=1.0, frame_cost=2e-6)
        light = PowerModel(solver_cost=0.5, frame_cost=1e-6)
        assert crossover_period(heavy, light) is None

    def test_update_period_required_with_solver_cost(self):
        with pytest.raises(ValueError):
            average_power(MCU_SVI, update_period=None)
        with pytest.raises(ValueError):
            average_power(MCU_SVI, update_period=0.0)

    def test_rejects_bad_frame_period(self):
        with pytest.raises(ValueError):
            average_power(MCU_QL, frame_period=0.0)

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -0.1, -1.0])
    def test_periods_must_be_finite_and_positive(self, period):
        """NaN passes a ``<= 0`` test, so a NaN period once gave a NaN power."""
        with pytest.raises(ValueError, match=r"^update_period must be finite and > 0"):
            average_power(MCU_SVI, update_period=period)
        for model in (MCU_SVI, MCU_QL):
            with pytest.raises(ValueError, match=r"^frame_period must be finite and > 0"):
                average_power(model, update_period=3600.0, frame_period=period)
        with pytest.raises(ValueError, match=r"^frame_period must be finite and > 0"):
            crossover_period(MCU_SVI, MCU_QL, frame_period=period)
        # A frame-only model never reads its update period.
        assert average_power(MCU_QL, period) == average_power(MCU_QL, None)
