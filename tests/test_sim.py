"""Frame-stepped simulator, sweep harness, and MCU power model."""

import csv
import io
import math
import pickle
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
    make_controller,
    pareto_sweep,
    simulate,
    write_sweep_csv,
)
from compactmdp import sim
from compactmdp.controllers import DEFAULT_EPSILON_DECAY
from compactmdp.sim import (
    NQ_SWEEP,
    R2_SWEEP,
    SERIES_LABELS,
    SWEEP_CSV_COLUMNS,
)
from support import AlwaysOnController

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
            def act(self, state, frame=0):
                raise AssertionError("the run started")

            def observe(self, s, action, reward, s_next, frame):
                return None

        with pytest.raises(AttributeError, match="config"):
            run(Undeclared(), frames=100)


class RecordingController(ThresholdController):
    """The threshold rule at 3 packets, keeping every reward it observes."""

    def __init__(self, config):
        super().__init__(config, 3)
        self.rewards = []

    def observe(self, s, action, reward, s_next, frame):
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
        # Everything but the reward follows the scenario alone.
        base = run(ThresholdController(NodeConfig(), 3), frames=20000)
        assert replace(metrics, reward_total=base.reward_total) == base


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
            def act(self, state, frame=0):
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

    def test_sweep_default_decay_is_applied(self):
        controller = make_controller("ql", NodeConfig(), 5.0, seed=0)
        assert controller.epsilon_decay == DEFAULT_EPSILON_DECAY


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
