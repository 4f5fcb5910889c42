"""Held frames: ``simulate`` steps over still frames through ``hold``.

A still frame has no arrival and no app-mode change.  Where the controller
keeps the modem where it is, such a frame leaves the state as it is, and one
``hold`` call stands for a stretch of them.  Every run here is compared with
the same controller run once a frame (``hold`` returning 0): the metrics and
everything the run leaves in the controller must match bit for bit.
"""

import itertools
import pickle
from dataclasses import replace

import numpy as np
import pytest

from compactmdp import (
    ACTION_OFF,
    ACTION_ON,
    M_CONNECTED,
    M_CONNECTING,
    M_OFF,
    NodeConfig,
    NodeState,
    QLearningController,
    Scenario,
    ScheduleChange,
    StructuredController,
    ThresholdController,
    load_scenario,
    make_controller,
    simulate,
)
from compactmdp import controllers
from compactmdp.core import ConvergenceError
from support import controller_state, never_holding, sticky_node
from test_sim import (
    REFERENCE_NODES, reference_controllers, reference_scenario, reference_trace,
    straddling_attach_scenario,
)


def counting_holds(controller):
    """``controller``, keeping each ``hold`` call's arguments and result in
    ``.calls``, and ``("act", 1)`` or ``("hold", j)`` for every act and held
    stretch in ``.events``."""
    hold, act = controller.hold, controller.act
    controller.calls, controller.events = [], []

    def counted_hold(*args):
        held = hold(*args)
        controller.calls.append((*args, held))
        if held:
            controller.events.append(("hold", held))
        return held

    def counted_act(s):
        controller.events.append(("act", 1))
        return act(s)

    controller.hold, controller.act = counted_hold, counted_act
    return controller


def assert_holds_like_steps(scenario, make, runs=1):
    """Run a holding and a never-holding controller from ``make()`` on
    ``scenario`` ``runs`` times; return the holding one."""
    held, stepped = counting_holds(make()), never_holding(make())
    for _ in range(runs):
        assert repr(simulate(scenario, held)) == repr(simulate(scenario, stepped))
    assert controller_state(held) == controller_state(stepped)
    assert any(event == "hold" for event, _ in held.events)
    assert sum(n for _, n in held.events) == runs * scenario.duration_frames
    return held


def maker(series, config, value, **options):
    return lambda: make_controller(series, config, value, seed=3, **options)


SERIES = (("on-off", 1), ("on-off", 4), ("mdp", 3.0), ("mdp", 100.0), ("ql", 5.0))


class TestEventRecord:
    """``Scenario._trace`` lists the run's events, the frames with an arrival
    or an app-mode change, as a Python loop over the per-frame path and
    arrivals finds them, and ends them with a sentinel at the last frame."""

    @staticmethod
    def reference(scenario):
        path, arrivals = reference_trace(scenario)
        frames = scenario.duration_frames
        events = [(f, int(arrivals[f]), path[f + 1]) for f in range(frames)
                  if arrivals[f] or path[f + 1] != path[f]]
        return events + [(frames, 0, path[frames])]

    def test_the_default_scenario_with_its_drifts(self):
        scenario = replace(load_scenario(), duration_frames=60000, seed=5)
        events = list(zip(*scenario._trace))
        assert events == self.reference(scenario)
        assert type(scenario._trace[1]) is bytes
        assert 0 < sum(arrived for _, arrived, _ in events) < len(events) - 1

    def test_a_path_of_more_than_256_modes(self):
        scenario = Scenario(node=sticky_node(257), duration_frames=3000, seed=2)
        event_frames, _, modes = scenario._trace
        assert np.asarray(event_frames).dtype == np.asarray(modes).dtype == np.intp
        assert max(modes) > 255
        assert list(zip(*scenario._trace)) == self.reference(scenario)

    def test_a_pickled_scenario_leaves_it_out_and_builds_it_again(self):
        scenario = replace(load_scenario(), duration_frames=5000)
        events = list(zip(*scenario._trace))
        state = scenario.__getstate__()
        assert "_trace" not in state
        assert list(zip(*pickle.loads(pickle.dumps(scenario))._trace)) == events


class TestEachControllersHold:
    def test_the_threshold_rule_holds_its_own_action(self):
        rule = ThresholdController(NodeConfig(), 3)
        off = NodeState(0, 2, M_OFF).flat(11)
        assert rule.hold(off, ACTION_OFF, 0.0, 40) == 40
        assert rule.hold(off, ACTION_ON, 0.0, 40) == 0

    def test_the_planner_holds_up_to_its_next_re_solve(self):
        planner = StructuredController(NodeConfig(), solve_period=1.0)
        connecting = NodeState(1, 0, M_CONNECTING).flat(11)
        # The first act solves; a fresh planner holds nothing.
        assert planner.hold(connecting, ACTION_ON, 0.0, 5) == 0
        planner.act(connecting)
        planner._connecting_frames = 2
        assert planner.hold(connecting, planner.policy[connecting], 0.0, 4) == 4
        assert planner.hold(connecting, 1 - planner.policy[connecting], 0.0, 4) == 0
        assert planner.hold(connecting, planner.policy[connecting], 0.0, 100) == 5
        assert planner._acts_to_solve == 0 and planner._connecting_frames == 11
        assert bytes(planner.estimates._transitions) == bytes([3]) * 9
        assert planner.hold(connecting, planner.policy[connecting], 0.0, 100) == 0

    def test_q_learning_stops_before_a_frame_that_explores(self):
        s = NodeState(0, 0, M_OFF).flat(11)
        kwargs = dict(epsilon=0.5, epsilon_decay=0.999, seed=(4, 1))
        held = QLearningController(NodeConfig(), **kwargs)
        stepped = QLearningController(NodeConfig(), **kwargs)
        for _ in range(50):
            j = held.hold(s, ACTION_OFF, -0.5, 10)
            for _ in range(j):
                assert stepped.act(s) == ACTION_OFF
                stepped.observe(s, ACTION_OFF, -0.5, s)
            # Whatever stopped the hold, the next act is the stepped one's.
            assert held.act(s) == stepped.act(s)
            assert held.rng.bit_generator.state == stepped.rng.bit_generator.state
        assert controller_state(held) == controller_state(stepped)

    def test_q_learning_stops_where_the_greedy_action_turns(self):
        s = NodeState(0, 0, M_OFF).flat(11)
        held, stepped = (QLearningController(NodeConfig(), epsilon=0.0, seed=0)
                         for _ in range(2))
        for controller in (held, stepped):
            controller.q[controller.n_states + s] = 1.0
        # Held on, each frame's reward of -1 lowers q[on] until q[off] = 0 wins.
        j = held.hold(s, ACTION_ON, -1.0, 100)
        steps = 0
        while stepped.act(s) == ACTION_ON:
            stepped.observe(s, ACTION_ON, -1.0, s)
            steps += 1
        assert 0 < j == steps < 100
        assert held.act(s) == ACTION_OFF
        assert controller_state(held) == controller_state(stepped)


class TestHeldRunsMatchSteppedRuns:
    @pytest.mark.parametrize("series, value", SERIES)
    def test_the_default_scenario_with_its_drifts(self, series, value):
        # 6 000 s crosses both drifts (3 000 s, 5 400 s) and one re-solve.
        scenario = replace(load_scenario(), duration_frames=60000, seed=3)
        assert_holds_like_steps(scenario, maker(series, scenario.node, value), runs=2)

    @pytest.mark.parametrize("series, value", SERIES)
    def test_still_stretches_longer_than_255_frames(self, series, value):
        # Mode 0 rarely emits or leaves, so its still stretches run long.
        node = NodeConfig(app_packet_prob=(0.002, 1.0),
                          app_transition=((0.999, 0.001), (0.5, 0.5)))
        scenario = Scenario(node=node, duration_frames=75000, seed=3)
        held = assert_holds_like_steps(scenario, maker(series, node, value))
        assert max(j for _, j in held.events) > 255

    @pytest.mark.parametrize("series, value", SERIES)
    def test_a_non_zero_off_current(self, series, value):
        node = NodeConfig(currents_ma=(0.5, 120.0, 162.5))
        scenario = Scenario(node=node, duration_frames=20000, seed=1)
        assert_holds_like_steps(scenario, maker(series, node, value))

    @pytest.mark.parametrize("epsilon, decay", [(0.5, 1.0), (0.0, 0.9999), (0.05, 0.999)])
    def test_q_learning_at_other_exploration_rates(self, epsilon, decay):
        scenario = Scenario(duration_frames=20000, seed=2)
        make = maker("ql", scenario.node, 5.0, epsilon=epsilon, epsilon_decay=decay)
        assert_holds_like_steps(scenario, make, runs=2)

    @pytest.mark.parametrize("series, value", SERIES)
    def test_a_long_attach_and_frequent_re_solves(self, series, value):
        node = NodeConfig(connect_time=7.3)
        schedule = (ScheduleChange(700.0, "connect_time", 4.1),)
        scenario = Scenario(node=node, duration_frames=20000, seed=4, schedule=schedule)
        held = assert_holds_like_steps(
            scenario, maker(series, node, value, solve_period=123.0))
        if series == "mdp":
            assert held.solve_count == 2000 // 123 + 1

    @pytest.mark.parametrize("series, value", SERIES)
    def test_one_frame_attaches(self, series, value):
        # connect_time == frame_period: an attach completes in the frame
        # after the one it starts in, so no attaching frame is held.
        node = NodeConfig(connect_time=0.1)
        scenario = Scenario(node=node, duration_frames=20000, seed=5)
        held = assert_holds_like_steps(scenario, maker(series, node, value))
        modems = {s % 3 for s, *_ in held.calls}
        assert M_CONNECTED in modems and M_CONNECTING not in modems

    @pytest.mark.parametrize("series, value", SERIES)
    def test_an_attach_that_straddles_a_connect_time_change(self, series, value):
        scenario = straddling_attach_scenario(2000)
        held = assert_holds_like_steps(scenario, maker(series, scenario.node, value))
        if (series, value) == ("mdp", 100.0):
            # Frame 0 starts a 2 s attach, frames 1-19 are held across the
            # change to 0.5 s attaches in frame 10, and frame 20 completes it.
            assert held.events[:3] == [("act", 1), ("hold", 19), ("act", 1)]
            assert held.calls[0][0] % 3 == M_CONNECTING

    @pytest.mark.parametrize("name", sorted(REFERENCE_NODES))
    def test_the_reference_nodes(self, name):
        scenario = reference_scenario(REFERENCE_NODES[name])
        for series in ("on-off", "mdp", "ql"):
            assert_holds_like_steps(
                scenario, lambda: reference_controllers(scenario.node)[series])

    @pytest.mark.parametrize("series, value, options", [
        ("on-off", 3, {}), ("mdp", 5.0, {}), ("mdp", 1000.0, {}), ("ql", 5.0, dict(epsilon=0.0)),
    ])
    def test_a_run_that_ends_inside_a_held_stretch(self, series, value, options):
        # No arrivals, one app mode for good: every frame is still.
        node = NodeConfig(app_packet_prob=(0.0, 0.0), app_transition=((1.0, 0.0), (0.0, 1.0)))
        scenario = Scenario(node=node, duration_frames=1000)
        held = assert_holds_like_steps(scenario, maker(series, node, value, **options))
        assert held.events[-1][0] == "hold"

    def test_a_run_with_no_event_is_one_act_and_one_hold(self):
        node = NodeConfig(app_packet_prob=(0.0, 0.0), app_transition=((1.0, 0.0), (0.0, 1.0)))
        scenario = Scenario(node=node, duration_frames=1000)
        held = assert_holds_like_steps(scenario, lambda: ThresholdController(node, 2))
        assert held.events == [("act", 1), ("hold", 999)]

    def test_held_frames_attaching_and_connected_add_their_energy(self):
        # The planner expects packets, keeps the modem on, and none come.
        schedule = (ScheduleChange(0.0, "app_packet_prob", (0.0, 0.0)),
                    ScheduleChange(0.0, "app_transition", ((1.0, 0.0), (0.0, 1.0))))
        scenario = Scenario(duration_frames=1000, schedule=schedule)
        held = assert_holds_like_steps(scenario, maker("mdp", scenario.node, 1000.0))
        assert {s % 3 for s, _, _, _, j in held.calls if j} == {M_CONNECTING, M_CONNECTED}
        # Frames 0-19 attach: frame 0 is stepped and 1-19 held.  Frame 20,
        # which completes the attach, is stepped.
        attaching = [(k, j) for s, _, _, k, j in held.calls if s % 3 == M_CONNECTING]
        assert attaching == [(19, 19)]
        assert held.events[:3] == [("act", 1), ("hold", 19), ("act", 1)]

    def test_a_pickled_scenario(self):
        scenario = replace(load_scenario(), duration_frames=20000, seed=6)
        first = simulate(scenario, make_controller("on-off", scenario.node, 2))
        restored = pickle.loads(pickle.dumps(scenario))
        assert simulate(restored, make_controller("on-off", scenario.node, 2)) == first
        for series, value in SERIES:
            assert_holds_like_steps(restored, maker(series, scenario.node, value))


class TestAPlannerWhoseSolveFails:
    def test_failed_solves_keep_the_policy_alike(self, monkeypatch):
        scenario = Scenario(duration_frames=20000, seed=7)
        make = maker("mdp", scenario.node, 5.0, solve_period=150.0)
        held, stepped = counting_holds(make()), never_holding(make())
        svi_solve = controllers.svi_solve
        for controller in (held, stepped):
            calls = itertools.count()

            def failing(spec, calls=calls):
                if next(calls) % 2:
                    raise ConvergenceError("no convergence today")
                return svi_solve(spec)

            monkeypatch.setattr(controllers, "svi_solve", failing)
            simulate(scenario, controller)
            monkeypatch.undo()
        assert held.solver_failures == stepped.solver_failures == 7
        assert controller_state(held) == controller_state(stepped)
        assert any(event == "hold" for event, _ in held.events)

    def test_a_raising_resolve_policy_stops_both_runs_alike(self, monkeypatch):
        scenario = Scenario(duration_frames=20000, seed=8)
        make = maker("mdp", scenario.node, 5.0, solve_period=500.0)
        held, stepped = counting_holds(make()), never_holding(make())
        resolve_policy = StructuredController.resolve_policy
        for controller in (held, stepped):
            calls = itertools.count()

            def raising(self, calls=calls):
                if next(calls) == 2:
                    raise RuntimeError("a bug in the solve")
                return resolve_policy(self)

            monkeypatch.setattr(StructuredController, "resolve_policy", raising)
            with pytest.raises(RuntimeError, match="a bug in the solve"):
                simulate(scenario, controller)
            monkeypatch.undo()
        assert held.solve_count == stepped.solve_count == 2
        assert controller_state(held) == controller_state(stepped)
        # The next run retries the due solve first, in both.
        assert repr(simulate(scenario, held)) == repr(simulate(scenario, stepped))
        assert controller_state(held) == controller_state(stepped)
        assert any(event == "hold" for event, _ in held.events)
