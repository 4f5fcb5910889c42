"""Controllers: TD estimation, threshold rule, structured learner, Q-learning."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import compactmdp.controllers as controllers
from compactmdp import (
    ACTION_OFF,
    ACTION_ON,
    M_CONNECTED,
    M_CONNECTING,
    M_OFF,
    NodeConfig,
    NodeState,
    ParameterEstimates,
    QLearningController,
    Scenario,
    StructuredController,
    ThresholdController,
    build_mdp,
    simulate,
)
from compactmdp.controllers import (
    DEFAULT_EPSILON,
    DEFAULT_EPSILON_DECAY,
    EXPLORATION_BLOCK,
)
from compactmdp.core import DEFAULT_MAX_ITERATIONS, ConvergenceError
from compactmdp.node import N_ACTIONS
from compactmdp.solver import svi_solve


class TestParameterEstimates:
    def test_starts_at_the_priors(self):
        config = NodeConfig()
        est = ParameterEstimates(config)
        assert_allclose(est.sigma_hat, config.app_transition)
        assert est.connect_time_hat == config.connect_time
        assert est.size == 5

    def test_starts_at_a_three_mode_configs_priors(self):
        config = NodeConfig(
            app_transition=((0.8, 0.1, 0.1), (0.1, 0.8, 0.1), (0.2, 0.3, 0.5)),
            app_packet_prob=(0.05, 0.5, 1.0),
            connect_time=3.0,
            frame_period=0.2,
        )
        est = ParameterEstimates(config, alpha=0.3)
        assert np.array_equal(est.sigma_hat, np.array(config.app_transition))
        assert est.connect_time_hat == 3.0
        assert est.frame_period == 0.2
        assert est.alpha == 0.3
        assert est.size == 10
        assert est.rho() == 1.0 / 15

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
            ParameterEstimates(NodeConfig(), alpha=alpha)

    def test_estimates_do_not_alias_the_config(self):
        config = NodeConfig()
        est = ParameterEstimates(config, alpha=1.0)
        est.observe_app_transition(0, 1)
        assert config.app_transition == ((0.99, 0.01), (0.5, 0.5))

    def test_repeated_self_transitions_decay_geometrically(self):
        est = ParameterEstimates(NodeConfig())
        for _ in range(10):
            est.observe_app_transition(0, 0)
        assert abs(est.sigma_hat[0, 1] - 0.01 * 0.9**10) < 1e-12
        assert abs(est.sigma_hat[0].sum() - 1.0) < 1e-12
        # The other row is untouched.
        assert_allclose(est.sigma_hat[1], [0.5, 0.5])

    def test_connect_time_blend_and_clamp(self):
        est = ParameterEstimates(NodeConfig())  # prior 2.0 s
        est.observe_connect_time(4.0)
        assert abs(est.connect_time_hat - 2.2) < 1e-12
        assert abs(est.rho() - 1.0 / 22) < 1e-15

    def test_full_weight_observation_replaces_the_prior(self):
        est = ParameterEstimates(NodeConfig(), alpha=1.0)
        est.observe_connect_time(3.7)
        assert est.connect_time_hat == 3.7

    def test_estimate_never_drops_below_one_frame(self):
        est = ParameterEstimates(NodeConfig(connect_time=0.1), alpha=1.0)
        est.observe_connect_time(0.1)
        assert est.connect_time_hat == 0.1
        assert est.rho() == 1.0

    def test_rejects_sub_frame_observation(self):
        est = ParameterEstimates(NodeConfig())
        with pytest.raises(ValueError):
            est.observe_connect_time(0.05)

    def test_fuzzed_updates_keep_rows_stochastic(self):
        rng = np.random.default_rng(7)
        est = ParameterEstimates(NodeConfig(), alpha=0.3)
        for _ in range(10_000):
            est.observe_app_transition(rng.integers(2), rng.integers(2))
            if rng.random() < 0.05:
                est.observe_connect_time(float(rng.uniform(0.1, 10.0)))
        assert_allclose(est.sigma_hat.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(est.sigma_hat >= 0.0)
        assert est.connect_time_hat >= est.frame_period


class TestThresholdController:
    @pytest.mark.parametrize(
        "queue, modem, expected",
        [
            (0, M_OFF, ACTION_OFF),
            (2, M_OFF, ACTION_OFF),
            (3, M_OFF, ACTION_ON),
            (10, M_OFF, ACTION_ON),
            (2, M_CONNECTING, ACTION_ON),  # finish the attach in flight
            (1, M_CONNECTED, ACTION_ON),  # drain what remains
            (0, M_CONNECTED, ACTION_OFF),  # done, drop the link
            (0, M_CONNECTING, ACTION_OFF),
        ],
    )
    def test_rule_table(self, queue, modem, expected):
        controller = ThresholdController(NodeConfig(), queue_threshold=3)
        assert controller.act(NodeState(0, queue, modem).flat(11)) == expected

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ValueError):
            ThresholdController(NodeConfig(), queue_threshold=0)

    def test_observe_is_a_no_op(self):
        controller = ThresholdController(NodeConfig(), queue_threshold=1)
        s = NodeState(0, 0, M_OFF).flat(11)
        controller.observe(s, ACTION_OFF, 0.0, s, 0)
        assert controller.act(s) == ACTION_OFF


class TestStructuredController:
    def test_starts_all_off_until_first_solve(self):
        controller = StructuredController(NodeConfig())
        assert controller.policy == [ACTION_OFF] * 66
        assert controller.solve_count == 0

    def test_first_act_solves_from_the_priors(self):
        config = NodeConfig()
        controller = StructuredController(config)
        controller.act(NodeState(0, 0, M_OFF).flat(11), frame=0)
        assert controller.solve_count == 1
        reference = svi_solve(build_mdp(config))
        assert controller.policy == reference.policy.tolist()
        assert controller.total_kernel_ops == reference.kernel_op_count

    def test_acting_between_solves_is_pure_lookup(self):
        controller = StructuredController(NodeConfig())
        controller.act(NodeState(0, 0, M_OFF).flat(11), frame=0)
        before = (
            controller.estimates.sigma_hat.copy(),
            controller.estimates.connect_time_hat,
            list(controller.policy),
        )
        for flat in range(66):
            controller.act(flat, frame=5)
        assert controller.solve_count == 1
        assert_allclose(controller.estimates.sigma_hat, before[0])
        assert controller.estimates.connect_time_hat == before[1]
        assert controller.policy == before[2]

    def test_resolving_with_unchanged_estimates_is_stationary(self):
        controller = StructuredController(NodeConfig(), solve_period=1.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        controller.act(s, frame=0)
        first = list(controller.policy)
        controller.act(s, frame=controller.solve_period_frames)
        assert controller.solve_count == 2
        assert controller.policy == first

    def test_worse_attach_estimate_changes_the_policy(self):
        config = NodeConfig()
        controller = StructuredController(config, alpha=1.0)
        controller.act(NodeState(0, 0, M_OFF).flat(11), frame=0)
        baseline = list(controller.policy)
        controller.estimates.observe_connect_time(2 * config.connect_time)
        controller.act(
            NodeState(0, 0, M_OFF).flat(11), frame=controller.solve_period_frames
        )
        assert controller.solve_count == 2
        assert controller.policy != baseline

    def test_attach_duration_counted_in_connecting_frames(self):
        config = NodeConfig()
        controller = StructuredController(config, alpha=1.0)
        off = NodeState(0, 0, M_OFF).flat(11)
        connecting = NodeState(0, 0, M_CONNECTING).flat(11)
        connected = NodeState(0, 0, M_CONNECTED).flat(11)
        controller.observe(off, ACTION_ON, 0.0, connecting, 0)
        for frame in range(1, 7):
            controller.observe(connecting, ACTION_ON, 0.0, connecting, frame)
        controller.observe(connecting, ACTION_ON, 0.0, connected, 7)
        assert abs(controller.estimates.connect_time_hat - 0.7) < 1e-12

    def test_aborted_attach_does_not_update_the_estimate(self):
        controller = StructuredController(NodeConfig(), alpha=1.0)
        off = NodeState(0, 0, M_OFF).flat(11)
        connecting = NodeState(0, 0, M_CONNECTING).flat(11)
        controller.observe(off, ACTION_ON, 0.0, connecting, 0)
        controller.observe(connecting, ACTION_OFF, 0.0, off, 1)
        assert controller.estimates.connect_time_hat == 2.0
        # A later successful attach starts its count from zero.
        controller.observe(off, ACTION_ON, 0.0, connecting, 2)
        controller.observe(
            connecting, ACTION_ON, 0.0, NodeState(0, 0, M_CONNECTED).flat(11), 3
        )
        assert abs(controller.estimates.connect_time_hat - 0.1) < 1e-12

    def test_solver_failure_keeps_last_good_policy(self, monkeypatch):
        controller = StructuredController(NodeConfig(), solve_period=1.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        controller.act(s, frame=0)
        good = list(controller.policy)
        assert controller.solver_failures == 0

        def boom(spec):
            raise ConvergenceError("no convergence today", None, DEFAULT_MAX_ITERATIONS)

        monkeypatch.setattr(controllers, "svi_solve", boom)
        controller.act(s, frame=controller.solve_period_frames)
        assert controller.solver_failures == 1
        assert controller.policy == good
        assert controller.solve_count == 1
        controller.act(s, frame=2 * controller.solve_period_frames)
        assert controller.solver_failures == 2
        assert controller.solve_count == 1

    def test_other_solver_errors_propagate(self, monkeypatch):
        controller = StructuredController(NodeConfig(), solve_period=1.0)

        def bug(spec):
            raise TypeError("a bug, not a failed solve")

        monkeypatch.setattr(controllers, "svi_solve", bug)
        with pytest.raises(TypeError):
            controller.act(NodeState(0, 0, M_OFF).flat(11), frame=0)
        assert controller.solver_failures == 0

    def test_rejects_sub_frame_solve_period(self):
        with pytest.raises(ValueError):
            StructuredController(NodeConfig(), solve_period=0.01)


class TestQLearningController:
    def test_full_rate_myopic_update_stores_the_reward(self):
        controller = QLearningController(NodeConfig(discount=0.0), alpha=1.0, epsilon=0.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        s2 = NodeState(0, 1, M_OFF).flat(11)
        controller.observe(s, ACTION_ON, 5.0, s2, 0)
        assert controller.q[66 + s] == 5.0
        assert sum(1 for v in controller.q if v != 0.0) == 1

    def test_self_loop_converges_to_the_discounted_sum(self):
        controller = QLearningController(NodeConfig(discount=0.9), alpha=0.5, epsilon=0.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        for frame in range(2000):
            controller.observe(s, ACTION_ON, 1.0, s, frame)
        assert abs(controller.q[66 + s] - 1.0 / (1.0 - 0.9)) < 1e-6

    def test_untrained_table_keeps_the_modem_off(self):
        controller = QLearningController(NodeConfig(), epsilon=0.0)
        for flat in range(66):
            assert controller.act(flat) == ACTION_OFF

    def test_greedy_matches_the_solver_reduction(self):
        from compactmdp.sparse import max_reduce

        rng = np.random.default_rng(3)
        controller = QLearningController(NodeConfig(), epsilon=0.0)
        controller.q = rng.normal(size=132).tolist()
        _, policy = max_reduce(np.array(controller.q), 66, 2)
        for flat in range(66):
            assert controller.act(flat) == policy[flat]

    def test_exact_tie_prefers_off(self):
        controller = QLearningController(NodeConfig(), epsilon=0.0)
        controller.q[0] = 2.5
        controller.q[66] = 2.5
        assert controller.act(NodeState(0, 0, M_OFF).flat(11)) == ACTION_OFF

    def test_exploration_is_seed_deterministic(self):
        s = NodeState(0, 0, M_OFF).flat(11)
        runs = []
        for _ in range(2):
            controller = QLearningController(NodeConfig(), epsilon=1.0, seed=11)
            runs.append([controller.act(s) for _ in range(50)])
        assert runs[0] == runs[1]
        assert set(runs[0]) == {ACTION_OFF, ACTION_ON}

    def test_epsilon_decays_per_observation(self):
        controller = QLearningController(
            NodeConfig(), epsilon=0.05, epsilon_decay=0.999
        )
        s = NodeState(0, 0, M_OFF).flat(11)
        expected = 0.05
        for frame in range(100):
            controller.observe(s, ACTION_OFF, 0.0, s, frame)
            expected *= 0.999
        assert controller.epsilon == expected

    def test_epsilon_decays_by_the_default(self):
        controller = QLearningController(NodeConfig())
        s = NodeState(0, 0, M_OFF).flat(11)
        controller.observe(s, ACTION_OFF, 0.0, s, 0)
        assert controller.epsilon_decay == DEFAULT_EPSILON_DECAY
        assert controller.epsilon == DEFAULT_EPSILON * DEFAULT_EPSILON_DECAY

    def test_unit_decay_keeps_epsilon_constant(self):
        controller = QLearningController(NodeConfig(), epsilon_decay=1.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        for frame in range(10):
            controller.observe(s, ACTION_OFF, 0.0, s, frame)
        assert controller.epsilon == DEFAULT_EPSILON

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0),
            dict(alpha=1.5),
            dict(epsilon=-0.1),
            dict(epsilon=1.1),
            dict(epsilon_decay=0.0),
            dict(epsilon_decay=1.5),
        ],
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            QLearningController(NodeConfig(), **kwargs)


class PerFrameQLearning(QLearningController):
    """The reference stream: one ``rng.random()`` per frame, then
    ``rng.integers(2)`` when it explores.  ``explored`` lists those frames."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.explored = []

    def act(self, s, frame=0):
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            self.explored.append(frame)
            return int(self.rng.integers(N_ACTIONS))
        q = self.q
        return ACTION_ON if q[self.n_states + s] > q[s] else ACTION_OFF


def drive(controller, frames, epsilons=None):
    """Act and observe over a fixed random state path.

    Returns the actions and the generator state right after each ``act``.
    ``epsilons`` optionally sets ``controller.epsilon`` before each frame.
    """
    path = np.random.default_rng(5).integers(66, size=frames + 1).tolist()
    actions, states = [], []
    for frame in range(frames):
        if epsilons is not None:
            controller.epsilon = epsilons[frame]
        s = path[frame]
        action = controller.act(s, frame)
        actions.append(action)
        states.append(controller.rng.bit_generator.state)
        controller.observe(s, action, float(s % 7) - 3.0 * action, path[frame + 1], frame)
    return actions, states


class TestBatchedExploration:
    """``act`` draws its uniforms in blocks and still uses exactly the
    per-frame stream: same actions, and the same generator state right after
    every exploration."""

    def check_against_reference(self, frames, epsilons=None, **kwargs):
        reference = PerFrameQLearning(NodeConfig(), seed=(3, 1), **kwargs)
        want, want_states = drive(reference, frames, epsilons)
        batched = QLearningController(NodeConfig(), seed=(3, 1), **kwargs)
        got, got_states = drive(batched, frames, epsilons)
        assert got == want
        for frame in reference.explored:
            assert got_states[frame] == want_states[frame], frame
        assert batched.q == reference.q
        assert batched.epsilon == reference.epsilon
        return reference.explored

    def test_decaying_exploration_matches_the_per_frame_stream(self):
        explored = self.check_against_reference(20000, epsilon=0.5, epsilon_decay=0.9995)
        assert len(explored) > 500
        assert len([f for f in explored if f > 5000]) > 50

    def test_exploring_on_the_first_and_last_draw_of_a_block(self):
        block = EXPLORATION_BLOCK
        # Frame 0 is the first draw of the first block; the next block
        # starts at frame 1 and its last draw is frame `block`.  Frames
        # block + 1 .. 3 * block cross a block boundary without exploring,
        # so frame 3 * block is again a block's last draw and frame
        # 3 * block + 1 the next block's first.
        forced = {0, block, 3 * block, 3 * block + 1}
        frames = 4 * block
        epsilons = [1.0 if frame in forced else 1e-300 for frame in range(frames)]
        explored = self.check_against_reference(frames, epsilons, epsilon_decay=1.0)
        assert explored == sorted(forced)

    def test_zero_epsilon_draws_nothing(self):
        controller = QLearningController(NodeConfig(), epsilon=0.0, seed=7)
        before = controller.rng.bit_generator.state
        drive(controller, 1000)
        assert controller.rng.bit_generator.state == before

    def test_two_simulate_runs_continue_one_stream(self):
        # 3 000 frames is not a whole number of blocks, and at epsilon 0.05
        # the first run ends partway through one: the second run must go on
        # drawing from it.
        assert 3000 % EXPLORATION_BLOCK
        scenarios = [Scenario(duration_frames=3000, seed=seed) for seed in (1, 2)]
        kwargs = dict(epsilon=0.05, epsilon_decay=1.0, seed=(0, 1))
        reference = PerFrameQLearning(NodeConfig(), **kwargs)
        batched = QLearningController(NodeConfig(), **kwargs)
        explored = []
        for scenario in scenarios:
            assert simulate(scenario, batched) == simulate(scenario, reference)
            assert batched._uniforms
            explored.append(len(reference.explored))
        assert batched.q == reference.q
        # Both runs explore, and a forced exploration leaves the generator
        # where the per-frame stream has it.
        assert 0 < explored[0] < explored[1]
        batched.epsilon = reference.epsilon = 1.0
        assert batched.act(0) == reference.act(0)
        assert batched.rng.bit_generator.state == reference.rng.bit_generator.state


class TestLearnableParameterCount:
    def test_case_study_counts(self):
        config = NodeConfig()
        assert len(QLearningController(config).q) == 132
        assert StructuredController(config).estimates.size == 5
        threshold = ThresholdController(config, 4)
        assert not hasattr(threshold, "q")
        assert not hasattr(threshold, "estimates")

    def test_counts_follow_the_config(self):
        config = NodeConfig(
            queue_states=5,
            app_transition=((0.8, 0.1, 0.1), (0.1, 0.8, 0.1), (0.1, 0.1, 0.8)),
            app_packet_prob=(0.05, 0.5, 1.0),
        )
        assert len(QLearningController(config).q) == 3 * 5 * 3 * 2
        assert StructuredController(config).estimates.size == 3 * 3 + 1
