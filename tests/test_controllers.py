"""Controllers: TD estimation, threshold rule, structured learner, Q-learning."""

import math
from array import array

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
from compactmdp.core import ConvergenceError
from compactmdp.node import N_ACTIONS
from compactmdp.solver import svi_solve
from support import NeverHolds, never_holding


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

    @pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_observation(self, seconds):
        """A non-finite duration is refused and leaves the estimate as it was;
        stored, it would make every later ``rho()`` raise."""
        est = ParameterEstimates(NodeConfig())
        with pytest.raises(ValueError, match=f"attach duration {seconds} is not finite"):
            est.observe_connect_time(seconds)
        assert est.connect_time_hat == 2.0
        assert est.rho() == 1.0 / 20
        with pytest.raises(ValueError, match="attach duration 0.05 shorter than one frame"):
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

    @pytest.mark.parametrize("threshold", [2.5, 2.9, math.nan, math.inf])
    def test_rejects_a_fractional_threshold(self, threshold):
        with pytest.raises(ValueError, match=f"whole number, got {threshold}$"):
            ThresholdController(NodeConfig(), queue_threshold=threshold)

    def test_integral_float_threshold_is_that_integer(self):
        controller = ThresholdController(NodeConfig(), queue_threshold=3.0)
        assert type(controller.queue_threshold) is int
        assert controller.policy == ThresholdController(NodeConfig(), 3).policy

    def test_observe_is_a_no_op(self):
        controller = ThresholdController(NodeConfig(), queue_threshold=1)
        s = NodeState(0, 0, M_OFF).flat(11)
        controller.observe(s, ACTION_OFF, 0.0, s)
        assert controller.act(s) == ACTION_OFF


class TestStructuredController:
    def test_starts_all_off_until_first_solve(self):
        controller = StructuredController(NodeConfig())
        assert controller.policy == [ACTION_OFF] * 66
        assert controller.solve_count == 0

    def test_first_act_solves_from_the_priors(self):
        config = NodeConfig()
        controller = StructuredController(config)
        controller.act(NodeState(0, 0, M_OFF).flat(11))
        assert controller.solve_count == 1
        reference = svi_solve(build_mdp(config))
        assert controller.policy == reference.policy.tolist()
        assert controller.total_kernel_ops == reference.kernel_op_count

    def test_acting_between_solves_is_pure_lookup(self):
        controller = StructuredController(NodeConfig())
        controller.act(NodeState(0, 0, M_OFF).flat(11))
        before = (
            controller.estimates.sigma_hat.copy(),
            controller.estimates.connect_time_hat,
            list(controller.policy),
        )
        for flat in range(66):
            controller.act(flat)
        assert controller.solve_count == 1
        assert_allclose(controller.estimates.sigma_hat, before[0])
        assert controller.estimates.connect_time_hat == before[1]
        assert controller.policy == before[2]

    def test_resolving_with_unchanged_estimates_is_stationary(self):
        controller = StructuredController(NodeConfig(), solve_period=1.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        controller.act(s)
        first = list(controller.policy)
        for _ in range(controller.solve_period_frames):
            controller.act(s)
        assert controller.solve_count == 2
        assert controller.policy == first

    def test_worse_attach_estimate_changes_the_policy(self):
        config = NodeConfig()
        controller = StructuredController(config, alpha=1.0)
        controller.act(NodeState(0, 0, M_OFF).flat(11))
        baseline = list(controller.policy)
        controller.estimates.observe_connect_time(2 * config.connect_time)
        for _ in range(controller.solve_period_frames):
            controller.act(NodeState(0, 0, M_OFF).flat(11))
        assert controller.solve_count == 2
        assert controller.policy != baseline

    def test_attach_duration_counted_in_connecting_frames(self):
        config = NodeConfig()
        controller = StructuredController(config, alpha=1.0)
        off = NodeState(0, 0, M_OFF).flat(11)
        connecting = NodeState(0, 0, M_CONNECTING).flat(11)
        connected = NodeState(0, 0, M_CONNECTED).flat(11)
        controller.observe(off, ACTION_ON, 0.0, connecting)
        for _ in range(6):
            controller.observe(connecting, ACTION_ON, 0.0, connecting)
        controller.observe(connecting, ACTION_ON, 0.0, connected)
        assert abs(controller.estimates.connect_time_hat - 0.7) < 1e-12

    def test_aborted_attach_does_not_update_the_estimate(self):
        controller = StructuredController(NodeConfig(), alpha=1.0)
        off = NodeState(0, 0, M_OFF).flat(11)
        connecting = NodeState(0, 0, M_CONNECTING).flat(11)
        controller.observe(off, ACTION_ON, 0.0, connecting)
        controller.observe(connecting, ACTION_OFF, 0.0, off)
        assert controller.estimates.connect_time_hat == 2.0
        # A later successful attach starts its count from zero.
        controller.observe(off, ACTION_ON, 0.0, connecting)
        controller.observe(
            connecting, ACTION_ON, 0.0, NodeState(0, 0, M_CONNECTED).flat(11)
        )
        assert abs(controller.estimates.connect_time_hat - 0.1) < 1e-12

    def test_solver_failure_keeps_last_good_policy(self, monkeypatch):
        controller = StructuredController(NodeConfig(), solve_period=1.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        controller.act(s)
        good = list(controller.policy)
        assert controller.solver_failures == 0

        def boom(spec):
            raise ConvergenceError("no convergence today")

        monkeypatch.setattr(controllers, "svi_solve", boom)
        for _ in range(controller.solve_period_frames):
            controller.act(s)
        assert controller.solver_failures == 1
        assert controller.policy == good
        assert controller.solve_count == 1
        for _ in range(controller.solve_period_frames):
            controller.act(s)
        assert controller.solver_failures == 2
        assert controller.solve_count == 1

    def test_other_solver_errors_propagate(self, monkeypatch):
        controller = StructuredController(NodeConfig(), solve_period=1.0)

        def bug(spec):
            raise TypeError("a bug, not a failed solve")

        monkeypatch.setattr(controllers, "svi_solve", bug)
        with pytest.raises(TypeError):
            controller.act(NodeState(0, 0, M_OFF).flat(11))
        assert controller.solver_failures == 0
        # The error left the clock where it was: the next act solves.
        monkeypatch.undo()
        controller.act(NodeState(0, 0, M_OFF).flat(11))
        assert controller.solve_count == 1

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_a_non_finite_or_non_positive_solve_period(self, period):
        message = f"^solve_period must be finite and > 0, got {period}$"
        with pytest.raises(ValueError, match=message):
            StructuredController(NodeConfig(), solve_period=period)

    def test_rejects_sub_frame_solve_period(self):
        with pytest.raises(ValueError):
            StructuredController(NodeConfig(), solve_period=0.01)


class TestQLearningController:
    def test_full_rate_myopic_update_stores_the_reward(self):
        controller = QLearningController(NodeConfig(discount=0.0), alpha=1.0, epsilon=0.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        s2 = NodeState(0, 1, M_OFF).flat(11)
        controller.observe(s, ACTION_ON, 5.0, s2)
        assert controller.q[66 + s] == 5.0
        assert sum(1 for v in controller.q if v != 0.0) == 1

    def test_self_loop_converges_to_the_discounted_sum(self):
        controller = QLearningController(NodeConfig(discount=0.9), alpha=0.5, epsilon=0.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        for _ in range(2000):
            controller.observe(s, ACTION_ON, 1.0, s)
        assert abs(controller.q[66 + s] - 1.0 / (1.0 - 0.9)) < 1e-6

    def test_untrained_table_keeps_the_modem_off(self):
        controller = QLearningController(NodeConfig(), epsilon=0.0)
        for flat in range(66):
            assert controller.act(flat) == ACTION_OFF

    def test_greedy_matches_the_solver_reduction(self):
        from compactmdp.sparse import greedy_policy

        rng = np.random.default_rng(3)
        controller = QLearningController(NodeConfig(), epsilon=0.0)
        controller.q = rng.normal(size=132).tolist()
        policy = greedy_policy(np.array(controller.q), 66, 2)
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
        for _ in range(100):
            controller.observe(s, ACTION_OFF, 0.0, s)
            expected *= 0.999
        assert controller.epsilon == expected

    def test_epsilon_decays_by_the_default(self):
        controller = QLearningController(NodeConfig())
        s = NodeState(0, 0, M_OFF).flat(11)
        controller.observe(s, ACTION_OFF, 0.0, s)
        assert controller.epsilon_decay == DEFAULT_EPSILON_DECAY
        assert controller.epsilon == DEFAULT_EPSILON * DEFAULT_EPSILON_DECAY

    def test_unit_decay_keeps_epsilon_constant(self):
        controller = QLearningController(NodeConfig(), epsilon_decay=1.0)
        s = NodeState(0, 0, M_OFF).flat(11)
        for _ in range(10):
            controller.observe(s, ACTION_OFF, 0.0, s)
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


class PerFrameQLearning(NeverHolds, QLearningController):
    """The reference stream: one ``rng.random()`` per frame, then
    ``rng.integers(2)`` when it explores.  ``explored`` lists those frames,
    counted in ``act`` calls from the first; it holds no frame."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.explored = []
        self.acts = 0

    def act(self, s):
        frame = self.acts
        self.acts += 1
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
        action = controller.act(s)
        actions.append(action)
        states.append(controller.rng.bit_generator.state)
        controller.observe(s, action, float(s % 7) - 3.0 * action, path[frame + 1])
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
        # The batched controller held frames; the reference stepped each one.
        assert batched.epsilon == reference.epsilon
        # Both runs explore, and a forced exploration leaves the generator
        # where the per-frame stream has it.
        assert 0 < explored[0] < explored[1]
        batched.epsilon = reference.epsilon = 1.0
        assert batched.act(0) == reference.act(0)
        assert batched.rng.bit_generator.state == reference.rng.bit_generator.state


def max_formula_observe(controller, s, action, reward, s_next):
    """Q-learning's update as ``max()`` and an in-place add wrote it."""
    q = controller.q
    best_next = max(q[s_next], q[controller.n_states + s_next])
    i = action * controller.n_states + s
    q[i] += controller.alpha * (reward + controller.config.discount * best_next - q[i])
    if controller.epsilon_decay < 1.0:
        controller.epsilon *= controller.epsilon_decay


def row_formula_observe(rows, alpha, prev_mode, next_mode):
    """One blend of the app-mode estimate, ``1 - alpha`` taken at every call,
    on ``rows``, a list of lists of floats."""
    keep = 1.0 - alpha
    row = rows[prev_mode]
    for j, p in enumerate(row):
        row[j] = p * keep
    row[next_mode] += alpha
    total = 0.0
    for p in row:
        total += p
    for j, p in enumerate(row):
        row[j] = p / total


def blend_formula_connect_time(estimate, seconds, alpha, frame_period):
    """The attach-delay blend, ``1 - alpha`` taken at every call."""
    return max(estimate * (1.0 - alpha) + seconds * alpha, frame_period)


def float_bits(values):
    return np.array(values, dtype=float).view(np.int64)


class TestPerFrameUpdatesAreTheirFormulas:
    """The learners' per-frame methods give the bits of the plain formulas."""

    def test_q_learning_observe_keeps_max_and_its_tie_order(self):
        rng = np.random.default_rng(17)
        config = NodeConfig()
        got = QLearningController(config, alpha=0.3, epsilon=0.5, epsilon_decay=0.999)
        want = QLearningController(config, alpha=0.3, epsilon=0.5, epsilon_decay=0.999)
        n = config.n_states
        # Each frame first sets the successor's two values from a few, signed
        # zeros among them, so that they often tie, as equal numbers or as
        # +0.0/-0.0.
        values = [-1.5, -0.0, 0.0, 0.25, 2.0]
        ties = signed_ties = 0
        for _ in range(20000):
            s, s_next = (int(x) for x in rng.integers(n, size=2))
            action = int(rng.integers(2))
            off, on, reward = (values[k] for k in rng.integers(len(values), size=3))
            for q in (got.q, want.q):
                q[s_next], q[n + s_next] = off, on
            ties += off == on
            signed_ties += off == on == 0.0 and str(off) != str(on)
            got.observe(s, action, reward, s_next)
            max_formula_observe(want, s, action, reward, s_next)
        assert ties > 3000 and signed_ties > 1000
        assert np.array_equal(float_bits(got.q), float_bits(want.q))
        assert got.epsilon == want.epsilon

    def test_estimates_updates_keep_the_row_formula(self):
        rng = np.random.default_rng(23)
        config = NodeConfig(
            app_transition=((0.8, 0.1, 0.1), (0.1, 0.8, 0.1), (0.2, 0.3, 0.5)),
            app_packet_prob=(0.05, 0.5, 1.0),
        )
        got = ParameterEstimates(config, alpha=0.3)
        rows = [list(row) for row in config.app_transition]
        connect_time_hat = config.connect_time
        for frame in range(5000):
            prev_mode, next_mode = (int(x) for x in rng.integers(3, size=2))
            seconds = float(rng.uniform(0.1, 10.0)) if rng.random() < 0.1 else None
            got.observe_app_transition(prev_mode, next_mode)
            row_formula_observe(rows, 0.3, prev_mode, next_mode)
            if seconds is not None:
                got.observe_connect_time(seconds)
                connect_time_hat = blend_formula_connect_time(
                    connect_time_hat, seconds, 0.3, config.frame_period
                )
            if frame % 997 == 0:
                # A fold partway through gives the bits of the same frames.
                assert np.array_equal(float_bits(got.sigma_hat), float_bits(rows))
        assert np.array_equal(float_bits(got.sigma_hat), float_bits(rows))
        assert got.connect_time_hat == connect_time_hat


class PerFrameEstimates(ParameterEstimates):
    """The planner's estimates as they were: the app-mode rows blended by the
    row formula on every observed transition, with nothing left to fold."""

    def __init__(self, config, alpha):
        super().__init__(config, alpha=alpha)
        self.rows = [list(row) for row in config.app_transition]

    def observe_app_transition(self, prev_mode, next_mode):
        row_formula_observe(self.rows, self.alpha, prev_mode, next_mode)

    @property
    def sigma_hat(self):
        return np.array(self.rows)


def random_estimates_config(rng, n_modes):
    sigma = rng.random((n_modes, n_modes)) + 1e-3
    sigma /= sigma.sum(axis=1, keepdims=True)
    return NodeConfig(app_transition=sigma, app_packet_prob=(0.5,) * n_modes)


class TestFoldedEstimates:
    """Logged transitions fold, once per distinct input, to the bits of one
    blend per transition."""

    # 17 modes take the wider transition code.
    @pytest.mark.parametrize("n_modes", [2, 3, 5, 17])
    def test_a_batch_folds_to_the_per_transition_bits_on_a_miss_and_a_hit(self, n_modes):
        rng = np.random.default_rng(40 + n_modes)
        config = random_estimates_config(rng, n_modes)
        alpha = float(rng.uniform(0.01, 1.0))
        transitions = [tuple(int(x) for x in pair)
                       for pair in rng.integers(n_modes, size=(3000, 2))]
        rows = [list(row) for row in config.app_transition]
        for prev_mode, next_mode in transitions:
            row_formula_observe(rows, alpha, prev_mode, next_mode)
        controllers.fold_transitions.cache_clear()
        for expected_hits in (0, 1):
            estimates = ParameterEstimates(config, alpha=alpha)
            for prev_mode, next_mode in transitions:
                estimates.observe_app_transition(prev_mode, next_mode)
            estimates.fold()
            info = controllers.fold_transitions.cache_info()
            assert (info.hits, info.misses) == (expected_hits, 1)
            assert np.array_equal(float_bits(estimates.sigma_hat), float_bits(rows))

    @pytest.mark.parametrize("n_modes, typecode", [(2, "B"), (17, "L")])
    def test_the_fold_reads_the_raw_log(self, n_modes, typecode):
        """``fold_transitions`` takes the log's own bytes as its key."""
        last = n_modes - 1
        log = [(0, 0), (0, 1), (1, 1), (1, 0), (last, last), (last, 0), (0, last), (1, 1)]
        config = random_estimates_config(np.random.default_rng(70 + n_modes), n_modes)
        rows = [list(row) for row in config.app_transition]
        for prev_mode, next_mode in log:
            row_formula_observe(rows, 0.25, prev_mode, next_mode)
        assert controllers._transition_typecode(n_modes) == typecode
        codes = array(typecode, [prev_mode * n_modes + next_mode
                                 for prev_mode, next_mode in log]).tobytes()
        prior = np.asarray(config.app_transition, dtype=float).tobytes()
        folded = controllers.fold_transitions(prior, 0.25, codes)
        assert np.array_equal(np.frombuffer(folded).view(np.int64), float_bits(rows).ravel())

    def test_a_negative_zero_keeps_its_bits(self):
        transitions = [(0, 0), (1, 0), (1, 1), (0, 0)]
        controllers.fold_transitions.cache_clear()
        for zero in (0.0, -0.0):
            config = NodeConfig(app_transition=((1.0, zero), (0.5, 0.5)))
            estimates = ParameterEstimates(config)
            rows = [list(row) for row in config.app_transition]
            for prev_mode, next_mode in transitions:
                estimates.observe_app_transition(prev_mode, next_mode)
                row_formula_observe(rows, estimates.alpha, prev_mode, next_mode)
            sigma = estimates.sigma_hat
            assert np.array_equal(float_bits(sigma), float_bits(rows))
            assert np.signbit(sigma[0, 1]) == np.signbit(zero)
        # The two priors are equal as floats but not as bytes: no shared entry.
        assert controllers.fold_transitions.cache_info().misses == 2

    def test_folded_rows_are_immutable_and_sigma_hat_is_fresh(self):
        estimates = ParameterEstimates(NodeConfig())
        estimates.observe_app_transition(0, 1)
        sigma = estimates.sigma_hat
        sigma[0, 0] = 7.0
        assert estimates.sigma_hat[0, 0] != 7.0
        assert isinstance(estimates._rows, bytes)

    def test_resolve_policy_called_from_act_sees_no_pending_transitions(self, monkeypatch):
        pending = []
        resolve_policy = StructuredController.resolve_policy

        def recording(self):
            pending.append(len(self.estimates._transitions))
            return resolve_policy(self)

        monkeypatch.setattr(StructuredController, "resolve_policy", recording)
        controller = StructuredController(NodeConfig(), solve_period=100.0)
        simulate(Scenario(duration_frames=3000), controller)
        assert pending == [0, 0, 0]
        # The frames after the last solve wait in the log for the next fold.
        assert len(controller.estimates._transitions) == 1000

    def test_a_planner_reused_for_two_runs_matches_the_per_frame_reference(self):
        """The planner holds frames; the reference steps every one."""
        scenario = Scenario(duration_frames=12000)
        got = StructuredController(scenario.node, solve_period=500.0)
        want = never_holding(StructuredController(scenario.node, solve_period=500.0))
        want.estimates = PerFrameEstimates(scenario.node, want.estimates.alpha)
        for seed in (1, 2):
            seeded = Scenario(duration_frames=12000, seed=seed)
            assert simulate(seeded, got) == simulate(seeded, want)
        # Runs 1 and 2 re-solve on acts 0, 5 000, 10 000, then 15 000, 20 000.
        assert got.solve_count == want.solve_count == 5
        assert got.policy == want.policy
        assert np.array_equal(float_bits(got.estimates.sigma_hat),
                              float_bits(want.estimates.sigma_hat))
        assert got.estimates.connect_time_hat == want.estimates.connect_time_hat
        assert (got._acts_to_solve, got._connecting_frames) == (
            want._acts_to_solve, want._connecting_frames)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda config: ThresholdController(config, 3),
        StructuredController,
        lambda config: QLearningController(config, epsilon=0.0),
    ],
    ids=["on-off", "mdp", "ql"],
)
def test_act_and_observe_take_exactly_what_they_read(make):
    """``act`` takes the state alone: no controller reads the frame (the
    planner counts its own calls), and ``observe`` takes no frame either."""
    controller = make(NodeConfig())
    with pytest.raises(TypeError):
        controller.act(0, 0)
    with pytest.raises(TypeError):
        controller.observe(0, ACTION_OFF, 0.0, 0, 0)
    assert controller.act(0) == ACTION_OFF
    controller.observe(0, ACTION_OFF, 0.0, 0)
