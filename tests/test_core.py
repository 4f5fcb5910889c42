"""Core MDP container, validation, and the dense reference solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactmdp import MdpSpec, dense_value_iteration, validate
from compactmdp.core import ConvergenceError

from support import random_mdp


def _chain_mdp(beta=0.9):
    # Two-state deterministic cycle; both actions identical, per-state
    # rewards (0, 1).
    step = np.array([[0.0, 1.0], [1.0, 0.0]])
    return MdpSpec(
        n_states=2,
        n_actions=2,
        rewards=np.array([0.0, 1.0, 0.0, 1.0]),
        transitions=np.vstack([step, step]),
        discount=beta,
    )


class TestDenseValueIteration:
    def test_single_state_geometric_series(self):
        """One absorbing state, reward 2, discount 0.9 -> value 2/(1-0.9)."""
        spec = MdpSpec(
            n_states=1,
            n_actions=1,
            rewards=np.array([2.0]),
            transitions=np.array([[1.0]]),
            discount=0.9,
        )
        values, policy, iterations = dense_value_iteration(spec)
        assert_allclose(values, [20.0], atol=1e-5)
        assert policy.tolist() == [0]
        assert iterations > 100  # geometric convergence, not a lucky early exit

    def test_two_state_cycle_matches_linear_fixed_point(self):
        """The cycle's value function solves (I - beta*P) V = R exactly."""
        spec = _chain_mdp()
        step = spec.transitions[:2]
        oracle = np.linalg.solve(np.eye(2) - spec.discount * step, spec.rewards[:2])
        # Frozen from the oracle: beta/(1-beta^2) and 1/(1-beta^2).
        assert_allclose(oracle, [4.736842105263158, 5.263157894736842], rtol=1e-15)
        values, policy, _ = dense_value_iteration(spec)
        assert_allclose(values, oracle, atol=1e-5)
        # Identical actions: ties must resolve to action 0.
        assert policy.tolist() == [0, 0]

    def test_value_bound_and_termination(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec = random_mdp(rng, max_states=20)
            values, _, iterations = dense_value_iteration(spec)
            bound = np.max(np.abs(spec.rewards)) / (1.0 - spec.discount)
            assert np.max(np.abs(values)) <= bound + 1e-6
            assert iterations < 10**6

    def test_reward_shift_moves_values_not_policy(self):
        rng = np.random.default_rng(11)
        spec = random_mdp(rng, max_states=15)
        shift = 3.5
        shifted = MdpSpec(
            n_states=spec.n_states,
            n_actions=spec.n_actions,
            rewards=spec.rewards + shift,
            transitions=spec.transitions,
            discount=spec.discount,
            tolerance=spec.tolerance,
        )
        v0, p0, _ = dense_value_iteration(spec)
        v1, p1, _ = dense_value_iteration(shifted)
        assert_allclose(v1 - v0, shift / (1.0 - spec.discount), atol=1e-4)
        assert np.array_equal(p0, p1)

    def test_iteration_cap_raises_with_last_iterate(self):
        spec = _chain_mdp()
        with pytest.raises(ConvergenceError) as excinfo:
            dense_value_iteration(spec, max_iterations=3)
        assert excinfo.value.iterations == 3
        assert excinfo.value.values.shape == (2,)

    def test_rejects_invalid_rows(self):
        spec = MdpSpec(
            n_states=2,
            n_actions=1,
            rewards=np.zeros(2),
            transitions=np.array([[0.7, 0.2], [0.5, 0.5]]),
        )
        with pytest.raises(ValueError, match="row 0"):
            dense_value_iteration(spec)


class TestValidate:
    def test_clean_spec_passes(self):
        report = validate(_chain_mdp())
        assert report.ok
        assert report.messages == []

    def test_reports_every_bad_row_sum(self):
        transitions = np.array([[0.5, 0.4], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0]])
        spec = MdpSpec(2, 2, np.zeros(4), transitions)
        report = validate(spec)
        assert not report.ok
        text = " ".join(report.messages)
        assert "row 0" in text and "row 2" in text

    def test_reports_negative_entries(self):
        transitions = np.array([[1.2, -0.2], [0.0, 1.0]])
        spec = MdpSpec(2, 1, np.zeros(2), transitions)
        report = validate(spec)
        assert not report.ok
        assert any("negative" in m for m in report.messages)

    def test_reports_nan_anywhere(self):
        spec = MdpSpec(2, 1, np.array([0.0, np.nan]), np.eye(2))
        assert not validate(spec).ok
        bad = np.array([[np.nan, 0.5], [0.0, 1.0]])
        assert not validate(MdpSpec(2, 1, np.zeros(2), bad)).ok

    def test_reports_infinite_entries(self):
        bad = np.array([[1.0, 0.0], [np.inf, -np.inf]])
        report = validate(MdpSpec(2, 1, np.array([np.inf, 0.0]), bad))
        assert report.messages == [
            "rewards are not finite at rows [0]",
            "transitions has non-finite entries in rows [1]",
        ]


class TestMdpSpecConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MdpSpec(2, 1, np.zeros(3), np.eye(2))
        with pytest.raises(ValueError):
            MdpSpec(2, 1, np.zeros(2), np.eye(3))

    def test_bad_discount_rejected(self):
        with pytest.raises(ValueError):
            MdpSpec(1, 1, np.zeros(1), np.ones((1, 1)), discount=1.0)
        with pytest.raises(ValueError):
            MdpSpec(1, 1, np.zeros(1), np.ones((1, 1)), discount=-0.1)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            MdpSpec(1, 1, np.zeros(1), np.ones((1, 1)), tolerance=0.0)
