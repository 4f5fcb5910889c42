"""Core MDP container, its construction checks, and the dense reference solver."""

import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactmdp import MdpSpec, NodeConfig, build_mdp, core, dense_value_iteration, to_sparse
from compactmdp.core import ConvergenceError, validate

from support import random_mdp


def _chain_mdp(beta=0.9):
    # Two-state deterministic cycle; both actions identical, per-state
    # rewards (0, 1).
    step = np.array([[0.0, 1.0], [1.0, 0.0]])
    return MdpSpec(
        n_states=2,
        n_actions=2,
        rewards=np.array([0.0, 1.0, 0.0, 1.0]),
        transitions=to_sparse(np.vstack([step, step])),
        discount=beta,
    )


class TestDenseValueIteration:
    def test_single_state_geometric_series(self):
        """One absorbing state, reward 2, discount 0.9 -> value 2/(1-0.9)."""
        spec = MdpSpec(
            n_states=1,
            n_actions=1,
            rewards=np.array([2.0]),
            transitions=to_sparse([[1.0]]),
            discount=0.9,
        )
        values, policy, iterations = dense_value_iteration(spec)
        assert_allclose(values, [20.0], atol=1e-5)
        assert policy.tolist() == [0]
        assert iterations > 100  # geometric convergence, not a lucky early exit

    def test_two_state_cycle_matches_linear_fixed_point(self):
        """The cycle's value function solves (I - beta*P) V = R exactly."""
        spec = _chain_mdp()
        step = spec.transitions.dense()[:2]
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

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_ITERATIONS", 3)
        with pytest.raises(ConvergenceError,
                           match=r"^value iteration did not converge within 3 iterations$"):
            dense_value_iteration(_chain_mdp())

    def test_rejects_invalid_rows(self):
        with pytest.raises(ValueError, match="row 0"):
            MdpSpec(
                n_states=2,
                n_actions=1,
                rewards=np.zeros(2),
                transitions=to_sparse([[0.7, 0.2], [0.5, 0.5]]),
            )


class TestValidate:
    """``MdpSpec`` runs :func:`validate` when it is built, so a bad model is
    refused there, with every fault named in one ``ValueError``."""

    def test_clean_spec_passes(self):
        spec = _chain_mdp()
        assert validate(spec) is None

    def test_reports_every_bad_row_sum(self):
        transitions = np.array([[0.5, 0.4], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^invalid MDP: ") as excinfo:
            MdpSpec(2, 2, np.zeros(4), to_sparse(transitions))
        text = str(excinfo.value)
        assert "row 0" in text and "row 2" in text

    def test_reports_negative_entries(self):
        transitions = np.array([[1.2, -0.2], [0.0, 1.0]])
        with pytest.raises(ValueError, match="negative"):
            MdpSpec(2, 1, np.zeros(2), to_sparse(transitions))

    def test_reports_nan_anywhere(self):
        with pytest.raises(ValueError, match="^invalid MDP: rewards are not finite at rows"):
            MdpSpec(2, 1, np.array([0.0, np.nan]), to_sparse(np.eye(2)))
        bad = np.array([[np.nan, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^invalid MDP: transitions has non-finite"):
            MdpSpec(2, 1, np.zeros(2), to_sparse(bad))

    def test_reports_infinite_entries(self):
        bad = np.array([[1.0, 0.0], [np.inf, -np.inf]])
        with pytest.raises(ValueError) as excinfo:
            MdpSpec(2, 1, np.array([np.inf, 0.0]), to_sparse(bad))
        assert str(excinfo.value) == (
            "invalid MDP: rewards are not finite at rows [0]; "
            "transitions has non-finite entries in rows [1]"
        )


class TestMdpSpecConstruction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MdpSpec(2, 1, np.zeros(3), to_sparse(np.eye(2)))
        with pytest.raises(ValueError):
            MdpSpec(2, 1, np.zeros(2), to_sparse(np.eye(3)))

    def test_dense_transitions_rejected(self):
        with pytest.raises(TypeError, match="to_sparse"):
            MdpSpec(2, 1, np.zeros(2), np.eye(2))

    def test_bad_discount_rejected(self):
        with pytest.raises(ValueError):
            MdpSpec(1, 1, np.zeros(1), to_sparse(np.ones((1, 1))), discount=1.0)
        with pytest.raises(ValueError):
            MdpSpec(1, 1, np.zeros(1), to_sparse(np.ones((1, 1))), discount=-0.1)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-6, math.inf, math.nan])
    def test_bad_tolerance_rejected(self, tolerance):
        """The rule and the text of ``NodeConfig``: an infinite tolerance would
        stop either solver after one backup."""
        with pytest.raises(ValueError, match=r"^tolerance must be finite and > 0, got"):
            MdpSpec(1, 1, np.zeros(1), to_sparse(np.ones((1, 1))), tolerance=tolerance)
        with pytest.raises(ValueError, match=r"tolerance must be finite and > 0, got"):
            NodeConfig(tolerance=tolerance)

    def test_a_built_spec_cannot_be_changed(self):
        """The spec was checked when it was built, so its arrays refuse writes,
        and it keeps its own copy of the rewards it was given."""
        rewards = np.array([0.0, 1.0, 0.0, 1.0])
        spec = MdpSpec(2, 2, rewards, _chain_mdp().transitions)
        rewards[0] = np.nan
        assert spec.rewards[0] == 0.0
        m = spec.transitions
        for array in (spec.rewards, m.values, m.col_idx):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2.0
        assert_allclose(m.dense().sum(axis=1), 1.0)

    def test_a_pickled_spec_is_built_again(self):
        """Loading a pickle goes through the constructors, so the loaded
        spec is checked and read-only like the one that was pickled."""
        spec = build_mdp(NodeConfig())
        loaded = pickle.loads(pickle.dumps(spec))
        m = loaded.transitions
        for array in (loaded.rewards, m.values, m.col_idx):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 5.0
        assert np.array_equal(loaded.rewards, spec.rewards)
        for name in ("row_idx", "col_idx", "values"):
            assert np.array_equal(getattr(m, name), getattr(spec.transitions, name))
        assert (loaded.n_states, loaded.n_actions, loaded.discount, loaded.tolerance) == (
            spec.n_states, spec.n_actions, spec.discount, spec.tolerance)

    def test_a_spec_changed_after_it_was_built_is_refused_when_loaded(self):
        spec = build_mdp(NodeConfig())
        rewards = spec.rewards.copy()
        rewards[3] = np.nan
        object.__setattr__(spec, "rewards", rewards)
        with pytest.raises(ValueError, match=r"^invalid MDP: rewards are not finite at rows \[3\]$"):
            pickle.loads(pickle.dumps(spec))
