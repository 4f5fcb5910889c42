"""Shared test helpers."""

import numpy as np

from compactmdp import ACTION_ON, MdpSpec


def random_mdp(rng, max_states=50, max_actions=4, sparsity=(0.5, 0.99)):
    """A random row-stochastic MDP with controlled sparsity.

    Every row keeps at least one nonzero so the matrix stays stochastic.
    Rewards are standard normal, the discount is drawn from [0.8, 0.97].
    """
    n_states = int(rng.integers(2, max_states + 1))
    n_actions = int(rng.integers(1, max_actions + 1))
    target = float(rng.uniform(*sparsity))
    n_rows = n_states * n_actions
    transitions = np.zeros((n_rows, n_states))
    for row in range(n_rows):
        k = max(1, int(round((1.0 - target) * n_states)))
        cols = rng.choice(n_states, size=k, replace=False)
        weights = rng.random(k) + 1e-3
        transitions[row, cols] = weights / weights.sum()
    return MdpSpec(
        n_states=n_states,
        n_actions=n_actions,
        rewards=rng.standard_normal(n_rows),
        transitions=transitions,
        discount=float(rng.uniform(0.8, 0.97)),
        tolerance=1e-6,
    )


class AlwaysOnController:
    """Keeps the modem on unconditionally; useful as a latency floor."""

    def __init__(self, config):
        self.config = config

    def act(self, state, frame=0):
        return ACTION_ON

    def observe(self, prev_state, action, reward, next_state, frame):
        return None


def render(value):
    """A node value in scenario-file syntax: scalar, vector, or ``;``-separated rows."""
    if not isinstance(value, tuple):
        return repr(value)
    if value and isinstance(value[0], tuple):
        return " ; ".join(render(row) for row in value)
    return " ".join(repr(x) for x in value)
