"""The planning model against the simulator it plans for, where the model is exact.

The simulator completes an attach in exactly ``floor(connect_time /
frame_period)`` frames; the model leaves CONNECTING with probability ``rho``,
one over that count, per frame.  With ``connect_time == frame_period`` both
take one frame (``rho == 1``), and nothing else separates them.  So a run of
the threshold rule must visit each (state, action) row's successors at the
rates of that row of ``assemble_stm``, and earn its ``reward_vector`` entry
on average.

A row is checked once it has :data:`MIN_VISITS` visits: 13 rows, queue
levels 0-4, two of them attaching.  Each successor's count is compared with
its binomial expectation as a z score, and each row's mean reward with its
expectation as a z score of the sample mean; a row whose reward never varies
must match exactly, up to summation rounding.  Over seeds 1-40 (the test
runs seed 0) the largest successor |z| of a run was 1.71-3.41 and the largest
reward |z| 2.12; :data:`Z_BOUND` sits above both.
"""

import numpy as np
import pytest

from compactmdp import (
    NodeConfig,
    Scenario,
    ThresholdController,
    assemble_stm,
    reward_vector,
    simulate,
)
from compactmdp.node import M_CONNECTING, N_ACTIONS, N_MODEM_STATES

FRAMES = 1_200_000
MIN_VISITS = 2000
Z_BOUND = 4.0
SEED = 0


class Recording(ThresholdController):
    """The threshold rule at 3 packets, keeping each frame's stacked row,
    successor and reward."""

    def __init__(self, config):
        super().__init__(config, 3)
        self.rows, self.successors, self.rewards = [], [], []

    def observe(self, s, action, reward, s_next):
        self.rows.append(action * self.config.n_states + s)
        self.successors.append(s_next)
        self.rewards.append(reward)


@pytest.fixture(scope="module")
def run():
    """The recorded run, as arrays, and the rows it visited often enough."""
    config = NodeConfig(connect_time=NodeConfig.frame_period)
    controller = Recording(config)
    simulate(Scenario(node=config, duration_frames=FRAMES, seed=SEED), controller)
    rows = np.array(controller.rows)
    visits = np.bincount(rows, minlength=N_ACTIONS * config.n_states)
    checked = np.flatnonzero(visits >= MIN_VISITS)
    return config, rows, np.array(controller.successors), np.array(controller.rewards), checked


def test_the_checked_rows_include_attaching_ones(run):
    config, _, _, _, checked = run
    modems = checked % config.n_states % N_MODEM_STATES
    assert checked.size >= 10
    assert (modems == M_CONNECTING).sum() >= 2


def test_successor_frequencies_match_the_model(run):
    config, rows, successors, _, checked = run
    model = assemble_stm(config).dense()
    for row in checked:
        seen = np.bincount(successors[rows == row], minlength=config.n_states)
        n, p = seen.sum(), model[row]
        assert (seen[p == 0.0] == 0).all(), row
        random = (p > 0.0) & (p < 1.0)
        z = (seen[random] - n * p[random]) / np.sqrt(n * p[random] * (1.0 - p[random]))
        assert np.abs(z).max(initial=0.0) <= Z_BOUND, (row, z)


def test_mean_reward_matches_the_reward_vector(run):
    config, rows, _, rewards, checked = run
    expected = reward_vector(config)
    varying = 0
    for row in checked:
        seen = rewards[rows == row]
        if seen.min() == seen.max():
            assert seen.mean() == pytest.approx(expected[row], rel=1e-9, abs=1e-12), row
        else:
            varying += 1
            z = (seen.mean() - expected[row]) / (seen.std(ddof=1) / np.sqrt(seen.size))
            assert abs(z) <= Z_BOUND, (row, z)
    assert varying >= 1
