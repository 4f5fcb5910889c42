"""The planning model against the simulator it plans for.

The simulator completes an attach in exactly ``floor(connect_time /
frame_period)`` frames; the model leaves CONNECTING with probability ``rho``,
one over that count, per frame.  Everything else steps the same way.  So a run
of the threshold rule must visit each (state, action) row's successors at the
rates of that row of ``assemble_stm``, and earn its ``reward_vector`` entry on
average, wherever the attach does not decide the row.

* With ``connect_time == frame_period`` both attach in one frame (``rho ==
  1``) and every row is checked: 13 rows, queue levels 0-4, two of them
  attaching.
* At the default 2 s attach (20 frames) every row is checked except those of
  CONNECTING with the modem on, where the fixed attach and the geometric exit
  differ by design: 13 rows, in OFF and CONNECTED.

A row is checked once it has :data:`MIN_VISITS` visits.  Each successor's
count is compared with its binomial expectation as a z score, and each row's
mean reward with its expectation as a z score of the sample mean; a row whose
reward never varies must match exactly, up to summation rounding.  Over seeds
1-40 (the tests run seed 0) the largest successor |z| of a run was 1.71-3.41
with the one-frame attach and 3.15 at the default, and the largest reward |z|
2.12 and 2.88; :data:`Z_BOUND` sits above all four.
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
from compactmdp.node import (
    ACTION_ON, M_CONNECTED, M_CONNECTING, M_OFF, N_ACTIONS, N_MODEM_STATES,
)
from support import NeverHolds

FRAMES = 1_200_000
MIN_VISITS = 2000
Z_BOUND = 4.0
SEED = 0


class Recording(NeverHolds, ThresholdController):
    """The threshold rule at 3 packets, keeping each frame's stacked row,
    successor and reward."""

    def __init__(self, config):
        super().__init__(config, 3)
        self.rows, self.successors, self.rewards = [], [], []

    def observe(self, s, action, reward, s_next):
        self.rows.append(action * self.config.n_states + s)
        self.successors.append(s_next)
        self.rewards.append(reward)


def record(config):
    """A recorded run of :class:`Recording` on ``config``: its stacked rows,
    successors and rewards, and the rows it visited often enough."""
    controller = Recording(config)
    simulate(Scenario(node=config, duration_frames=FRAMES, seed=SEED), controller)
    rows = np.array(controller.rows)
    visits = np.bincount(rows, minlength=N_ACTIONS * config.n_states)
    checked = np.flatnonzero(visits >= MIN_VISITS)
    return rows, np.array(controller.successors), np.array(controller.rewards), checked


def assert_successors_match(config, rows, successors, checked):
    model = assemble_stm(config).dense()
    for row in checked:
        seen = np.bincount(successors[rows == row], minlength=config.n_states)
        n, p = seen.sum(), model[row]
        assert (seen[p == 0.0] == 0).all(), row
        random = (p > 0.0) & (p < 1.0)
        z = (seen[random] - n * p[random]) / np.sqrt(n * p[random] * (1.0 - p[random]))
        assert np.abs(z).max(initial=0.0) <= Z_BOUND, (row, z)


def assert_rewards_match(config, rows, rewards, checked):
    """Check each row's mean reward; return how many rows' rewards varied."""
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
    return varying


@pytest.fixture(scope="module")
def run():
    """The run with a one-frame attach, where every row is checked."""
    config = NodeConfig(connect_time=NodeConfig.frame_period)
    return (config, *record(config))


@pytest.fixture(scope="module")
def default_run():
    """The run at the default attach, checking no row of CONNECTING with the modem on."""
    config = NodeConfig()
    rows, successors, rewards, visited = record(config)
    attaching = (visited // config.n_states == ACTION_ON) & (
        visited % config.n_states % N_MODEM_STATES == M_CONNECTING)
    return config, rows, successors, rewards, visited[~attaching]


def test_the_checked_rows_include_attaching_ones(run):
    config, _, _, _, checked = run
    modems = checked % config.n_states % N_MODEM_STATES
    assert checked.size >= 10
    assert (modems == M_CONNECTING).sum() >= 2


def test_successor_frequencies_match_the_model(run):
    config, rows, successors, _, checked = run
    assert_successors_match(config, rows, successors, checked)


def test_mean_reward_matches_the_reward_vector(run):
    config, rows, _, rewards, checked = run
    assert assert_rewards_match(config, rows, rewards, checked) >= 1


def test_default_attach_checks_off_and_connected_rows(default_run):
    config, _, _, _, checked = default_run
    modems = checked % config.n_states % N_MODEM_STATES
    assert checked.size >= 10
    assert (modems == M_OFF).any() and (modems == M_CONNECTED).any()


def test_default_attach_successor_frequencies_match_the_model(default_run):
    config, rows, successors, _, checked = default_run
    assert_successors_match(config, rows, successors, checked)


def test_default_attach_mean_reward_matches_the_reward_vector(default_run):
    config, rows, _, rewards, checked = default_run
    assert assert_rewards_match(config, rows, rewards, checked) >= 1
