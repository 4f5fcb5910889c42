"""Golden values: exact run metrics and the exact planner estimate update.

The references were recorded from the straightforward per-frame simulator
(one ``NodeState`` and one ``np.searchsorted`` per frame, numpy row update in
the planner).  Any rewrite of the frame loop or of the estimate update must
reproduce them bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from compactmdp import (
    NodeConfig,
    ParameterEstimates,
    SimMetrics,
    load_scenario,
    make_controller,
    simulate,
)

#: 5 600 s of the default scenario: crosses the app-mode drift at 3 000 s, the
#: hourly re-solve at 3 600 s and the attach slow-down at 5 400 s.
GOLDEN_FRAMES = 56000

GOLDEN = {
    ("on-off", 3): SimMetrics(
        56000, 5658, 5244, 412, 2, 2.4189740655987797, 2.3950000000000022,
        12559.380000000012, 874, 1048.0150000001186, -41180.375000001375, 0, 0,
    ),
    ("mdp", 5.0): SimMetrics(
        56000, 5658, 5063, 593, 2, 3.6254789650404895, 2.1508295476989905,
        10889.649999999989, 600, 772.8800000000672, -53306.999999994274, 2, 218892,
    ),
    ("ql", 5.0): SimMetrics(
        56000, 5658, 3890, 1758, 10, 7.416709511568123, 7.266457583547308,
        28266.51999999903, 4386, 829.4040000000633, -177085.10000002058, 0, 0,
    ),
}


@pytest.mark.parametrize("series, value", list(GOLDEN))
def test_default_scenario_metrics_are_exact(series, value):
    scenario = replace(load_scenario(), duration_frames=GOLDEN_FRAMES)
    controller = make_controller(series, scenario.node, value, seed=0)
    assert simulate(scenario, controller) == GOLDEN[(series, value)]


def numpy_row_update(row, next_mode, alpha):
    """The reference estimate update: in-place numpy ops on the row."""
    row *= 1.0 - alpha
    row[next_mode] += alpha
    row /= row.sum()


@pytest.mark.parametrize("n_modes", [2, 3, 5])
def test_estimate_update_matches_the_numpy_row_update(n_modes):
    rng = np.random.default_rng(n_modes)
    for _ in range(300):
        sigma = rng.random((n_modes, n_modes)) + 1e-3
        sigma /= sigma.sum(axis=1, keepdims=True)
        alpha = float(rng.uniform(0.01, 1.0))
        config = NodeConfig(app_transition=sigma, app_packet_prob=(0.5,) * n_modes)
        estimates = ParameterEstimates(config, alpha=alpha)
        expected = estimates.sigma_hat.copy()
        for _ in range(20):
            prev, nxt = (int(i) for i in rng.integers(n_modes, size=2))
            numpy_row_update(expected[prev], nxt, alpha)
            estimates.observe_app_transition(prev, nxt)
            assert np.array_equal(estimates.sigma_hat, expected)
