"""Sparse value iteration against the dense reference solver."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactmdp import (
    MdpSpec,
    NodeConfig,
    build_mdp,
    dense_value_iteration,
    load_scenario,
    solve_cost,
    svi_solve,
    to_sparse,
)
from compactmdp.core import ConvergenceError

from support import random_mdp


def test_single_state_geometric_series():
    spec = MdpSpec(1, 1, np.array([2.0]), to_sparse([[1.0]]), discount=0.9)
    result = svi_solve(spec)
    assert_allclose(result.values, [20.0], atol=1e-5)
    assert result.final_delta < spec.tolerance
    assert result.k_nz == 1


def test_agrees_with_dense_solver_on_random_mdps():
    rng = np.random.default_rng(101)
    for _ in range(30):
        spec = random_mdp(rng, max_states=30)
        result = svi_solve(spec)
        values, policy, iterations = dense_value_iteration(spec)
        assert np.array_equal(result.policy, policy)
        assert np.max(np.abs(result.values - values)) <= 1e-9
        assert result.iterations == iterations


def test_agrees_with_dense_solver_on_case_study():
    spec = build_mdp(load_scenario("default").node)
    result = svi_solve(spec)
    values, policy, iterations = dense_value_iteration(spec)
    assert np.array_equal(result.policy, policy)
    assert np.max(np.abs(result.values - values)) <= 1e-9
    assert result.iterations == iterations
    assert result.k_nz == 444


def test_large_node_solves_in_memory_linear_in_nonzeros():
    """12 000 states: the dense stacked matrix alone would take 2.3 GB."""
    config = replace(NodeConfig(), queue_states=2000)
    tracemalloc.start()
    try:
        result = svi_solve(build_mdp(config))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_states == 12_000
    assert result.final_delta < config.tolerance
    assert peak < 64 * 2**20


def test_kernel_op_count_is_iterations_times_nonzeros():
    spec = build_mdp(load_scenario("default").node)
    result = svi_solve(spec)
    assert result.kernel_op_count == result.iterations * result.k_nz


def test_deterministic_rerun_is_bitwise_identical():
    rng = np.random.default_rng(5)
    spec = random_mdp(rng, max_states=25)
    a = svi_solve(spec)
    b = svi_solve(spec)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.policy, b.policy)
    assert a.iterations == b.iterations


def test_rejects_invalid_rows():
    spec = MdpSpec(2, 1, np.zeros(2), to_sparse([[0.6, 0.3], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="row 0"):
        svi_solve(spec)


def test_iteration_cap_raises_with_last_iterate():
    spec = MdpSpec(1, 1, np.array([1.0]), to_sparse([[1.0]]), discount=0.99)
    with pytest.raises(ConvergenceError) as excinfo:
        svi_solve(spec, max_iterations=5)
    assert excinfo.value.iterations == 5
    assert excinfo.value.values.shape == (1,)


class TestSolveCost:
    def test_case_study_ratio(self):
        result = svi_solve(build_mdp(load_scenario("default").node))
        cost = solve_cost(result)
        assert cost.sparse_macs == result.iterations * 444
        assert cost.dense_macs == result.iterations * 66 * 66 * 2
        assert_allclose(cost.ratio, 8712 / 444, rtol=1e-15)

    def test_identity_matrix_ratio_equals_state_count(self):
        n = 7
        spec = MdpSpec(n, 1, np.ones(n), to_sparse(np.eye(n)), discount=0.5)
        cost = solve_cost(svi_solve(spec))
        assert cost.ratio == n

    def test_dense_matrix_ratio_is_one(self):
        rng = np.random.default_rng(2)
        m = rng.random((3, 3)) + 0.05
        m /= m.sum(axis=1, keepdims=True)
        spec = MdpSpec(3, 1, np.zeros(3), to_sparse(m), discount=0.5)
        cost = solve_cost(svi_solve(spec))
        assert cost.ratio == 1.0
