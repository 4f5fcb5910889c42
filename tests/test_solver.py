"""Sparse value iteration against the dense reference solver."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compactmdp import (
    MdpSpec,
    NodeConfig,
    SparseMatrixCSR,
    build_mdp,
    dense_value_iteration,
    load_scenario,
    rho_from_connect_time,
    solve_cost,
    svi_solve,
    to_sparse,
)
from compactmdp import solver
from compactmdp.core import ConvergenceError

from support import random_mdp


def argmax_every_iteration(spec):
    """Reference loop that takes the greedy argmax on every iteration.

    The arithmetic is written out in plain numpy with fresh arrays only: the
    gather-multiply product, ``r + beta * t``, max and argmax of every
    backup, and ``max(abs(v_new - v))``.  Returns ``(values, policy,
    iterations, final_delta, kernel_op_count)``.
    """
    csr = spec.transitions
    v = np.zeros(spec.n_states)
    for iteration in range(1, 10**6 + 1):
        t = np.bincount(csr.row_idx, weights=csr.values * v[csr.col_idx], minlength=csr.n_rows)
        blocks = (spec.rewards + spec.discount * t).reshape(spec.n_actions, spec.n_states)
        v_new, policy = blocks.max(axis=0), blocks.argmax(axis=0)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < spec.tolerance:
            return v, policy, iteration, delta, iteration * csr.nnz
    raise AssertionError("reference loop did not converge")


def pinned_specs():
    """Random MDPs, the 66-state case study and a 1 200-state draw off the prior."""
    rng = np.random.default_rng(101)
    specs = [random_mdp(rng, max_states=30) for _ in range(30)]
    node = load_scenario("default").node
    specs.append(build_mdp(node))
    large = replace(node, queue_states=200)
    sigma = np.array([[0.97, 0.03], [0.3, 0.7]])
    rho = rho_from_connect_time(2.6, large.frame_period)
    specs.append(build_mdp(large, sigma=sigma, rho=rho))
    return specs


@pytest.mark.parametrize("spec", pinned_specs(), ids=lambda spec: f"{spec.n_states}x{spec.n_actions}")
def test_bitwise_equal_to_the_argmax_every_iteration_loop(spec):
    rewards = spec.rewards.copy()
    result = svi_solve(spec)
    values, policy, iterations, final_delta, ops = argmax_every_iteration(spec)
    assert np.array_equal(result.values, values)
    assert np.array_equal(result.policy, policy)
    assert result.policy.dtype == policy.dtype
    assert (result.iterations, result.final_delta, result.kernel_op_count) == (
        iterations, final_delta, ops
    )
    assert np.array_equal(spec.rewards, rewards)


def test_kernels_are_called_through_the_module_once_per_iteration(monkeypatch):
    """The loop looks each kernel up on ``solver``, so a rebinding sees every call."""
    calls = dict.fromkeys(
        ("sparse_mult", "saxpy", "max_reduce", "inf_norm_diff", "greedy_policy"), 0
    )

    def counting(name):
        kernel = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    result = solver.svi_solve(build_mdp(load_scenario("default").node))
    assert result.iterations > 1
    assert calls == {
        "sparse_mult": result.iterations,
        "saxpy": result.iterations,
        "max_reduce": result.iterations,
        "inf_norm_diff": result.iterations,
        "greedy_policy": 1,
    }


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


def test_directly_built_specs_agree_with_dense_solver():
    """A CSR built from its own arrays is held to the rules of one from
    ``to_sparse``.  One cell stored as two halves at one coordinate, which the
    kernels would sum and ``dense()`` would not, is refused; the CSRs that are
    accepted solve to the dense oracle's policy and values."""
    with pytest.raises(ValueError, match=r"duplicate coordinate \(0, 0\)"):
        SparseMatrixCSR(1, 1, np.array([0, 0]), np.array([0, 0]), np.array([0.5, 0.5]))
    one_cell = SparseMatrixCSR(1, 1, np.array([0]), np.array([0]), np.array([1.0]))
    specs = [MdpSpec(1, 1, np.array([1.0]), one_cell)]
    rng = np.random.default_rng(23)
    for _ in range(20):
        spec = random_mdp(rng, max_states=30)
        m = spec.transitions
        direct = SparseMatrixCSR(
            m.n_rows, m.n_cols, m.row_idx.copy(), m.col_idx.copy(), m.values.copy()
        )
        specs.append(replace(spec, transitions=direct))
    for spec in specs:
        result = svi_solve(spec)
        values, policy, _ = dense_value_iteration(spec)
        assert np.array_equal(result.policy, policy)
        assert np.max(np.abs(result.values - values)) <= 1e-9


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


@pytest.mark.parametrize("make", [
    lambda spec: spec.transitions,
    lambda spec: spec,
    svi_solve,
], ids=["SparseMatrixCSR", "MdpSpec", "SolveResult"])
def test_equality_and_hashing_go_by_identity(make):
    """Two containers built from equal inputs answer ``==`` and ``hash``
    (numpy's elementwise ``==`` would leave a field-by-field comparison no
    single truth value); each equals only itself."""
    node = NodeConfig()
    a, b = make(build_mdp(node)), make(build_mdp(node))
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_rejects_invalid_rows():
    """The spec refuses the rows when it is built, so no solver sees them."""
    with pytest.raises(ValueError, match="row 0"):
        MdpSpec(2, 1, np.zeros(2), to_sparse([[0.6, 0.3], [0.0, 1.0]]))


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 5)
    spec = MdpSpec(1, 1, np.array([1.0]), to_sparse([[1.0]]), discount=0.99)
    with pytest.raises(ConvergenceError,
                       match=r"^sparse value iteration did not converge within 5 iterations$"):
        svi_solve(spec)


class TestSolveCost:
    def test_case_study_ratio(self):
        result = svi_solve(build_mdp(load_scenario("default").node))
        cost = solve_cost(result)
        assert cost.sparse_macs == result.kernel_op_count == result.iterations * 444
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
