"""Sparse value iteration.

The stacked transition matrix is converted to CSR once, then the fixed-point
loop applies the four kernels from :mod:`compactmdp.sparse` until the value
function stops moving:

    T = sparse_mult(M, V)          # expected next-state values, per row
    Q = saxpy(discount, T, R)      # one-step backup
    V', policy = max_reduce(Q)     # greedy reduction over actions
    delta = inf_norm_diff(V', V)   # stop when delta < tolerance

Per-iteration cost is proportional to the number of stored entries, and the
solver keeps a multiply-accumulate tally so runs can be compared against the
dense-product cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_MAX_ITERATIONS, ConvergenceError, validate
from .sparse import coo_to_csr, inf_norm_diff, max_reduce, saxpy, sparse_mult, to_sparse


@dataclass(frozen=True)
class SolveResult:
    """Converged solution plus cost counters.

    ``kernel_op_count`` is the multiply-accumulate tally of the sparse
    products (``iterations * k_nz``).
    """

    values: np.ndarray
    policy: np.ndarray
    iterations: int
    final_delta: float
    kernel_op_count: int
    n_states: int
    n_actions: int
    k_nz: int


@dataclass(frozen=True)
class CostReport:
    """Multiply-accumulate counts for a solve, sparse route vs dense route."""

    sparse_macs: int
    dense_macs: int
    ratio: float


def svi_solve(spec, max_iterations=DEFAULT_MAX_ITERATIONS):
    """Solve an MDP by sparse value iteration.

    Semantically identical to dense value iteration (same start, same backup,
    same stopping rule, same lowest-index tie-break), but the expected-value
    product runs over the stored entries only.

    Parameters
    ----------
    spec : MdpSpec
    max_iterations : int
        Hard cap; exceeding it raises :class:`~compactmdp.core.ConvergenceError`
        with the last iterate attached.

    Raises
    ------
    ValueError
        If the spec fails :func:`~compactmdp.core.validate`.
    """
    report = validate(spec)
    if not report.ok:
        raise ValueError("invalid MDP: " + "; ".join(report.messages))

    csr = coo_to_csr(to_sparse(spec.transitions))
    rewards = spec.rewards
    beta = spec.discount
    v = np.zeros(spec.n_states)
    for iteration in range(1, max_iterations + 1):
        t = sparse_mult(csr, v)
        q = saxpy(beta, t, rewards)
        v_new, policy = max_reduce(q, spec.n_states, spec.n_actions)
        delta = inf_norm_diff(v_new, v)
        v = v_new
        if delta < spec.tolerance:
            return SolveResult(
                values=v,
                policy=policy,
                iterations=iteration,
                final_delta=delta,
                kernel_op_count=iteration * csr.nnz,
                n_states=spec.n_states,
                n_actions=spec.n_actions,
                k_nz=csr.nnz,
            )
    raise ConvergenceError(
        f"sparse value iteration did not converge within {max_iterations} iterations",
        values=v,
        iterations=max_iterations,
    )


def solve_cost(result):
    """Compare the completed solve against the dense-product cost model.

    The dense route costs ``n_states**2 * n_actions`` multiply-accumulates per
    iteration; the sparse route costs ``k_nz``.  ``ratio`` is dense over
    sparse (``inf`` for an empty matrix).
    """
    dense = result.iterations * result.n_states**2 * result.n_actions
    sparse = result.iterations * result.k_nz
    ratio = dense / sparse if sparse else float("inf")
    return CostReport(sparse_macs=sparse, dense_macs=dense, ratio=ratio)
