"""Sparse value iteration.

The :class:`~compactmdp.core.MdpSpec` carries its stacked transition matrix
as row-sorted coordinates and is valid by construction, so the solver checks
nothing: the fixed-point loop applies the four kernels from
:mod:`compactmdp.sparse` to the matrix until the value function stops moving:

    T = sparse_mult(M, V)          # expected next-state values, per row
    Q = saxpy(discount, T, R)      # one-step backup, in place into T
    V' = max_reduce(Q)             # max over actions
    delta = inf_norm_diff(V', V)   # stop when delta < tolerance

and once it stops, ``policy = greedy_policy(Q)`` takes the argmax of the final
backup, as :func:`~compactmdp.core.dense_value_iteration` does.

Per-iteration cost is proportional to the number of stored entries, and the
solver keeps a multiply-accumulate tally so runs can be compared against the
dense-product cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_ITERATIONS, ConvergenceError
from .sparse import greedy_policy, inf_norm_diff, max_reduce, saxpy, sparse_mult
# Rebound by perfbench's tracer only, until ROADMAP item 1; the solver calls none.
from .core import validate  # noqa: F401
from .sparse import coo_to_csr, to_sparse  # noqa: F401


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Converged solution plus cost counters; equality and hashing go by
    identity.

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


def svi_solve(spec):
    """Solve an MDP by sparse value iteration.

    Semantically identical to dense value iteration (same start, same backup,
    same stopping rule, same lowest-index tie-break), but the expected-value
    product runs over the stored entries only.

    Parameters
    ----------
    spec : MdpSpec

    Raises
    ------
    ConvergenceError
        If :data:`~compactmdp.core.MAX_ITERATIONS` backups do not converge.
    """
    csr = spec.transitions
    rewards = spec.rewards
    beta = spec.discount
    v = np.zeros(spec.n_states)
    for iteration in range(1, MAX_ITERATIONS + 1):
        t = sparse_mult(csr, v)
        q = saxpy(beta, t, rewards)
        v_new = max_reduce(q, spec.n_states, spec.n_actions)
        delta = inf_norm_diff(v_new, v)
        v = v_new
        if delta < spec.tolerance:
            return SolveResult(
                values=v,
                policy=greedy_policy(q, spec.n_states, spec.n_actions),
                iterations=iteration,
                final_delta=delta,
                kernel_op_count=iteration * csr.nnz,
                n_states=spec.n_states,
                n_actions=spec.n_actions,
                k_nz=csr.nnz,
            )
    raise ConvergenceError(
        f"sparse value iteration did not converge within {MAX_ITERATIONS} iterations"
    )


def solve_cost(result):
    """Compare the completed solve against the dense-product cost model.

    The dense route costs ``n_states**2 * n_actions`` multiply-accumulates per
    iteration; the sparse route costs ``k_nz``.  ``ratio`` is dense over
    sparse (``inf`` for an empty matrix).
    """
    dense = result.iterations * result.n_states**2 * result.n_actions
    sparse = result.kernel_op_count
    ratio = dense / sparse if sparse else float("inf")
    return CostReport(sparse_macs=sparse, dense_macs=dense, ratio=ratio)
