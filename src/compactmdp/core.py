"""Tabular MDP container, valid by construction, and dense value iteration.

Conventions used throughout the package:

* A finite MDP with ``n_states`` states and ``n_actions`` actions stores its
  transition kernel as a single stacked matrix of shape
  ``(n_states * n_actions, n_states)``, held as row-sorted coordinates in a
  :class:`~compactmdp.sparse.SparseMatrixCSR`: row ``action * n_states +
  state`` holds the distribution over successor states for that
  state/action pair (action-major flattening).  Reward vectors use the same
  indexing.  A model given as a dense matrix enters through
  :func:`~compactmdp.sparse.to_sparse`.
* Deterministic policies are arrays mapping each state to the lowest-index
  maximizing action (ties break toward the smaller action index).

An :class:`MdpSpec` is valid by construction, and its rewards and its matrix's
columns and values are read-only, so neither solver checks it again.

``dense_value_iteration`` here is the reference solver: it expands the stacked
matrix with ``.dense()`` and uses ordinary matrix products, and is the
independent oracle for the sparse solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrixCSR

#: Tolerance applied to row sums when checking stochasticity.  Deviations
#: beyond this are treated as modeling errors, never silently renormalized.
ROW_SUM_TOLERANCE = 1e-9

#: Iteration cap of both value-iteration loops.
MAX_ITERATIONS = 10**6


class ConvergenceError(RuntimeError):
    """Raised when value iteration reaches :data:`MAX_ITERATIONS` before converging."""


@dataclass(frozen=True, eq=False)
class MdpSpec:
    """A finite MDP in stacked action-major form.

    Checked when it is built, and when a pickle of it is loaded; equality
    and hashing go by identity.

    Attributes
    ----------
    n_states, n_actions : int
        Dimensions of the state and action sets.
    rewards : ndarray, shape (n_states * n_actions,)
        Immediate reward for each (state, action) row; the spec keeps a
        read-only copy.
    transitions : SparseMatrixCSR, shape (n_states * n_actions, n_states)
        Stacked transition matrix; each row must be a probability
        distribution over successor states (see :func:`validate`).
    discount : float
        Discount factor in [0, 1).
    tolerance : float
        Convergence threshold on the sup-norm of successive value iterates.
    """

    n_states: int
    n_actions: int
    rewards: np.ndarray
    transitions: SparseMatrixCSR
    discount: float = 0.95
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("n_states and n_actions must be >= 1")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {self.discount}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        rewards = np.array(self.rewards, dtype=float)
        n_rows = self.n_states * self.n_actions
        if rewards.shape != (n_rows,):
            raise ValueError(
                f"rewards must have shape ({n_rows},), got {rewards.shape}"
            )
        if not isinstance(self.transitions, SparseMatrixCSR):
            raise TypeError("transitions must be a SparseMatrixCSR (see to_sparse)")
        shape = (self.transitions.n_rows, self.transitions.n_cols)
        if shape != (n_rows, self.n_states):
            raise ValueError(
                f"transitions must have shape ({n_rows}, {self.n_states}), got {shape}"
            )
        rewards.flags.writeable = False
        object.__setattr__(self, "rewards", rewards)
        validate(self)

    def __reduce__(self):
        fields = self.rewards, self.transitions, self.discount, self.tolerance
        return MdpSpec, (self.n_states, self.n_actions, *fields)


def stochastic_problems(rows, values, n_rows, name):
    """Why a matrix is not row-stochastic, one message per fault; ``[]`` if it is.

    The ``n_rows``-row matrix ``name`` holds ``values[k]`` in row ``rows[k]``, 0 elsewhere.
    The faults are non-finite entries (reported alone), negative entries, and
    row sums off 1 by more than ``ROW_SUM_TOLERANCE``.  Nothing is repaired.
    """
    non_finite = sorted(set(rows[~np.isfinite(values)].tolist()))
    if non_finite:
        return [f"{name} has non-finite entries in rows {non_finite}"]
    messages = []
    negative = sorted(set(rows[values < 0.0].tolist()))
    if negative:
        messages.append(f"{name} has negative entries in rows {negative}")
    row_sums = np.bincount(rows, weights=values, minlength=n_rows)
    off = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOLERANCE)
    if off.size:
        # float(): with no stored entries, bincount's sums are int64.
        sums = (f"row {r} sums to {float(t)!r}"
                for r, t in zip(off.tolist(), row_sums[off].tolist()))
        messages.append(
            f"{name} rows {off.tolist()} do not sum to 1 within {ROW_SUM_TOLERANCE}: "
            + ", ".join(sums)
        )
    return messages


def validate(spec):
    """Raise ``ValueError("invalid MDP: ...")`` naming every fault of an :class:`MdpSpec`.

    The faults are non-finite rewards and the :func:`stochastic_problems` of
    the transition matrix.  :class:`MdpSpec` calls this when it is built.
    """
    messages = []
    bad = np.flatnonzero(~np.isfinite(spec.rewards))
    if bad.size:
        messages.append(f"rewards are not finite at rows {bad.tolist()}")
    matrix = spec.transitions
    messages += stochastic_problems(matrix.row_idx, matrix.values, matrix.n_rows, "transitions")
    if messages:
        raise ValueError("invalid MDP: " + "; ".join(messages))


def dense_value_iteration(spec):
    """Solve an MDP by dense value iteration.

    Starts from the all-zero value function and repeats

        Q = R + discount * (M @ V)
        V', policy = row-wise max / argmax of Q over actions

    until the sup-norm change drops below ``spec.tolerance``.  Ties in the
    argmax resolve to the lowest action index.

    Parameters
    ----------
    spec : MdpSpec

    Returns
    -------
    (values, policy, iterations)
        ``values`` is the converged value function (shape ``(n_states,)``),
        ``policy`` the greedy policy against the final backup (int array),
        ``iterations`` the number of backups performed.

    Raises
    ------
    ConvergenceError
        If :data:`MAX_ITERATIONS` backups do not converge.
    """
    m = spec.transitions.dense()
    r = spec.rewards
    beta = spec.discount
    v = np.zeros(spec.n_states)
    for iteration in range(1, MAX_ITERATIONS + 1):
        q_stacked = (r + beta * (m @ v)).reshape(spec.n_actions, spec.n_states)
        v_new = q_stacked.max(axis=0)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < spec.tolerance:
            policy = q_stacked.argmax(axis=0)
            return v, policy, iteration
    raise ConvergenceError(f"value iteration did not converge within {MAX_ITERATIONS} iterations")
