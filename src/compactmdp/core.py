"""Tabular MDP container, validation, and dense value iteration.

Conventions used throughout the package:

* A finite MDP with ``n_states`` states and ``n_actions`` actions stores its
  transition kernel as a single stacked matrix of shape
  ``(n_states * n_actions, n_states)``: row ``action * n_states + state``
  holds the distribution over successor states for that state/action pair
  (action-major flattening).  Reward vectors use the same indexing.
* Deterministic policies are arrays mapping each state to the lowest-index
  maximizing action (ties break toward the smaller action index).

``dense_value_iteration`` here is the reference solver: it works on the dense
stacked matrix with ordinary matrix products and is used as the independent
oracle for the sparse solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Tolerance applied to row sums when checking stochasticity.  Deviations
#: beyond this are treated as modeling errors, never silently renormalized.
ROW_SUM_TOLERANCE = 1e-9

#: Hard iteration cap for the solvers.
DEFAULT_MAX_ITERATIONS = 10**6


class ConvergenceError(RuntimeError):
    """Raised when value iteration hits its iteration cap before converging.

    Carries the last iterate so callers can inspect (or keep) partial
    progress.
    """

    def __init__(self, message, values, iterations):
        super().__init__(message)
        self.values = values
        self.iterations = iterations


@dataclass(frozen=True)
class MdpSpec:
    """A finite MDP in stacked action-major form.

    Attributes
    ----------
    n_states, n_actions : int
        Dimensions of the state and action sets.
    rewards : ndarray, shape (n_states * n_actions,)
        Immediate reward for each (state, action) row.
    transitions : ndarray, shape (n_states * n_actions, n_states)
        Stacked transition matrix; each row should be a probability
        distribution over successor states (checked by :func:`validate`,
        enforced by the solvers).
    discount : float
        Discount factor in [0, 1).
    tolerance : float
        Convergence threshold on the sup-norm of successive value iterates.
    """

    n_states: int
    n_actions: int
    rewards: np.ndarray
    transitions: np.ndarray
    discount: float = 0.95
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("n_states and n_actions must be >= 1")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {self.discount}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        rewards = np.asarray(self.rewards, dtype=float)
        transitions = np.asarray(self.transitions, dtype=float)
        n_rows = self.n_states * self.n_actions
        if rewards.shape != (n_rows,):
            raise ValueError(
                f"rewards must have shape ({n_rows},), got {rewards.shape}"
            )
        if transitions.shape != (n_rows, self.n_states):
            raise ValueError(
                "transitions must have shape "
                f"({n_rows}, {self.n_states}), got {transitions.shape}"
            )
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "transitions", transitions)


@dataclass
class ViolationReport:
    """Outcome of :func:`validate`: ``ok`` plus one message per problem."""

    ok: bool
    messages: list = field(default_factory=list)


def stochastic_problems(matrix, name):
    """Why the 2-D ``matrix`` is not row-stochastic, one message per fault; ``[]`` if it is.

    The faults are non-finite entries (reported alone), negative entries, and
    row sums off 1 by more than ``ROW_SUM_TOLERANCE``.  Nothing is repaired.
    """
    non_finite = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if non_finite.size:
        return [f"{name} has non-finite entries in rows {non_finite.tolist()}"]
    messages = []
    negative = np.flatnonzero((matrix < 0.0).any(axis=1))
    if negative.size:
        messages.append(f"{name} has negative entries in rows {negative.tolist()}")
    row_sums = matrix.sum(axis=1)
    off = np.flatnonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOLERANCE)
    if off.size:
        sums = (f"row {r} sums to {t!r}" for r, t in zip(off.tolist(), row_sums[off].tolist()))
        messages.append(
            f"{name} rows {off.tolist()} do not sum to 1 within {ROW_SUM_TOLERANCE}: "
            + ", ".join(sums)
        )
    return messages


def validate(spec):
    """Check an :class:`MdpSpec` for structural problems.

    Reports non-finite rewards and the :func:`stochastic_problems` of the
    transition matrix.  The report is purely diagnostic.

    Returns
    -------
    ViolationReport
    """
    messages = []
    bad = np.flatnonzero(~np.isfinite(spec.rewards))
    if bad.size:
        messages.append(f"rewards are not finite at rows {bad.tolist()}")
    messages += stochastic_problems(spec.transitions, "transitions")
    return ViolationReport(ok=not messages, messages=messages)


def dense_value_iteration(spec, max_iterations=DEFAULT_MAX_ITERATIONS):
    """Solve an MDP by dense value iteration.

    Starts from the all-zero value function and repeats

        Q = R + discount * (M @ V)
        V', policy = row-wise max / argmax of Q over actions

    until the sup-norm change drops below ``spec.tolerance``.  Ties in the
    argmax resolve to the lowest action index.

    Parameters
    ----------
    spec : MdpSpec
    max_iterations : int
        Hard cap; exceeding it raises :class:`ConvergenceError` with the last
        iterate attached.

    Returns
    -------
    (values, policy, iterations)
        ``values`` is the converged value function (shape ``(n_states,)``),
        ``policy`` the greedy policy against the final backup (int array),
        ``iterations`` the number of backups performed.

    Raises
    ------
    ValueError
        If the spec fails :func:`validate`.
    ConvergenceError
        If the iteration cap is reached first.
    """
    report = validate(spec)
    if not report.ok:
        raise ValueError("invalid MDP: " + "; ".join(report.messages))

    m = spec.transitions
    r = spec.rewards
    beta = spec.discount
    v = np.zeros(spec.n_states)
    for iteration in range(1, max_iterations + 1):
        q_stacked = (r + beta * (m @ v)).reshape(spec.n_actions, spec.n_states)
        v_new = q_stacked.max(axis=0)
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < spec.tolerance:
            policy = q_stacked.argmax(axis=0)
            return v, policy, iteration
    raise ConvergenceError(
        f"value iteration did not converge within {max_iterations} iterations",
        values=v,
        iterations=max_iterations,
    )
