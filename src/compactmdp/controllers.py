"""Runtime controllers for the sensor node.

Three policies share one frame-stepped protocol over the flat state index
``s = (app_mode * queue_states + queue) * 3 + modem`` of the stacked MDP (the
layout :mod:`compactmdp.node` encodes and decodes): ``act(s, frame)`` returns
an action, then ``observe(s, action, reward, s_next, frame)`` learns from the
frame's outcome.  Each controller keeps the (valid by construction) ``config``
it was built for and reads every model number (layout, frame period, discount)
off it; :func:`compactmdp.sim.simulate` checks that config's layout and frame
period against the scenario's before frame 0, and rewards every frame by that
config's ``reward_weights``, the objective the controller optimises.  A
constructor checks only its own parameters.

* :class:`ThresholdController` — the classic duty-cycling rule: connect when
  the queue reaches a threshold, stay up until it is empty.
* :class:`StructuredController` — keeps the transition model's design-time
  structure fixed and learns only the few free parameters (app-mode
  statistics and the attach delay), re-solving the MDP on a period.
* :class:`QLearningController` — model-free tabular Q-learning over the same
  state space, one learned value per state/action cell: ``len(q)`` of them,
  against the planner's ``estimates.size``.
"""

from __future__ import annotations

import numpy as np

from .core import ConvergenceError
from .node import (
    ACTION_OFF,
    ACTION_ON,
    M_CONNECTED,
    M_CONNECTING,
    M_OFF,
    N_ACTIONS,
    N_MODEM_STATES,
    NodeConfig,
    app_transition_problems,
    build_mdp,
    floor_frames,
    rho_from_connect_time,
)
from .solver import svi_solve

#: Seconds between the planner's re-solves: hourly.
DEFAULT_SOLVE_PERIOD = 3600.0

#: Learning rate of both learning controllers and of the planner's estimates.
DEFAULT_ALPHA = 0.1

#: Q-learning's exploration rate.
DEFAULT_EPSILON = 0.05


def td_update(estimate, observation, alpha):
    """Exponential-forgetting update ``estimate*(1-alpha) + observation*alpha``."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return estimate * (1.0 - alpha) + observation * alpha


class ParameterEstimates:
    """Runtime estimates of the learnable transition-model parameters.

    The structured controller learns exactly two things: the app-mode
    transition matrix ``sigma_hat`` (updated toward the one-hot observed
    transition every frame, rows kept stochastic) and the mean attach delay
    ``connect_time_hat`` (updated once per completed attach).  Everything else
    in the model is design-time structure.

    The matrix is kept as rows of Python floats, so the per-frame update is
    scalar arithmetic; ``sigma_hat`` returns it as a fresh ``(n, n)`` array.
    """

    def __init__(self, sigma_hat, connect_time_hat, alpha=DEFAULT_ALPHA,
                 frame_period=NodeConfig.frame_period):
        if problems := app_transition_problems(sigma_hat, len(sigma_hat)):
            raise ValueError("invalid sigma_hat: " + "; ".join(problems))
        self._rows = np.asarray(sigma_hat, dtype=float).tolist()
        self.connect_time_hat = connect_time_hat
        self.alpha = alpha
        self.frame_period = frame_period
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.connect_time_hat < self.frame_period:
            raise ValueError("connect_time_hat must be at least one frame")

    @classmethod
    def from_config(cls, config, alpha=DEFAULT_ALPHA):
        """Seed the estimates with the design-time priors."""
        return cls(
            sigma_hat=np.asarray(config.app_transition, dtype=float),
            connect_time_hat=config.connect_time,
            alpha=alpha,
            frame_period=config.frame_period,
        )

    @property
    def sigma_hat(self):
        """The app-mode transition estimate, as a new ``(n, n)`` array."""
        return np.array(self._rows)

    @property
    def size(self):
        """Number of learned scalars: every sigma entry plus the attach delay."""
        return len(self._rows) ** 2 + 1

    def observe_app_transition(self, prev_mode, next_mode):
        """Blend the observed one-hot transition into ``sigma_hat``'s row.

        The row total is summed left to right, which for rows of fewer than 8
        modes is bitwise numpy's ``row.sum()`` (numpy sums longer rows
        pairwise).  The builtin ``sum`` compensates from Python 3.12 on, so
        it would change the bits.
        """
        keep = 1.0 - self.alpha
        row = self._rows[prev_mode]
        for j, p in enumerate(row):
            row[j] = p * keep
        row[next_mode] += self.alpha
        total = 0.0
        for p in row:
            total += p
        for j, p in enumerate(row):
            row[j] = p / total

    def observe_connect_time(self, seconds):
        """Blend one measured attach duration into ``connect_time_hat``."""
        if seconds < self.frame_period:
            raise ValueError(f"attach duration {seconds} shorter than one frame")
        blended = td_update(self.connect_time_hat, seconds, self.alpha)
        self.connect_time_hat = max(blended, self.frame_period)

    def rho(self):
        """Attach completion probability implied by the current estimate."""
        return rho_from_connect_time(self.connect_time_hat, self.frame_period)


class ThresholdController:
    """Queue-threshold duty cycling.

    Requests the modem on when the queue has reached ``queue_threshold``
    packets, keeps it on while a transaction is in flight and packets remain,
    and drops back to off once the queue is empty.  The rule is tabulated once
    as ``policy``, one action per flat state.
    """

    def __init__(self, config, queue_threshold):
        if queue_threshold < 1:
            raise ValueError(f"queue_threshold must be >= 1, got {queue_threshold}")
        if queue_threshold > config.capacity:
            raise ValueError(
                f"queue threshold {queue_threshold} is above the queue capacity "
                f"{config.capacity}; the modem would never connect"
            )
        self.config = config
        self.queue_threshold = queue_threshold
        self.n_states = config.n_states
        self.policy = [
            ACTION_ON
            if queue >= queue_threshold or (modem != M_OFF and queue > 0)
            else ACTION_OFF
            for _ in range(config.n_app_modes)
            for queue in range(config.queue_states)
            for modem in range(N_MODEM_STATES)
        ]

    def act(self, s, frame=0):
        return self.policy[s]

    def observe(self, s, action, reward, s_next, frame):
        return None


class StructuredController:
    """Model-learning controller: estimate the free parameters, re-solve, look up.

    Between solves the controller is a pure table lookup.  On a fixed period
    (including frame 0, using the design-time priors) it rebuilds the MDP from
    the current estimates and runs sparse value iteration.  If a solve fails
    (``ValueError`` from the model build, ``ConvergenceError`` from the
    solver) the previous policy stays in force and ``solver_failures`` counts
    it; any other exception propagates.  ``solve_count`` counts the solves
    that succeeded.
    """

    def __init__(self, config, solve_period=DEFAULT_SOLVE_PERIOD, alpha=DEFAULT_ALPHA):
        self.config = config
        self.solve_period_frames = floor_frames(solve_period, config.frame_period)
        if self.solve_period_frames < 1:
            raise ValueError(f"solve_period {solve_period} shorter than one frame")
        self.estimates = ParameterEstimates.from_config(config, alpha=alpha)
        # All-off until the first successful solve.
        self.policy = [ACTION_OFF] * config.n_states
        self.solve_count = 0
        self.total_kernel_ops = 0
        self.solver_failures = 0
        self._mode_stride = config.queue_states * N_MODEM_STATES
        self._next_solve_frame = 0
        self._connecting_frames = 0

    def resolve_policy(self):
        """Rebuild the MDP from current estimates and re-solve it."""
        try:
            spec = build_mdp(
                self.config,
                sigma=self.estimates.sigma_hat,
                rho=self.estimates.rho(),
            )
            result = svi_solve(spec)
        except (ValueError, ConvergenceError):
            self.solver_failures += 1
            return
        self.policy = result.policy.tolist()
        self.solve_count += 1
        self.total_kernel_ops += result.kernel_op_count

    def act(self, s, frame=0):
        if frame >= self._next_solve_frame:
            self.resolve_policy()
            self._next_solve_frame = frame + self.solve_period_frames
        return self.policy[s]

    def observe(self, s, action, reward, s_next, frame):
        stride = self._mode_stride
        self.estimates.observe_app_transition(s // stride, s_next // stride)
        # Measure attach durations by counting observed CONNECTING frames.
        next_modem = s_next % N_MODEM_STATES
        if next_modem == M_CONNECTING:
            self._connecting_frames += 1
        elif (
            next_modem == M_CONNECTED
            and s % N_MODEM_STATES == M_CONNECTING
            and self._connecting_frames > 0
        ):
            self.estimates.observe_connect_time(
                self._connecting_frames * self.config.frame_period
            )
            self._connecting_frames = 0
        else:
            self._connecting_frames = 0


class QLearningController:
    """Tabular Q-learning with epsilon-greedy exploration.

    The Q-table is flat action-major (same layout as the stacked MDP rows).
    Greedy ties resolve to the lowest action index, so an untrained table
    keeps the modem off.  It discounts by ``config.discount``, as the planner does.
    """

    def __init__(self, config, alpha=DEFAULT_ALPHA, epsilon=DEFAULT_EPSILON,
                 epsilon_decay=1.0, seed=None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if not 0.0 < epsilon_decay <= 1.0:
            raise ValueError(f"epsilon_decay must be in (0, 1], got {epsilon_decay}")
        self.config = config
        self.alpha = alpha
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.rng = np.random.default_rng(seed)
        self.n_states = config.n_states
        self.q = [0.0] * (self.n_states * N_ACTIONS)

    def act(self, s, frame=0):
        if self.epsilon > 0.0 and self.rng.random() < self.epsilon:
            return int(self.rng.integers(N_ACTIONS))
        q = self.q
        # Lowest index wins ties, matching the solver's greedy reduction.
        return ACTION_ON if q[self.n_states + s] > q[s] else ACTION_OFF

    def observe(self, s, action, reward, s_next, frame):
        q = self.q
        best_next = max(q[s_next], q[self.n_states + s_next])
        i = action * self.n_states + s
        q[i] += self.alpha * (reward + self.config.discount * best_next - q[i])
        if self.epsilon_decay < 1.0:
            self.epsilon *= self.epsilon_decay

