"""Runtime controllers for the sensor node.

Three policies share one frame-stepped protocol over the flat state index
``s = (app_mode * queue_states + queue) * 3 + modem`` of the stacked MDP (the
layout :mod:`compactmdp.node` encodes and decodes): ``act(s)`` returns an
action, then ``observe(s, action, reward, s_next)`` learns from the frame's
outcome.  Neither takes the frame number, which no controller reads.  Over
frames that leave the state as it is, :func:`compactmdp.sim.simulate` asks
``hold(s, action, reward, k)`` instead: it returns the number ``j`` in ``[0,
k]`` of those frames the controller holds, and leaves the controller exactly
as ``j`` frames of ``act(s) -> action`` and ``observe(s, action, reward, s)``
would.  Returning 0 is always correct.  A controller keeps its state across
runs: the Q-table and epsilon, the planner's estimates and its re-solve
clock (it counts its own ``act`` calls and held frames) go on where the
previous run left them.  Every controller is built from, and keeps, the
(valid by construction) ``config`` it plans for and reads every
model number (layout, frame period, discount, the planner's priors) off it;
:func:`compactmdp.sim.simulate` reads that config off every controller, checks
its layout and frame period against the scenario's before frame 0, and rewards
every frame by its ``reward_weights``, the objective the controller optimises.
A constructor checks only its own parameters.

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

import functools
import math
from array import array
from itertools import repeat

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

#: Exploration uniforms Q-learning draws from its generator at a time.
EXPLORATION_BLOCK = 128

#: Q-learning's per-frame exploration decay: halves epsilon every ~12
#: simulated minutes at 0.1 s frames, so its late-run behavior reflects what
#: it learned rather than residual dithering.  1.0 keeps epsilon constant.
DEFAULT_EPSILON_DECAY = 0.9999


#: Folds of logged app-mode transitions :func:`fold_transitions` keeps for
#: reuse.  A default sweep at one seed re-solves hourly for 27 000 s, so its
#: planners need 7 folds, one per solve after the first.
FOLD_CACHE_SIZE = 8


def _transition_typecode(n_modes):
    """The ``array`` typecode of a transition code ``prev * n_modes + next``."""
    return "B" if n_modes <= 16 else "L"


@functools.lru_cache(maxsize=FOLD_CACHE_SIZE)
def fold_transitions(rows, alpha, codes):
    """The app-mode rows after blending in the logged transitions, in order.

    ``rows`` is the row-major ``(n, n)`` matrix as the bytes of its float64s,
    ``codes`` the bytes of an ``array`` of transition codes ``prev * n +
    next``; the result is new rows, as bytes.  Each transition
    scales its row by ``1 - alpha``, adds ``alpha`` to the observed
    successor's entry and sums the row, then divides it by the total.  The
    total is summed left to right, which for rows of fewer than 8 modes is
    bitwise numpy's ``row.sum()`` (numpy sums longer rows pairwise).  The
    builtin ``sum`` compensates from Python 3.12 on, so it would change the
    bits.

    The fold is a pure function of its arguments' bytes, so planners that
    observe one app-mode path, such as a sweep's points at one seed, share
    it through the cache.  Keying on bytes keeps ``-0.0`` and ``0.0`` apart.
    """
    n = math.isqrt(len(rows) // 8)
    flat = array("d", rows).tolist()
    matrix = [flat[i * n:(i + 1) * n] for i in range(n)]
    steps = [(matrix[code // n], code % n) for code in range(n * n)]
    keep = 1.0 - alpha
    for code in array(_transition_typecode(n), codes):
        row, next_mode = steps[code]
        total = 0.0
        for j, p in enumerate(row):
            p *= keep
            if j == next_mode:
                p += alpha
            row[j] = p
            total += p
        for j, p in enumerate(row):
            row[j] = p / total
    return array("d", [p for row in matrix for p in row]).tobytes()


class ParameterEstimates:
    """Runtime estimates of the learnable transition-model parameters.

    The structured controller learns exactly two things: the app-mode
    transition matrix ``sigma_hat`` (updated toward the one-hot observed
    transition every frame, rows kept stochastic) and the mean attach delay
    ``connect_time_hat`` (updated once per completed attach).  Everything else
    in the model is design-time structure.

    Both start at the design-time priors of ``config`` (valid by
    construction), whose ``frame_period`` is the unit of every measured
    duration; only ``alpha`` is checked here, and it is fixed from then on:
    its complement ``1 - alpha`` is taken once.

    An observed app-mode transition is only logged, as one small integer;
    :meth:`fold` blends the log into the matrix with
    :func:`fold_transitions`, which gives the bits of one blend per frame.
    The planner folds before each solve, and ``sigma_hat`` folds before it
    reads, returning a fresh ``(n, n)`` array.
    """

    def __init__(self, config, alpha=DEFAULT_ALPHA):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.n_modes = config.n_app_modes
        self._rows = np.asarray(config.app_transition, dtype=float).tobytes()
        self._transitions = array(_transition_typecode(self.n_modes))
        self.connect_time_hat = config.connect_time
        self.alpha = alpha
        self._keep = 1.0 - alpha
        self.frame_period = config.frame_period

    @property
    def sigma_hat(self):
        """The app-mode transition estimate, every logged transition folded
        in, as a new ``(n, n)`` array."""
        self.fold()
        return np.frombuffer(self._rows).reshape(self.n_modes, self.n_modes).copy()

    @property
    def size(self):
        """Number of learned scalars: every sigma entry plus the attach delay."""
        return self.n_modes ** 2 + 1

    def observe_app_transition(self, prev_mode, next_mode):
        """Log one observed app-mode transition for the next :meth:`fold`."""
        self._transitions.append(prev_mode * self.n_modes + next_mode)

    def observe_app_stays(self, mode, count):
        """Log ``count`` transitions of app mode ``mode`` to itself."""
        self._transitions.extend(repeat(mode * self.n_modes + mode, count))

    def fold(self):
        """Blend the logged transitions into ``sigma_hat``, in order, and
        clear the log."""
        if self._transitions:
            self._rows = fold_transitions(self._rows, self.alpha, self._transitions.tobytes())
            del self._transitions[:]

    def observe_connect_time(self, seconds):
        """Blend one measured attach duration into ``connect_time_hat``."""
        if not math.isfinite(seconds):
            raise ValueError(f"attach duration {seconds} is not finite")
        if seconds < self.frame_period:
            raise ValueError(f"attach duration {seconds} shorter than one frame")
        blended = self.connect_time_hat * self._keep + seconds * self.alpha
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
        if not float(queue_threshold).is_integer():
            raise ValueError(f"queue_threshold must be a whole number, got {queue_threshold}")
        queue_threshold = int(queue_threshold)
        if queue_threshold < 1:
            raise ValueError(f"queue_threshold must be >= 1, got {queue_threshold}")
        if queue_threshold > config.capacity:
            raise ValueError(
                f"queue threshold {queue_threshold} is above the queue capacity "
                f"{config.capacity}; the modem would never connect"
            )
        self.config = config
        self.queue_threshold = queue_threshold
        self.policy = [
            ACTION_ON
            if queue >= queue_threshold or (modem != M_OFF and queue > 0)
            else ACTION_OFF
            for _ in range(config.n_app_modes)
            for queue in range(config.queue_states)
            for modem in range(N_MODEM_STATES)
        ]

    def act(self, s):
        return self.policy[s]

    def observe(self, s, action, reward, s_next):
        return None

    def hold(self, s, action, reward, k):
        return k if self.policy[s] == action else 0


class StructuredController:
    """Model-learning controller: estimate the free parameters, re-solve, look up.

    Between solves the controller is a pure table lookup.  It counts its own
    ``act`` calls and held frames, across runs: on the first act (using the
    design-time priors) and on every ``solve_period_frames``-th after it, it
    folds the app-mode transitions ``observe`` and ``hold`` logged into its
    estimates, rebuilds the MDP from them and runs sparse value iteration.  If a solve fails
    (``ValueError`` from the model build, ``ConvergenceError`` from the solver)
    the previous policy stays in force and ``solver_failures`` counts it; any
    other exception propagates and leaves the clock where it was, so the next
    ``act`` tries the solve again.  ``solve_count`` and
    ``total_kernel_ops`` are running totals over the solves that succeeded.
    """

    def __init__(self, config, solve_period=DEFAULT_SOLVE_PERIOD, alpha=DEFAULT_ALPHA):
        if not 0.0 < solve_period < math.inf:
            raise ValueError(f"solve_period must be finite and > 0, got {solve_period}")
        self.config = config
        self.solve_period_frames = floor_frames(solve_period, config.frame_period)
        if self.solve_period_frames < 1:
            raise ValueError(f"solve_period {solve_period} shorter than one frame")
        self.estimates = ParameterEstimates(config, alpha=alpha)
        # All-off until the first successful solve.
        self.policy = [ACTION_OFF] * config.n_states
        self.solve_count = 0
        self.total_kernel_ops = 0
        self.solver_failures = 0
        self._mode_stride = config.queue_states * N_MODEM_STATES
        # Acts left before the next re-solve; 0 re-solves on the next act.
        self._acts_to_solve = 0
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

    def act(self, s):
        left = self._acts_to_solve
        if not left:
            # Folded here, so that a solve's time is the build and the solve.
            self.estimates.fold()
            self.resolve_policy()
            left = self.solve_period_frames
        self._acts_to_solve = left - 1
        return self.policy[s]

    def observe(self, s, action, reward, s_next):
        stride = self._mode_stride
        self.estimates.observe_app_transition(s // stride, s_next // stride)
        # Measure attach durations by counting observed CONNECTING frames.
        next_modem = s_next % N_MODEM_STATES
        if next_modem == M_CONNECTING:
            self._connecting_frames += 1
        elif self._connecting_frames:
            if next_modem == M_CONNECTED and s % N_MODEM_STATES == M_CONNECTING:
                self.estimates.observe_connect_time(
                    self._connecting_frames * self.config.frame_period
                )
            self._connecting_frames = 0

    def hold(self, s, action, reward, k):
        """Hold up to the frame before the next re-solve, which only ``act``
        makes, logging each held frame's app-mode stay and attach frame."""
        left = self._acts_to_solve
        if not left or self.policy[s] != action:
            return 0
        held = min(k, left)
        self._acts_to_solve = left - held
        self.estimates.observe_app_stays(s // self._mode_stride, held)
        if s % N_MODEM_STATES == M_CONNECTING:
            self._connecting_frames += held
        else:
            self._connecting_frames = 0
        return held


class QLearningController:
    """Tabular Q-learning with epsilon-greedy exploration.

    The Q-table is flat action-major (same layout as the stacked MDP rows).
    Greedy ties resolve to the lowest action index, so an untrained table
    keeps the modem off.  It discounts by ``config.discount``, as the planner does.

    Each frame with ``epsilon > 0`` uses one uniform from ``rng`` and explores
    when it is below ``epsilon``; an exploring frame then draws its action with
    ``rng.integers``.  The uniforms are drawn :data:`EXPLORATION_BLOCK` at a
    time, so between explorations ``rng`` runs ahead of the draws ``act`` has
    used.  An exploring frame rewinds ``rng`` to the start of its block,
    replays the uniforms used, and draws its action from there; the next
    frame starts a new block.  So the actions,
    and ``rng``'s state right after an exploration, are bit for bit those of
    one ``rng.random()`` call per frame.  With ``epsilon == 0`` ``act`` draws
    nothing.
    """

    def __init__(self, config, alpha=DEFAULT_ALPHA, epsilon=DEFAULT_EPSILON,
                 epsilon_decay=DEFAULT_EPSILON_DECAY, seed=None):
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
        self._discount = config.discount
        self.q = [0.0] * (self.n_states * N_ACTIONS)
        # The unused rest of the current block, last draw first, and the
        # generator state the block was drawn from.
        self._uniforms = []
        self._block_state = None

    def act(self, s):
        epsilon = self.epsilon
        if epsilon > 0.0:
            uniforms = self._uniforms or self._draw_block()
            if uniforms.pop() < epsilon:
                return self._explore()
        q = self.q
        # Lowest index wins ties, matching the solver's greedy reduction.
        return ACTION_ON if q[self.n_states + s] > q[s] else ACTION_OFF

    def _draw_block(self):
        rng = self.rng
        # A snapshot: PCG64.advance would drop the 32-bit half integers() keeps buffered.
        self._block_state = rng.bit_generator.state
        self._uniforms = rng.random(EXPLORATION_BLOCK)[::-1].tolist()
        return self._uniforms

    def _explore(self):
        rng = self.rng
        rng.bit_generator.state = self._block_state
        rng.random(EXPLORATION_BLOCK - len(self._uniforms))
        self._uniforms = []
        return int(rng.integers(N_ACTIONS))

    def observe(self, s, action, reward, s_next):
        q = self.q
        n = self.n_states
        # max(): the second value wins only if it is strictly greater.
        best_next = q[s_next]
        on_next = q[n + s_next]
        if on_next > best_next:
            best_next = on_next
        i = action * n + s
        old = q[i]
        q[i] = old + self.alpha * (reward + self._discount * best_next - old)
        if self.epsilon_decay < 1.0:
            self.epsilon *= self.epsilon_decay

    def hold(self, s, action, reward, k):
        """Run ``observe``'s update once a held frame, up to the first frame
        on which ``act`` would choose another action greedily or explore
        (that frame's uniform is looked at, not used)."""
        q = self.q
        on = self.n_states + s
        # act's greedy choice, as a bool: ACTION_ON is 1.
        if (q[on] > q[s]) != action:
            return 0
        i = on if action == ACTION_ON else s
        alpha, discount, decay = self.alpha, self._discount, self.epsilon_decay
        epsilon = self.epsilon
        uniforms = self._uniforms
        held = 0
        while held < k:
            if epsilon > 0.0:
                uniforms = uniforms or self._draw_block()
                if uniforms[-1] < epsilon:
                    break
                uniforms.pop()
            # The successor is s and the greedy action is action, so the
            # best successor value is q[i] itself.
            old = q[i]
            q[i] = old + alpha * (reward + discount * old - old)
            if decay < 1.0:
                epsilon *= decay
            held += 1
            if (q[on] > q[s]) != action:
                break
        self.epsilon = epsilon
        return held
