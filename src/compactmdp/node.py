"""Cellular sensor-node model: factored state, transition factors, energy, reward.

The node is described by a factored state ``(app_mode, queue, modem)``:

* ``app_mode`` — which application activity pattern is running (e.g. slow
  periodic sensing vs. a bursty update).  Evolves as a Markov chain that the
  controller cannot influence.
* ``queue`` — number of packets waiting, ``0 .. capacity``.
* ``modem`` — radio state: ``M_OFF``, ``M_CONNECTING`` (network attach in
  progress), ``M_CONNECTED`` (transmitting).

The control action each frame is binary: request the modem off or on.

Time advances in fixed frames of ``frame_period`` seconds.  Within a frame the
modem moves first (so the frame is spent in the *new* modem state), the
application may emit a packet, and the queue then drains by up to
``tx_per_frame`` packets if the modem ends the frame connected, or absorbs the
arrival (dropping on overflow) otherwise.  The transition factors below encode
exactly those semantics, and the simulator in :mod:`compactmdp.sim` steps the
same way, so the model is the simulator's exact marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MdpSpec, stochastic_problems

# Modem states.
M_OFF, M_CONNECTING, M_CONNECTED = 0, 1, 2
N_MODEM_STATES = 3

# Control actions.  "Off" must sit at index 0 so that greedy tie-breaks and
# all-zero Q-tables resolve to the safe action.
ACTION_OFF, ACTION_ON = 0, 1
N_ACTIONS = 2

#: Supply rail used when converting modem current draw to power.
SUPPLY_VOLTS = 4.0

#: Guard added before flooring a duration/frame ratio: 2.0 / 0.1 is
#: 19.999999999999996 in binary floating point, and truncating that to 19
#: frames would be wrong by a full frame.
_FLOOR_GUARD = 1e-9


def floor_frames(seconds, frame_period):
    """Whole frames contained in ``seconds``, guarded against float dust."""
    if not 0.0 < frame_period < math.inf:
        raise ValueError(f"frame_period must be finite and > 0, got {frame_period}")
    if not math.isfinite(seconds):
        raise ValueError(f"a duration must be finite, got {seconds} s")
    return int(math.floor(seconds / frame_period + _FLOOR_GUARD))


def rho_from_connect_time(connect_time, frame_period):
    """Per-frame completion probability matching a mean connect delay.

    The attach transient is modeled as a geometric exit from ``M_CONNECTING``
    with success probability ``rho = 1 / floor(connect_time / frame_period)``,
    so the expected dwell equals the whole-frame connect time.
    """
    if connect_time < frame_period:
        raise ValueError(
            f"connect_time {connect_time} must be >= frame_period {frame_period}"
        )
    return 1.0 / floor_frames(connect_time, frame_period)


@dataclass(frozen=True)
class NodeState:
    """One factored node state."""

    app_mode: int
    queue: int
    modem: int

    def flat(self, queue_states):
        """Flat state index; modem varies fastest, then queue, then app mode."""
        return (self.app_mode * queue_states + self.queue) * N_MODEM_STATES + self.modem

    @classmethod
    def from_flat(cls, index, queue_states):
        index, modem = divmod(index, N_MODEM_STATES)
        app_mode, queue = divmod(index, queue_states)
        return cls(app_mode=app_mode, queue=queue, modem=modem)


@dataclass(frozen=True)
class NodeConfig:
    """Design-time description of the node, its traffic, and its costs.

    Attributes
    ----------
    queue_states : int
        Number of queue levels (capacity is ``queue_states - 1``).
    app_transition : nested tuple
        Application-mode transition probabilities (row-stochastic).
    app_packet_prob : tuple
        Per-mode probability of emitting one packet in a frame.
    frame_period : float
        Frame length in seconds.
    connect_time : float
        Mean network-attach delay in seconds (design-time prior; the runtime
        estimate can replace it when building the planning model).
    currents_ma : tuple
        Average current draw in mA per modem state, at ``SUPPLY_VOLTS``.
    current_scale : float
        Unit scale applied to the current term of the reward (1.0 keeps the
        reward current in amperes).
    tx_per_frame : int
        Maximum packets transmitted per connected frame.
    energy_c1, energy_c2 : float
        Transaction energy model: a transaction carrying ``n`` packets costs
        ``c1 + c2 * (n - 1)`` joules.
    reward_weights : tuple
        ``(current_weight, tx_reward, drop_penalty)``.
    discount, tolerance : float
        Planning parameters handed to the solver.
    """

    queue_states: int = 11
    app_transition: tuple = ((0.99, 0.01), (0.5, 0.5))
    app_packet_prob: tuple = (0.05, 1.0)
    frame_period: float = 0.1
    connect_time: float = 2.0
    currents_ma: tuple = (0.0, 120.0, 162.5)
    current_scale: float = 1.0
    tx_per_frame: int = 2
    energy_c1: float = 6.62
    energy_c2: float = 1.55
    reward_weights: tuple = (-10.0, 5.0, -100.0)
    discount: float = 0.95
    tolerance: float = 1e-6

    @property
    def n_app_modes(self):
        return len(self.app_packet_prob)

    @property
    def capacity(self):
        return self.queue_states - 1

    @property
    def n_states(self):
        return self.n_app_modes * self.queue_states * N_MODEM_STATES

    def validate(self):
        """Raise ``ValueError`` listing every problem; every float must be finite."""
        problems = []
        if not 2 <= self.queue_states:
            problems.append(f"queue_states must be >= 2, got {self.queue_states}")
        if not 1 <= self.n_app_modes:
            problems.append("app_packet_prob must name at least one mode")
        problems += app_transition_problems(self.app_transition, self.n_app_modes)
        for i, p in enumerate(self.app_packet_prob):
            if not 0.0 <= p <= 1.0:
                problems.append(f"app_packet_prob[{i}]={p} outside [0, 1]")
        if not 0.0 < self.frame_period < math.inf:
            problems.append(f"frame_period must be finite and > 0, got {self.frame_period}")
        elif not self.frame_period <= self.connect_time < math.inf:
            problems.append(
                f"connect_time {self.connect_time} infinite or shorter than one frame"
            )
        if len(self.currents_ma) != N_MODEM_STATES:
            problems.append("currents_ma must give one value per modem state")
        elif not all(0.0 <= c < math.inf for c in self.currents_ma):
            problems.append(f"currents_ma must be finite and >= 0, got {self.currents_ma}")
        if not 0.0 <= self.current_scale < math.inf:
            problems.append(f"current_scale must be finite and >= 0, got {self.current_scale}")
        if not 1 <= self.tx_per_frame:
            problems.append(f"tx_per_frame must be >= 1, got {self.tx_per_frame}")
        if len(self.reward_weights) != 3:
            problems.append("reward_weights must be (current, tx, drop)")
        if not all(map(math.isfinite, (*self.reward_weights, self.energy_c1, self.energy_c2))):
            problems.append("reward_weights, energy_c1 and energy_c2 must be finite")
        if not 0.0 <= self.discount < 1.0:
            problems.append(f"discount must be in [0, 1), got {self.discount}")
        if not 0.0 < self.tolerance < math.inf:
            problems.append(f"tolerance must be finite and > 0, got {self.tolerance}")
        if problems:
            raise ValueError("invalid node config: " + "; ".join(problems))
        return self


def app_transition_problems(sigma, n_modes):
    """Why ``sigma`` is not an ``n_modes``-square stochastic matrix, as messages."""
    lengths = [np.size(row) for row in sigma]
    if len(set(lengths)) > 1:
        return [f"app_transition rows have unequal lengths {lengths}"]
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n_modes, n_modes):
        return [f"app_transition shape {sigma.shape} does not match {n_modes} modes"]
    return stochastic_problems(sigma, "app_transition")


def modem_stm(rho):
    """Modem transition matrices, one per action, indexed ``[action][from][to]``.

    Under ``ACTION_ON`` the modem leaves ``M_OFF`` for ``M_CONNECTING``
    immediately, completes the attach with probability ``rho`` per frame, and
    then holds ``M_CONNECTED``.  ``ACTION_OFF`` tears down from any state
    within the frame.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    off = np.zeros((N_MODEM_STATES, N_MODEM_STATES))
    off[:, M_OFF] = 1.0
    on = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 1.0 - rho, rho],
            [0.0, 0.0, 1.0],
        ]
    )
    return np.stack([off, on])


def queue_stm(config, modem_next):
    """Queue transition matrices given the end-of-frame modem state.

    Returns an array of shape ``(n_app_modes, queue_states, queue_states)``;
    layer ``i`` uses mode ``i``'s arrival probability.  A connected frame
    enqueues the arrival and then drains up to ``tx_per_frame`` packets; a
    disconnected frame only absorbs the arrival, saturating at capacity (the
    overflow arrival is dropped, not stored).
    """
    drain = config.tx_per_frame if modem_next == M_CONNECTED else 0
    p = np.array(config.app_packet_prob, dtype=float)[:, None]
    q = np.arange(config.queue_states)
    out = np.zeros((config.n_app_modes, q.size, q.size))
    # Where both outcomes land in one cell it holds (1 - p) + p, added in that order.
    out[:, q, np.maximum(q - drain, 0)] += 1.0 - p
    out[:, q, np.minimum(np.maximum(q + 1 - drain, 0), config.capacity)] += p
    return out


def assemble_stm(config, sigma=None, rho=None):
    """Assemble the stacked transition matrix from the three factors.

    The state index follows :meth:`NodeState.flat` and rows follow the
    action-major layout described in :mod:`compactmdp.core`.  The joint
    probability factorizes as

        p(app', queue', modem' | state, action)
          = p(app' | app) * p(queue' | modem', queue, app) * p(modem' | modem, action)

    with the queue factor conditioned on the *successor* modem state, since
    drain depends on where the modem ends the frame.  Because each factor is
    row-stochastic the product rows sum to 1 by construction.

    Parameters
    ----------
    config : NodeConfig
    sigma : array, optional
        Override for the app-mode transition matrix (e.g. a runtime estimate).
    rho : float, optional
        Override for the attach completion probability.

    Returns
    -------
    ndarray, shape (n_states * 2, n_states)
    """
    config.validate()
    if sigma is None:
        sigma = config.app_transition
    elif problems := app_transition_problems(sigma, config.n_app_modes):
        raise ValueError("invalid sigma override: " + "; ".join(problems))
    sigma = np.asarray(sigma, dtype=float)
    if rho is None:
        rho = rho_from_connect_time(config.connect_time, config.frame_period)
    modem = modem_stm(rho)

    n = config.n_states
    # Queue factor stacked over the successor modem state: qf[m2, mode, q, q2].
    qf = np.stack([queue_stm(config, m2) for m2 in range(N_MODEM_STATES)])
    stacked = np.empty((N_ACTIONS * n, n))
    for action in range(N_ACTIONS):
        # joint[mode, q, m, mode2, q2, m2]
        joint = np.einsum("ij,mikl,nm->iknjlm", sigma, qf, modem[action])
        stacked[action * n : (action + 1) * n] = joint.reshape(n, n)
    return stacked


def energy_per_transaction(n_packets, c1=6.62, c2=1.55):
    """Energy in joules for one modem transaction carrying ``n_packets``.

    Affine in the packet count: the first packet pays the connection overhead
    ``c1``, each further packet adds ``c2``.
    """
    if n_packets < 1:
        raise ValueError(f"a transaction carries at least one packet, got {n_packets}")
    return c1 + c2 * (n_packets - 1)


def reward_vector(config, rho=None):
    """Expected per-frame reward for every (state, action) row.

    Uses the same frame semantics as :func:`assemble_stm`: the modem advances
    first, so current draw, transmissions, and drops are all expectations over
    the successor modem state.  The current and connection terms depend on
    (action, modem), the delivery and drop terms on (mode, queue); one
    broadcast over (action, mode, queue, modem) combines them.

    Returns
    -------
    ndarray, shape (n_states * 2,)
    """
    config.validate()
    if rho is None:
        rho = rho_from_connect_time(config.connect_time, config.frame_period)
    modem = modem_stm(rho)
    amps = np.array([c * 1e-3 * config.current_scale for c in config.currents_ma])
    w_current, w_tx, w_drop = config.reward_weights
    # [action, 1, 1, modem]: one dot product per modem row, because a batched
    # matmul may round the three-term sums differently.
    current = np.array([[dist @ amps for dist in rows] for rows in modem])[:, None, None, :]
    p_conn = modem[:, None, None, :, M_CONNECTED]
    # [mode, queue]: a connected frame enqueues the arrival, then drains.
    p = np.array(config.app_packet_prob, dtype=float)[:, None]
    q = np.arange(config.queue_states)
    tx = config.tx_per_frame
    tx_if_connected = (1.0 - p) * np.minimum(q, tx) + p * np.minimum(q + 1, tx)
    drop_if_blocked = np.where(q == config.capacity, p, 0.0)
    value = (
        w_current * current
        + w_tx * p_conn * tx_if_connected[:, :, None]
        + w_drop * (1.0 - p_conn) * drop_if_blocked[:, :, None]
    )
    return value.reshape(-1)


def build_mdp(config, sigma=None, rho=None):
    """Bundle the assembled transition matrix and reward vector as an MDP."""
    return MdpSpec(
        n_states=config.n_states,
        n_actions=N_ACTIONS,
        rewards=reward_vector(config, rho=rho),
        transitions=assemble_stm(config, sigma=sigma, rho=rho),
        discount=config.discount,
        tolerance=config.tolerance,
    )


def stm_nonzeros(config, sigma=None, rho=None):
    """Number of nonzero entries in the assembled stacked transition matrix."""
    return int(np.count_nonzero(assemble_stm(config, sigma=sigma, rho=rho)))
