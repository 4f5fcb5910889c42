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
those semantics, and the simulator in :mod:`compactmdp.sim` steps the same
way, with one approximation: the simulator completes an attach in exactly
``N = floor(connect_time / frame_period)`` frames, while the model leaves
``M_CONNECTING`` with probability ``rho = 1 / N`` per frame.  The two attach
times have the same mean, ``N`` frames.

A :class:`NodeConfig` is checked once, when it is built (or ``replace``-d), so
the functions here check only their own extra arguments, such as a ``sigma``
or ``rho`` override.  :func:`assemble_stm` forms only the nonzero entries of
the stacked transition matrix, and :func:`~compactmdp.sparse.coo_to_csr`
stores them sorted by row: one row index, column index and value each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MdpSpec, stochastic_problems
from .sparse import coo_to_csr

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


def check_frame_period(frame_period):
    """Raise ``ValueError`` unless ``frame_period`` is finite and > 0."""
    if not 0.0 < frame_period < math.inf:
        raise ValueError(f"frame_period must be finite and > 0, got {frame_period}")


def floor_frames(seconds, frame_period):
    """Whole frames contained in ``seconds``, guarded against float dust."""
    check_frame_period(frame_period)
    if not math.isfinite(seconds):
        raise ValueError(f"duration {seconds} is not finite")
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
        Average current draw in mA per modem state, at ``SUPPLY_VOLTS``; the
        reward's current term takes it in amperes.
    tx_per_frame : int
        Maximum packets transmitted per connected frame.
    energy_c1, energy_c2 : float
        Transaction energy model: a transaction carrying ``n`` packets costs
        ``(c1 - c2) + c2 * n`` joules (see :func:`energy_per_transaction`).
    reward_weights : tuple
        ``(current_weight, tx_reward, drop_penalty)``: the objective of a
        controller built for this node; :func:`compactmdp.sim.simulate`
        rewards that controller's frames by it.
    discount, tolerance : float
        Planning parameters handed to the solver.
    """

    queue_states: int = 11
    app_transition: tuple = ((0.99, 0.01), (0.5, 0.5))
    app_packet_prob: tuple = (0.05, 1.0)
    frame_period: float = 0.1
    connect_time: float = 2.0
    currents_ma: tuple = (0.0, 120.0, 162.5)
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

    def __post_init__(self):
        """Raise :class:`NodeConfigError` naming every fault; every float must be finite.

        The matrix and vectors are kept as tuples of float, so configs hash and compare.
        """
        matrix = tuple(tuple(float(x) for x in row) for row in self.app_transition)
        object.__setattr__(self, "app_transition", matrix)
        for name in ("app_packet_prob", "currents_ma", "reward_weights"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        faults = []

        def fault(message, *names):
            faults.append((names, message))

        if not 2 <= self.queue_states:
            fault(f"queue_states must be >= 2, got {self.queue_states}", "queue_states")
        if not 1 <= self.n_app_modes:
            fault("app_packet_prob must name at least one mode", "app_packet_prob")
        # The mode count app_packet_prob sets fixes the matrix's shape.
        for message in app_transition_problems(self.app_transition, self.n_app_modes):
            fault(message, "app_transition", "app_packet_prob")
        for i, p in enumerate(self.app_packet_prob):
            if not 0.0 <= p <= 1.0:
                fault(f"app_packet_prob[{i}]={p} outside [0, 1]", "app_packet_prob")
        if not 0.0 < self.frame_period < math.inf:
            fault(f"frame_period must be finite and > 0, got {self.frame_period}", "frame_period")
        elif not self.frame_period <= self.connect_time < math.inf:
            fault(f"connect_time {self.connect_time} infinite or shorter than one frame",
                  "connect_time", "frame_period")
        if len(self.currents_ma) != N_MODEM_STATES:
            fault("currents_ma must give one value per modem state", "currents_ma")
        elif not all(0.0 <= c < math.inf for c in self.currents_ma):
            fault(f"currents_ma must be finite and >= 0, got {self.currents_ma}", "currents_ma")
        if not 1 <= self.tx_per_frame:
            fault(f"tx_per_frame must be >= 1, got {self.tx_per_frame}", "tx_per_frame")
        if len(self.reward_weights) != 3:
            fault("reward_weights must be (current, tx, drop)", "reward_weights")
        if non_finite := [name for name in ("reward_weights", "energy_c1", "energy_c2")
                          if not np.isfinite(getattr(self, name)).all()]:
            fault("reward_weights, energy_c1 and energy_c2 must be finite", *non_finite)
        if not 0.0 <= self.discount < 1.0:
            fault(f"discount must be in [0, 1), got {self.discount}", "discount")
        if not 0.0 < self.tolerance < math.inf:
            fault(f"tolerance must be finite and > 0, got {self.tolerance}", "tolerance")
        if faults:
            raise NodeConfigError(faults)


class NodeConfigError(ValueError):
    """An invalid node: ``faults`` pairs each message with its fields, main one first."""

    def __init__(self, faults):
        self.faults = tuple(faults)
        super().__init__("invalid node config: " + "; ".join(m for _, m in faults))


def app_transition_problems(sigma, n_modes):
    """Why ``sigma`` is not an ``n_modes``-square stochastic matrix, as messages."""
    lengths = [np.size(row) for row in sigma]
    if len(set(lengths)) > 1:
        return [f"app_transition rows have unequal lengths {lengths}"]
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n_modes, n_modes):
        return [f"app_transition shape {sigma.shape} does not match {n_modes} modes"]
    return stochastic_problems(np.nonzero(sigma)[0], sigma[sigma != 0], n_modes, "app_transition")


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


def queue_factor(config):
    """The queue factor as two outcomes per row: ``(dest, prob)``.

    From level ``q``, a frame ending in modem state ``m2`` moves the queue to
    ``dest[q, 0, m2]`` without an arrival, with probability
    ``prob[mode, q, 0, m2] = 1 - p``, and to ``dest[q, 1, m2]`` with one, with
    ``p``, the mode's arrival probability.  A connected frame enqueues the
    arrival and then drains up to ``tx_per_frame`` packets; a disconnected
    frame only absorbs it, dropping it at capacity.  Where both outcomes land
    on one level, the first holds ``(1 - p) + p``, added in that order, and
    the second 0.
    """
    q = np.arange(config.queue_states)[:, None]
    drain = np.where(np.arange(N_MODEM_STATES) == M_CONNECTED, config.tx_per_frame, 0)
    idle = np.maximum(q - drain, 0)
    arrival = np.minimum(np.maximum(q + 1 - drain, 0), config.capacity)
    p = np.array(config.app_packet_prob, dtype=float)[:, None, None]
    merged = idle == arrival
    prob = np.stack([np.where(merged, (1.0 - p) + p, 1.0 - p), np.where(merged, 0.0, p)], axis=2)
    return np.stack([idle, arrival], axis=1), prob


def assemble_stm(config, sigma=None, rho=None):
    """Assemble the stacked transition matrix, in CSR form, from the three factors.

    The state index follows :meth:`NodeState.flat` and rows follow the
    action-major layout described in :mod:`compactmdp.core`.  The joint
    probability factorizes as

        p(app', queue', modem' | state, action)
          = p(app' | app) * p(queue' | modem', queue, app) * p(modem' | modem, action)

    with the queue factor conditioned on the *successor* modem state, since
    drain depends on where the modem ends the frame.  Each product is taken
    in that order, and exact zeros are dropped.  Because each factor is
    row-stochastic the product rows sum to 1 by construction.  Only the two
    queue outcomes of each row are formed, so no dense ``S²·A`` matrix exists.

    Parameters
    ----------
    config : NodeConfig
    sigma : array, optional
        Override for the app-mode transition matrix (e.g. a runtime estimate).
    rho : float, optional
        Override for the attach completion probability.

    Returns
    -------
    SparseMatrixCSR, shape (n_states * 2, n_states)
    """
    if sigma is None:
        sigma = config.app_transition
    elif problems := app_transition_problems(sigma, config.n_app_modes):
        raise ValueError("invalid sigma override: " + "; ".join(problems))
    sigma = np.asarray(sigma, dtype=float)
    if rho is None:
        rho = rho_from_connect_time(config.connect_time, config.frame_period)
    modem = modem_stm(rho)
    dest, prob = queue_factor(config)
    # joint[action, mode, queue, modem, mode', outcome, modem'], multiplied in
    # the order above; the successor's queue level is dest[queue, outcome, modem'].
    joint = (
        sigma[None, :, None, None, :, None, None] * prob[None, :, :, None, None]
    ) * modem[:, None, None, :, None, None, :]
    a, i, q, m, i2, e, m2 = entries = np.nonzero(joint)
    nq, n = config.queue_states, config.n_states
    rows = ((a * config.n_app_modes + i) * nq + q) * N_MODEM_STATES + m
    cols = (i2 * nq + dest[q, e, m2]) * N_MODEM_STATES + m2
    return coo_to_csr(N_ACTIONS * n, n, rows, cols, joint[entries])


def energy_per_transaction(n_packets, c1=NodeConfig.energy_c1, c2=NodeConfig.energy_c2):
    """Energy in joules for one modem transaction carrying ``n_packets`` >= 0.

    Affine in the packet count, ``(c1 - c2) + c2 * n_packets``: a one-packet
    transaction costs ``c1`` and each further packet adds ``c2``.  An empty
    transaction (an attach that sent nothing) costs the intercept ``c1 - c2``.
    """
    if n_packets < 0:
        raise ValueError(f"a transaction carries n >= 0 packets, got {n_packets}")
    return (c1 - c2) + c2 * n_packets


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
    if rho is None:
        rho = rho_from_connect_time(config.connect_time, config.frame_period)
    modem = modem_stm(rho)
    amps = np.array([c * 1e-3 for c in config.currents_ma])
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
    """Bundle the CSR transition matrix of :func:`assemble_stm` and the reward vector as an MDP."""
    return MdpSpec(
        n_states=config.n_states,
        n_actions=N_ACTIONS,
        rewards=reward_vector(config, rho=rho),
        transitions=assemble_stm(config, sigma=sigma, rho=rho),
        discount=config.discount,
        tolerance=config.tolerance,
    )
