"""Shared test helpers."""

import numpy as np

from compactmdp import ACTION_ON, MdpSpec, NodeConfig, to_sparse
from compactmdp.node import M_CONNECTED, N_ACTIONS, N_MODEM_STATES, modem_stm, rho_from_connect_time


def random_mdp(rng, max_states=50, max_actions=4, sparsity=(0.5, 0.99)):
    """A random row-stochastic MDP with controlled sparsity.

    Every row keeps at least one nonzero so the matrix stays stochastic.
    Rewards are standard normal, the discount is drawn from [0.8, 0.97].
    """
    n_states = int(rng.integers(2, max_states + 1))
    n_actions = int(rng.integers(1, max_actions + 1))
    target = float(rng.uniform(*sparsity))
    n_rows = n_states * n_actions
    transitions = np.zeros((n_rows, n_states))
    for row in range(n_rows):
        k = max(1, int(round((1.0 - target) * n_states)))
        cols = rng.choice(n_states, size=k, replace=False)
        weights = rng.random(k) + 1e-3
        transitions[row, cols] = weights / weights.sum()
    return MdpSpec(
        n_states=n_states,
        n_actions=n_actions,
        rewards=rng.standard_normal(n_rows),
        transitions=to_sparse(transitions),
        discount=float(rng.uniform(0.8, 0.97)),
        tolerance=1e-6,
    )


def sticky_node(n_modes, seed=1):
    """A node of ``n_modes`` app modes that stay put with probability about
    0.95, each emitting a packet with probability 0.01, and 2 queue levels."""
    rng = np.random.default_rng(seed)
    sigma = np.full((n_modes, n_modes), 0.05 / (n_modes - 1))
    np.fill_diagonal(sigma, 0.95)
    sigma += rng.random((n_modes, n_modes)) * 1e-6
    sigma /= sigma.sum(axis=1, keepdims=True)
    return NodeConfig(app_transition=sigma, app_packet_prob=(0.01,) * n_modes, queue_states=2)


def dense_queue_stm(config, modem_next):
    """The queue factor as dense matrices, shape ``(n_app_modes, queue_states, queue_states)``.

    Layer ``i`` uses mode ``i``'s arrival probability.  A connected frame
    enqueues the arrival and then drains up to ``tx_per_frame`` packets; a
    disconnected frame only absorbs the arrival, saturating at capacity.
    """
    drain = config.tx_per_frame if modem_next == M_CONNECTED else 0
    p = np.array(config.app_packet_prob, dtype=float)[:, None]
    q = np.arange(config.queue_states)
    out = np.zeros((config.n_app_modes, q.size, q.size))
    # Where both outcomes land in one cell it holds (1 - p) + p, added in that order.
    out[:, q, np.maximum(q - drain, 0)] += 1.0 - p
    out[:, q, np.minimum(np.maximum(q + 1 - drain, 0), config.capacity)] += p
    return out


def dense_stm(config, sigma=None, rho=None):
    """The dense oracle of ``assemble_stm``: the ``(S·A, S)`` stacked matrix.

    One ``einsum`` per action multiplies the app factor, the dense queue
    factor and the modem factor over every (state, successor) cell.
    """
    sigma = np.asarray(config.app_transition if sigma is None else sigma, dtype=float)
    if rho is None:
        rho = rho_from_connect_time(config.connect_time, config.frame_period)
    modem = modem_stm(rho)
    n = config.n_states
    # Queue factor stacked over the successor modem state: qf[m2, mode, q, q2].
    qf = np.stack([dense_queue_stm(config, m2) for m2 in range(N_MODEM_STATES)])
    stacked = np.empty((N_ACTIONS * n, n))
    for action in range(N_ACTIONS):
        # joint[mode, q, m, mode2, q2, m2]
        joint = np.einsum("ij,mikl,nm->iknjlm", sigma, qf, modem[action])
        stacked[action * n : (action + 1) * n] = joint.reshape(n, n)
    return stacked


class NeverHolds:
    """A ``hold`` that holds no frame, so that ``simulate`` calls ``act`` and
    ``observe`` on every frame."""

    def hold(self, s, action, reward, k):
        return 0


def never_holding(controller):
    """``controller``, holding no frame from now on."""
    controller.hold = NeverHolds().hold
    return controller


def controller_state(controller):
    """Everything a run leaves in a controller, as comparable values: the
    Q-table's bits, epsilon, the generator and its unused uniforms, the
    planner's policy, counters, clocks, pending log and estimates' bits."""
    state = {}
    if hasattr(controller, "q"):
        state["q"] = np.array(controller.q).view(np.int64).tolist()
        state["epsilon"] = repr(controller.epsilon)
        state["rng"] = controller.rng.bit_generator.state
        state["uniforms"] = repr(controller._uniforms)
        state["block_state"] = controller._block_state
    if hasattr(controller, "estimates"):
        estimates = controller.estimates
        for name in ("policy", "solve_count", "total_kernel_ops", "solver_failures",
                     "_acts_to_solve", "_connecting_frames"):
            state[name] = getattr(controller, name)
        state["log"] = bytes(estimates._transitions)
        state["connect_time_hat"] = repr(estimates.connect_time_hat)
        state["sigma_hat"] = estimates.sigma_hat.tobytes()
    return state


class AlwaysOnController(NeverHolds):
    """Keeps the modem on unconditionally; useful as a latency floor."""

    def __init__(self, config):
        self.config = config

    def act(self, state):
        return ACTION_ON

    def observe(self, prev_state, action, reward, next_state):
        return None


def render(value):
    """A node value in scenario-file syntax: scalar, vector, or ``;``-separated rows."""
    if not isinstance(value, tuple):
        return repr(value)
    if value and isinstance(value[0], tuple):
        return " ; ".join(render(row) for row in value)
    return " ".join(repr(x) for x in value)
