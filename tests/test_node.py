"""Factored node model: factors, assembly, energy, and reward."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from compactmdp import (
    M_CONNECTED,
    M_CONNECTING,
    M_OFF,
    MdpSpec,
    NodeConfig,
    NodeState,
    ParameterEstimates,
    assemble_stm,
    build_mdp,
    energy_per_transaction,
    reward_vector,
    rho_from_connect_time,
    to_sparse,
)
from compactmdp.core import stochastic_problems
from compactmdp.node import (
    ACTION_OFF,
    ACTION_ON,
    app_transition_problems,
    floor_frames,
    modem_stm,
    queue_factor,
)

from support import dense_stm


class TestTimingHelpers:
    def test_floor_frames_survives_binary_float_division(self):
        # 2.0 / 0.1 is 19.999... in binary floating point; the guard must not
        # lose the 20th frame.
        assert floor_frames(2.0, 0.1) == 20
        assert floor_frames(4.0, 0.1) == 40
        assert floor_frames(0.25, 0.1) == 2
        assert floor_frames(0.1, 0.1) == 1

    def test_rho_examples(self):
        assert rho_from_connect_time(2.0, 0.1) == 1.0 / 20
        assert rho_from_connect_time(0.25, 0.1) == 0.5
        assert rho_from_connect_time(0.1, 0.1) == 1.0

    def test_rho_rejects_sub_frame_connect(self):
        with pytest.raises(ValueError):
            rho_from_connect_time(0.05, 0.1)


class TestNodeState:
    def test_flat_layout(self):
        assert NodeState(0, 0, 0).flat(11) == 0
        assert NodeState(0, 0, 2).flat(11) == 2
        assert NodeState(0, 1, 0).flat(11) == 3
        assert NodeState(1, 0, 0).flat(11) == 33
        assert NodeState(1, 10, 2).flat(11) == 65

    def test_round_trip_covers_all_states(self):
        states = [NodeState.from_flat(i, 11) for i in range(66)]
        assert [s.flat(11) for s in states] == list(range(66))
        assert len(set(states)) == 66


class TestModemFactor:
    def test_on_action_topology(self):
        m = modem_stm(0.05)[ACTION_ON]
        assert_array_equal(m[M_OFF], [0.0, 1.0, 0.0])
        assert_allclose(m[M_CONNECTING], [0.0, 0.95, 0.05])
        assert_array_equal(m[M_CONNECTED], [0.0, 0.0, 1.0])

    def test_off_action_tears_down_from_anywhere(self):
        m = modem_stm(0.5)[ACTION_OFF]
        for row in m:
            assert_array_equal(row, [1.0, 0.0, 0.0])

    def test_rows_stochastic(self):
        for rho in (0.01, 0.3, 1.0):
            assert_allclose(modem_stm(rho).sum(axis=2), 1.0, atol=1e-15)

    @pytest.mark.parametrize("rho", [0.0, -0.1, 1.5])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError):
            modem_stm(rho)


def app_matrix_entry_points(sigma):
    """Each way an app-mode transition matrix enters the model, as a callable:
    the config and the sigma override of ``assemble_stm``."""
    return [
        lambda: NodeConfig(app_transition=sigma),
        lambda: assemble_stm(NodeConfig(), sigma=sigma),
    ]


class TestAppFactor:
    """The one stochastic-matrix rule, through each entry point."""

    def assert_rejected(self, sigma, problem):
        for enter in app_matrix_entry_points(sigma):
            with pytest.raises(ValueError, match=problem):
                enter()

    def test_accepts_and_returns_matrix(self):
        sigma = [[0.9, 0.1], [0.2, 0.8]]
        config = NodeConfig(app_transition=((0.9, 0.1), (0.2, 0.8)))
        assert_array_equal(assemble_stm(NodeConfig(), sigma=sigma).dense(),
                           assemble_stm(config).dense())
        assert_allclose(ParameterEstimates(config).sigma_hat, sigma)

    def test_rejects_non_stochastic_rows(self):
        self.assert_rejected([[0.9, 0.2], [0.2, 0.8]], r"rows \[0\] do not sum to 1")

    def test_rejects_negative_entries(self):
        self.assert_rejected([[1.1, -0.1], [0.0, 1.0]], r"negative entries in rows \[0\]")

    def test_rejects_non_square(self):
        self.assert_rejected([[1.0, 0.0]], "does not match")

    def test_rejects_ragged_rows(self):
        self.assert_rejected([[0.5, 0.5], [1.0]], r"rows have unequal lengths \[2, 1\]")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        self.assert_rejected([[bad, bad], [0.5, 0.5]], r"non-finite entries in rows \[0\]")

    def test_shared_rule_reports_each_fault(self):
        eye = to_sparse(np.eye(2))
        assert stochastic_problems(eye.row_idx, eye.values, eye.n_rows, "m") == []
        rows, values = np.array([0, 0, 1, 1]), np.array([0.5, 0.6, 0.0, 1.0])
        (message,) = stochastic_problems(rows, values, 2, "m")
        assert "m rows [0] do not sum to 1" in message
        assert "row 0 sums to 1.1" in message

    def test_row_sums_print_as_floats_without_stored_entries(self):
        """An all-zero matrix stores no entries; its sums still print as ``0.0``,
        as the sums of a matrix with stored entries do."""
        zero_sums = r"rows \[0, 1\] do not sum to 1 within 1e-09: row 0 sums to 0\.0, row 1 sums to 0\.0$"
        with pytest.raises(ValueError, match=r"^invalid MDP: transitions " + zero_sums):
            MdpSpec(2, 1, np.zeros(2), to_sparse(np.zeros((2, 2))))
        self.assert_rejected([[0.0, 0.0], [0.0, 0.0]], r"app_transition " + zero_sums)
        (one_entry,) = stochastic_problems(np.array([1]), np.array([1.0]), 2, "m")
        assert one_entry.endswith("row 0 sums to 0.0")

    @pytest.mark.parametrize(
        "sigma",
        [
            [[0.0, 1.0], [1.0, -0.0]],
            [[-0.0, -0.0], [0.5, 0.5]],
            [[0.7, 0.0, 0.4], [-0.2, 0.0, 1.2], [0.0, 0.0, 0.0]],
            [[0.3, 0.0, 0.7], [np.nan, 0.0, 1.0], [0.0, -0.5, 1.5]],
            [[0.1, 0.2, 0.7], [1e-10, 0.0, 1.0], [0.0, 0.0, 1.0 + 2e-9]],
            [[0.0, -0.0], [-0.0, 0.0]],
        ],
    )
    def test_dense_entries_give_the_messages_of_the_csr(self, sigma):
        """The nonzero entries of the dense matrix give the CSR's messages, bit for bit."""
        csr = to_sparse(sigma)
        want = stochastic_problems(csr.row_idx, csr.values, csr.n_rows, "app_transition")
        assert app_transition_problems(sigma, len(sigma)) == want


def queue_matrices(config, modem_next):
    """The two outcomes of :func:`queue_factor` for one successor modem state,
    summed into one ``queue_states``-square matrix per app mode."""
    dest, prob = queue_factor(config)
    out = np.zeros((config.n_app_modes, config.queue_states, config.queue_states))
    levels = np.arange(config.queue_states)[:, None]
    for mode in range(config.n_app_modes):
        np.add.at(out[mode], (levels, dest[..., modem_next]), prob[mode, ..., modem_next])
    return out


class TestQueueFactor:
    def test_disconnected_saturates_at_capacity(self):
        config = NodeConfig(app_packet_prob=(0.3, 1.0))
        q = queue_matrices(config, M_OFF)
        # Empty queue: stay with 0.7, grow with 0.3.
        assert_allclose(q[0, 0, :2], [0.7, 0.3])
        # Full queue: the arrival is dropped, all mass stays put.
        assert q[0, 10, 10] == 1.0
        # Deterministic arrivals advance the queue every frame.
        assert q[1, 4, 5] == 1.0

    def test_connected_drains_before_counting(self):
        config = NodeConfig(app_packet_prob=(0.4, 1.0), tx_per_frame=1)
        q = queue_matrices(config, M_CONNECTED)
        assert_allclose(q[0, 3, 2], 0.6)
        assert_allclose(q[0, 3, 3], 0.4)
        # An empty queue can still catch and send the same-frame arrival.
        assert_allclose(q[0, 0, 0], 1.0)

    def test_rows_stochastic_for_every_modem_outcome(self):
        config = NodeConfig()
        for modem_next in (M_OFF, M_CONNECTING, M_CONNECTED):
            q = queue_matrices(config, modem_next)
            assert_allclose(q.sum(axis=2), 1.0, atol=1e-15)


class TestAssembly:
    def test_default_shape_and_nonzeros(self):
        stacked = assemble_stm(NodeConfig())
        assert (stacked.n_rows, stacked.n_cols) == (132, 66)
        assert stacked.nnz == np.count_nonzero(stacked.values) == 444

    def test_rows_sum_to_one(self):
        stacked = assemble_stm(NodeConfig()).dense()
        assert np.abs(stacked.sum(axis=1) - 1.0).max() < 1e-9

    def test_marginal_over_successors_recovers_app_factor(self):
        config = NodeConfig()
        sigma = np.array([[0.9, 0.1], [0.3, 0.7]])
        stacked = assemble_stm(config, sigma=sigma).dense()
        nq = config.queue_states
        for action in (ACTION_OFF, ACTION_ON):
            for mode in range(2):
                state = NodeState(mode, 4, M_CONNECTING).flat(nq)
                row = stacked[action * 66 + state]
                per_mode = row.reshape(2, nq * 3).sum(axis=1)
                assert_allclose(per_mode, sigma[mode], atol=1e-12)

    def test_deterministic_factors_give_permutation_rows(self):
        config = NodeConfig(
            app_transition=((1.0, 0.0), (0.0, 1.0)),
            app_packet_prob=(0.0, 0.0),
            connect_time=0.1,  # attach completes in one frame
        )
        stacked = assemble_stm(config).dense()
        assert np.count_nonzero(stacked) == 132
        assert_array_equal(np.sort(stacked[stacked > 0]), np.ones(132))

    def test_estimate_overrides_change_only_their_factor(self):
        config = NodeConfig()
        base = assemble_stm(config).dense()
        slower = assemble_stm(config, rho=rho_from_connect_time(4.0, 0.1)).dense()
        # Rows out of CONNECTING under "on" change; rows out of OFF do not.
        nq = config.queue_states
        off_row = NodeState(0, 0, M_OFF).flat(nq) + 66  # on action
        connecting_row = NodeState(0, 0, M_CONNECTING).flat(nq) + 66
        assert_array_equal(base[off_row], slower[off_row])
        assert not np.array_equal(base[connecting_row], slower[connecting_row])


class TestEnergyModel:
    def test_single_packet_costs_the_intercept(self):
        assert energy_per_transaction(1) == 6.62

    def test_additional_packets_cost_the_slope(self):
        assert abs(energy_per_transaction(2) - 8.17) < 1e-12
        assert abs(energy_per_transaction(11) - 22.12) < 1e-12
        diffs = [
            energy_per_transaction(n + 1) - energy_per_transaction(n)
            for n in range(1, 6)
        ]
        assert_allclose(diffs, 1.55, atol=1e-12)

    def test_empty_transaction_costs_c1_minus_c2(self):
        assert energy_per_transaction(0) == 6.62 - 1.55
        assert energy_per_transaction(0, c1=3.0, c2=1.0) == 2.0
        with pytest.raises(ValueError):
            energy_per_transaction(-1)


class TestReward:
    def test_vector_frozen_entries(self):
        config = NodeConfig()  # weights (-10, 5, -100)
        r = reward_vector(config)
        nq = config.queue_states
        # Off action from OFF: no current, no traffic consequences.
        assert r[NodeState(0, 0, M_OFF).flat(nq)] == 0.0
        # On action from OFF lands in CONNECTING: 120 mA at weight -10.
        assert abs(r[66 + NodeState(0, 0, M_OFF).flat(nq)] - (-1.2)) < 1e-12
        # Saturated queue, certain arrival, staying off: certain drop.
        assert r[NodeState(1, 10, M_OFF).flat(nq)] == -100.0
        # Connected with queue 3: drains two packets whatever arrives.
        expected = -10.0 * 0.1625 + 5.0 * 2.0
        assert abs(r[66 + NodeState(0, 3, M_CONNECTED).flat(nq)] - expected) < 1e-12

    def test_connecting_on_action_mixes_completion(self):
        config = NodeConfig()  # rho = 0.05
        r = reward_vector(config)
        nq = config.queue_states
        # From CONNECTING with 5 queued, mode 0: completes with p=0.05 and
        # then drains 2; current blends connecting/connected draws.
        current = -10.0 * (0.95 * 0.120 + 0.05 * 0.1625)
        expected = current + 5.0 * 0.05 * 2.0
        got = r[66 + NodeState(0, 5, M_CONNECTING).flat(nq)]
        assert abs(got - expected) < 1e-12


class TestNodeConfig:
    def test_default_dimensions(self):
        config = NodeConfig()
        assert config.n_app_modes == 2
        assert config.capacity == 10
        assert config.n_states == 66

    def test_array_built_config_hashes_and_equals_the_tuple_built_one(self):
        config = NodeConfig(
            app_transition=np.array([[0.99, 0.01], [0.5, 0.5]]),
            app_packet_prob=np.array([0.05, 1.0]),
            currents_ma=np.array([0.0, 120.0, 162.5]),
            reward_weights=np.array([-10.0, 5.0, -100.0]),
        )
        assert config == NodeConfig()
        assert hash(config) == hash(NodeConfig())
        assert {config: 1}[NodeConfig()] == 1
        assert config.app_transition == ((0.99, 0.01), (0.5, 0.5))
        vectors = config.app_packet_prob + config.currents_ma + config.reward_weights
        assert all(type(x) is float for x in vectors + config.app_transition[0])

    def test_build_mdp_is_valid(self):
        spec = build_mdp(NodeConfig())  # MdpSpec refuses an invalid model
        assert spec.n_states == 66
        assert spec.n_actions == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(app_transition=((0.9, 0.2), (0.5, 0.5))),
            dict(app_packet_prob=(0.05, 1.5)),
            dict(tx_per_frame=0),
            dict(queue_states=1),
            dict(connect_time=0.05),
            dict(discount=1.0),
            dict(currents_ma=(0.0, 120.0)),
        ],
    )
    def test_validation_rejects(self, overrides):
        with pytest.raises(ValueError):
            NodeConfig(**overrides)


def per_cell_stm(config, sigma, rho):
    """The stacked transition matrix, one (state, action, successor) cell at a time.

    Each cell multiplies the three factors in the order of
    :func:`assemble_stm`: app mode, then queue given the successor modem,
    then modem.  The queue moves as one frame does: the arrival (if any)
    joins, a connected frame drains up to ``tx_per_frame``, and a blocked
    frame saturates at capacity.
    """
    modem = modem_stm(rho)
    n, nq = config.n_states, config.queue_states
    out = np.zeros((2 * n, n))
    for action in (ACTION_OFF, ACTION_ON):
        for s in range(n):
            now = NodeState.from_flat(s, nq)
            p = config.app_packet_prob[now.app_mode]
            for s2 in range(n):
                nxt = NodeState.from_flat(s2, nq)
                drain = config.tx_per_frame if nxt.modem == M_CONNECTED else 0
                p_queue = 0.0
                if max(now.queue - drain, 0) == nxt.queue:
                    p_queue += 1.0 - p
                if min(max(now.queue + 1 - drain, 0), config.capacity) == nxt.queue:
                    p_queue += p
                out[action * n + s, s2] = (
                    sigma[now.app_mode, nxt.app_mode]
                    * p_queue
                    * modem[action][now.modem][nxt.modem]
                )
    return out


def per_cell_rewards(config, rho):
    """The reward vector, one (state, action) cell at a time."""
    modem = modem_stm(rho)
    amps = np.array([c * 1e-3 for c in config.currents_ma])
    w_current, w_tx, w_drop = config.reward_weights
    n, nq, tx = config.n_states, config.queue_states, config.tx_per_frame
    out = np.empty(2 * n)
    for action in (ACTION_OFF, ACTION_ON):
        for s in range(n):
            now = NodeState.from_flat(s, nq)
            p = config.app_packet_prob[now.app_mode]
            dist = modem[action][now.modem]
            p_conn = dist[M_CONNECTED]
            tx_if_connected = (1.0 - p) * min(now.queue, tx) + p * min(now.queue + 1, tx)
            drop_if_blocked = p if now.queue == config.capacity else 0.0
            out[action * n + s] = (
                w_current * float(dist @ amps)
                + w_tx * p_conn * tx_if_connected
                + w_drop * (1.0 - p_conn) * drop_if_blocked
            )
    return out


@st.composite
def stochastic_matrices(draw, n):
    weights = st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    sigma = np.array([draw(weights) for _ in range(n)])
    return sigma / sigma.sum(axis=1, keepdims=True)


@st.composite
def node_models(draw):
    """A random valid node config, a runtime sigma for it, and a rho."""
    modes = draw(st.integers(1, 3))

    def floats(lo, hi, size):
        return tuple(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    config = NodeConfig(
        queue_states=draw(st.integers(2, 6)),
        app_transition=tuple(map(tuple, draw(stochastic_matrices(modes)).tolist())),
        app_packet_prob=floats(0.0, 1.0, modes),
        currents_ma=floats(0.0, 500.0, 3),
        tx_per_frame=draw(st.integers(1, 3)),
        reward_weights=floats(-1e3, 1e3, 3),
    )
    return config, draw(stochastic_matrices(modes)), draw(st.floats(1e-6, 1.0))


@st.composite
def csr_models(draw):
    """A node model as :func:`node_models` draws it, with exact zeros in the
    runtime sigma (each row keeps at least its diagonal) and rho = 1 half the time."""
    config, sigma, rho = draw(node_models())
    n = len(sigma)
    keep = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    keep |= np.eye(n, dtype=bool)
    sigma = np.where(keep, sigma, 0.0)
    sigma /= sigma.sum(axis=1, keepdims=True)
    return config, sigma, draw(st.sampled_from([1.0, rho]))


class TestFactoredConstruction:
    """The vectorised model equals the per-cell frame semantics, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(csr_models())
    @example((NodeConfig(tx_per_frame=1, connect_time=0.1), np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0))
    @example((NodeConfig(tx_per_frame=2), np.array([[0.9, 0.1], [0.0, 1.0]]), 1.0))
    @example((NodeConfig(tx_per_frame=3, app_packet_prob=(0.0, 1.0)),
              np.array([[0.0, 1.0], [0.5, 0.5]]), 0.05))
    def test_csr_arrays_match_the_dense_oracle(self, model):
        """Entry for entry and bit for bit, the CSR of the dense einsum
        product with its exact zeros dropped."""
        config, sigma, rho = model
        got = assemble_stm(config, sigma=sigma, rho=rho)
        want = to_sparse(dense_stm(config, sigma, rho))
        for name in ("row_idx", "col_idx", "values"):
            assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.row_idx.dtype == want.row_idx.dtype == np.intp

    @settings(max_examples=60, deadline=None)
    @given(node_models())
    def test_transitions_match_per_cell_evaluation(self, model):
        config, sigma, rho = model
        assert np.array_equal(assemble_stm(config, sigma=sigma, rho=rho).dense(),
                              per_cell_stm(config, sigma, rho))

    @settings(max_examples=60, deadline=None)
    @given(node_models())
    def test_rewards_match_per_cell_evaluation(self, model):
        config, _, rho = model
        assert np.array_equal(reward_vector(config, rho=rho), per_cell_rewards(config, rho))

    def test_default_model_matches_per_cell_evaluation(self):
        config = NodeConfig()
        rho = rho_from_connect_time(config.connect_time, config.frame_period)
        sigma = np.asarray(config.app_transition)
        assert np.array_equal(assemble_stm(config).dense(), per_cell_stm(config, sigma, rho))
        assert np.array_equal(reward_vector(config), per_cell_rewards(config, rho))
