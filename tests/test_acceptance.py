"""End-to-end acceptance suite.

Ten numbered criteria cover the package's headline claims: byte budgets,
transition-matrix sparsity, solver equivalence, the energy and power models,
attach-time statistics, the latency/energy frontier, simulation invariants,
and learned-parameter counts.  Each test prints one ``PASS``/``FAIL`` summary
line; run ``pytest tests/test_acceptance.py -v -s`` to see them.

The frontier criterion runs the full default sweep (three controller series,
five seeds) and takes a few minutes; everything else is fast.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from compactmdp import (
    MCU_QL,
    MCU_SVI,
    NodeConfig,
    ParameterEstimates,
    QLearningController,
    Scenario,
    StructuredController,
    ThresholdController,
    assemble_stm,
    average_power,
    crossover_period,
    dense_value_iteration,
    energy_per_transaction,
    load_scenario,
    pareto_sweep,
    simulate,
    stm_nonzeros,
    storage_report,
    svi_solve,
)
from compactmdp.node import M_CONNECTING, build_mdp, floor_frames
from support import AlwaysOnController, random_mdp


class Criterion:
    """Prints one PASS/FAIL line per criterion, with timing."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.detail = ""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n{status} criterion {self.number:2d} [{self.title}]: "
              f"{self.detail or exc} ({elapsed:.2f}s)")
        return False


@pytest.fixture(scope="module")
def default_sweep():
    """The shipped default scenario swept with the default grids and seeds."""
    t0 = time.perf_counter()
    points = pareto_sweep(load_scenario())
    return points, time.perf_counter() - t0


def test_criterion_01_storage_byte_budgets():
    with Criterion(1, "storage byte budgets") as c:
        t0 = time.perf_counter()
        report = storage_report(66, 2, 444)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        assert report.dense_bytes == 34848
        assert report.sparse_bytes == 2664
        assert report.qfunction_bytes == 528
        assert elapsed_ms < 1.0
        c.detail = (f"dense=34848 sparse=2664 qfunction=528 bytes, "
                    f"{elapsed_ms:.3f} ms")


def test_criterion_02_transition_matrix_sparsity():
    with Criterion(2, "transition-matrix sparsity") as c:
        t0 = time.perf_counter()
        default = NodeConfig()
        k_nz = stm_nonzeros(default)
        assert k_nz == 444
        stacked = assemble_stm(default)
        sparsity = 1.0 - np.count_nonzero(stacked) / stacked.size
        assert sparsity >= 0.90
        perturbed = [
            replace(default, app_transition=((0.9, 0.1), (0.3, 0.7))),
            replace(default, app_packet_prob=(0.2, 1.0)),
            replace(default, connect_time=3.7),
            replace(default, tx_per_frame=1),
        ]
        counts = [stm_nonzeros(cfg) for cfg in perturbed]
        for count, cfg in zip(counts, perturbed):
            assert abs(count - 444) <= 0.15 * 444
            dense_cells = cfg.n_states**2 * 2
            assert 1.0 - count / dense_cells >= 0.90
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        c.detail = (f"default k_nz=444 sparsity={sparsity:.4f}, "
                    f"perturbed k_nz={counts}")


def test_criterion_03_sparse_solver_matches_dense_reference():
    with Criterion(3, "sparse/dense solver agreement") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240817)
        worst = 0.0
        specs = [random_mdp(rng) for _ in range(200)]
        specs.append(build_mdp(NodeConfig()))
        for spec in specs:
            sparse = svi_solve(spec)
            values, policy, iterations = dense_value_iteration(spec)
            assert np.array_equal(sparse.policy, policy)
            gap = float(np.max(np.abs(sparse.values - values)))
            worst = max(worst, gap)
            assert gap <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        c.detail = (f"{len(specs)} problems, identical policies, "
                    f"max value gap {worst:.2e}")


def test_criterion_04_transaction_energy_model():
    with Criterion(4, "transaction energy model") as c:
        assert energy_per_transaction(1) == 6.62
        slopes = [
            energy_per_transaction(n + 1) - energy_per_transaction(n)
            for n in range(1, 21)
        ]
        assert max(abs(s - 1.55) for s in slopes) < 1e-12
        c.detail = "first packet 6.62 J, marginal packet 1.55 J"


def test_criterion_05_power_crossover_period():
    with Criterion(5, "solver power crossover period") as c:
        period = crossover_period(MCU_SVI, MCU_QL)
        assert period is not None
        assert abs(period - 2694.0) <= 60.0
        equal_gap = abs(
            average_power(MCU_SVI, period) - average_power(MCU_QL, period)
        )
        assert equal_gap <= 1e-12 * average_power(MCU_QL, period)
        c.detail = f"crossover at {period:.2f} s (2694 +/- 60 s)"


def test_criterion_06_average_power_references():
    with Criterion(6, "average power reference points") as c:
        ql_power = average_power(MCU_QL)
        assert ql_power == pytest.approx(78.8e-6, rel=1e-12)
        svi_power = average_power(MCU_SVI, update_period=3600.0)
        assert abs(svi_power - 69.8e-6) <= 0.25 * 69.8e-6
        c.detail = (f"frame-only model {ql_power * 1e6:.3f} uW exact, "
                    f"hourly solver model {svi_power * 1e6:.3f} uW "
                    f"(within 25% of 69.8 uW)")


def test_criterion_07_attach_dwell_time():
    with Criterion(7, "attach dwell time") as c:
        t0 = time.perf_counter()
        config = NodeConfig()
        expected = floor_frames(config.connect_time, config.frame_period)

        # Monte Carlo through the modem chain: count frames each of 10^6
        # chains spends attaching before the connect transition fires.
        rho = 1.0 / expected
        rng = np.random.default_rng(5)
        n_chains = 10**6
        dwell = np.zeros(n_chains, dtype=np.int64)
        active = np.arange(n_chains)
        while active.size:
            dwell[active] += 1
            active = active[rng.random(active.size) >= rho]
        mc_mean = float(dwell.mean())
        assert abs(mc_mean - expected) <= 0.02 * expected

        # The simulator's deterministic attach spends exactly that many
        # frames in the attaching state: a quiet run of that length draws
        # attach current (120 mA) on every single frame.
        quiet = NodeConfig(app_packet_prob=(0.0, 0.0))
        m = simulate(
            Scenario(node=quiet, duration_frames=expected), AlwaysOnController(quiet)
        )
        assert m.reward_total == pytest.approx(
            -10.0 * 0.120 * expected, rel=1e-12
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        c.detail = (f"Monte-Carlo mean {mc_mean:.3f} frames vs {expected} "
                    f"(2% band), simulator exact")


def test_criterion_08_latency_energy_frontier(default_sweep):
    with Criterion(8, "latency/energy frontier") as c:
        points, elapsed = default_sweep
        scenario = load_scenario()
        assert scenario.duration_seconds >= 2 * 3600.0

        threshold = [p for p in points if p.series == "on-off"]
        structured = [p for p in points if p.series == "mdp"]
        qlearning = [p for p in points if p.series == "ql"]
        assert len(threshold) == 10 and len(structured) == 10
        assert all(p.seeds >= 5 for p in points)

        # (a) every threshold point is beaten on both axes by some
        # structured point.
        for t in threshold:
            assert any(
                s.avg_latency < t.avg_latency
                and s.energy_per_packet < t.energy_per_packet
                for s in structured
            ), f"threshold point {t.value} undominated"

        # (b) wherever the two learning series land at comparable latency
        # (within 20% of the larger), structured needs at least 5% less
        # energy per packet.
        matched = 0
        for s in structured:
            for q in qlearning:
                larger = max(s.avg_latency, q.avg_latency)
                if abs(s.avg_latency - q.avg_latency) <= 0.2 * larger:
                    matched += 1
                    assert s.energy_per_packet <= 0.95 * q.energy_per_packet, (
                        f"structured r2={s.value} vs ql r2={q.value}: "
                        f"{s.energy_per_packet:.3f} vs {q.energy_per_packet:.3f}"
                    )
        assert matched >= 1
        assert elapsed < 600.0
        c.detail = (f"all 10 threshold points dominated; {matched} "
                    f"matched-latency pairs all >=5% cheaper "
                    f"(sweep {elapsed:.0f}s)")


def test_criterion_09_simulation_invariants():
    with Criterion(9, "simulation invariants") as c:
        t0 = time.perf_counter()

        # Conservation on a spread of controllers and seeds.
        runs = 0
        for seed in range(3):
            controllers = [
                ThresholdController(NodeConfig(), 1),
                ThresholdController(NodeConfig(), 5),
                AlwaysOnController(NodeConfig()),
                StructuredController(NodeConfig(), solve_period=600.0),
                QLearningController(NodeConfig(), seed=(seed, 1),
                                    epsilon_decay=0.9999),
            ]
            for controller in controllers:
                m = simulate(
                    Scenario(duration_frames=20000, seed=seed), controller
                )
                assert (
                    m.packets_generated
                    == m.packets_transmitted
                    + m.packets_dropped
                    + m.packets_queued_at_end
                )
                runs += 1

        # Row stochasticity of every assembled transition matrix.
        rng = np.random.default_rng(99)
        worst_row = 0.0
        for _ in range(50):
            sigma = rng.dirichlet(np.ones(2), size=2)
            config = NodeConfig(
                app_packet_prob=(float(rng.uniform(0, 1)), 1.0),
                connect_time=float(rng.uniform(0.1, 8.0)),
                tx_per_frame=int(rng.integers(1, 4)),
            )
            stacked = assemble_stm(config, sigma=sigma)
            worst_row = max(
                worst_row, float(np.abs(stacked.sum(axis=1) - 1.0).max())
            )
        assert worst_row <= 1e-9

        # Estimator rows stay stochastic through 10^5 fuzzed updates.
        est = ParameterEstimates(NodeConfig(), alpha=0.2)
        for _ in range(100_000):
            est.observe_app_transition(rng.integers(2), rng.integers(2))
        sigma_err = float(np.abs(est.sigma_hat.sum(axis=1) - 1.0).max())
        assert sigma_err <= 1e-9
        assert np.all(est.sigma_hat >= 0.0)

        # Bitwise determinism for the stateful controllers.
        for make in (
            lambda: QLearningController(NodeConfig(), seed=(1, 1),
                                        epsilon_decay=0.9999),
            lambda: StructuredController(NodeConfig(), solve_period=600.0),
            lambda: ThresholdController(NodeConfig(), 1),
        ):
            a = simulate(Scenario(duration_frames=20000, seed=1), make())
            b = simulate(Scenario(duration_frames=20000, seed=1), make())
            assert a.packets_transmitted > 0
            assert a == b

        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
        c.detail = (f"conservation exact over {runs} runs, worst row-sum "
                    f"error {worst_row:.1e}, estimator drift {sigma_err:.1e}, "
                    f"repeat runs bitwise equal")


def test_criterion_10_learned_parameter_counts():
    with Criterion(10, "learned parameter counts") as c:
        config = NodeConfig()
        assert len(QLearningController(config).q) == 132
        assert StructuredController(config).estimates.size == 5
        c.detail = "q-table 132 scalars, structured estimates 5"
