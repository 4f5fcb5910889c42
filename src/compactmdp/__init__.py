"""Compact-MDP toolkit and cellular sensor-node case study.

The package splits into a small generic layer and a case study built on it:

* :mod:`compactmdp.core` — stacked-matrix MDP container (holding the matrix
  in CSR form), valid by construction, and a dense value-iteration reference
  solver.
* :mod:`compactmdp.sparse` — the CSR container, the four solver kernels, the
  greedy policy, and embedded-target storage accounting.
* :mod:`compactmdp.solver` — sparse value iteration with cost counters.
* :mod:`compactmdp.node` — the factored sensor-node model (traffic, radio,
  queue, energy, reward).
* :mod:`compactmdp.controllers` — threshold rule, structured model-learning
  planner, and tabular Q-learning.
* :mod:`compactmdp.sim` — frame-stepped simulator, trade-off sweeps, and the
  MCU power model.
* :mod:`compactmdp.config` — scenario files (see the packaged
  ``default_scenario.cfg`` for the schema).
"""

__version__ = "0.1.0"

from .config import ConfigError, load_scenario, parse_scenario
from .controllers import (
    ParameterEstimates,
    QLearningController,
    StructuredController,
    ThresholdController,
)
from .core import (
    ConvergenceError,
    MdpSpec,
    dense_value_iteration,
)
from .node import (
    ACTION_OFF,
    ACTION_ON,
    M_CONNECTED,
    M_CONNECTING,
    M_OFF,
    NodeConfig,
    NodeState,
    assemble_stm,
    build_mdp,
    energy_per_transaction,
    reward_vector,
    rho_from_connect_time,
)
from .sim import (
    MCU_DENSE_VI,
    MCU_QL,
    MCU_SVI,
    REFERENCE_POWER_MODELS,
    PowerModel,
    Scenario,
    ScheduleChange,
    SimMetrics,
    SweepPoint,
    average_power,
    check_run_options,
    crossover_period,
    make_controller,
    pareto_sweep,
    simulate,
    write_sweep_csv,
)
from .solver import SolveResult, solve_cost, svi_solve
from .sparse import (
    SparseMatrixCSR,
    StorageReport,
    coo_to_csr,
    greedy_policy,
    inf_norm_diff,
    max_reduce,
    saxpy,
    sparse_mult,
    storage_report,
    to_sparse,
)

__all__ = [
    "ACTION_OFF",
    "ACTION_ON",
    "ConfigError",
    "ConvergenceError",
    "M_CONNECTED",
    "M_CONNECTING",
    "M_OFF",
    "MCU_DENSE_VI",
    "MCU_QL",
    "MCU_SVI",
    "MdpSpec",
    "NodeConfig",
    "NodeState",
    "ParameterEstimates",
    "PowerModel",
    "QLearningController",
    "REFERENCE_POWER_MODELS",
    "Scenario",
    "ScheduleChange",
    "SimMetrics",
    "SolveResult",
    "SweepPoint",
    "SparseMatrixCSR",
    "StorageReport",
    "StructuredController",
    "ThresholdController",
    "assemble_stm",
    "average_power",
    "build_mdp",
    "check_run_options",
    "coo_to_csr",
    "crossover_period",
    "dense_value_iteration",
    "energy_per_transaction",
    "greedy_policy",
    "inf_norm_diff",
    "load_scenario",
    "make_controller",
    "max_reduce",
    "pareto_sweep",
    "parse_scenario",
    "reward_vector",
    "rho_from_connect_time",
    "saxpy",
    "simulate",
    "solve_cost",
    "sparse_mult",
    "storage_report",
    "svi_solve",
    "to_sparse",
]
