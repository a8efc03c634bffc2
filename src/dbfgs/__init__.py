"""Decentralized BFGS for network consensus optimization.

Library, deterministic asynchronous simulator, and experiment harness for
the distributed quasi-Newton method in which every node maintains a
regularized BFGS approximation of its neighborhood curvature, plus the
first-order baselines (DGD, dual decomposition, consensus ADMM) it is
compared against.
"""

from .async_sim import (
    AsyncConfig,
    ClockSchedule,
    EventQueue,
    gen_clock_schedule,
    run_dbfgs_async,
    run_dd_async,
    virtual_replay,
)
from .curvature import (
    CurvatureState,
    VariationPair,
    bfgs_update,
    modified_variations,
    neighborhood_descent,
)
from .harness import (
    ExperimentConfig,
    HistogramResult,
    histogram_exchanges,
    parse_config,
    reproduce_paper_suite,
    run_experiment,
)
from .netgraph import (
    Graph,
    build_d_regular_cycle,
    build_weight_matrix,
)
from .objectives import (
    DistributedObjective,
    LogisticInstance,
    QuadraticInstance,
    consensus_error,
    make_logistic,
    make_quadratic,
    solve_consensus_optimum,
)
from .sync_runtime import (
    SyncConfig,
    Trace,
    run_admm,
    run_dbfgs_sync,
    run_dd,
    run_dgd,
)

__version__ = "0.1.0"
