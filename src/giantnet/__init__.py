"""Simulator and diagnostics for fully distributed Newton-type optimization.

Agents minimize the average of local strongly convex costs by combining
gradient tracking, local inverse-Hessian steps and consensus averaging
over a doubly stochastic mixing matrix. The package ships the method,
first-order baselines, the analytical diagnostics that certify its
structure, and a reproducible experiment harness with a CLI.
"""

from .algorithms import (
    ALGORITHMS,
    AlgorithmConfig,
    NetworkState,
    centralized_newton,
    dgd_step,
    giant_init,
    giant_step,
    gt_step,
    run,
)
from .diagnostics import (
    MetricsLog,
    MetricsRecord,
    RateEstimate,
    decompose,
    descent_check,
    estimate_rate,
    harmonic_hessian_mean,
    tracking_drift,
)
from .errors import (
    ConnectivityFailure,
    DimensionMismatch,
    GiantNetError,
    InsufficientData,
    InvalidParams,
    InvalidSpec,
    MaxItersExceeded,
    MissingReference,
    NotPositiveDefinite,
    NotStochastic,
    NotSymmetric,
    ParseError,
    ValidationError,
)
from .harness import (
    ExperimentConfig,
    TopologySpec,
    compare,
    load_config,
    run_experiment,
    tune_epsilon,
    validate_experiment,
)
from .numerics import second_singular_value, spd_factorize_stack, spd_solve_stack
from .objectives import AgentFamily, ProblemInstance, ProblemSpec, generate_problem
from .topology import Graph, MixingMatrix, make_graph, metropolis_weights, validate_mixing

__version__ = "0.1.0"
