"""Correlation-function bounds for finite-state Markov jump processes.

A verification library: exact propagation by matrix exponential,
two-time and multi-time correlation functions, dynamical activity,
statistical distances over enumerated path skeletons, linear-response
shifts, and structured reports for every activity-based bound, all
cross-checked against closed forms, Monte Carlo sampling, and
brute-force path enumeration in the test suite.
"""

__version__ = "0.1.0"

from .bounds import (
    BOUND_IDS,
    CSV_HEADER,
    RATIO_SLACK,
    BoundReport,
    activity_rate,
    bound_derivative,
    bound_eta,
    bound_main,
    bound_multipoint,
    bound_onepoint,
    bound_tangent_tur,
    bound_zero_t,
    cmax,
    dynamical_activity,
    geodesic_arg,
)
from .correlation import (
    correlation_derivative,
    mc_two_point,
    multipoint,
    two_point,
)
from .distances import FiniteDistribution, bhattacharyya, tvd
from .errors import CorrboundError
from .linear_response import (
    OracleSeries,
    Perturbation,
    PulseDrive,
    SampledDrive,
    StepDrive,
    bound_pulse,
    bound_step,
    canonical_perturbation,
    convolved_shift,
    perturbed_oracle,
    pulse_shift,
    response_function,
    step_shift,
)
from .markov import (
    ProbVector,
    RateMatrix,
    ScoreVector,
    load_model,
    make_rng,
    propagate,
    propagator,
    propagator_integral,
    random_model,
    steady_state,
    validate_rate_matrix,
)
from .path_space import (
    PathInequalityReport,
    PathSkeleton,
    bhat_survival,
    eta,
    skeleton_distribution,
    verify_path_inequalities,
)

__all__ = [
    "BOUND_IDS",
    "CSV_HEADER",
    "RATIO_SLACK",
    "BoundReport",
    "CorrboundError",
    "FiniteDistribution",
    "OracleSeries",
    "PathInequalityReport",
    "PathSkeleton",
    "Perturbation",
    "ProbVector",
    "PulseDrive",
    "RateMatrix",
    "SampledDrive",
    "ScoreVector",
    "StepDrive",
    "activity_rate",
    "bhat_survival",
    "bhattacharyya",
    "bound_derivative",
    "bound_eta",
    "bound_main",
    "bound_multipoint",
    "bound_onepoint",
    "bound_pulse",
    "bound_step",
    "bound_tangent_tur",
    "bound_zero_t",
    "canonical_perturbation",
    "cmax",
    "convolved_shift",
    "correlation_derivative",
    "dynamical_activity",
    "eta",
    "geodesic_arg",
    "load_model",
    "make_rng",
    "mc_two_point",
    "multipoint",
    "perturbed_oracle",
    "propagate",
    "propagator",
    "propagator_integral",
    "pulse_shift",
    "random_model",
    "response_function",
    "skeleton_distribution",
    "steady_state",
    "step_shift",
    "tvd",
    "two_point",
    "validate_rate_matrix",
    "verify_path_inequalities",
]
