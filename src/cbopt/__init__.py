"""Consensus-based optimization: interacting-particle global search.

Particles drift toward an exponentially weighted mean of the ensemble and
diffuse proportionally to their distance from it. The package provides the
isotropic original dynamic, the component-wise and common-noise variants,
a personal-best variant, a sphere-constrained variant, random-batch
updates, anti-overshoot integrators, and a diagnostics harness for the
quantitative laws the dynamics obey.
"""

from .batching import (
    BatchParams,
    BatchState,
    ConstantSchedule,
    GeometricSchedule,
    batch_consensus,
    batch_update,
    make_batches,
    stop_check,
)
from .consensus import ConsensusPoint, weighted_mean, weights
from .dynamics import (
    DivergenceError,
    PersonalBestMemory,
    SingularityError,
    VariantParams,
    consensus_condition,
    heaviside,
    sphere_norm_drift,
    step,
)
from .ensemble import (
    Ensemble,
    InitSpec,
    RngPlan,
    init_ensemble,
    mean_pairwise_sq_dist,
    moments,
    positions_to_csv,
)
from .harness import (
    RunConfig,
    RunResult,
    SuccessCriterion,
    diagnostic_frozen_moment,
    diagnostic_pairwise_decay,
    fit_decay_rate,
    run,
    run_campaign,
    success_rate,
)
from .integrators import frozen_gbm, split_diffusion, split_drift
from .objectives import (
    ObjectiveFunction,
    ackley,
    benchmark_names,
    griewank,
    make_objective,
    rastrigin,
    wavy,
    zakharov,
)

__version__ = "0.1.0"
