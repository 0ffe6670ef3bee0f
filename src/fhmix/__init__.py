"""fhmix: random vectors with fixed marginals and pairwise correlations.

Targets are expressed through each pair's Frechet-Hoeffding correlation
interval; sampling reduces to multivariate fair-coin Bernoulli vectors with
a prescribed concurrence matrix, pushed through shared-uniform inverse
transforms.
"""

from .bernoulli_joint import (
    AlphaInterval,
    ConcurrenceMatrix,
    JointPMF,
    asymmetric_pair_feasible,
    atom_bits,
    atom_index,
    bivariate_pmf,
    lift_asymmetric_draw,
    quadrivariate_alpha_interval,
    quadrivariate_lifted_pmf,
    quadrivariate_pmf,
    quadrivariate_sample,
    reduce_symmetric_draw,
    symmetrize,
    trivariate_alpha_interval,
    trivariate_feasible,
    trivariate_pmf,
    trivariate_sample_direct,
    violated_principal_submatrix,
)
from .bounds import CorrelationExtremes, bernoulli_corr_extremes, corr_extremes
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateMarginalError,
    DomainError,
    FhmixError,
    InfeasibleError,
    InvalidDistributionError,
    InvalidMarginalError,
    InvalidMatrixError,
    NumericalError,
    UnachievableCorrelationError,
)
from .marginals import MarginalSpec, moments, quantile
from .oracle import FeasibilityWitness, lp_feasible, pushforward
from .sampler import (
    BernoulliRecipe,
    ConvexityMatrix,
    CorrelationMatrix,
    SampleBatch,
    SamplingPlan,
    build_plan,
    build_plan_from_concurrence,
    convexity_from_correlation,
    pairwise_extremes,
    sample_batch,
    sample_vector,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaInterval",
    "BernoulliRecipe",
    "CapacityError",
    "ConcurrenceMatrix",
    "ConfigError",
    "ConvexityMatrix",
    "CorrelationExtremes",
    "CorrelationMatrix",
    "DegenerateMarginalError",
    "DomainError",
    "FeasibilityWitness",
    "FhmixError",
    "InfeasibleError",
    "InvalidDistributionError",
    "InvalidMarginalError",
    "InvalidMatrixError",
    "JointPMF",
    "MarginalSpec",
    "NumericalError",
    "SampleBatch",
    "SamplingPlan",
    "UnachievableCorrelationError",
    "asymmetric_pair_feasible",
    "atom_bits",
    "atom_index",
    "bernoulli_corr_extremes",
    "bivariate_pmf",
    "build_plan",
    "build_plan_from_concurrence",
    "convexity_from_correlation",
    "corr_extremes",
    "lift_asymmetric_draw",
    "lp_feasible",
    "moments",
    "pairwise_extremes",
    "pushforward",
    "quadrivariate_alpha_interval",
    "quadrivariate_lifted_pmf",
    "quadrivariate_pmf",
    "quadrivariate_sample",
    "quantile",
    "reduce_symmetric_draw",
    "sample_batch",
    "sample_vector",
    "symmetrize",
    "trivariate_alpha_interval",
    "trivariate_feasible",
    "trivariate_pmf",
    "trivariate_sample_direct",
    "violated_principal_submatrix",
]
