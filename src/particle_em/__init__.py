"""Particle-based EM algorithms for maximum-likelihood training of latent
variable models, including tuning-free coin-betting variants."""

from .algorithms import (
    RunConfig,
    State,
    Trace,
    adaptive_coin_em_step,
    coin_em_step,
    marginal_coin_em_step,
    marginal_svgd_em_step,
    pgd_step,
    run,
    step,
    svgd_em_step,
)
from .exceptions import ConfigError, DivergedError, MissingMStepError, ParseError
from .kernels import median_heuristic, pair_sq_dists, pairwise_sq_dists, rbf_matrix, stein_direction
from .metrics import mse, particle_moments, procrustes_align, test_error
from .models import (
    BayesianLogisticRegression,
    GaussianHierarchicalModel,
    LatentSpaceNetworkModel,
    Model,
)

__version__ = "0.1.0"

__all__ = [
    "BayesianLogisticRegression",
    "ConfigError",
    "DivergedError",
    "GaussianHierarchicalModel",
    "LatentSpaceNetworkModel",
    "MissingMStepError",
    "Model",
    "ParseError",
    "RunConfig",
    "State",
    "Trace",
    "adaptive_coin_em_step",
    "coin_em_step",
    "marginal_coin_em_step",
    "marginal_svgd_em_step",
    "median_heuristic",
    "mse",
    "pair_sq_dists",
    "pairwise_sq_dists",
    "particle_moments",
    "pgd_step",
    "procrustes_align",
    "rbf_matrix",
    "run",
    "step",
    "stein_direction",
    "svgd_em_step",
    "test_error",
]
