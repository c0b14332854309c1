"""Cluster-specific logistic regression by profile and conditional likelihood.

Fits the covariate effects of a matched-set logistic model three ways: the
ordinary (profile) MLE, the conditional MLE given each cluster's outcome
sum, and the conditional MLE after replicating every data point R times.
The saddle module quantifies how fast the replicated conditional likelihood
approaches the profile likelihood as R grows.
"""

from .conditional import (LogNormalizer, clr_avg_loglik, clr_rep_avg_loglik,
                          clr_rep_score, clr_score, log_g)
from .data import (Cluster, DataError, Dataset, FitResult, read_csv,
                   screen_dataset)
from .profile import (olr_avg_loglik, olr_profile_score, profile_loglik,
                      profile_tau)
from .saddle import (QuadratureError, SaddleDiagnostics, contour_integral_g,
                     rate_limit_check, u_of_theta)
from .simulate import SimConfig, SimulationSummary, generate_dataset, run_study
from .solve import (RelationReport, SolverConfig, SolverError, solve_cmle,
                    solve_cmle_replicated, solve_mle, verify_1K_identity,
                    verify_pair_identity)

__all__ = [
    "Cluster", "Dataset", "FitResult", "DataError",
    "screen_dataset", "read_csv",
    "profile_tau", "olr_avg_loglik", "profile_loglik", "olr_profile_score",
    "LogNormalizer", "clr_avg_loglik", "clr_score",
    "log_g", "clr_rep_avg_loglik", "clr_rep_score",
    "SolverConfig", "SolverError", "RelationReport",
    "solve_mle", "solve_cmle", "solve_cmle_replicated",
    "verify_pair_identity", "verify_1K_identity",
    "SaddleDiagnostics", "QuadratureError", "u_of_theta",
    "rate_limit_check", "contour_integral_g",
    "SimConfig", "SimulationSummary", "generate_dataset", "run_study",
]
