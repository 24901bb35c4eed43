"""Differentially private comparison of multivariate population means.

The pipeline privatizes per-group means (Laplace mechanism) and
covariances (eigenvalue/eigenvector release), forms a noise-corrected
pooled covariance and the privatized Mahalanobis-type statistic, and
calibrates the rejection threshold either by chi-squared asymptotics or by
a parametric bootstrap that tracks the privatization noise.
"""

from .decision import (ASYMPTOTIC, BOOTSTRAP, TestConfig, TestOutcome,
                       asymptotic_threshold, bootstrap_threshold,
                       private_pooled_covariance, private_whitener,
                       run_on_summaries, run_test, t_dp_statistic)
from .mechanisms import (PRIVACY_OFF, PrivatizedSummary, SampleSummary,
                         compute_summary, ed_covariance, privatize_mean,
                         privatize_summaries)
from .randkit import RngStream, chi2_quantile
from .simbench import CellSpec, DesignSpec, RejectionTable, generate, run_grid

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC", "BOOTSTRAP", "TestConfig", "TestOutcome",
    "asymptotic_threshold", "bootstrap_threshold", "run_on_summaries",
    "run_test",
    "private_pooled_covariance", "private_whitener", "t_dp_statistic",
    "PRIVACY_OFF", "PrivatizedSummary", "SampleSummary",
    "compute_summary", "ed_covariance", "privatize_mean",
    "privatize_summaries",
    "RngStream", "chi2_quantile",
    "DesignSpec", "CellSpec", "RejectionTable", "generate", "run_grid",
    "__version__",
]
