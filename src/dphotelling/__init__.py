"""Differentially private comparison of multivariate population means.

The pipeline privatizes per-group means (Laplace mechanism) and
covariances (eigenvalue/eigenvector release), forms a noise-corrected
pooled covariance and the privatized Mahalanobis-type statistic, and
calibrates the rejection threshold either by chi-squared asymptotics or by
a parametric bootstrap that tracks the privatization noise.

The root exports what the CLI, the bench and a library caller use; the
pipeline's parts stay in their modules.
"""

from .decision import (ASYMPTOTIC, BOOTSTRAP, TestConfig, TestOutcome,
                       run_on_summaries, run_test, t_dp_statistic)
from .mechanisms import (PrivatizedSummary, SampleSummary, compute_summary,
                         privatize_summaries)
from .randkit import RngStream
from .simbench import CellSpec, DesignSpec, RejectionTable, generate, run_grid

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC", "BOOTSTRAP", "TestConfig", "TestOutcome",
    "run_on_summaries", "run_test", "t_dp_statistic",
    "PrivatizedSummary", "SampleSummary", "compute_summary",
    "privatize_summaries",
    "RngStream",
    "DesignSpec", "CellSpec", "RejectionTable", "generate", "run_grid",
    "__version__",
]
