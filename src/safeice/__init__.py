"""Rare-event failure probability estimation by adaptive importance
sampling with heavy-tail-guarded mixture proposals."""

from .core import RunConfig, RunResult, lambda_schedule, run
from .em import fit
from .mixtures import PolarSamples, SafeMixtureParams, VmfnmParams, safe_sample
from .oracle import mc_estimate
from .problems import Problem, problem_registry

__version__ = "0.1.0"

__all__ = [
    "PolarSamples",
    "Problem",
    "RunConfig",
    "RunResult",
    "SafeMixtureParams",
    "VmfnmParams",
    "fit",
    "lambda_schedule",
    "mc_estimate",
    "problem_registry",
    "run",
    "safe_sample",
    "__version__",
]
