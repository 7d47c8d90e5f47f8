"""Rare-event failure probability estimation by adaptive importance
sampling with heavy-tail-guarded mixture proposals."""

from .bench import persist, run_repetitions
from .core import (
    RunConfig,
    RunResult,
    estimate_pf,
    lambda_schedule,
    run,
    run_safe_ice,
)
from .em import FitResult, fit
from .mixtures import (
    PolarSamples,
    SafeMixtureParams,
    VmfnmParams,
    heavy_params_from_light,
    safe_logpdf,
    safe_sample,
)
from .oracle import McEstimate, mc_estimate
from .problems import (
    Problem,
    four_branch,
    oscillator_lsf,
    problem_registry,
    three_mode,
    two_mode,
)

__version__ = "0.1.0"

__all__ = [
    "FitResult",
    "McEstimate",
    "PolarSamples",
    "Problem",
    "RunConfig",
    "RunResult",
    "SafeMixtureParams",
    "VmfnmParams",
    "estimate_pf",
    "fit",
    "four_branch",
    "heavy_params_from_light",
    "lambda_schedule",
    "mc_estimate",
    "oscillator_lsf",
    "persist",
    "problem_registry",
    "run",
    "run_repetitions",
    "run_safe_ice",
    "safe_logpdf",
    "safe_sample",
    "three_mode",
    "two_mode",
    "__version__",
]
