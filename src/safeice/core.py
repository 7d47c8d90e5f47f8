"""Adaptive importance sampling drivers.

Both methods anneal a smoothed failure indicator h_sigma(g) = Phi(-g/sigma)
toward the sharp indicator, refitting the proposal each level from weighted
samples. The safe variant mixes a heavy-tailed radial kernel into the
proposal with weight 1 - lambda(sigma), where lambda follows a cosine
schedule in sigma, and prunes mixture components through the penalized EM.
The baseline has no heavy kernel and runs the same EM with zero penalty.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import rng_from_seed, vmf_sample
from .em import fit
from .mixtures import (
    PolarSamples,
    SafeMixtureParams,
    VmfnmParams,
    prior_logpdf,
    safe_logpdf,
    safe_sample,
)
from .problems import evaluate_lsf
from .special import log_normal_cdf, normal_cdf, shifted_exp

__all__ = [
    "RunConfig",
    "RunResult",
    "smooth_indicator",
    "log_smooth_indicator",
    "cv",
    "intermediate_log_weights",
    "select_sigma",
    "stop_cv",
    "lambda_schedule",
    "estimate_pf",
    "init_light_params",
    "run",
    "run_safe_ice",
    "run_ice",
]

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """Settings for one estimation run.

    ``anneal_horizon`` is the sigma value M at which the heavy kernel
    starts to fade; it defaults to sigma0 so the first proposal is fully
    heavy. ``method`` selects the safe variant or the light-only baseline.
    """

    n_per_iter: int = 1000
    k_init: int = 20
    delta_star: float = 1.5
    delta_target: float = 4.0
    sigma0: float = 10.0
    anneal_horizon: float | None = None
    max_outer: int = 20
    max_em: int = 20
    em_tol: float = 1e-4
    seed: int = 0
    method: str = "safe-ice"

    def __post_init__(self):
        least = {"n_per_iter": 10, "k_init": 1, "max_outer": 1, "max_em": 1, "seed": 0}
        for name, low in least.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        horizon = () if self.anneal_horizon is None else ("anneal_horizon",)
        for name in ("delta_star", "delta_target", "sigma0", "em_tol", *horizon):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.method not in ("safe-ice", "ice"):
            raise ValueError("method must be 'safe-ice' or 'ice'")

    @property
    def horizon(self) -> float:
        return self.sigma0 if self.anneal_horizon is None else self.anneal_horizon


@dataclass
class RunResult:
    """Outcome of one run: the estimate, loop diagnostics, and the
    per-iteration traces (index t = 0 .. iterations)."""

    pf: float
    iterations: int
    final_k: int
    lsf_evals: int
    converged: bool
    seed: int
    sigma_trace: list = field(default_factory=list)
    lambda_trace: list = field(default_factory=list)
    k_trace: list = field(default_factory=list)
    n_failures: int = 0


def smooth_indicator(g, sigma: float):
    """Smoothed failure indicator h_sigma(g) = Phi(-g / sigma)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return normal_cdf(-np.asarray(g, dtype=float) / sigma)


def log_smooth_indicator(g, sigma: float):
    """ln h_sigma(g), finite for any finite g."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return log_normal_cdf(-np.asarray(g, dtype=float) / sigma)


def cv(values) -> float:
    """Coefficient of variation (sample std over mean, ddof=1).

    Returns +inf when the mean is 0 or not finite; needs two or more values.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("cv needs at least two values")
    mean = values.mean()
    if mean == 0.0 or not np.isfinite(mean):
        return np.inf
    return float(values.std(ddof=1) / mean)


def _limit_state(samples: PolarSamples) -> np.ndarray:
    if samples.g is None:
        raise ValueError("samples carry no limit-state values")
    return samples.g


def intermediate_log_weights(samples: PolarSamples, sigma: float, q_log: np.ndarray) -> np.ndarray:
    """Unnormalized log importance weights ln W_i = ln h_sigma(g_i)
    + ln p(u_i) - ln q(u_i) for the smoothed target at level sigma."""
    return log_smooth_indicator(_limit_state(samples), sigma) + prior_logpdf(samples) - q_log


def _weight_cv(log_w: np.ndarray) -> float:
    if log_w.size < 2:
        return np.inf
    return cv(shifted_exp(log_w)[0])


def select_sigma(
    samples: PolarSamples,
    q_log: np.ndarray,
    sigma_prev: float,
    delta_target: float,
) -> float:
    """Choose the next smoothing level on (0, sigma_prev].

    Solves cv(W(sigma)) = delta_target for x = ln sigma, the root that
    Papaioannou et al. (2016, 2019) pose. The excess e(x) = cv(W(e^x))
    - delta_target is evaluated on a 50-point grid over
    [ln(1e-8 sigma_prev), ln sigma_prev]. If e changes sign between two
    neighbouring finite grid points, the cell with the smallest sigma is
    bisected in ln sigma until it is narrower than 1e-10 and its midpoint
    is taken. Otherwise the first grid point with the smallest |e| is
    taken, which is the first one when no e is finite. The result never
    exceeds sigma_prev.
    """
    if sigma_prev <= 0.0:
        raise ValueError("sigma_prev must be positive")
    g = _limit_state(samples)
    rest = prior_logpdf(samples) - q_log

    def excess(log_sigma: float) -> float:
        return _weight_cv(log_normal_cdf(-g / np.exp(log_sigma)) + rest) - delta_target

    grid = np.linspace(np.log(1e-8 * sigma_prev), np.log(sigma_prev), 50)
    e = np.array([excess(x) for x in grid])
    finite = np.isfinite(e)
    cells = np.flatnonzero(finite[:-1] & finite[1:] & (e[:-1] * e[1:] < 0.0))
    if cells.size:
        i = cells[0]
        a, b, a_low = grid[i], grid[i + 1], e[i] < 0.0
        while b - a >= 1e-10:
            mid = 0.5 * (a + b)
            if (excess(mid) < 0.0) == a_low:
                a = mid
            else:
                b = mid
        best_x = 0.5 * (a + b)
    else:
        best_x = grid[np.argmin(np.where(finite, np.abs(e), np.inf))]
    return float(min(np.exp(best_x), sigma_prev))


def stop_cv(samples: PolarSamples, sigma: float) -> float:
    """Coefficient of variation of the indicator-over-smoothed-indicator
    weights on the light-origin samples.

    Returns +inf when no light samples exist (lambda = 0), when fewer than
    two are available, or when none of them fail.
    """
    g = _limit_state(samples)[~samples.heavy]
    if g.size < 2:
        return np.inf
    fail = g <= 0.0
    if not np.any(fail):
        return np.inf
    values = np.zeros(g.size)
    values[fail] = 1.0 / smooth_indicator(g[fail], sigma)
    return cv(values)


def lambda_schedule(sigma: float, horizon: float) -> float:
    """Cosine annealing weight for the light kernel.

    lambda = 0 for sigma > horizon, else (1 + cos(pi sigma / horizon)) / 2;
    rises from 0 at sigma = horizon to 1 at sigma = 0.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma > horizon:
        return 0.0
    return float(0.5 * (1.0 + np.cos(np.pi * sigma / horizon)))


def estimate_pf(samples: PolarSamples, phi: SafeMixtureParams) -> float:
    """Importance sampling estimate (1/N) sum_i I{g_i <= 0} p(u_i)/q(u_i)
    evaluated by shifted log-sum-exp over the failure samples."""
    fail = _limit_state(samples) <= 0.0
    if not np.any(fail):
        logger.warning("estimate_pf: no failure samples; returning 0")
        return 0.0
    sub = samples.subset(fail)
    w, shift = shifted_exp(prior_logpdf(sub) - safe_logpdf(sub, phi))
    return float(np.exp(shift) * w.sum() / len(samples))


def init_light_params(rng: np.random.Generator, d: int, k: int) -> VmfnmParams:
    """Initial light mixture: every component carries the prior radial law
    Nakagami(d/2, d); directions are uniform random with kappa = 2 so the
    E-step can tell components apart (kappa = 0 would make them identical
    and freeze EM at uniform responsibilities). A single component keeps
    kappa = 0 and reproduces the prior exactly."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")
    mu = vmf_sample(rng, np.eye(d)[0], 0.0, k)
    kappa = np.zeros(k) if k == 1 else np.full(k, 2.0)
    return VmfnmParams(
        pi=np.full(k, 1.0 / k),
        m=np.full(k, d / 2.0),
        omega=np.full(k, float(d)),
        mu=mu,
        kappa=kappa,
    )


def run(problem, config: RunConfig) -> RunResult:
    """Adaptive run of ``config.method``, drawing from ``config.seed``'s stream.

    "safe-ice" mixes the heavy inverse-Nakagami kernel into the proposal
    and prunes components through the penalized EM; "ice" keeps the light
    mixture only, fitted by plain EM (the same loop at beta = 0).
    """
    if problem.dim < 2:
        raise ValueError("adaptive sampling requires dimension >= 2")
    use_heavy = config.method == "safe-ice"
    rng = rng_from_seed(config.seed)
    d = problem.dim
    n = config.n_per_iter
    horizon = config.horizon

    v = init_light_params(rng, d, config.k_init)
    sigma = config.sigma0

    sigma_trace: list = []
    lambda_trace: list = []
    k_trace: list = []
    lsf_evals = 0
    converged = False
    stagnant = 0

    # on every exit, phi is the proposal that drew the final batch
    for t in range(config.max_outer + 1):
        phi = SafeMixtureParams(v, lambda_schedule(sigma, horizon) if use_heavy else 1.0)
        samples = safe_sample(rng, phi, n)
        samples.g = evaluate_lsf(problem, samples.cartesian())
        lsf_evals += n
        sigma_trace.append(sigma)
        lambda_trace.append(phi.lam)
        k_trace.append(v.k)

        if stop_cv(samples, sigma) <= config.delta_star:
            converged = True
            break
        if t == config.max_outer:
            logger.warning("run: outer iteration limit reached without convergence")
            break

        q_log = safe_logpdf(samples, phi)
        sigma_new = select_sigma(samples, q_log, sigma, config.delta_target)
        if sigma_new >= sigma * (1.0 - 1e-12):
            stagnant += 1
            if stagnant >= 2:
                logger.warning("run: smoothing level stagnated; stopping")
                break
        else:
            stagnant = 0

        weights, _ = shifted_exp(intermediate_log_weights(samples, sigma_new, q_log))
        result = fit(
            samples,
            weights,
            v,
            penalized=use_heavy,
            em_tol=config.em_tol,
            max_iter=config.max_em,
        )
        v = result.v
        sigma = sigma_new

    pf = estimate_pf(samples, phi)
    return RunResult(
        pf=pf,
        iterations=len(sigma_trace) - 1,
        final_k=v.k,
        lsf_evals=lsf_evals,
        converged=converged,
        seed=config.seed,
        sigma_trace=sigma_trace,
        lambda_trace=lambda_trace,
        k_trace=k_trace,
        n_failures=int(np.sum(samples.g <= 0.0)),
    )


def run_safe_ice(problem, config: RunConfig) -> RunResult:
    """Heavy-tail-guarded adaptive run with component pruning."""
    return run(problem, replace(config, method="safe-ice"))


def run_ice(problem, config: RunConfig) -> RunResult:
    """Baseline adaptive run: light mixture only, plain EM."""
    return run(problem, replace(config, method="ice"))
