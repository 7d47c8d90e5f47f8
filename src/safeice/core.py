"""Adaptive importance sampling drivers.

Both methods anneal a smoothed failure indicator h_sigma(g) = Phi(-g/sigma)
toward the sharp indicator, refitting the proposal each level from weighted
samples; ``RunConfig.method`` picks one. The safe variant mixes a
heavy-tailed radial kernel into the proposal with weight 1 - lambda(sigma),
where lambda rises on a cosine schedule from 0 at sigma0 to 1 at sigma = 0,
and prunes mixture components through the penalized EM. The baseline has
no heavy kernel and runs the same EM with zero penalty.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import rng_from_seed, vmf_sample
from .em import fit
from .mixtures import (
    SafeMixtureParams,
    VmfnmParams,
    prior_logpdf,
    safe_logpdf,
    safe_sample,
)
from .problems import evaluate_lsf
from .special import log_normal_cdf, shifted_exp

__all__ = [
    "RunConfig",
    "RunResult",
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
]

logger = logging.getLogger(__name__)


def _check_integer(name: str, value, least: int) -> None:
    """Reject a bool, a non-integer or a value below ``least``, by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_positive(name: str, value) -> None:
    """Reject a bool, a non-number or a value not in (0, inf), NaN too, by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass
class RunConfig:
    """Settings for one estimation run.

    ``method`` selects the safe variant or the light-only baseline. The
    heavy kernel fades out from ``sigma0``, so the first safe proposal is
    fully heavy.
    """

    n_per_iter: int = 1000
    k_init: int = 20
    delta_star: float = 1.5
    delta_target: float = 4.0
    sigma0: float = 10.0
    max_outer: int = 20
    max_em: int = 20
    em_tol: float = 1e-4
    seed: int = 0
    method: str = "safe-ice"

    def __post_init__(self):
        least = {"n_per_iter": 10, "k_init": 1, "max_outer": 1, "max_em": 1, "seed": 0}
        for name, low in least.items():
            _check_integer(name, getattr(self, name), low)
        for name in ("delta_star", "delta_target", "sigma0", "em_tol"):
            _check_positive(name, getattr(self, name))
        if self.method not in ("safe-ice", "ice"):
            raise ValueError("method must be 'safe-ice' or 'ice'")


@dataclass
class RunResult:
    """Outcome of one run: the estimate, loop diagnostics, the
    per-iteration traces (index t = 0 .. iterations) and the final batch's
    reliability: ``se``, the sample std (ddof 1) of I p/q over sqrt(N),
    and ``ess``, the Kish ESS (sum w)^2 / sum w^2 of the weights p/q of the
    failing samples, 0 when none fails."""

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
    se: float = 0.0
    ess: float = 0.0


def log_smooth_indicator(g, sigma: float):
    """ln h_sigma(g), finite for any finite g at which -g/sigma is finite."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    # at a tiny sigma -g/sigma overflows to -inf or +inf, where ln Phi takes
    # its right limits, -inf and 0
    with np.errstate(over="ignore"):
        x = -np.asarray(g, dtype=float) / sigma
    return log_normal_cdf(x)


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


def intermediate_log_weights(g: np.ndarray, sigma: float, log_ratio: np.ndarray) -> np.ndarray:
    """Unnormalized log importance weights ln W_i = ln h_sigma(g_i)
    + (ln p(u_i) - ln q(u_i)) for the smoothed target at level sigma."""
    return log_smooth_indicator(g, sigma) + log_ratio


def _weight_cv(log_w: np.ndarray) -> float:
    if log_w.size < 2:
        return np.inf
    return cv(shifted_exp(log_w)[0])


def select_sigma(
    g: np.ndarray,
    log_ratio: np.ndarray,
    sigma_prev: float,
    delta_target: float,
) -> float:
    """Choose the next smoothing level on (0, sigma_prev].

    Solves cv(W(sigma)) = delta_target for x = ln sigma, the root that
    Papaioannou et al. (2016, 2019) pose. The excess e(x) = cv(W(e^x))
    - delta_target is evaluated on a 50-point grid over
    [ln(1e-8 sigma_prev), ln sigma_prev], from the smallest sigma upward,
    up to the first pair of neighbouring finite grid points where e
    changes sign. That cell, the crossing with the smallest sigma, is
    rooted by regula falsi with the Illinois modification: an end kept
    twice in a row has its stored excess halved. The search stops when
    a step moves x by less than 1e-10, when the cell is narrower than
    1e-10 or when e is exactly 0. Without a sign change the first grid
    point with the smallest |e| is taken, which is the first one when no
    e is finite. The result never exceeds sigma_prev.
    """
    if sigma_prev <= 0.0:
        raise ValueError("sigma_prev must be positive")

    def excess(log_sigma: float) -> float:
        return _weight_cv(intermediate_log_weights(g, np.exp(log_sigma), log_ratio)) - delta_target

    grid = np.linspace(np.log(1e-8 * sigma_prev), np.log(sigma_prev), 50)
    e = [excess(grid[0])]
    for b in grid[1:]:
        e.append(excess(b))
        fa, fb = e[-2:]
        if math.isfinite(fa) and math.isfinite(fb) and fa * fb < 0.0:
            break
    else:
        best = grid[np.argmin(np.where(np.isfinite(e), np.abs(e), np.inf))]
        return float(min(np.exp(best), sigma_prev))

    a = grid[len(e) - 2]
    x, kept = np.inf, 0  # kept: the end left in place by the last step, -1 for a, +1 for b
    while b - a >= 1e-10:
        x_prev, x = x, min(max(b - fb * (b - a) / (fb - fa), a), b)
        if abs(x - x_prev) < 1e-10:
            break
        fx = excess(x)
        if fx == 0.0:
            break
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
            if kept == 1:
                fb *= 0.5
            kept = 1
        else:
            b, fb = x, fx
            if kept == -1:
                fa *= 0.5
            kept = -1
    return float(min(np.exp(x), sigma_prev))


def stop_cv(g: np.ndarray, sigma: float) -> float:
    """Coefficient of variation of the weights I{g <= 0} / h_sigma(g) over
    the light-origin samples' limit-state values ``g``.

    The weights go through ``select_sigma``'s cv kernel in log space,
    ln 1/h_sigma(g) = -``log_smooth_indicator``. Returns +inf when fewer
    than two values are given (none when lambda = 0) or when none of them
    fail.
    """
    return _weight_cv(np.where(g <= 0.0, -log_smooth_indicator(g, sigma), -np.inf))


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


def estimate_pf(g: np.ndarray, log_ratio: np.ndarray) -> float:
    """Importance sampling estimate (1/N) sum_i I{g_i <= 0} p(u_i)/q(u_i)
    from the batch's log ratio ln p - ln q, read at the failure samples."""
    fail = g <= 0.0
    if not np.any(fail):
        return 0.0
    w, shift = shifted_exp(log_ratio[fail])
    return float(np.exp(shift) * w.sum() / g.size)


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
    mixture only, fitted by plain EM (the same loop at beta = 0). A
    dimension below 2 fails in ``init_light_params``, before any LSF call.
    """
    use_heavy = config.method == "safe-ice"
    rng = rng_from_seed(config.seed)
    d = problem.dim
    n = config.n_per_iter

    v = init_light_params(rng, d, config.k_init)
    sigma = config.sigma0

    sigma_trace: list = []
    lambda_trace: list = []
    k_trace: list = []
    converged = False
    stagnant = 0

    def warn(message: str) -> None:
        logger.warning(f"run: problem '{problem.name}' seed {config.seed} t {t} sigma {sigma:g}: {message}")

    # on every exit, g and log_ratio belong to the final batch
    for t in range(config.max_outer + 1):
        phi = SafeMixtureParams(v, lambda_schedule(sigma, config.sigma0) if use_heavy else 1.0)
        samples = safe_sample(rng, phi, n)
        g = evaluate_lsf(problem, samples.cartesian())
        log_ratio = prior_logpdf(samples) - safe_logpdf(samples, phi)
        sigma_trace.append(sigma)
        lambda_trace.append(phi.lam)
        k_trace.append(v.k)

        if stop_cv(g[~samples.heavy], sigma) <= config.delta_star:
            converged = True
            break
        if t == config.max_outer:
            warn("outer iteration limit reached without convergence")
            break

        sigma_new = select_sigma(g, log_ratio, sigma, config.delta_target)
        if sigma_new >= sigma * (1.0 - 1e-12):
            stagnant += 1
            if stagnant >= 2:
                warn("smoothing level stagnated; stopping")
                break
        else:
            stagnant = 0

        weights, _ = shifted_exp(intermediate_log_weights(g, sigma_new, log_ratio))
        if not weights.any():
            warn(f"no smoothed weight is positive at the next sigma {sigma_new:g}; stopping")
            break
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

    pf = estimate_pf(g, log_ratio)
    fail = g <= 0.0
    n_failures = int(np.count_nonzero(fail))
    w, shift = shifted_exp(np.where(fail, log_ratio, -np.inf))
    ess = float(w.sum() ** 2 / np.sum(w * w)) if n_failures else 0.0
    if not n_failures:
        warn("no failure samples; pf is 0")
    elif ess < 10.0:
        warn(f"the failure weights have Kish ESS {ess:.3g} < 10; pf is unreliable")
    return RunResult(
        pf=pf,
        iterations=len(sigma_trace) - 1,
        final_k=v.k,
        lsf_evals=n * len(sigma_trace),
        converged=converged,
        seed=config.seed,
        sigma_trace=sigma_trace,
        lambda_trace=lambda_trace,
        k_trace=k_trace,
        n_failures=n_failures,
        se=float(np.exp(shift) * w.std(ddof=1) / math.sqrt(g.size)),
        ess=ess,
    )


def run_safe_ice(problem, config: RunConfig) -> RunResult:
    """``run`` with the method pinned to "safe-ice", the entry point the
    benchmark calls and traces; it goes with ROADMAP item 4's benchmark
    change, after which ``config.method`` is the only selector."""
    return run(problem, replace(config, method="safe-ice"))
