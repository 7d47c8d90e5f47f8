"""Adaptive importance sampling drivers.

Both methods anneal a smoothed failure indicator h_sigma(g) = Phi(-g/sigma)
toward the sharp indicator, refitting the proposal each level from weighted
samples; ``RunConfig.method`` picks one. The safe variant mixes a
heavy-tailed radial kernel into the proposal with weight 1 - lambda(sigma),
where lambda rises on a cosine schedule from 0 at the start level SIGMA0
to 1 at sigma = 0, and prunes mixture components through the penalized
EM. The baseline has no heavy kernel and runs the same EM with zero
penalty.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .em import fit
from .mixtures import (
    SafeMixtureParams,
    VmfnmParams,
    prior_logpdf,
    safe_logpdf,
    safe_sample,
    vmf_sample,
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

DELTA_STAR = 1.5  # a run stops once stop_cv is at most this
DELTA_TARGET = 4.0  # the cv of the weights at the next sigma
MAX_OUTER = 20  # the most refits of one run
SIGMA0 = 10.0  # the start level, in units of g, and the horizon of lambda_schedule
_SKIP_MARGIN = 800.0  # select_sigma skips rows this far below the shift; exp(x) = 0 below about -745.13
_SKIP_TOP_MAX = 2.0**40  # up to this |M| rounding stays far inside the 800 - 745.13 slack
_GRID_FLOOR = 1e-8  # select_sigma's grid starts at this share of the current sigma


def _check_integer(name: str, value, least: int) -> None:
    """Reject a bool, a non-integer or a value below ``least``, by name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass
class RunConfig:
    """Settings for one estimation run.

    ``method`` selects the safe variant or the light-only baseline. The
    heavy kernel fades out from the start level ``SIGMA0``, so the first
    safe proposal is fully heavy. The start level, targets and iteration
    limits are the constants ``SIGMA0``, ``DELTA_STAR``, ``DELTA_TARGET``,
    ``MAX_OUTER``, ``em.MAX_EM`` and ``em.EM_TOL``.
    """

    n_per_iter: int = 1000
    k_init: int = 20
    seed: int = 0
    method: str = "safe-ice"

    def __post_init__(self):
        for name, low in {"n_per_iter": 10, "k_init": 1, "seed": 0}.items():
            _check_integer(name, getattr(self, name), low)
        if self.method not in ("safe-ice", "ice"):
            raise ValueError("method must be 'safe-ice' or 'ice'")


@dataclass
class RunResult:
    """Outcome of one run: the estimate, loop diagnostics, the
    per-iteration traces (index t = 0 .. iterations) and the final batch's
    reliability: ``se``, the sample std (ddof 1) of I p/q over sqrt(N),
    and ``ess``, the Kish ESS (sum w)^2 / sum w^2 of the weights p/q of the
    failing samples, 0 when none fails.

    ``se`` is the sampling error of the final batch alone and cannot see
    failure mass that the final proposal under-samples: pf +- 2 se covered
    the reference in 465 of 600 four-branch runs (132 misses below, 3
    above), 166 of 200 on two-mode z = 3.5, d = 2 (34 below) and 75 of 100
    on two-mode z = 5.5, d = 20 (24 below, 1 run at pf 0)."""

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
    """ln h_sigma(g), finite for any finite g at which -g/sigma is finite;
    ``run`` passes a sigma > 0, ``SIGMA0`` or a ``select_sigma`` level."""
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
    n = values.size
    if n < 2:
        raise ValueError("cv needs at least two values")
    mean = np.add.reduce(values, axis=None) / n
    if mean == 0.0 or not math.isfinite(mean):
        return np.inf
    return float(_std(values, mean) / mean)


def _std(values: np.ndarray, mean) -> np.floating:
    """The sample std (ddof=1) of two or more ``values`` about their
    ``mean`` = np.add.reduce(values, axis=None) / values.size: numpy's
    mean and std(ddof=1) step by step, bit for bit, with one sum for the
    mean."""
    d = values - mean
    d *= d
    return np.sqrt(np.add.reduce(d, axis=None) / (values.size - 1))


def intermediate_log_weights(g: np.ndarray, sigma: float, log_ratio: np.ndarray) -> np.ndarray:
    """Unnormalized log importance weights ln W_i = ln h_sigma(g_i)
    + (ln p(u_i) - ln q(u_i)) for the smoothed target at level sigma."""
    return log_smooth_indicator(g, sigma) + log_ratio


def _weight_cv(log_w: np.ndarray) -> float:
    if log_w.size < 2:
        return np.inf
    return cv(shifted_exp(log_w)[0])


def _count_thresholds(g: np.ndarray, log_ratio: np.ndarray):
    """Per row, the sigma below which its smoothed weight is exactly 0 after
    ``shifted_exp``: all zeros when no row can be skipped.

    Let M be the largest ln p/q of a failing row (g <= 0). A failing row has
    ln W >= M - ln 2, so the shift is at least that; a row with g > 0 has
    ln W <= ln(p/q) - g^2/(2 sigma^2) - ln 2, as Phi(x) <= e^(-x^2/2)/2 for
    x <= 0. So below s = g / sqrt(2 (ln(p/q) - M + _SKIP_MARGIN)) the row's
    ln W - shift is below -_SKIP_MARGIN, and exp gives 0 there. Failing rows
    and rows whose g, ln p/q or s is NaN get 0: they always count. So does
    every row when no row fails, or when M is not finite or above
    _SKIP_TOP_MAX in size, where rounding in ln W - shift could eat the
    margin's slack.
    """
    fail = g <= 0.0
    if not np.logical_or.reduce(fail):
        return np.zeros(g.size)
    top = np.maximum.reduce(log_ratio[fail])
    if not abs(top) <= _SKIP_TOP_MAX:
        return np.zeros(g.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = 2.0 * (log_ratio - (top - _SKIP_MARGIN))
        s = np.where(c <= 0.0, np.inf, g / np.sqrt(c))
    s[~(g > 0.0) | np.isnan(s)] = 0.0
    return s


def _decided_rows(n: int, delta_target: float) -> int:
    """The most rows of positive weight at which the weights' cv provably
    exceeds ``delta_target``: k such weights among n give
    cv(W)^2 >= n (n - k) / (k (n - 1)), which is above
    t = (delta_target (1 + 1e-6))^2 for every k < n^2 / (t (n - 1) + n).
    The 1e-6 keeps the bound clear of rounding in the cv. 0 where no k is
    decided, and where delta_target is not positive and finite."""
    if n < 2 or not 0.0 < delta_target < math.inf:
        return 0
    t = (delta_target * (1.0 + 1e-6)) ** 2
    return math.ceil(n * n / (t * (n - 1) + n)) - 1


def _smoothed_weights(w, rows, neg_g, log_ratio, sigma) -> np.ndarray:
    """``w`` set to 0 and, at ``rows``, to the shifted smoothed weights
    exp(ln W - max ln W) with ln W = ln Phi(neg_g / sigma) + log_ratio:
    ``shifted_exp`` of ``intermediate_log_weights`` bit for bit, without its
    reset where the max is finite."""
    # at a tiny sigma neg_g / sigma overflows to +-inf, where ln Phi takes its limits
    with np.errstate(over="ignore"):
        x = neg_g / sigma
    log_w = log_normal_cdf(x)
    log_w += log_ratio
    top = np.maximum.reduce(log_w)
    if math.isfinite(top):
        log_w -= top
        np.exp(log_w, out=log_w)
    else:
        log_w = shifted_exp(log_w)[0]
    w.fill(0.0)
    w[rows] = log_w
    return w


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
    e is finite. The result never exceeds sigma_prev, which ``run``
    keeps positive.

    Rows whose smoothed weight provably underflows to 0 are skipped: with M
    the largest ln p/q of a failing row, a row with ln(p/q) - g^2/(2 sigma^2)
    < M - 800 gets weight 0 without its ln Phi being evaluated (see
    ``_count_thresholds``; where its thresholds are all zeros, every row
    counts). Grid points are skipped too where so few rows count that
    e > 0 or e = +inf follows from their number alone (``_decided_rows``):
    such a point is evaluated only if its neighbour reads negative, or if no
    cell crosses. The weights, their sums and the result are the same bit
    for bit as with every row and every grid point evaluated.
    """
    # the rows that count at sigma are a prefix in threshold order; its
    # max is the whole batch's shift, as every skipped row lies far below
    thresholds = _count_thresholds(g, log_ratio)
    order = thresholds.argsort()
    neg_g_s, log_ratio_s = -g[order], log_ratio[order]
    # shrunk a little, so that rounding only ever keeps more rows; this
    # also widens the margin by 2e-9 (ln(p/q) - M + 800)
    thresholds = thresholds[order] * (1.0 - 1e-9)
    w = np.empty(g.size)

    def counted(log_sigma: float):
        sigma = np.exp(log_sigma)
        return sigma, thresholds.searchsorted(sigma, side="right")

    def excess(log_sigma: float) -> float:
        if g.size < 2:
            return np.inf - delta_target
        sigma, k = counted(log_sigma)
        return cv(_smoothed_weights(w, order[:k], neg_g_s[:k], log_ratio_s[:k], sigma)) - delta_target

    grid = np.linspace(np.log(_GRID_FLOOR * sigma_prev), np.log(sigma_prev), 50)
    # the rows that count grow with sigma, so the grid points whose row
    # count decides e > 0 are a prefix; +inf stands in for their e
    decided = _decided_rows(g.size, delta_target)
    low = 0
    while low < grid.size and counted(grid[low])[1] <= decided:
        low += 1
    e = [np.inf] * low
    for b in grid[low:]:
        e.append(excess(b))
        if len(e) < 2:
            continue
        if len(e) == low + 1 and e[-1] < 0.0:
            # the last decided point and its negative neighbour cross where its e is finite
            e[-2] = excess(grid[low - 1])
        fa, fb = e[-2:]
        if math.isfinite(fa) and math.isfinite(fb) and fa * fb < 0.0:
            break
    else:
        e[:low] = [excess(x) for x in grid[:low]]
        best = grid[np.where(np.isfinite(e), np.abs(e), np.inf).argmin()]
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


def lambda_schedule(sigma: float) -> float:
    """Cosine annealing weight for the light kernel.

    lambda = 0 for sigma > SIGMA0, else (1 + cos(pi sigma / SIGMA0)) / 2;
    rises from 0 at the start level sigma = SIGMA0 to 1 at sigma = 0.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma > SIGMA0:
        return 0.0
    return float(0.5 * (1.0 + np.cos(np.pi * sigma / SIGMA0)))


def estimate_pf(g: np.ndarray, log_ratio: np.ndarray) -> tuple[float, float, float]:
    """``(pf, se, ess)`` of a batch from its log ratio ln p - ln q: the
    estimate (1/N) sum_i I{g_i <= 0} p(u_i)/q(u_i) with the error bar and
    ESS that ``RunResult`` defines; all three are 0 when no sample fails."""
    fail = g <= 0.0
    if not np.logical_or.reduce(fail):
        return 0.0, 0.0, 0.0
    w, shift = shifted_exp(np.where(fail, log_ratio, -np.inf))
    # pf sums the failing entries alone: a sum over all N rounds differently
    pf = float(np.exp(shift) * np.add.reduce(w[fail]) / g.size)
    total = np.add.reduce(w)
    se = float(np.exp(shift) * _std(w, total / g.size) / math.sqrt(g.size))
    return pf, se, float(total**2 / np.add.reduce(w * w))


def init_light_params(rng: np.random.Generator, d: int, k: int) -> VmfnmParams:
    """Initial light mixture: every component carries the prior radial law
    Nakagami(d/2, d); directions are uniform random with kappa = 2 so the
    E-step can tell components apart (kappa = 0 would make them identical
    and freeze EM at uniform responsibilities). A single component keeps
    kappa = 0 and reproduces the prior exactly. ``RunConfig`` checks k >= 1
    and ``Problem`` d >= 2."""
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
    mixture only, fitted by plain EM (the same loop at beta = 0). The
    problem's dimension is checked where the ``Problem`` is built.
    """
    use_heavy = config.method == "safe-ice"
    rng = np.random.default_rng(config.seed)
    d = problem.dim
    n = config.n_per_iter

    v = init_light_params(rng, d, config.k_init)
    sigma = SIGMA0

    sigma_trace: list = []
    lambda_trace: list = []
    k_trace: list = []
    converged = False
    stagnant = 0
    floored = 0  # levels where sigma fell to select_sigma's grid floor

    def warn(message: str) -> None:
        logger.warning(f"run: problem '{problem.name}' seed {config.seed} t {t} sigma {sigma:g}: {message}")

    # on every exit, g and log_ratio belong to the final batch
    for t in range(MAX_OUTER + 1):
        phi = SafeMixtureParams(v, lambda_schedule(sigma) if use_heavy else 1.0)
        samples = safe_sample(rng, phi, n)
        g = evaluate_lsf(problem, samples.cartesian())
        log_ratio = prior_logpdf(samples) - safe_logpdf(samples, phi)
        sigma_trace.append(sigma)
        lambda_trace.append(phi.lam)
        k_trace.append(v.k)

        if stop_cv(g[: samples.n_light], sigma) <= DELTA_STAR:
            converged = True
            break
        if t == MAX_OUTER:
            floor = f"; {floored} of {t} levels cut sigma by select_sigma's full factor {_GRID_FLOOR:g}"
            warn("outer iteration limit reached without convergence" + (floor if floored else ""))
            break

        sigma_new = select_sigma(g, log_ratio, sigma, DELTA_TARGET)
        if sigma_new >= sigma * (1.0 - 1e-12):
            stagnant += 1
            if stagnant >= 2:
                stalled = _weight_cv(intermediate_log_weights(g, sigma, log_ratio))
                warn(
                    f"smoothing level stagnated, weight cv {stalled:.3g}"
                    f" against the target {DELTA_TARGET:g}; stopping"
                )
                break
        else:
            stagnant = 0
        floored += sigma_new <= _GRID_FLOOR * sigma * (1.0 + 1e-9)

        weights, _ = shifted_exp(intermediate_log_weights(g, sigma_new, log_ratio))
        if not np.logical_or.reduce(weights):
            warn(f"no smoothed weight is positive at the next sigma {sigma_new:g}; stopping")
            break
        v = fit(samples, weights, v, penalized=use_heavy).v
        sigma = sigma_new

    pf, se, ess = estimate_pf(g, log_ratio)
    n_failures = int(np.add.reduce(g <= 0.0))
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
        se=se,
        ess=ess,
    )


# perfbench calls and traces this name; config.method selects the method
run_safe_ice = run
