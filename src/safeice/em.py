"""Weighted EM for the vMFNM mixture with a cross-entropy penalty on the
mixture weights.

The penalty augments the weighted EM update of the component weights with
a term proportional to pi_k * (ln pi_k - E), E = sum_s pi_s ln pi_s, which
pushes components whose weight sits below the mixture entropy toward zero.
Components whose updated weight is nonpositive are pruned. The penalty
strength beta adapts each iteration: it collapses while the weights are
still moving (so plain EM progress is not disturbed) and recovers toward
its cap as they stall, which is when the pruning pressure acts. At beta
fixed to 0 the loop is plain weighted EM, which prunes only zero EM weights.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .mixtures import PolarSamples, VmfnmParams, _mixture_columns
from .special import shifted_exp

__all__ = [
    "e_step",
    "batch_statistics",
    "penalized_weight_update",
    "prune",
    "beta_update",
    "m_step_params",
    "weighted_loglik",
    "fit",
    "FitResult",
]

logger = logging.getLogger(__name__)

EM_TOL = 1e-4  # fit stops once the log-likelihood moves by less than this share
MAX_EM = 20  # fit's iteration limit
M_MIN = 0.5 + 1e-6
M_MAX = 1e4
KAPPA_MAX = 1e4
# below this norm the squares of a resultant's entries underflow, so
# dividing by np.linalg.norm no longer yields a unit vector
RESULTANT_MIN = math.sqrt(np.finfo(float).tiny)


def e_step(
    samples: PolarSamples, v: VmfnmParams, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(K, n) responsibilities gamma[k, i] = pi_k q_k(u_i) / sum_s pi_s q_s(u_i)
    and their normaliser, the mixture log density ln q(u_i; v).

    Both come from one shifted exponential of the (K, n) joint log
    densities, taken in place, so the max, exp, sum and divide run over K
    rows of length n. The joint and then gamma go into ``out``, a
    C-contiguous (K, n) array, when given, and else into a new array.
    Samples with zero density under every component get uniform
    responsibilities (with a diagnostic warning) so the M-step stays defined.
    """
    if out is None:
        out = np.empty((v.k, len(samples)))
    joint = _mixture_columns(samples, v, [(v.pi, v.m, v.omega, 1)], out=out)
    e, shift = shifted_exp(joint, axis=0, out=joint)
    total = e.sum(axis=0)
    with np.errstate(divide="ignore"):
        log_q = np.log(total) + shift
    bad = ~np.isfinite(log_q)
    if bad.any():
        logger.warning("e_step: %d samples with zero density under all components", bad.sum())
        e[:, bad], total[bad] = 1.0, v.k
    e /= total
    return e, log_q


def batch_statistics(samples: PolarSamples, weights: np.ndarray) -> np.ndarray:
    """(n, d + 3) matrix S = W [1, r^2, r^4, a] of a weighted batch; row k of
    gamma S holds component k's mass, weighted r^2 and r^4 sums and resultant.
    r^2 is the batch's kept ``radial_statistics`` column. Each column is
    written in place: W * 1 is W, and W r^4 is W (r^2 r^2)."""
    r2 = samples.radial_statistics(1)[:, 1]
    stats = np.empty((len(samples), samples.dim + 3))
    stats[:, 0] = weights
    np.multiply(weights, r2, out=stats[:, 1])
    np.multiply(r2, r2, out=stats[:, 2])
    stats[:, 2] *= weights
    np.multiply(weights[:, None], samples.a, out=stats[:, 3:])
    return stats


def penalized_weight_update(
    gamma: np.ndarray, weights: np.ndarray, pi_old: np.ndarray, beta: float, entropy_sum: float
) -> tuple[np.ndarray, np.ndarray]:
    """EM weight update plus the entropy penalty, returned as (pi_em, pi_new):

    pi_em = gamma W / sum(gamma W)
    pi_new_k = pi_em_k + beta * pi_old_k * (ln pi_old_k - E),  E = sum_s pi_old_s ln pi_old_s

    The penalty of Yang, Lai & Lin has a factor sum_i W_i / sum_i sum_s gamma_is
    W_i, which is 1 as e_step and prune make every column of the (K, n)
    gamma sum to 1, so the mass totals sum_i W_i > 0, which ``fit`` checks.
    pi_new sums to 1; prune() removes its entries <= 0. ``entropy_sum`` is E,
    which ``fit`` takes once per iteration for this and ``beta_update``.
    """
    mass = gamma @ weights
    pi_em = mass / mass.sum()
    return pi_em, pi_em + beta * pi_old * (np.log(pi_old) - entropy_sum)


def prune(
    pi_new: np.ndarray, gamma: np.ndarray, v: VmfnmParams
) -> tuple[VmfnmParams, np.ndarray]:
    """Drop components with nonpositive weight and renormalize.

    Returns the reduced mixture (weights rescaled to sum 1, other component
    parameters carried over) and the (K, n) responsibilities restricted to
    the surviving rows, each sample's column renormalized; a sample with no
    responsibility left on them gets uniform ones. When every component
    survives, ``gamma`` comes back as it is. ``pi_new`` sums to 1, so
    some entry survives.
    """
    keep = pi_new > 0.0
    if keep.all():
        return VmfnmParams(pi_new / pi_new.sum(), v.m, v.omega, v.mu, v.kappa), gamma
    pi = pi_new[keep]
    gamma = gamma[keep]
    total = gamma.sum(axis=0)
    dead = total <= 0.0
    if dead.any():
        gamma[:, dead], total[dead] = 1.0 / keep.sum(), 1.0
    gamma /= total
    v2 = VmfnmParams(
        pi=pi / pi.sum(), m=v.m[keep], omega=v.omega[keep], mu=v.mu[keep], kappa=v.kappa[keep]
    )
    return v2, gamma


def beta_update(
    pi_new: np.ndarray,
    pi_old: np.ndarray,
    pi_em: np.ndarray,
    d: int,
    n_samples: int,
    entropy_sum: float,
) -> float:
    """Adaptive penalty strength.

    beta = min( mean_k exp(-eta N |pi_new_k - pi_old_k|),
                (1 - max pi_em) / (-max(pi_old) * E) )

    with eta = min(1, 0.5^floor(d/2 - 1)) and ``entropy_sum`` E = sum pi_old ln pi_old.
    At K = 1, pi_old = [1] makes the penalty 0 at any beta. If the second
    argument is negative or non-finite, the first argument alone is used.
    """
    eta = min(1.0, 0.5 ** math.floor(d / 2.0 - 1.0))
    first = float(np.exp(-eta * n_samples * np.abs(pi_new - pi_old)).mean())
    denom = -float(pi_old.max()) * entropy_sum
    if denom > 0.0:
        second = (1.0 - float(pi_em.max())) / denom
        if math.isfinite(second) and second >= 0.0:
            return min(first, second)
    return first


def m_step_params(gamma: np.ndarray, stats: np.ndarray, v: VmfnmParams) -> VmfnmParams:
    """Closed-form component parameter updates, all read off the one (K, d + 3)
    product gamma S of the (K, n) responsibilities and the
    ``batch_statistics`` S.

    Radial: omega_k is the weighted mean of r^2 and m_k the inverse relative
    variance of r^2 (clamped to [0.5 + 1e-6, 1e4]). Angular: mu_k is the
    normalized weighted resultant and kappa_k the standard concentration
    approximation kappa = rbar (d - rbar^2) / (1 - rbar^2), clamped to
    [0, 1e4]. The returned mixture keeps the weights ``v.pi``; a component
    with no responsibility mass, a resultant too small to normalize or a
    degenerate radial moment (omega or m / omega not finite) also keeps
    its parameters from ``v``.
    """
    sums = gamma @ stats
    dead = sums[:, 0] <= 0.0
    if dead.any():
        logger.warning("m_step: %d components with zero responsibility mass", dead.sum())
    s0_safe = np.where(dead, 1.0, sums[:, 0])

    omega, mean_r4 = sums[:, 1:3].T / s0_safe  # omega is the mean of r^2
    var_r2 = mean_r4 - omega**2
    # neither the norm nor the clips can divide by 0 or meet an invalid
    # operation, so this block silences only what the quotients raise
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.clip(np.where(var_r2 > 0.0, omega**2 / var_r2, np.inf), M_MIN, M_MAX)
        res_norm = np.linalg.norm(sums[:, 3:], axis=1)  # of the resultant
        mu = sums[:, 3:] / res_norm[:, None]
        rbar = res_norm / s0_safe
        kappa = np.where(rbar < 1.0, rbar * (v.dim - rbar**2) / (1.0 - rbar**2), np.inf)
        kappa = np.clip(kappa, 0.0, KAPPA_MAX)

    with np.errstate(divide="ignore", over="ignore"):
        bad = dead | (res_norm < RESULTANT_MIN) | ~np.isfinite(omega) | ~np.isfinite(m / omega)
    if bad.any():
        m[bad] = v.m[bad]
        omega[bad] = v.omega[bad]
        mu[bad] = v.mu[bad]
        kappa[bad] = v.kappa[bad]
    return VmfnmParams(v.pi, m, omega, mu, kappa)


def weighted_loglik(samples: PolarSamples, weights: np.ndarray, v: VmfnmParams) -> float:
    """Weighted mixture log likelihood sum_i W_i ln q(u_i; v), with ln q
    the ``e_step`` normaliser: the l_j of ``fit``'s stop test."""
    pos = weights > 0.0
    return _loglik(weights[pos], pos, e_step(samples, v)[1])


def _loglik(w_pos: np.ndarray, pos: np.ndarray, log_q: np.ndarray) -> float:
    # the sum runs over the positive weights w_pos = weights[pos] only, so
    # 0 * (-inf) cannot poison it
    return float((w_pos * log_q[pos]).sum())


@dataclass
class FitResult:
    v: VmfnmParams
    n_iterations: int


def fit(samples: PolarSamples, weights: np.ndarray, v_init: VmfnmParams, *, penalized: bool) -> FitResult:
    """Run the weighted (penalized) EM loop for at most ``MAX_EM`` iterations.

    Samples and weights are held fixed, so ``batch_statistics`` S is built
    once. Each iteration: weight update with the current beta, pruning of
    nonpositive weights, beta update from the pre-prune vectors, M-step,
    E-step, and the unpenalized weighted log-likelihood convergence check
    |l_j - l_{j-1}| < EM_TOL * |l_j|. The E-step's normaliser is ln q(u_i; v), so l_j is
    ``weighted_loglik`` without a second density evaluation, and its
    responsibilities feed the next iteration; one E-step before the loop
    starts it. Iteration ``MAX_EM`` ends at its M-step, as what its E-step
    gives cannot change the result, so the debug line "stopped at MAX_EM"
    is logged whenever the limit is hit. Every E-step writes its (K, n)
    responsibilities into the leading rows of one (K0, n) buffer per fit.
    beta starts at 1; with ``penalized=False`` it stays 0, which is plain
    weighted EM: only components of EM weight exactly 0 are pruned. All
    updates are invariant to rescaling the weights. ``n_iterations``
    counts the iterations run. ``MAX_EM`` and ``EM_TOL`` are read at each
    call. Only ``v_init`` is checked: the mixtures EM derives from it are
    valid by construction.
    """
    weights = np.asarray(weights, dtype=float)
    pos = weights > 0.0
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0) or not pos.any():
        raise ValueError("weights must be finite and nonnegative with positive total")
    w_pos = weights[pos]
    v_init.check()
    v = v_init
    beta = 1.0 if penalized else 0.0
    l_prev = np.inf
    n_iterations = 0
    stats = batch_statistics(samples, weights)
    gamma_buf = np.empty((v.k, len(samples)))
    gamma, _ = e_step(samples, v, out=gamma_buf)
    for n_iterations in range(1, MAX_EM + 1):
        pi_old = v.pi
        entropy_sum = float(xlogy(pi_old, pi_old).sum())
        pi_em, pi_raw = penalized_weight_update(gamma, weights, pi_old, beta, entropy_sum)
        v, gamma = prune(pi_raw, gamma, v)
        if penalized:
            beta = beta_update(pi_raw, pi_old, pi_em, samples.dim, len(samples), entropy_sum)
        v = m_step_params(gamma, stats, v)
        if n_iterations == MAX_EM:
            logger.debug("fit: EM stopped at MAX_EM=%d", MAX_EM)
            break

        gamma, log_q = e_step(samples, v, out=gamma_buf[: v.k])
        l_cur = _loglik(w_pos, pos, log_q)
        if np.isfinite(l_prev) and abs(l_cur - l_prev) < EM_TOL * abs(l_cur):
            break
        l_prev = l_cur
    return FitResult(v=v, n_iterations=n_iterations)
