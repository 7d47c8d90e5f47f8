"""Reference implementations that only the tests use.

Each computes, by its own route, a quantity the estimator obtains some
other way, so the tests can compare the two.
"""

import numpy as np
from scipy.special import logsumexp, xlogy

from safeice import problems
from safeice.core import _weight_cv, intermediate_log_weights
from safeice.distributions import (
    _check_unit,
    inv_nakagami_logpdf,
    nakagami_logpdf,
    uniform_sphere_logpdf,
    vmf_log_normalizer,
)
from safeice.em import KAPPA_MAX, M_MAX, M_MIN, RESULTANT_MIN
from safeice.mixtures import PolarSamples, VmfnmParams, prior_logpdf, safe_logpdf
from safeice.special import shifted_exp


def bessel_ratio(d: int, kappa: float) -> float:
    """Ratio A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa) in [0, 1), the
    mean resultant length of a von Mises-Fisher law.

    Evaluated with the Gauss continued fraction from the three-term
    recurrence of I, using the modified Lentz algorithm. This avoids
    forming the two Bessel values (which overflow for large kappa) and
    converges in O(sqrt(kappa)) iterations.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if kappa == 0.0:
        return 0.0
    nu = d / 2.0
    tiny = 1e-300
    f = tiny
    c = tiny
    dd = 0.0
    max_iter = 400 + int(8.0 * np.sqrt(kappa))
    for j in range(1, max_iter):
        b = 2.0 * (nu + j - 1.0) / kappa
        dd = b + dd
        if dd == 0.0:
            dd = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        dd = 1.0 / dd
        delta = c * dd
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return f


def vmf_logpdf(a, mu, kappa: float):
    """Log density of the von Mises-Fisher law at unit directions ``a``.

    ``a`` may be a single direction (d,) or a batch (n, d); ``mu`` is the
    unit mean direction and kappa >= 0 the concentration. kappa = 0 is the
    uniform distribution on the sphere regardless of ``mu``.
    """
    a = np.asarray(a, dtype=float)
    mu = np.asarray(mu, dtype=float)
    d = mu.shape[-1]
    _check_unit(mu, "mu")
    _check_unit(a, "a")
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    if kappa == 0.0:
        base = uniform_sphere_logpdf(d)
        return base if a.ndim == 1 else np.full(a.shape[0], base)
    return vmf_log_normalizer(d, kappa) + kappa * (a @ mu)


def safe_logpdf_per_component(samples, phi):
    """Log density of the safe mixture component by component:

        ln q = logsumexp_k [ln pi_k + ln(lambda Nak_k(r) + (1 - lambda) InvNak_k(r))
                            + ln vMF_k(a)]

    with the radial mixture joined by ``np.logaddexp`` for 0 < lambda < 1,
    rather than as 2K separately weighted columns."""
    v, lam = phi.light, phi.lam
    r = samples.r[:, None]
    light = nakagami_logpdf(r, v.m[None, :], v.omega[None, :])
    heavy = inv_nakagami_logpdf(r, float(phi.heavy_m), phi.heavy_omega[None, :])
    radial = np.logaddexp(np.log(lam) + light, np.log1p(-lam) + heavy)
    angular = np.column_stack(
        [vmf_logpdf(samples.a, mu, kappa) for mu, kappa in zip(v.mu, v.kappa)]
    )
    return logsumexp(np.log(v.pi)[None, :] + radial + angular, axis=1)


def subset_estimate_pf(samples, g, phi):
    """Importance sampling estimate (1/N) sum_i I{g_i <= 0} p(u_i)/q(u_i)
    with p and q evaluated on the failure samples alone, taken out as a
    batch of their own; 0 when none fail."""
    fail = g <= 0.0
    if not np.any(fail):
        return 0.0
    sub = PolarSamples(samples.r[fail], samples.a[fail], samples.heavy[fail])
    w, shift = shifted_exp(prior_logpdf(sub) - safe_logpdf(sub, phi))
    return float(np.exp(shift) * w.sum() / len(samples))


def penalized_weight_update(gamma, weights, pi_old, beta):
    """EM weight update plus the entropy penalty with the factor of Yang,
    Lai & Lin written out and every sum taken over the (n, K) product
    gamma W:

        pi_em_k = sum_i gamma_ik W_i / sum_i sum_s gamma_is W_i
        pi_new_k = pi_em_k + beta * (sum_i W_i / sum_i sum_s gamma_is W_i)
                           * pi_old_k * (ln pi_old_k - E)

    with E = sum_s pi_old_s ln pi_old_s; returns (pi_em, pi_new)."""
    mass = float((gamma * weights[:, None]).sum())
    if mass <= 0.0:
        raise ValueError("total responsibility mass is zero")
    pi_em = gamma.T @ weights / mass
    entropy_sum = float(np.sum(xlogy(pi_old, pi_old)))
    ratio = float(weights.sum()) / mass
    return pi_em, pi_em + beta * ratio * pi_old * (np.log(pi_old) - entropy_sum)


def m_step_params(samples, gamma, weights, v):
    """Closed-form M-step from the (n, K) products c = gamma W, c r^2 and
    c r^4, reduced column by column, and the resultant c^T a; a component
    with no mass, a resultant too small to normalize or a degenerate radial
    moment keeps its parameters from ``v``."""
    d = samples.dim
    c = gamma * weights[:, None]
    s0 = c.sum(axis=0)
    dead = s0 <= 0.0
    s0_safe = np.where(dead, 1.0, s0)

    r2 = samples.r**2
    mean_r2 = (c * r2[:, None]).sum(axis=0) / s0_safe
    mean_r4 = (c * (r2 * r2)[:, None]).sum(axis=0) / s0_safe
    var_r2 = mean_r4 - mean_r2**2
    omega = mean_r2
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(var_r2 > 0.0, mean_r2**2 / var_r2, np.inf)
    m = np.clip(m, M_MIN, M_MAX)

    resultant = c.T @ samples.a
    res_norm = np.linalg.norm(resultant, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = resultant / res_norm[:, None]
        rbar = res_norm / s0_safe
        kappa = np.where(rbar < 1.0, rbar * (d - rbar**2) / (1.0 - rbar**2), np.inf)
    kappa = np.clip(kappa, 0.0, KAPPA_MAX)

    bad = dead | (res_norm < RESULTANT_MIN) | ~np.isfinite(omega) | (omega <= 0.0)
    m[bad] = v.m[bad]
    omega[bad] = v.omega[bad]
    mu[bad] = v.mu[bad]
    kappa[bad] = v.kappa[bad]
    return VmfnmParams(v.pi, m, omega, mu, kappa)


def oscillator_response_rk4_reference(u):
    """Displacement x(t_end) for each row of ``u`` (shape (n, d)), by the
    per-stage RK4 that ``problems.oscillator_response`` replaced: each
    stage calls ``deriv``, which stacks a fresh (3, n) array.

    The load is f(t) = -m sigma sum_i [U_i cos(w_i t) + U_{d/2+i} sin(w_i t)]
    with w_i = i * 30 pi / d and sigma = sqrt(2 S * 30 pi / d). Forcing is
    evaluated at the RK4 substep times; the two middle stages share the
    midpoint value. It reads the ``problems.OSC_*`` constants when called.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    d = problems.OSC_DIM
    if u.shape[1] != d:
        raise ValueError(f"oscillator requires d = {d}")
    half = d // 2
    n_steps = int(round(problems.OSC_T_END / problems.OSC_DT))

    d_omega = 30.0 * np.pi / d
    omegas = d_omega * np.arange(1, half + 1)
    sig = np.sqrt(2.0 * problems.OSC_INTENSITY * d_omega)
    # forcing on the half-step grid shared by all RK4 stages
    t_half = 0.5 * problems.OSC_DT * np.arange(2 * n_steps + 1)
    phase = np.outer(omegas, t_half)
    m, k = problems.OSC_MASS, problems.OSC_STIFFNESS
    force = -m * sig * (u[:, :half] @ np.cos(phase) + u[:, half:] @ np.sin(phase))

    c = 2.0 * m * problems.OSC_DAMPING_RATIO * np.sqrt(k / m)
    alpha, xy = problems.OSC_ALPHA, problems.OSC_YIELD_DISP
    a_bw, beta, gam = problems.OSC_BW_A, problems.OSC_BW_BETA, problems.OSC_BW_GAMMA
    n_exp = 3

    def deriv(s, f):
        x, vel, zb = s
        abs_z = np.abs(zb)
        zn1 = abs_z ** (n_exp - 1) * zb
        zn = abs_z**n_exp
        dv = (f - c * vel - k * (alpha * x + (1.0 - alpha) * xy * zb)) / m
        dz = (a_bw * vel - beta * np.abs(vel) * zn1 - gam * vel * zn) / xy
        return np.array((vel, dv, dz))

    # state rows: displacement x, velocity, Bouc-Wen hysteretic variable z
    s = np.zeros((3, u.shape[0]))
    h = problems.OSC_DT
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            f0 = force[:, 2 * i]
            fm = force[:, 2 * i + 1]
            f1 = force[:, 2 * i + 2]
            k1 = deriv(s, f0)
            k2 = deriv(s + 0.5 * h * k1, fm)
            k3 = deriv(s + 0.5 * h * k2, fm)
            k4 = deriv(s + h * k3, f1)
            s = s + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(s[0])):
        raise ValueError("oscillator state became non-finite (load too extreme)")
    return s[0]


def select_sigma_full_grid_reference(g, log_ratio, sigma_prev: float, delta_target: float) -> float:
    """The smoothing level by the full-grid search that ``core.select_sigma``
    replaced: e(x) = cv(W(e^x)) - delta_target at all 50 points of the grid
    over [ln(1e-8 sigma_prev), ln sigma_prev], then 32 halvings of the
    crossing cell with the smallest sigma, down to a width below 1e-10, and
    its midpoint. Without a crossing, the first grid point with the
    smallest |e|. The result never exceeds sigma_prev.
    """
    if sigma_prev <= 0.0:
        raise ValueError("sigma_prev must be positive")

    def excess(log_sigma: float) -> float:
        return _weight_cv(intermediate_log_weights(g, np.exp(log_sigma), log_ratio)) - delta_target

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
