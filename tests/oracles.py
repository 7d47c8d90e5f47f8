"""Reference implementations that only the tests use.

Each computes, by its own route, a quantity the estimator obtains some
other way, so the tests can compare the two.
"""

import math

import numpy as np
from scipy import special as _sc
from scipy.special import logsumexp, xlogy

from safeice import problems
from safeice.core import _weight_cv, intermediate_log_weights
from safeice.em import KAPPA_MAX, M_MAX, M_MIN, RESULTANT_MIN
from safeice.mixtures import (
    UNIT_NORM_TOL,
    PolarSamples,
    VmfnmParams,
    _radial_coefficients,
    inv_nakagami_sample,
    nakagami_sample,
    prior_logpdf,
    safe_logpdf,
    uniform_sphere_logpdf,
    vmf_log_normalizer,
)
from safeice.special import _log_bessel_i_series, log_normal_cdf, shifted_exp


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


def _radial_logpdf(r, m, omega, side: int):
    log_c, b_log, b_pow = _radial_coefficients(m, omega, side)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    # r^(2 side) overflows for r past ~1e154 (side = +1) or below ~1e-154
    # (side = -1); the log density then saturates to -inf, the right limit
    with np.errstate(over="ignore"):
        return log_c + b_log * np.log(r) + b_pow * r ** (2.0 * side)


def nakagami_logpdf(r, m, omega):
    """Log density of the Nakagami(m, omega) law at radius r > 0.

    pdf(r) = 2 m^m / (Gamma(m) omega^m) * r^(2m-1) * exp(-m r^2 / omega)

    Broadcasts over all arguments; raises on r <= 0.
    """
    return _radial_logpdf(r, m, omega, 1)


def inv_nakagami_logpdf(r, m, omega):
    """Log density of the reciprocal of a Nakagami(m, omega) variable.

    pdf(r) = 2 m^m / (Gamma(m) omega^m) * r^-(2m+1) * exp(-m / (omega r^2))

    The polynomial tail r^-(2m+1) is what makes the safe proposal heavy.
    """
    return _radial_logpdf(r, m, omega, -1)


def _check_unit(vec, name: str):
    norms = np.linalg.norm(vec, axis=-1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise ValueError(f"{name} must have unit norm (deviation > {UNIT_NORM_TOL})")


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
    return vmf_log_normalizer(d, np.array([kappa]))[0] + kappa * (a @ mu)


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
    sub = PolarSamples(samples.r[fail], samples.a[fail], int(np.count_nonzero(fail[: samples.n_light])))
    w, shift = shifted_exp(prior_logpdf(sub) - safe_logpdf(sub, phi))
    return float(np.exp(shift) * w.sum() / len(samples))


def four_branch_pf_by_quadrature(n_angles: int) -> float:
    """The four-branch pf at z = 0 by a midpoint rule over ``n_angles``
    directions. With u = r (cos t, sin t) and p = t - pi/4, the branches
    read 0.2 r^2 sin^2 p -+ r cos p + 3 and 3.5 -+ r sin p. Along a ray the
    quadratic branch with the sign of cos p fails between its two roots and
    the linear branch with the sign of sin p beyond 3.5 / |sin p|; the other
    two never fail. The radius is chi with 2 degrees of freedom, so
    P(a <= r <= b) = exp(-a^2/2) - exp(-b^2/2), and the union of the two
    intervals is summed less their overlap."""

    def mass(a, b):
        return np.where(a < b, np.exp(-0.5 * a * a) - np.exp(-0.5 * b * b), 0.0)

    p = 2.0 * np.pi * (np.arange(n_angles) + 0.5) / n_angles
    c, s = np.abs(np.cos(p)), np.abs(np.sin(p))
    root = np.sqrt(np.maximum(c * c - 2.4 * s * s, 0.0))
    with np.errstate(divide="ignore"):
        # the roots of 0.2 s^2 r^2 - c r + 3, the lower one in its stable form
        lo = np.where(c * c >= 2.4 * s * s, 6.0 / (c + root), np.inf)
        hi = (c + root) / (0.4 * s * s)
        line = 3.5 / s
    per_ray = mass(lo, hi) + np.exp(-0.5 * line * line) - mass(np.maximum(lo, line), hi)
    return float(per_ray.mean())


def mixture_columns(samples, v, column_sets):
    """(n, K) joints ln w_k + radial_k + ln vMF_k for each set (w, m, omega,
    side) of ``column_sets``, side by side: the sample-major layout the
    estimator's (K, n) ``_mixture_columns`` replaced."""
    log_r = np.log(samples.r)
    angular = samples.a @ (v.kappa[:, None] * v.mu).T
    log_vmf = vmf_log_normalizer(v.dim, v.kappa)
    blocks = []
    for w, m, omega, side in column_sets:
        log_c, b_log, b_pow = _radial_coefficients(m, omega, side)
        coef = np.vstack(np.broadcast_arrays(b_log, b_pow))
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.stack((log_r, samples.r ** (2.0 * side)), axis=1) @ coef
        out += angular
        out += np.log(w) + log_c + log_vmf
        blocks.append(out)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)


def e_step(samples, v):
    """(n, K) responsibilities and the mixture log density ln q(u_i; v),
    normalised row by row; a sample of zero density under every component
    gets uniform responsibilities."""
    e, shift = shifted_exp(mixture_columns(samples, v, [(v.pi, v.m, v.omega, 1)]), axis=1)
    total = e.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_q = np.log(total) + shift
    bad = ~np.isfinite(log_q)
    e[bad], total[bad] = 1.0, v.k
    return e / total[:, None], log_q


def prune(pi_new, gamma, v):
    """Drop the components of nonpositive weight from the mixture and the
    columns of the (n, K) ``gamma``, then renormalise the weights and every
    row, also when nothing was dropped; a row with no mass left becomes
    uniform."""
    keep = pi_new > 0.0
    pi = pi_new[keep]
    pi = pi / pi.sum()
    gamma = gamma[:, keep]
    rows = gamma.sum(axis=1, keepdims=True)
    dead_rows = rows[:, 0] <= 0.0
    gamma[dead_rows] = 1.0 / keep.sum()
    rows[dead_rows] = 1.0
    v2 = VmfnmParams(pi=pi, m=v.m[keep], omega=v.omega[keep], mu=v.mu[keep], kappa=v.kappa[keep])
    return v2, gamma / rows


def entropy_sum(pi):
    """E = sum_s pi_s ln pi_s, with 0 ln 0 = 0."""
    return float(np.sum(xlogy(pi, pi)))


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
    ratio = float(weights.sum()) / mass
    return pi_em, pi_em + beta * ratio * pi_old * (np.log(pi_old) - entropy_sum(pi_old))


def m_step_params(samples, gamma, weights, v):
    """Closed-form M-step from the (n, K) products c = gamma W, c r^2 and
    c r^4, reduced column by column, and the resultant c^T a; a component
    with no mass, a resultant too small to normalize or a degenerate radial
    moment (omega not finite, or m / omega not finite) keeps its parameters
    from ``v``."""
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

    with np.errstate(divide="ignore", over="ignore"):
        bad = dead | (res_norm < RESULTANT_MIN) | ~np.isfinite(omega) | ~np.isfinite(m / omega)
    m[bad] = v.m[bad]
    omega[bad] = v.omega[bad]
    mu[bad] = v.mu[bad]
    kappa[bad] = v.kappa[bad]
    return VmfnmParams(v.pi, m, omega, mu, kappa)


def vmf_sample_reference(rng, mu, kappa: float, n: int):
    """``mixtures.vmf_sample`` as it was before it shared one (n, d)
    buffer: Wood's rejection method for the cosine w, then the tangent
    projection by ``np.outer``, both norms by ``np.linalg.norm`` and the
    final combination w mu + sqrt(1 - w^2) t in fresh arrays."""
    mu = np.asarray(mu, dtype=float)
    d = mu.size

    if kappa == 0.0:
        z = rng.standard_normal((n, d))
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    b = (d - 1.0) / (2.0 * kappa + np.sqrt(4.0 * kappa * kappa + (d - 1.0) ** 2))
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (d - 1.0) * np.log1p(-x0 * x0)

    w = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        k = todo.size
        z = rng.beta((d - 1.0) / 2.0, (d - 1.0) / 2.0, size=k)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.random(k)
        ok = kappa * cand + (d - 1.0) * np.log1p(-x0 * cand) - c >= np.log(u)
        w[todo[ok]] = cand[ok]
        todo = todo[~ok]

    tangent = rng.standard_normal((n, d))
    tangent -= np.outer(tangent @ mu, mu)
    norms = np.linalg.norm(tangent, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    tangent /= norms

    a = w[:, None] * mu[None, :] + np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None] * tangent
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return a


def safe_sample_reference(rng, phi, n: int):
    """``mixtures.safe_sample`` as it was before it finished all directions
    in one pass: one ``vmf_sample_reference`` call per component drawn,
    written into the rows of that component."""
    v = phi.light
    comp = rng.choice(v.k, size=n, p=v.pi)
    n_light = int(round(phi.lam * n))

    r = np.empty(n)
    if n_light:
        light_comp = comp[:n_light]
        r[:n_light] = nakagami_sample(rng, v.m[light_comp], v.omega[light_comp])
    if n_light < n:
        heavy_comp = comp[n_light:]
        r[n_light:] = inv_nakagami_sample(rng, float(phi.heavy_m), phi.heavy_omega[heavy_comp])

    a = np.empty((n, v.dim))
    for k in range(v.k):
        idx = np.nonzero(comp == k)[0]
        if idx.size:
            a[idx] = vmf_sample_reference(rng, v.mu[k], float(v.kappa[k]), idx.size)

    return PolarSamples(r=r, a=a, n_light=n_light)


def shifted_exp_reference(x, axis=-1):
    """``special.shifted_exp`` as it was before its path for finite maxima:
    every non-finite max reset to 0, then exp(x - shift) under errstate."""
    shift = x.max(axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    e = np.subtract(x, shift)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    return e, shift.squeeze(axis=axis)


def mixture_columns_reference(samples, v, column_sets):
    """``mixtures._mixture_columns`` in fresh arrays rather than the
    scratch, with the angular product's spare column from ``np.vstack``:
    (K, n) joints from an (n, K + 1) angular product, its first K columns
    added to the (n, K) radial product."""
    n, k = len(samples), v.k
    kmu = v.kappa[:, None] * v.mu
    angular = np.matmul(samples.a, np.vstack((kmu, kmu[:1])).T, out=np.empty((n, k + 1)))[:, :k]
    radial = np.empty((n, k))
    joint = np.empty((len(column_sets) * k, n))
    log_vmf = vmf_log_normalizer(v.dim, v.kappa)
    coef = np.empty((2, k))
    for i, (w, m, omega, side) in enumerate(column_sets):
        log_c, coef[0], coef[1] = _radial_coefficients(m, omega, side)
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(samples.radial_statistics(side), coef, out=radial)
        radial += angular
        np.add(radial.T, (np.log(w) + log_c + log_vmf)[:, None], out=joint[i * k : (i + 1) * k])
    return joint


def e_step_reference(samples, v):
    """``em.e_step`` as it was before its path for finite column maxima:
    the (K, n) responsibilities and ln q from ``mixture_columns_reference``,
    with every column checked for zero density."""
    joint = mixture_columns_reference(samples, v, [(v.pi, v.m, v.omega, 1)])
    e, shift = shifted_exp_reference(joint, axis=0)
    total = e.sum(axis=0)
    with np.errstate(divide="ignore"):
        log_q = np.log(total) + shift
    bad = ~np.isfinite(log_q)
    e[:, bad], total[bad] = 1.0, v.k
    return e / total, log_q


def safe_logpdf_reference(samples, phi):
    """``mixtures.safe_logpdf`` on ``mixture_columns_reference`` and
    ``shifted_exp_reference``."""
    v, lam = phi.light, phi.lam
    sides = ((lam, v.m, v.omega, 1), (1.0 - lam, phi.heavy_m, phi.heavy_omega, -1))
    joint = mixture_columns_reference(samples, v, [(w * v.pi, *radial) for w, *radial in sides if w > 0.0])
    e, shift = shifted_exp_reference(joint, axis=0)
    with np.errstate(divide="ignore"):
        return np.log(e.sum(axis=0)) + shift


def batch_statistics_reference(samples, weights):
    """``em.batch_statistics`` as it was before it wrote each column in
    place: W [1, r^2, r^4, a] by ``np.column_stack`` and one product."""
    r2 = samples.radial_statistics(1)[:, 1]
    return weights[:, None] * np.column_stack((np.ones(len(samples)), r2, r2 * r2, samples.a))


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


def select_sigma_sequential_reference(
    g: np.ndarray,
    log_ratio: np.ndarray,
    sigma_prev: float,
    delta_target: float,
) -> float:
    """``core.select_sigma`` as it was before it skipped the rows whose
    smoothed weight underflows to 0: the same grid scan and Illinois regula
    falsi, with every excess evaluated on all n rows."""

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


# The EM and sigma-search kernels as they were when they called numpy's
# Python wrappers (ndarray.sum/max/all/any/mean, np.clip, np.linalg.norm)
# and silenced every floating-point error with np.errstate. The kernels now
# call the ufuncs' reductions and divide with where= wherever no errstate
# block is kept; the tests hold the two to the same bits. The E-step, its
# joints and shifted_exp are held to the references above.


def log_bessel_i_scaled_with_wrappers(order: float, x: np.ndarray) -> np.ndarray:
    scaled = _sc.ive(order, x)
    ok = scaled > 0.0
    if ok.all():
        return np.log(scaled)
    out = np.empty(x.shape)
    out[ok] = np.log(scaled[ok])
    out[~ok] = _log_bessel_i_series(order, x[~ok])
    return out


def vmf_log_normalizer_with_wrappers(d: int, kappa: np.ndarray) -> np.ndarray:
    pos = kappa > 0.0
    kp = kappa if pos.all() else kappa[pos]
    nu = d / 2.0 - 1.0
    log_i = log_bessel_i_scaled_with_wrappers(nu, kp) + kp
    log_c = nu * np.log(kp) - (d / 2.0) * np.log(2.0 * np.pi) - log_i
    if kp is kappa:
        return log_c
    out = np.full(kappa.shape, uniform_sphere_logpdf(d))
    out[pos] = log_c
    return out


def penalized_weight_update_with_wrappers(gamma, weights, pi_old, beta, entropy_sum):
    mass = gamma @ weights
    pi_em = mass / mass.sum()
    return pi_em, pi_em + beta * pi_old * (np.log(pi_old) - entropy_sum)


def prune_with_wrappers(pi_new, gamma, v):
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
    v2 = VmfnmParams(pi=pi / pi.sum(), m=v.m[keep], omega=v.omega[keep], mu=v.mu[keep], kappa=v.kappa[keep])
    return v2, gamma


def beta_update_with_wrappers(pi_new, pi_old, pi_em, d, n_samples, entropy_sum):
    eta = min(1.0, 0.5 ** math.floor(d / 2.0 - 1.0))
    first = float(np.exp(-eta * n_samples * np.abs(pi_new - pi_old)).mean())
    denom = -float(pi_old.max()) * entropy_sum
    if denom > 0.0:
        second = (1.0 - float(pi_em.max())) / denom
        if math.isfinite(second) and second >= 0.0:
            return min(first, second)
    return first


def m_step_params_with_wrappers(gamma, stats, v):
    sums = gamma @ stats
    dead = sums[:, 0] <= 0.0
    s0_safe = np.where(dead, 1.0, sums[:, 0])

    omega, mean_r4 = sums[:, 1:3].T / s0_safe
    var_r2 = mean_r4 - omega**2
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.clip(np.where(var_r2 > 0.0, omega**2 / var_r2, np.inf), M_MIN, M_MAX)
        res_norm = np.linalg.norm(sums[:, 3:], axis=1)
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


def cv_with_wrappers(values) -> float:
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = values.sum() / n
    if mean == 0.0 or not np.isfinite(mean):
        return np.inf
    d = values - mean
    d *= d
    return float(np.sqrt(d.sum() / (n - 1)) / mean)


def smoothed_weights_with_wrappers(w, rows, neg_g, log_ratio, sigma) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = neg_g / sigma
    log_w = log_normal_cdf(x)
    log_w += log_ratio
    top = log_w.max()
    if math.isfinite(top):
        log_w -= top
        np.exp(log_w, out=log_w)
    else:
        log_w = shifted_exp_reference(log_w)[0]
    w.fill(0.0)
    w[rows] = log_w
    return w



def fit_on_every_row(samples, weights, v_init, *, penalized):
    """``em.fit`` as it was when every E-step ran on every row of the
    batch, zero-weight rows too, built from the kernels above, whose
    products are taken by ``@`` and ``np.matmul``. Returns the fitted
    mixture and the number of iterations; reads ``em.MAX_EM`` and
    ``em.EM_TOL`` at each call."""
    from safeice import em

    weights = np.asarray(weights, dtype=float)
    pos = weights > 0.0
    w_pos = weights[pos]
    v_init.check()
    v = v_init
    beta = 1.0 if penalized else 0.0
    l_prev = np.inf
    n_iterations = 0
    stats = em.batch_statistics(samples, weights)
    gamma, _ = e_step_reference(samples, v)
    for n_iterations in range(1, em.MAX_EM + 1):
        pi_old = v.pi
        e_sum = entropy_sum(pi_old)
        pi_em, pi_raw = penalized_weight_update_with_wrappers(gamma, weights, pi_old, beta, e_sum)
        v, gamma = prune_with_wrappers(pi_raw, gamma, v)
        if penalized:
            beta = beta_update_with_wrappers(pi_raw, pi_old, pi_em, samples.dim, len(samples), e_sum)
        v = m_step_params_with_wrappers(gamma, stats, v)
        if n_iterations == em.MAX_EM:
            break

        gamma, log_q = e_step_reference(samples, v)
        l_cur = float(np.add.reduce(w_pos * log_q[pos]))
        if np.isfinite(l_prev) and abs(l_cur - l_prev) < em.EM_TOL * abs(l_cur):
            break
        l_prev = l_cur
    return v, n_iterations
