"""Reference implementations that only the tests use.

Each computes, by its own route, a quantity the estimator obtains some
other way, so the tests can compare the two.
"""

import numpy as np

from safeice.distributions import _check_unit, uniform_sphere_logpdf, vmf_log_normalizer


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
