"""Scalar special functions used by the radial and angular densities.

Everything here is a thin, well-tested numerical kernel: the log of the
standard normal CDF, the scaled modified Bessel function of the first
kind in log space, and the max-shifted exponential of log weights. The
log-gamma function is scipy's ``gammaln``, called where it is needed.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sc

__all__ = [
    "log_normal_cdf",
    "log_bessel_i_scaled",
    "shifted_exp",
    "log_sum_exp",
]


def log_normal_cdf(x):
    """ln Phi(x) without underflow; accurate far into the lower tail."""
    return _sc.log_ndtr(x)


def _log_bessel_i_series(order: float, x):
    # Ascending series ln I_nu(x) = nu*ln(x/2) - lgamma(nu+1) + ln(sum),
    # used where the scaled Bessel underflows (large order, small x).
    # In that regime x*x/4 << order+1 and a handful of terms suffice.
    x = np.asarray(x, dtype=float)
    q = x * x / 4.0
    term = np.ones_like(q)
    total = np.ones_like(q)
    for k in range(1, 40):
        term = term * q / (k * (order + k))
        total = total + term
        if np.logical_and.reduce(term < 1e-18 * total, axis=None):
            break
    # ln x - ln 2, not ln(x / 2): halving the least subnormal x gives 0
    return order * (np.log(x) - np.log(2.0)) - _sc.gammaln(order + 1.0) + np.log(total) - x


def log_bessel_i_scaled(order: float, x: np.ndarray) -> np.ndarray:
    """ln I_order(x) - x over a float array x; ``vmf_log_normalizer``, the
    one caller, passes x = kappa > 0 and order = d/2 - 1 >= 0.

    Uses the exponentially scaled Bessel function and falls back to the
    ascending series when the scaled value underflows.
    """
    scaled = _sc.ive(order, x)
    ok = scaled > 0.0
    if np.logical_and.reduce(ok, axis=None):
        return np.log(scaled)
    out = np.empty(x.shape)
    out[ok] = np.log(scaled[ok])
    out[~ok] = _log_bessel_i_series(order, x[~ok])
    return out


def shifted_exp(x, axis=-1, out=None):
    """exp(x - shift) and the shift, the max of ``x`` along ``axis`` or 0
    where that max is not finite; the shift comes back with ``axis``
    removed. A sum of the exponentials is 0 only where x is all -inf.
    The exponentials go into ``out`` when given, which may be ``x`` itself.
    Where the max is NaN or +inf, other entries of the slice may overflow
    to +inf, silently."""
    shift = np.maximum.reduce(x, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    e = np.subtract(x, shift, out=out)
    # a slice with a finite max cannot overflow, so this silences the
    # slices whose max was NaN or +inf only
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    return e, shift.squeeze(axis=axis)


def log_sum_exp(x, axis=-1):
    """ln sum exp(x) along ``axis``; -inf where every entry is -inf."""
    e, shift = shifted_exp(x, axis)
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduce(e, axis=axis)) + shift
