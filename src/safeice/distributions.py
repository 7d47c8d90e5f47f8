"""Radial and angular component distributions in polar coordinates.

A point u in R^d is represented as u = r * a with radius r > 0 and
direction a on the unit sphere S^{d-1}. Radial densities are taken with
respect to dr and angular densities with respect to the surface measure
of the sphere, so the standard normal prior factorizes as

    p(r, a) = chi_d(r) * (1 / S_{d-1})

with chi_d identical to a Nakagami(d/2, d) law. Ratios of polar densities
therefore never need the r^{d-1} Jacobian explicitly.

Reproducibility: every sampler takes a ``numpy.random.Generator``. A run
built from ``rng_from_seed(seed)`` draws in fixed program order, so equal
seeds give bit-identical streams. Derived streams (e.g. benchmark
repetition i) use ``rng_from_seed(seed_base + i)``.
"""

from __future__ import annotations

import numpy as np

from .special import log_bessel_i_scaled, log_gamma

__all__ = [
    "rng_from_seed",
    "nakagami_logpdf",
    "nakagami_sample",
    "inv_nakagami_logpdf",
    "inv_nakagami_sample",
    "vmf_log_normalizer",
    "vmf_sample",
    "uniform_sphere_logpdf",
    "prior_radial_logpdf",
]

_LOG_2 = float(np.log(2.0))
_LOG_2PI = float(np.log(2.0 * np.pi))

# Largest | |mu| - 1 | a mean direction may have. Mixture parameters and
# the vMF sampler check against the same value, so any mixture that
# constructs can be sampled.
UNIT_NORM_TOL = 1e-8


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed."""
    return np.random.default_rng(int(seed))


def _check_shape_params(m, omega):
    m = np.asarray(m, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if np.any(m < 0.5):
        raise ValueError("Nakagami shape m must be >= 0.5")
    if np.any(omega <= 0.0):
        raise ValueError("Nakagami spread omega must be positive")
    return m, omega


def _radial_coefficients(m, omega, side: int):
    """(ln C, 2 side m - 1, -m / omega) of the one form of the Nakagami
    (side = +1) and inverse-Nakagami (side = -1) log densities,

        ln pdf(r) = ln C + (2 side m - 1) ln r - (m / omega) r^(2 side),

    with C = 2 m^m / (Gamma(m) omega^m); broadcasts over m and omega."""
    m, omega = _check_shape_params(m, omega)
    log_c = _LOG_2 + m * np.log(m) - log_gamma(m) - m * np.log(omega)
    return log_c, 2.0 * side * m - 1.0, -m / omega


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


def nakagami_sample(rng: np.random.Generator, m, omega, size=None):
    """Draw Nakagami(m, omega) radii as sqrt of gamma(m, omega/m) variates.

    ``m`` and ``omega`` broadcast, so per-sample parameter arrays draw one
    radius each."""
    m, omega = _check_shape_params(m, omega)
    return np.sqrt(rng.gamma(shape=m, scale=omega / m, size=size))


def inv_nakagami_logpdf(r, m, omega):
    """Log density of the reciprocal of a Nakagami(m, omega) variable.

    pdf(r) = 2 m^m / (Gamma(m) omega^m) * r^-(2m+1) * exp(-m / (omega r^2))

    The polynomial tail r^-(2m+1) is what makes the safe proposal heavy.
    """
    return _radial_logpdf(r, m, omega, -1)


def inv_nakagami_sample(rng: np.random.Generator, m, omega, size=None):
    """Draw from the inverse Nakagami law as 1/X with X ~ Nakagami(m, omega)."""
    return 1.0 / nakagami_sample(rng, m, omega, size=size)


def uniform_sphere_logpdf(d: int) -> float:
    """Log density of the uniform law on S^{d-1} (surface measure)."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return log_gamma(d / 2.0) - _LOG_2 - (d / 2.0) * np.log(np.pi)


def vmf_log_normalizer(d: int, kappa):
    """ln C_d(kappa) with C_d(k) = k^(d/2-1) / ((2 pi)^(d/2) I_{d/2-1}(k)).

    Vectorized over kappa; the kappa = 0 entries reduce to the uniform
    sphere density.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa < 0.0):
        raise ValueError("kappa must be nonnegative")
    scalar = kappa.ndim == 0
    kappa = np.atleast_1d(kappa)
    out = np.full(kappa.shape, uniform_sphere_logpdf(d))
    pos = kappa > 0.0
    if np.any(pos):
        kp = kappa[pos]
        nu = d / 2.0 - 1.0
        log_i = log_bessel_i_scaled(nu, kp) + kp
        out[pos] = nu * np.log(kp) - (d / 2.0) * _LOG_2PI - log_i
    return float(out[0]) if scalar else out


def _check_unit(vec, name: str):
    norms = np.linalg.norm(vec, axis=-1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise ValueError(f"{name} must have unit norm (deviation > {UNIT_NORM_TOL})")


def vmf_sample(rng: np.random.Generator, mu, kappa: float, n: int):
    """Draw ``n`` unit vectors from vMF(mu, kappa) by Wood's rejection method.

    The cosine w of the angle to ``mu`` is sampled through the beta envelope
    with the standard acceptance test; the orthogonal part is an isotropic
    direction in the tangent space. Valid for any d >= 2 and kappa >= 0.
    """
    mu = np.asarray(mu, dtype=float)
    d = mu.size
    if d < 2:
        raise ValueError("dimension must be at least 2")
    _check_unit(mu, "mu")
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")

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


def prior_radial_logpdf(r, d: int):
    """Radial log density of the standard normal prior: chi with d degrees
    of freedom, identical to Nakagami(d/2, d)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return nakagami_logpdf(r, d / 2.0, float(d))
