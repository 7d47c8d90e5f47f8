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
from scipy.special import gammaln

from .special import log_bessel_i_scaled

__all__ = [
    "rng_from_seed",
    "nakagami_sample",
    "inv_nakagami_sample",
    "vmf_log_normalizer",
    "vmf_sample",
    "uniform_sphere_logpdf",
]

_LOG_2 = float(np.log(2.0))
_LOG_2PI = float(np.log(2.0 * np.pi))

# Largest | |mu| - 1 | a mean direction may have; ``VmfnmParams.check``
# rejects a mixture whose directions stray further.
UNIT_NORM_TOL = 1e-8


def rng_from_seed(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed."""
    return np.random.default_rng(int(seed))


def _radial_coefficients(m, omega, side: int):
    """(ln C, 2 side m - 1, -m / omega) of the one form of the Nakagami
    (side = +1) and inverse-Nakagami (side = -1) log densities,

        ln pdf(r) = ln C + (2 side m - 1) ln r - (m / omega) r^(2 side),

    with C = 2 m^m / (Gamma(m) omega^m); broadcasts over m and omega. It
    expects parameters that have passed ``VmfnmParams.check`` (m >= 0.5,
    omega > 0), or the heavy spreads ``SafeMixtureParams`` checks."""
    log_c = _LOG_2 + m * np.log(m) - gammaln(m) - m * np.log(omega)
    return log_c, 2.0 * side * m - 1.0, -m / omega


def nakagami_sample(rng: np.random.Generator, m, omega):
    """Draw Nakagami(m, omega) radii as sqrt of gamma(m, omega/m) variates.

    ``m`` and ``omega`` broadcast, and one radius is drawn per entry of
    their broadcast shape. It expects parameters that have passed
    ``VmfnmParams.check``, or the heavy spreads ``SafeMixtureParams`` checks."""
    return np.sqrt(rng.gamma(shape=m, scale=omega / m))


def inv_nakagami_sample(rng: np.random.Generator, m, omega):
    """Draw from the inverse Nakagami law as 1/X with X ~ Nakagami(m, omega)."""
    return 1.0 / nakagami_sample(rng, m, omega)


def uniform_sphere_logpdf(d: int) -> float:
    """Log density of the uniform law on S^{d-1} (surface measure), for
    the d >= 2 of a checked mixture."""
    return gammaln(d / 2.0) - _LOG_2 - (d / 2.0) * np.log(np.pi)


def vmf_log_normalizer(d: int, kappa: np.ndarray) -> np.ndarray:
    """ln C_d(kappa) with C_d(k) = k^(d/2-1) / ((2 pi)^(d/2) I_{d/2-1}(k)).

    Vectorized over the kappa array of a mixture that has passed
    ``VmfnmParams.check`` (kappa >= 0, d >= 2); the kappa = 0 entries
    reduce to the uniform sphere density. When every kappa is positive, as
    at every fitted level, the formula runs on the whole array.
    """
    pos = kappa > 0.0
    kp = kappa if pos.all() else kappa[pos]
    nu = d / 2.0 - 1.0
    log_i = log_bessel_i_scaled(nu, kp) + kp
    log_c = nu * np.log(kp) - (d / 2.0) * _LOG_2PI - log_i
    if kp is kappa:
        return log_c
    out = np.full(kappa.shape, uniform_sphere_logpdf(d))
    out[pos] = log_c
    return out


def vmf_sample(rng: np.random.Generator, mu, kappa: float, n: int):
    """Draw ``n`` unit vectors from vMF(mu, kappa) by Wood's rejection method.

    The cosine w of the angle to ``mu`` is sampled through the beta envelope
    with the standard acceptance test; the orthogonal part is an isotropic
    direction in the tangent space. It expects a ``mu`` and ``kappa`` that
    have passed ``VmfnmParams.check``: a unit ``mu`` with d >= 2 and
    kappa >= 0.
    """
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

