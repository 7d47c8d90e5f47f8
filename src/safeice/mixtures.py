"""Mixture proposals over polar coordinates.

The light proposal is a K-component mixture of von Mises-Fisher angular
kernels with Nakagami radial kernels (vMFNM). The safe proposal mixes, per
component, the Nakagami radial law with its heavy-tailed inverse-Nakagami
counterpart at a global annealing weight lambda:

    q_safe(r, a) = sum_k pi_k * [lambda * Nak(r; m_k, O_k)
                                 + (1 - lambda) * InvNak(r; m_h, O_hk)]
                           * vMF(a; mu_k, kappa_k)

The heavy radial parameters are derived from the light ones so that the
inverse-Nakagami mode sits exactly at the Nakagami mean, with shape
m_h = ceil(sqrt(d)) pinning the polynomial tail order to the dimension.
Its log density is that of a 2K-component mixture: K light columns of
weight lambda pi_k and K heavy columns of weight (1 - lambda) pi_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    _check_unit,
    _radial_coefficients,
    inv_nakagami_sample,
    nakagami_sample,
    prior_radial_logpdf,
    uniform_sphere_logpdf,
    vmf_log_normalizer,
    vmf_sample,
)
from .special import log_gamma, log_sum_exp

__all__ = [
    "PolarSamples",
    "VmfnmParams",
    "SafeMixtureParams",
    "vmfnm_logpdf",
    "heavy_params_from_light",
    "safe_logpdf",
    "safe_sample",
    "prior_logpdf",
]


@dataclass
class PolarSamples:
    """Batch of points in polar form u = r * a.

    r : (n,) positive radii
    a : (n, d) unit directions
    g : (n,) cached limit-state values, or None before evaluation
    heavy : (n,) bool, True where the radius came from the heavy kernel
    """

    r: np.ndarray
    a: np.ndarray
    g: np.ndarray | None = None
    heavy: np.ndarray | None = None

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        if self.r.ndim != 1 or self.a.ndim != 2 or self.a.shape[0] != self.r.shape[0]:
            raise ValueError("r must be (n,) and a must be (n, d)")
        if self.heavy is None:
            self.heavy = np.zeros(len(self), dtype=bool)

    def __len__(self) -> int:
        return self.r.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def cartesian(self) -> np.ndarray:
        return self.r[:, None] * self.a

    def subset(self, mask) -> "PolarSamples":
        g = None if self.g is None else self.g[mask]
        return PolarSamples(self.r[mask], self.a[mask], g, self.heavy[mask])


@dataclass
class VmfnmParams:
    """Parameters of a K-component vMFNM mixture (arrays indexed by k)."""

    pi: np.ndarray
    m: np.ndarray
    omega: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        self.kappa = np.asarray(self.kappa, dtype=float)
        k = self.pi.shape[0]
        if not (self.m.shape == self.omega.shape == self.kappa.shape == (k,)):
            raise ValueError("component parameter arrays must share length K")
        if self.mu.ndim != 2 or self.mu.shape[0] != k:
            raise ValueError("mu must be (K, d)")
        flat = np.concatenate((self.pi, self.m, self.omega, self.kappa, self.mu.ravel()))
        if not np.isfinite(flat).all():
            raise ValueError("mixture parameters must be finite")
        if np.any(self.pi <= 0.0) or abs(self.pi.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")
        if np.any(self.m < 0.5) or np.any(self.omega <= 0.0) or np.any(self.kappa < 0.0):
            raise ValueError("invalid component shape parameters")
        _check_unit(self.mu, "mean directions")

    @property
    def k(self) -> int:
        return self.pi.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


def _mixture_columns(samples: PolarSamples, v: VmfnmParams, w, m, omega, side: int) -> np.ndarray:
    """(n, K) joint ln w_k + radial_k + ln vMF_k of each sample and component,
    the radial law Nakagami(m_k, omega_k) for side = +1 and its reciprocal
    for side = -1: the (n, 2) statistics [ln r, r^(2 side)] times the (2, K)
    radial coefficients, plus a @ (kappa mu)^T, plus one constant per column.
    """
    log_c, b_log, b_pow = _radial_coefficients(m, omega, side)
    coef = np.vstack(np.broadcast_arrays(b_log, b_pow))
    # r^(2 side) overflows to inf in the tail the law decays in, where the
    # product is -inf, the right limit; matmul flags an inf operand as invalid
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.stack((np.log(samples.r), samples.r ** (2.0 * side)), axis=1) @ coef
    out += samples.a @ (v.kappa[:, None] * v.mu).T
    out += np.log(w) + log_c + vmf_log_normalizer(v.dim, v.kappa)
    return out


def _component_logpdfs(samples: PolarSamples, v: VmfnmParams) -> np.ndarray:
    """(n, K) joint ln pi_k + Nak_k + ln vMF_k of the light mixture."""
    return _mixture_columns(samples, v, v.pi, v.m, v.omega, 1)


def vmfnm_logpdf(samples: PolarSamples, v: VmfnmParams) -> np.ndarray:
    """Log density of the light vMFNM mixture at each sample."""
    return log_sum_exp(_component_logpdfs(samples, v), axis=1)


def heavy_params_from_light(v: VmfnmParams) -> tuple[int, np.ndarray]:
    """Heavy radial parameters matched to the light mixture.

    Returns the inverse-Nakagami shape m_h = ceil(sqrt(d)) and per-component
    spreads chosen so that the heavy mode equals the light radial mean:

        O_hk = 2 m_h / (2 m_h + 1) * (Gamma(m_k) / Gamma(m_k + 1/2))^2 * m_k / O_k
    """
    d = v.dim
    m_h = int(math.ceil(math.sqrt(d)))
    gamma_ratio_sq = np.exp(2.0 * (log_gamma(v.m) - log_gamma(v.m + 0.5)))
    omega_h = (2.0 * m_h / (2.0 * m_h + 1.0)) * gamma_ratio_sq * v.m / v.omega
    return m_h, omega_h


@dataclass
class SafeMixtureParams:
    """Light vMFNM mixture and the annealing weight lambda in [0, 1]
    (1 = light only); the heavy radial tail is derived from the light
    mixture by ``heavy_params_from_light``."""

    light: VmfnmParams
    lam: float
    heavy_m: int = field(init=False)
    heavy_omega: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        self.heavy_m, self.heavy_omega = heavy_params_from_light(self.light)
        # a light m >= ~3e305 or an overflowing m / omega derives NaN or inf
        if not np.all(np.isfinite(self.heavy_omega) & (self.heavy_omega > 0.0)):
            raise ValueError("invalid heavy radial parameters")


def safe_logpdf(samples: PolarSamples, phi: SafeMixtureParams) -> np.ndarray:
    """Log density of the safe mixture at each sample: the log-sum-exp over
    K light columns of weight lambda pi_k and K heavy columns of weight
    (1 - lambda) pi_k. A set of columns of weight 0 is left out."""
    v, lam = phi.light, phi.lam
    sides = ((lam, v.m, v.omega, 1), (1.0 - lam, phi.heavy_m, phi.heavy_omega, -1))
    columns = [_mixture_columns(samples, v, w * v.pi, *radial) for w, *radial in sides if w > 0.0]
    return log_sum_exp(np.concatenate(columns, axis=1), axis=1)


def safe_sample(rng: np.random.Generator, phi: SafeMixtureParams, n: int) -> PolarSamples:
    """Draw n samples from the safe mixture with stratified radial origin.

    Exactly round(lambda * n) samples take the light Nakagami radius; the
    rest take the heavy inverse-Nakagami radius. Components are drawn per
    sample with probabilities pi_k, and directions come from the matching
    vMF kernel regardless of radial origin.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    v = phi.light
    comp = rng.choice(v.k, size=n, p=v.pi)
    n_light = int(round(phi.lam * n))
    heavy = np.ones(n, dtype=bool)
    heavy[:n_light] = False

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
            a[idx] = vmf_sample(rng, v.mu[k], float(v.kappa[k]), idx.size)

    return PolarSamples(r=r, a=a, heavy=heavy)


def prior_logpdf(samples: PolarSamples) -> np.ndarray:
    """Standard normal prior log density in polar form (radial chi_d times
    uniform direction), comparable directly with the mixture densities."""
    d = samples.dim
    return prior_radial_logpdf(samples.r, d) + uniform_sphere_logpdf(d)
