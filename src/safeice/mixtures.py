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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .distributions import (
    inv_nakagami_logpdf,
    inv_nakagami_sample,
    nakagami_logpdf,
    nakagami_sample,
    prior_radial_logpdf,
    uniform_sphere_logpdf,
    vmf_log_normalizer,
    vmf_sample,
)
from .special import log_gamma

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
    component : (n,) int, index of the mixture component that produced
        each sample
    """

    r: np.ndarray
    a: np.ndarray
    g: np.ndarray | None = None
    heavy: np.ndarray | None = None
    component: np.ndarray | None = None

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        if self.r.ndim != 1 or self.a.ndim != 2 or self.a.shape[0] != self.r.shape[0]:
            raise ValueError("r must be (n,) and a must be (n, d)")
        if self.heavy is None:
            self.heavy = np.zeros(len(self), dtype=bool)
        if self.component is None:
            self.component = np.zeros(len(self), dtype=int)

    def __len__(self) -> int:
        return self.r.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def cartesian(self) -> np.ndarray:
        return self.r[:, None] * self.a

    def subset(self, mask) -> "PolarSamples":
        g = None if self.g is None else self.g[mask]
        return PolarSamples(
            self.r[mask], self.a[mask], g, self.heavy[mask], self.component[mask]
        )


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
        if np.any(self.pi <= 0.0) or abs(self.pi.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")
        if np.any(self.m < 0.5) or np.any(self.omega <= 0.0) or np.any(self.kappa < 0.0):
            raise ValueError("invalid component shape parameters")
        norms = np.linalg.norm(self.mu, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ValueError("mean directions must be unit vectors")

    @property
    def k(self) -> int:
        return self.pi.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


def _nakagami_logpdfs(samples: PolarSamples, v: VmfnmParams) -> np.ndarray:
    """(n, K) Nakagami radial log densities, one column per component."""
    return nakagami_logpdf(samples.r[:, None], v.m[None, :], v.omega[None, :])


def _vmf_logpdfs(samples: PolarSamples, v: VmfnmParams) -> np.ndarray:
    """(n, K) vMF angular log densities, one column per component."""
    return vmf_log_normalizer(v.dim, v.kappa)[None, :] + (samples.a @ v.mu.T) * v.kappa[None, :]


def _component_logpdfs(samples: PolarSamples, v: VmfnmParams) -> np.ndarray:
    """(n, K) matrix of per-component vMFN log densities (no mixture weights)."""
    radial = _nakagami_logpdfs(samples, v)
    angular = _vmf_logpdfs(samples, v)
    return radial + angular


def vmfnm_logpdf(samples: PolarSamples, v: VmfnmParams) -> np.ndarray:
    """Log density of the light vMFNM mixture at each sample."""
    return logsumexp(np.log(v.pi)[None, :] + _component_logpdfs(samples, v), axis=1)


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
    """Light vMFNM mixture plus its derived heavy radial tail and the
    annealing weight lambda in [0, 1] (1 = light only)."""

    light: VmfnmParams
    heavy_m: int
    heavy_omega: np.ndarray
    lam: float

    def __post_init__(self):
        self.heavy_omega = np.asarray(self.heavy_omega, dtype=float)
        if self.heavy_omega.shape != (self.light.k,):
            raise ValueError("heavy_omega must have one entry per component")
        if np.any(self.heavy_omega <= 0.0) or self.heavy_m < 1:
            raise ValueError("invalid heavy radial parameters")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")

    @classmethod
    def from_light(cls, light: VmfnmParams, lam: float) -> "SafeMixtureParams":
        m_h, omega_h = heavy_params_from_light(light)
        return cls(light=light, heavy_m=m_h, heavy_omega=omega_h, lam=lam)

    @property
    def dim(self) -> int:
        return self.light.dim


def _safe_radial_logpdfs(samples: PolarSamples, phi: SafeMixtureParams) -> np.ndarray:
    """(n, K) log of lambda * Nak_k + (1 - lambda) * InvNak_k per component."""
    v = phi.light
    lam = phi.lam
    if lam == 1.0:
        return _nakagami_logpdfs(samples, v)
    heavy = inv_nakagami_logpdf(
        samples.r[:, None], float(phi.heavy_m), phi.heavy_omega[None, :]
    )
    if lam == 0.0:
        return heavy
    light = _nakagami_logpdfs(samples, v)
    return np.logaddexp(np.log(lam) + light, np.log1p(-lam) + heavy)


def safe_logpdf(samples: PolarSamples, phi: SafeMixtureParams) -> np.ndarray:
    """Log density of the safe mixture at each sample."""
    v = phi.light
    radial = _safe_radial_logpdfs(samples, phi)
    angular = _vmf_logpdfs(samples, v)
    return logsumexp(np.log(v.pi)[None, :] + radial + angular, axis=1)


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

    return PolarSamples(r=r, a=a, heavy=heavy, component=comp.astype(int))


def prior_logpdf(samples: PolarSamples) -> np.ndarray:
    """Standard normal prior log density in polar form (radial chi_d times
    uniform direction), comparable directly with the mixture densities."""
    d = samples.dim
    return prior_radial_logpdf(samples.r, d) + uniform_sphere_logpdf(d)
