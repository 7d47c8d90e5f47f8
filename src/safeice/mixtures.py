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
Its log density is that of a 2K-component mixture: K light components of
weight lambda pi_k and K heavy components of weight (1 - lambda) pi_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .distributions import (
    UNIT_NORM_TOL,
    _radial_coefficients,
    inv_nakagami_sample,
    nakagami_sample,
    uniform_sphere_logpdf,
    vmf_log_normalizer,
    vmf_sample,
)
from .special import log_sum_exp

__all__ = [
    "PolarSamples",
    "VmfnmParams",
    "SafeMixtureParams",
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
    heavy : (n,) bool, True where the radius came from the heavy kernel

    ``radial_statistics`` keeps what it computes from ``r``, so ``r`` must
    not change after the first density read of the batch.
    """

    r: np.ndarray
    a: np.ndarray
    heavy: np.ndarray | None = None
    _radial: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def radial_statistics(self, side: int) -> np.ndarray:
        """(n, 2) statistics [ln r, r^(2 side)] of the radial kernels, made
        at the first call for each side and kept: ``safe_logpdf`` and every
        E-step of the fit that follows read the same array."""
        stats = self._radial.get(side)
        if stats is None:
            # r^(2 side) overflows to inf in the tail the law decays in
            with np.errstate(over="ignore"):
                stats = np.stack((np.log(self.r), self.r ** (2.0 * side)), axis=1)
            self._radial[side] = stats
        return stats


@dataclass
class VmfnmParams:
    """Parameters of a K-component vMFNM mixture (arrays indexed by k), a
    plain record: construction only casts the fields to float arrays, and
    ``SafeMixtureParams`` and ``em.fit`` run ``check`` on what they get."""

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

    def check(self) -> None:
        """Raise a ValueError that names the first field of the wrong shape,
        with a NaN or inf, or out of its range."""
        k = self.pi.shape[0] if self.pi.ndim == 1 else -1
        for name in ("pi", "m", "omega", "kappa"):
            if getattr(self, name).shape != (k,):
                raise ValueError(f"{name} must have shape (K,) with K = len(pi)")
        if self.mu.ndim != 2 or self.mu.shape[0] != k or self.mu.shape[1] < 2:
            raise ValueError(f"mu must have shape (K, d) with K = {k} and d >= 2")
        for name in ("pi", "m", "omega", "mu", "kappa"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.pi <= 0.0) or abs(self.pi.sum() - 1.0) > 1e-9:
            raise ValueError("pi must be positive and sum to 1")
        if np.any(self.m < 0.5):
            raise ValueError("m must be at least 0.5")
        if np.any(self.omega <= 0.0):
            raise ValueError("omega must be positive")
        with np.errstate(over="ignore"):  # the radial kernels' coefficient -m / omega
            if not np.isfinite(self.m / self.omega).all():
                raise ValueError("omega must be large enough that m / omega is finite")
        if np.any(self.kappa < 0.0):
            raise ValueError("kappa must be nonnegative")
        if np.any(np.abs(np.linalg.norm(self.mu, axis=1) - 1.0) > UNIT_NORM_TOL):
            raise ValueError(f"mu must have rows of unit norm (deviation > {UNIT_NORM_TOL})")

    @property
    def k(self) -> int:
        return self.pi.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


def _mixture_columns(samples: PolarSamples, v: VmfnmParams, column_sets) -> np.ndarray:
    """(K, n) joints ln w_k + radial_k + ln vMF_k, one row per component, for
    each set (w, m, omega, side) of ``column_sets``, stacked. The radial law,
    Nakagami(m_k, omega_k) at side = +1 and its reciprocal at side = -1, is
    the batch's (n, 2) ``radial_statistics`` times (2, K) coefficients; the
    vMF term a @ (kappa mu)^T + its normalizer is computed once per call.
    Both products are (n, K), so each sample's row is the same in any
    batch; one transposed copy then lays their sum out by component."""
    n, k = len(samples), v.k
    # at K = 1 numpy takes BLAS's matrix-vector path, whose rounding of a
    # row depends on its place in the batch; one spare column keeps the
    # product on the matrix-matrix path, where it does not
    kmu = v.kappa[:, None] * v.mu
    angular = (samples.a @ np.vstack((kmu, kmu[:1])).T)[:, :k]
    log_vmf = vmf_log_normalizer(v.dim, v.kappa)
    joint = np.empty((len(column_sets) * k, n))
    coef = np.empty((2, k))
    for i, (w, m, omega, side) in enumerate(column_sets):
        log_c, coef[0], coef[1] = _radial_coefficients(m, omega, side)
        # an inf statistic times its negative coefficient is -inf, the right
        # limit; matmul flags an inf operand as invalid
        with np.errstate(over="ignore", invalid="ignore"):
            out = samples.radial_statistics(side) @ coef
        out += angular
        rows = joint[i * k : (i + 1) * k]
        rows[...] = out.T
        rows += (np.log(w) + log_c + log_vmf)[:, None]
    return joint


def heavy_params_from_light(v: VmfnmParams) -> tuple[int, np.ndarray]:
    """Heavy radial parameters matched to the light mixture.

    Returns the inverse-Nakagami shape m_h = ceil(sqrt(d)) and per-component
    spreads chosen so that the heavy mode equals the light radial mean:

        O_hk = 2 m_h / (2 m_h + 1) * (Gamma(m_k) / Gamma(m_k + 1/2))^2 * m_k / O_k
    """
    d = v.dim
    m_h = int(math.ceil(math.sqrt(d)))
    gamma_ratio_sq = np.exp(2.0 * (gammaln(v.m) - gammaln(v.m + 0.5)))
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
        self.light.check()
        self.heavy_m, self.heavy_omega = heavy_params_from_light(self.light)
        # a light m >= ~3e305, or an omega near the least normal float, derives NaN or inf
        if not np.all(np.isfinite(self.heavy_omega) & (self.heavy_omega > 0.0)):
            raise ValueError("invalid heavy radial parameters")
        # a light omega near the largest float derives a heavy spread so small
        # that the heavy kernels' coefficient -m_h / omega_h overflows
        with np.errstate(over="ignore"):
            if not np.isfinite(self.heavy_m / self.heavy_omega).all():
                raise ValueError("heavy radial parameters: heavy_m / heavy_omega must be finite")


def safe_logpdf(samples: PolarSamples, phi: SafeMixtureParams) -> np.ndarray:
    """Log density of the safe mixture at each sample: the log-sum-exp over
    K light rows of weight lambda pi_k and K heavy rows of weight
    (1 - lambda) pi_k. A set of rows of weight 0 is left out."""
    v, lam = phi.light, phi.lam
    sides = ((lam, v.m, v.omega, 1), (1.0 - lam, phi.heavy_m, phi.heavy_omega, -1))
    columns = [(w * v.pi, *radial) for w, *radial in sides if w > 0.0]
    return log_sum_exp(_mixture_columns(samples, v, columns), axis=0)


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
    """Standard normal prior log density in polar form, comparable directly
    with the mixture densities: radial chi_d = Nakagami(d/2, d) on the kept
    ``radial_statistics``, -inf past r ~ 1e154, times uniform direction."""
    d = samples.dim
    log_c, b_log, b_pow = _radial_coefficients(d / 2.0, d, 1)
    stats = samples.radial_statistics(1)
    return log_c + b_log * stats[:, 0] + b_pow * stats[:, 1] + uniform_sphere_logpdf(d)
