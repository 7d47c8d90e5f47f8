"""Mixture proposals over polar coordinates, and their component laws.

A point u in R^d is represented as u = r * a with radius r > 0 and
direction a on the unit sphere S^{d-1}. Radial densities are taken with
respect to dr and angular densities with respect to the surface measure
of the sphere, so the standard normal prior factorizes as

    p(r, a) = chi_d(r) * (1 / S_{d-1})

with chi_d identical to a Nakagami(d/2, d) law. Ratios of polar densities
therefore never need the r^{d-1} Jacobian explicitly. Every sampler takes
a ``numpy.random.Generator`` and draws in fixed program order, so equal
seeds give bit-identical streams.

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
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .special import log_bessel_i_scaled, log_sum_exp

__all__ = [
    "PolarSamples",
    "VmfnmParams",
    "SafeMixtureParams",
    "heavy_params_from_light",
    "safe_logpdf",
    "safe_sample",
    "prior_logpdf",
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
    reduce to the uniform sphere density.
    """
    pos = kappa > 0.0
    kp = kappa[pos]
    nu = d / 2.0 - 1.0
    log_i = log_bessel_i_scaled(nu, kp) + kp
    out = np.full(kappa.shape, uniform_sphere_logpdf(d))
    out[pos] = nu * np.log(kp) - (d / 2.0) * _LOG_2PI - log_i
    return out


def vmf_sample(rng: np.random.Generator, mu, kappa: float, n: int):
    """Draw ``n`` unit vectors from vMF(mu, kappa) by Wood's rejection method.

    The cosine w of the angle to ``mu`` is sampled through the beta envelope
    with the standard acceptance test (``_vmf_cosines``); the orthogonal part
    is an isotropic direction in the tangent space, from n x d standard
    normals drawn after the cosines (``_vmf_finish``). It expects a ``mu`` and
    ``kappa`` that have passed ``VmfnmParams.check``: a unit ``mu`` with
    d >= 2 and kappa >= 0.
    """
    mu = np.asarray(mu, dtype=float)
    d = mu.size

    if kappa == 0.0:
        z = rng.standard_normal((n, d))
        z /= _row_norms(z, np.empty((n, d)))[:, None]
        return z

    w = _vmf_cosines(rng, d, kappa, n)
    a = rng.standard_normal((n, d))
    return _vmf_finish(a, np.dot(a, mu), w, mu, np.empty((n, d)))


def _vmf_cosines(rng: np.random.Generator, d: int, kappa: float, n: int) -> np.ndarray:
    """``n`` cosines w of vMF(mu, kappa > 0) draws in dimension d, by Wood's
    beta envelope and acceptance test."""
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
    return w


def _vmf_finish(a, proj, w, mu, buf) -> np.ndarray:
    """The directions w mu + sqrt(1 - w^2) t, row by row, with t the unit
    tangent part of the standard normals ``a`` and ``proj`` their products
    with ``mu``; ``mu`` is one (d,) direction or one per row. The (n, d)
    ``a`` is finished in place, with the projection and both norms in the
    (n, d) ``buf``, and returned."""
    a -= np.multiply(proj[:, None], mu, out=buf)
    norms = _row_norms(a, buf)
    norms[norms == 0.0] = 1.0
    a /= norms[:, None]

    a *= np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None]
    a += np.multiply(w[:, None], mu, out=buf)
    a /= _row_norms(a, buf)[:, None]
    return a


def _row_norms(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a real (n, d) ``x``, the bits of
    ``np.linalg.norm(x, axis=1)``, with the squares written into ``buf``."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=buf), axis=1))


@dataclass
class PolarSamples:
    """Batch of points in polar form u = r * a.

    r : (n,) positive radii
    a : (n, d) unit directions
    n_light : the first n_light rows took a light radius, the rest a
        heavy one; all n rows by default

    ``radial_statistics`` keeps what it computes from ``r``, so ``r`` must
    not change after the first density read of the batch.
    """

    r: np.ndarray
    a: np.ndarray
    n_light: int | None = None
    _radial: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        if self.r.ndim != 1 or self.a.ndim != 2 or self.a.shape[0] != self.r.shape[0]:
            raise ValueError("r must be (n,) and a must be (n, d)")
        if self.n_light is None:
            self.n_light = len(self)

    def __len__(self) -> int:
        return self.r.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def cartesian(self) -> np.ndarray:
        return self.r[:, None] * self.a

    def take(self, rows: np.ndarray) -> PolarSamples:
        """The batch of the ``rows``, sorted indices, of this one. It keeps
        those rows of the kept radial statistics."""
        sub = PolarSamples(self.r[rows], self.a[rows], int(rows.searchsorted(self.n_light)))
        sub._radial = {side: stats[rows] for side, stats in self._radial.items()}
        return sub

    def radial_statistics(self, side: int) -> np.ndarray:
        """(n, 2) statistics [ln r, r^(2 side)] of the radial kernels, made
        at the first call for each side and kept: ``safe_logpdf`` and every
        E-step of the fit that follows read the same array."""
        stats = self._radial.get(side)
        if stats is None:
            stats = np.empty((len(self), 2))
            np.log(self.r, out=stats[:, 0])
            # r^(2 side) overflows to inf in the tail the law decays in; the
            # ufunc is the one that ** picks
            with np.errstate(over="ignore"):
                if side == 1:
                    np.square(self.r, out=stats[:, 1])
                else:
                    np.power(self.r, -2.0, out=stats[:, 1])
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
        # the ufuncs' reductions, not the ndarray methods and np.any
        every, some = np.logical_and.reduce, np.logical_or.reduce
        for name in ("pi", "m", "omega", "mu", "kappa"):
            if not every(np.isfinite(getattr(self, name)), axis=None):
                raise ValueError(f"{name} must be finite")
        if some(self.pi <= 0.0) or abs(np.add.reduce(self.pi) - 1.0) > 1e-9:
            raise ValueError("pi must be positive and sum to 1")
        if some(self.m < 0.5):
            raise ValueError("m must be at least 0.5")
        if some(self.omega <= 0.0):
            raise ValueError("omega must be positive")
        with np.errstate(over="ignore"):  # the radial kernels' coefficient -m / omega
            if not every(np.isfinite(self.m / self.omega)):
                raise ValueError("omega must be large enough that m / omega is finite")
        if some(self.kappa < 0.0):
            raise ValueError("kappa must be nonnegative")
        if some(np.abs(_row_norms(self.mu, np.empty(self.mu.shape)) - 1.0) > UNIT_NORM_TOL):
            raise ValueError(f"mu must have rows of unit norm (deviation > {UNIT_NORM_TOL})")

    @property
    def k(self) -> int:
        return self.pi.shape[0]

    @property
    def dim(self) -> int:
        return self.mu.shape[1]


_SCRATCH = threading.local()


def _scratch(size: int) -> np.ndarray:
    """A flat float buffer of ``size`` entries, kept per thread and grown on
    demand, for temporaries that do not outlive the call that takes it."""
    buf = getattr(_SCRATCH, "buf", None)
    if buf is None or buf.size < size:
        buf = _SCRATCH.buf = np.empty(size)
    return buf[:size]


def _mixture_columns(samples: PolarSamples, v: VmfnmParams, column_sets, out=None) -> np.ndarray:
    """(K, n) joints ln w_k + radial_k + ln vMF_k, one row per component, for
    each set (w, m, omega, side) of ``column_sets``, stacked, in the
    C-contiguous ``out`` when given and else in the thread's scratch, which
    the next call overwrites. The radial law, Nakagami(m_k, omega_k) at
    side = +1 and its reciprocal at side = -1, is the batch's (n, 2)
    ``radial_statistics`` times (2, K) coefficients; the vMF term
    a @ (kappa mu)^T + its normalizer is computed once per call. Both
    products are (n, K), so each sample's row is the same in any batch;
    one transposed add then lays their sum out by component. The radial
    product runs under errstate: an inf statistic, or an entry that
    overflows, gives -inf, the right limit of a density that decays there.

    Both products go into C-contiguous scratch views: matmul into a
    strided ``out`` leaves BLAS and rounds differently. They stay with
    matmul, as ``np.dot`` zeroes its ``out`` before the product and takes
    longer from about n = 1,000 at K = 10."""
    n, k = len(samples), v.k
    rows_total = len(column_sets) * k
    buf = _scratch(n * (2 * k + 1) + (rows_total * n if out is None else 0))
    # at K = 1 numpy takes BLAS's matrix-vector path, whose rounding of a
    # row depends on its place in the batch; one spare column keeps the
    # product on the matrix-matrix path, where it does not
    kmu = np.empty((k + 1, v.mu.shape[1]))
    np.multiply(v.kappa[:, None], v.mu, out=kmu[:k])
    kmu[k] = kmu[0]
    angular = buf[: n * (k + 1)].reshape(n, k + 1)
    np.matmul(samples.a, kmu.T, out=angular)
    angular = angular[:, :k]
    radial = buf[n * (k + 1) : n * (2 * k + 1)].reshape(n, k)
    joint = buf[n * (2 * k + 1) :].reshape(rows_total, n) if out is None else out
    log_vmf = vmf_log_normalizer(v.dim, v.kappa)
    coef = np.empty((2, k))
    for i, (w, m, omega, side) in enumerate(column_sets):
        log_c, coef[0], coef[1] = _radial_coefficients(m, omega, side)
        # an inf statistic times its negative coefficient is -inf, the right
        # limit, and so is an overflowing entry; matmul flags an inf operand
        # as invalid
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(samples.radial_statistics(side), coef, out=radial)
        radial += angular
        np.add(radial.T, (np.log(w) + log_c + log_vmf)[:, None], out=joint[i * k : (i + 1) * k])
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
        if not np.logical_and.reduce(np.isfinite(self.heavy_omega) & (self.heavy_omega > 0.0)):
            raise ValueError("invalid heavy radial parameters")
        # a light omega near the largest float derives a heavy spread so small
        # that the heavy kernels' coefficient -m_h / omega_h overflows
        with np.errstate(over="ignore"):
            if not np.logical_and.reduce(np.isfinite(self.heavy_m / self.heavy_omega)):
                raise ValueError("heavy radial parameters: heavy_m / heavy_omega must be finite")


def safe_logpdf(samples: PolarSamples, phi: SafeMixtureParams) -> np.ndarray:
    """Log density of the safe mixture at each sample: the log-sum-exp over
    K light rows of weight lambda pi_k and K heavy rows of weight
    (1 - lambda) pi_k. A set of rows of weight 0 is left out."""
    v, lam = phi.light, phi.lam
    sides = ((lam, v.m, v.omega, 1), (1.0 - lam, phi.heavy_m, phi.heavy_omega, -1))
    columns = [(w * v.pi, *radial) for w, *radial in sides if w > 0.0]
    joint = _mixture_columns(samples, v, columns)
    return log_sum_exp(joint, axis=0)


def safe_sample(rng: np.random.Generator, phi: SafeMixtureParams, n: int) -> PolarSamples:
    """Draw n samples from the safe mixture with stratified radial origin.

    The first round(lambda * n) samples take the light Nakagami radius;
    the rest take the heavy inverse-Nakagami radius. Components are drawn per
    sample with probabilities pi_k, and directions come from the matching
    vMF kernel regardless of radial origin: component by component, each
    draws its cosines and then its standard normals, as ``vmf_sample`` does,
    and one pass over all rows finishes the directions in the thread's
    scratch. A component with kappa = 0 calls ``vmf_sample``. The returned
    arrays are new.
    """
    if n < 1:
        raise ValueError("need at least one sample")
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

    d = v.dim
    a = np.empty((n, d))
    # the rows of each component in turn, less those of kappa = 0, which
    # vmf_sample draws whole; the rest are drawn into the scratch in this order
    uniform = v.kappa == 0.0
    order = comp.argsort(kind="stable")
    if np.logical_or.reduce(uniform):
        order = order[~uniform[comp[order]]]
    flat = _scratch(n * (3 * d + 2))
    z, mu_rows, buf = (flat[i * n * d : (i + 1) * n * d].reshape(n, d) for i in range(3))
    w, proj = flat[3 * n * d : (3 * d + 1) * n], flat[(3 * d + 1) * n :]
    filled = 0
    for k, count in enumerate(np.bincount(comp, minlength=v.k).tolist()):
        if not count:
            continue
        if uniform[k]:
            a[comp == k] = vmf_sample(rng, v.mu[k], 0.0, count)
            continue
        rows = slice(filled, filled + count)
        w[rows] = _vmf_cosines(rng, d, float(v.kappa[k]), count)
        rng.standard_normal(out=z[rows])
        proj[rows] = np.dot(z[rows], v.mu[k])
        mu_rows[rows] = v.mu[k]
        filled += count
    if filled:
        a[order] = _vmf_finish(z[:filled], proj[:filled], w[:filled], mu_rows[:filled], buf[:filled])
    return PolarSamples(r=r, a=a, n_light=n_light)


def prior_logpdf(samples: PolarSamples) -> np.ndarray:
    """Standard normal prior log density in polar form, comparable directly
    with the mixture densities: radial chi_d = Nakagami(d/2, d) on the kept
    ``radial_statistics``, -inf past r ~ 1e154, times uniform direction."""
    d = samples.dim
    log_c, b_log, b_pow = _radial_coefficients(d / 2.0, d, 1)
    stats = samples.radial_statistics(1)
    return log_c + b_log * stats[:, 0] + b_pow * stats[:, 1] + uniform_sphere_logpdf(d)
