"""Benchmark limit-state functions in standard normal space.

Each function maps points u in R^d to a scalar g(u); failure is g <= 0.
The threshold parameter z shifts the failure surface: larger z means rarer
failure. All evaluators accept a batch (n, d) and return (n,); they are
deterministic and free of randomness.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "four_branch",
    "three_mode",
    "two_mode",
    "OscillatorConfig",
    "oscillator_response",
    "oscillator_lsf",
    "Problem",
    "evaluate_lsf",
    "problem_registry",
    "PROBLEMS",
    "PROBLEM_NAMES",
]

_SQRT2 = float(np.sqrt(2.0))


def four_branch(u, z: float):
    """Series system of four branches in d = 2.

    g = z + min( 0.1 (u1-u2)^2 - (u1+u2)/sqrt(2) + 3,
                 0.1 (u1-u2)^2 + (u1+u2)/sqrt(2) + 3,
                 u1 - u2 + 7/sqrt(2),
                 u2 - u1 + 7/sqrt(2) )
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != 2:
        raise ValueError("four_branch is defined for d = 2")
    u1, u2 = u[:, 0], u[:, 1]
    quad = 0.1 * (u1 - u2) ** 2
    s = (u1 + u2) / _SQRT2
    branches = np.stack(
        [
            quad - s + 3.0,
            quad + s + 3.0,
            u1 - u2 + 7.0 / _SQRT2,
            u2 - u1 + 7.0 / _SQRT2,
        ]
    )
    return branches.min(axis=0) + z


def three_mode(u, z: float):
    """Two-branch system in d = 2 whose failure domain has three modes.

    g = min( z - 1 - u2 + exp(-u1^2 / 10) + (u1/5)^4,  z^2/2 - u1 u2 )
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != 2:
        raise ValueError("three_mode is defined for d = 2")
    u1, u2 = u[:, 0], u[:, 1]
    branch1 = z - 1.0 - u2 + np.exp(-(u1**2) / 10.0) + (u1 / 5.0) ** 4
    branch2 = z * z / 2.0 - u1 * u2
    return np.minimum(branch1, branch2)


def two_mode(u, z: float):
    """Pair of symmetric linear failure planes in any dimension.

    g = min(z - sum(u)/sqrt(d), z + sum(u)/sqrt(d)); the exact failure
    probability is 2 Phi(-z) for every d.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    s = u.sum(axis=1) / np.sqrt(u.shape[1])
    return z - np.abs(s)


@dataclass
class OscillatorConfig:
    """Single degree of freedom hysteretic (Bouc-Wen) oscillator under a
    Gaussian white-noise load discretized into d/2 cosine and d/2 sine
    terms. The response x(t) is integrated with classical RK4."""

    mass: float = 6.0e4
    stiffness: float = 5.0e6
    damping_ratio: float = 0.05
    yield_disp: float = 0.04
    alpha: float = 0.1
    bw_a: float = 1.0
    bw_beta: float = 0.5
    bw_gamma: float = 0.5
    bw_n: int = 3
    intensity: float = 0.005
    dim: int = 10
    t_end: float = 8.0
    dt: float = 0.01

    @property
    def damping(self) -> float:
        return 2.0 * self.mass * self.damping_ratio * np.sqrt(self.stiffness / self.mass)


def oscillator_response(u, cfg: OscillatorConfig | None = None):
    """Displacement x(t_end) for each row of ``u`` (shape (n, d)).

    The load is f(t) = -m sigma sum_i [U_i cos(w_i t) + U_{d/2+i} sin(w_i t)]
    with w_i = i * 30 pi / d and sigma = sqrt(2 S * 30 pi / d). Forcing is
    evaluated at the RK4 substep times; the two middle stages share the
    midpoint value.
    """
    if cfg is None:
        cfg = OscillatorConfig()
    u = np.atleast_2d(np.asarray(u, dtype=float))
    d = cfg.dim
    if u.shape[1] != d:
        raise ValueError(f"oscillator requires d = {d}")
    half = d // 2
    n_steps = int(round(cfg.t_end / cfg.dt))

    d_omega = 30.0 * np.pi / d
    omegas = d_omega * np.arange(1, half + 1)
    sig = np.sqrt(2.0 * cfg.intensity * d_omega)
    # forcing on the half-step grid shared by all RK4 stages
    t_half = 0.5 * cfg.dt * np.arange(2 * n_steps + 1)
    phase = np.outer(omegas, t_half)
    force = -cfg.mass * sig * (u[:, :half] @ np.cos(phase) + u[:, half:] @ np.sin(phase))

    m, k, c = cfg.mass, cfg.stiffness, cfg.damping
    alpha, xy = cfg.alpha, cfg.yield_disp
    a_bw, beta, gam, n_exp = cfg.bw_a, cfg.bw_beta, cfg.bw_gamma, cfg.bw_n

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
    h = cfg.dt
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


def oscillator_lsf(u, z: float, cfg: OscillatorConfig | None = None):
    """g(u) = z - x(t_end): failure when the end displacement exceeds z."""
    return z - oscillator_response(u, cfg)


@dataclass
class Problem:
    """A named limit-state function with fixed dimension and threshold."""

    name: str
    dim: int
    z: float
    evaluate: Callable[[np.ndarray], np.ndarray]


def evaluate_lsf(problem: Problem, u: np.ndarray) -> np.ndarray:
    """``problem.evaluate(u)`` as a float array, checked to hold one
    non-NaN value per row of ``u``."""
    g = np.asarray(problem.evaluate(u), dtype=float)
    where = f"problem '{problem.name}': evaluate returned"
    if g.shape != (u.shape[0],):
        raise ValueError(f"{where} shape {g.shape}, expected {(u.shape[0],)}")
    n_nan = int(np.count_nonzero(np.isnan(g)))
    if n_nan:
        raise ValueError(f"{where} {n_nan} NaN values")
    return g


# name -> (fixed dimension, or None where any d >= 2 is allowed; g(u, z))
PROBLEMS = {
    "four-branch": (2, four_branch),
    "three-mode": (2, three_mode),
    "two-mode": (None, two_mode),
    "oscillator": (OscillatorConfig.dim, oscillator_lsf),
}
PROBLEM_NAMES = tuple(PROBLEMS)


def problem_registry(name: str, z: float, d: int | None = None) -> Problem:
    """Build a benchmark problem by name, validating the dimension against
    ``PROBLEMS``: a fixed-dimension problem accepts only its own d, a free
    one any d >= 2 (default 2)."""
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem '{name}'; known: {', '.join(PROBLEM_NAMES)}")
    fixed, lsf = PROBLEMS[name]
    if fixed is None:
        try:
            dim = 2 if d is None else operator.index(d)
        except TypeError:
            raise ValueError(f"d must be an integer, got {d!r}") from None
        if dim < 2:
            raise ValueError(f"{name} requires d >= 2")
    elif d not in (None, fixed):
        raise ValueError(f"{name} requires d = {fixed}")
    else:
        dim = fixed
    return Problem(name, dim, z, partial(lsf, z=z))
