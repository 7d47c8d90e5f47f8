"""Benchmark limit-state functions in standard normal space.

Each function maps points u in R^d to a scalar g(u); failure is g <= 0.
The threshold parameter z shifts the failure surface: larger z means rarer
failure. All evaluators accept a batch (n, d) and return (n,); they are
deterministic and free of randomness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "four_branch",
    "three_mode",
    "two_mode",
    "oscillator_response",
    "oscillator_lsf",
    "Problem",
    "evaluate_lsf",
    "problem_registry",
    "PROBLEMS",
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


# The Bouc-Wen oscillator of Papaioannou, Geyer & Straub (2019), SI units.
# oscillator_response reads these when called, so a test may patch them.
OSC_DIM = 10  # d/2 cosine and d/2 sine load terms
OSC_MASS = 6.0e4
OSC_STIFFNESS = 5.0e6
OSC_DAMPING_RATIO = 0.05
OSC_YIELD_DISP = 0.04
OSC_ALPHA = 0.1  # post-yield over elastic stiffness
OSC_BW_A, OSC_BW_BETA, OSC_BW_GAMMA = 1.0, 0.5, 0.5  # the Bouc-Wen exponent is n = 3
OSC_INTENSITY = 0.005  # white-noise spectral intensity S
OSC_T_END = 8.0
OSC_DT = 0.01
# oscillator_response integrates at most this many rows at once; its load
# array is (2 t_end/dt + 1) x rows, 52 MB
_OSCILLATOR_BLOCK_ROWS = 4096


def oscillator_response(u):
    """Displacement x(t_end) for each row of ``u`` (shape (n, d)).

    The load is f(t) = -m sigma sum_i [U_i cos(w_i t) + U_{d/2+i} sin(w_i t)]
    with w_i = i * 30 pi / d and sigma = sqrt(2 S * 30 pi / d). Forcing is
    evaluated at the RK4 substep times; the two middle stages share the
    midpoint value.

    The state is one (3, n) array with rows x, v and the Bouc-Wen variable
    z. Each RK4 stage is written through ``out=`` into a few (3, n) buffers
    made once per call. The constants are folded once per call: the load
    is built as f/m, one C-contiguous row per half step, and one (3, 3)
    matrix holds the linear part of

        x' = v
        v' = f/m - (c/m) v - (k alpha/m) x - (k (1 - alpha) x_y/m) z
        z' = (A/x_y) v - |z|^(n-1) ((beta/x_y) |v| z + (gamma/x_y) v |z|)

    where |z|^(n-1) is the product z z, as n = 3. More than
    ``_OSCILLATOR_BLOCK_ROWS`` rows are integrated block by block, which
    bounds the memory of the load array.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    d = OSC_DIM
    if u.shape[1] != d:
        raise ValueError(f"oscillator requires d = {d}")
    rows = _OSCILLATOR_BLOCK_ROWS
    if u.shape[0] > rows:
        return np.concatenate([oscillator_response(u[i : i + rows]) for i in range(0, u.shape[0], rows)])
    half = d // 2
    n_steps = int(round(OSC_T_END / OSC_DT))

    d_omega = 30.0 * np.pi / d
    omegas = d_omega * np.arange(1, half + 1)
    sig = np.sqrt(2.0 * OSC_INTENSITY * d_omega)
    # f/m on the half-step grid shared by all RK4 stages, shape (2 n_steps + 1, n)
    t_half = 0.5 * OSC_DT * np.arange(2 * n_steps + 1)
    phase = np.outer(t_half, omegas)
    basis = np.hstack((np.cos(phase), np.sin(phase)))
    basis *= -sig
    force = basis @ u.T

    m, k, xy, alpha = OSC_MASS, OSC_STIFFNESS, OSC_YIELD_DISP, OSC_ALPHA
    c = 2.0 * m * OSC_DAMPING_RATIO * np.sqrt(k / m)
    linear = np.array(
        [
            [0.0, 1.0, 0.0],
            [-k * alpha / m, -c / m, -k * (1.0 - alpha) * xy / m],
            [0.0, OSC_BW_A / xy, 0.0],
        ]
    )
    beta, gam = OSC_BW_BETA / xy, OSC_BW_GAMMA / xy

    n = u.shape[0]
    s = np.zeros((3, n))
    stage, slope, step, scaled = (np.empty((3, n)) for _ in range(4))
    bw, zpow = np.empty(n), np.empty(n)
    slope_v, slope_z = slope[1], slope[2]

    def rates(y, f):
        """Write dy/dt at state ``y`` into ``slope``; ``f`` is one row of f/m."""
        _, v, z = y
        np.matmul(linear, y, out=slope)
        np.add(slope_v, f, out=slope_v)
        np.abs(z, out=zpow)
        np.multiply(zpow, v, out=zpow)
        np.multiply(zpow, gam, out=zpow)
        np.abs(v, out=bw)
        np.multiply(bw, z, out=bw)
        np.multiply(bw, beta, out=bw)
        np.add(bw, zpow, out=bw)
        np.multiply(z, z, out=zpow)
        np.multiply(bw, zpow, out=bw)
        np.subtract(slope_z, bw, out=slope_z)

    h = OSC_DT
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            f0, fm, f1 = force[2 * i : 2 * i + 3]
            # step accumulates h/2 (k1 + 2 k2 + 2 k3 + k4)
            rates(s, f0)
            np.multiply(slope, 0.5 * h, out=step)
            np.add(s, step, out=stage)
            rates(stage, fm)
            np.multiply(slope, 0.5 * h, out=scaled)
            np.add(s, scaled, out=stage)
            step += scaled
            step += scaled
            rates(stage, fm)
            np.multiply(slope, h, out=scaled)
            np.add(s, scaled, out=stage)
            step += scaled
            rates(stage, f1)
            np.multiply(slope, 0.5 * h, out=scaled)
            step += scaled
            step /= 3.0
            s += step
    if not np.all(np.isfinite(s[0])):
        raise ValueError("oscillator state became non-finite (load too extreme)")
    return s[0]


def oscillator_lsf(u, z: float):
    """g(u) = z - x(t_end): failure when the end displacement exceeds z."""
    return z - oscillator_response(u)


@dataclass
class Problem:
    """A named limit-state function of fixed dimension; ``evaluate`` holds
    any threshold."""

    name: str
    dim: int
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
    "oscillator": (OSC_DIM, oscillator_lsf),
}


def problem_registry(name: str, z: float, d: int | None = None) -> Problem:
    """Build a benchmark problem by name, checking z and d before any
    evaluation. z must be a real number other than NaN (+-inf is allowed).
    d must be an integer (default: the problem's fixed dimension, else 2),
    equal to the fixed dimension where there is one, and at least 2.
    A bool is neither."""
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem '{name}'; known: {', '.join(PROBLEMS)}")
    fixed, lsf = PROBLEMS[name]
    if isinstance(z, bool) or not isinstance(z, numbers.Real) or math.isnan(z):
        raise ValueError(f"z must be a real number other than NaN, got {z!r}")
    dim = (fixed or 2) if d is None else d
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise ValueError(f"d must be an integer, got {d!r}")
    if fixed not in (None, dim):
        raise ValueError(f"{name} requires d = {fixed}")
    if dim < 2:
        raise ValueError(f"{name} requires d >= 2")
    return Problem(name, int(dim), partial(lsf, z=z))
