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
    return np.minimum.reduce(branches, axis=0) + z


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
    s = np.add.reduce(u, axis=1) / np.sqrt(u.shape[1])
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
    z. Each RK4 stage is written through ``out`` into a few (3, n) buffers
    made once per call. The constants are folded once per call: the load
    is built as f/m, one C-contiguous row per half step, and one (3, 3)
    matrix holds the linear part of

        x' = v
        v' = f/m - (c/m) v - (k alpha/m) x - (k (1 - alpha) x_y/m) z
        z' = (A/x_y) v - |z|^(n-1) ((beta/x_y) |v| z + (gamma/x_y) v |z|)

    where |z|^(n-1) is the product z z, as n = 3. More than
    ``_OSCILLATOR_BLOCK_ROWS`` rows are integrated block by block, which
    bounds the memory of the load array.

    At N = 1000 rows about half of a call is numpy's fixed cost per call,
    of some 60 calls per step. So the loop keeps each call cheap: the
    ufuncs are bound to locals and take ``out`` positionally; the scalars
    (h/2, h, 3, beta/x_y, gamma/x_y) are 0-d float64 arrays, which numpy
    does not convert again on each call; and the v and z row views of the
    state and the stage are made once.
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
    # matmul, as np.dot zeroes its (2 t_end/dt + 1, n) result first
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
    beta = np.array(OSC_BW_BETA / xy)
    gam = np.array(OSC_BW_GAMMA / xy)

    n = u.shape[0]
    s = np.zeros((3, n))
    stage, slope, step, scaled = (np.empty((3, n)) for _ in range(4))
    bw, zpow = np.empty(n), np.empty(n)
    slope_v, slope_z = slope[1], slope[2]
    s_v, s_z, stage_v, stage_z = s[1], s[2], stage[1], stage[2]
    # np.dot takes the (3, 3) product with matmul's bits and less fixed cost
    mul, add, sub, absolute, dot, div = (
        np.multiply, np.add, np.subtract, np.abs, np.dot, np.true_divide
    )

    def rates(y, v, z, f):
        """Write dy/dt at state ``y`` (rows ``v`` and ``z`` are its views)
        into ``slope``; ``f`` is one row of f/m."""
        dot(linear, y, slope)
        add(slope_v, f, slope_v)
        absolute(z, zpow)
        mul(zpow, v, zpow)
        mul(zpow, gam, zpow)
        absolute(v, bw)
        mul(bw, z, bw)
        mul(bw, beta, bw)
        add(bw, zpow, bw)
        mul(z, z, zpow)
        mul(bw, zpow, bw)
        sub(slope_z, bw, slope_z)

    h = np.array(OSC_DT)
    h_half = np.array(0.5 * OSC_DT)
    three = np.array(3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, 2 * n_steps, 2):
            f0, fm, f1 = force[j], force[j + 1], force[j + 2]
            # step accumulates h/2 (k1 + 2 k2 + 2 k3 + k4)
            rates(s, s_v, s_z, f0)
            mul(slope, h_half, step)
            add(s, step, stage)
            rates(stage, stage_v, stage_z, fm)
            mul(slope, h_half, scaled)
            add(s, scaled, stage)
            add(step, scaled, step)
            add(step, scaled, step)
            rates(stage, stage_v, stage_z, fm)
            mul(slope, h, scaled)
            add(s, scaled, stage)
            add(step, scaled, step)
            rates(stage, stage_v, stage_z, f1)
            mul(slope, h_half, scaled)
            add(step, scaled, step)
            div(step, three, step)
            add(s, step, s)
    if not np.logical_and.reduce(np.isfinite(s[0])):
        raise ValueError("oscillator state became non-finite (load too extreme)")
    return s[0]


def oscillator_lsf(u, z: float):
    """g(u) = z - x(t_end): failure when the end displacement exceeds z."""
    return z - oscillator_response(u)


@dataclass
class Problem:
    """A named limit-state function of fixed dimension; ``evaluate`` holds
    any threshold. ``dim`` is checked here, before any LSF call: an integer,
    not a bool, of at least 2, so that directions form a sphere."""

    name: str
    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, numbers.Integral):
            raise ValueError(f"d must be an integer, got {self.dim!r}")
        if self.dim < 2:
            raise ValueError(f"{self.name} requires d >= 2")
        self.dim = int(self.dim)


def evaluate_lsf(problem: Problem, u: np.ndarray) -> np.ndarray:
    """``problem.evaluate(u)`` as a float array, checked to hold one
    non-NaN value per row of ``u``."""
    g = np.asarray(problem.evaluate(u), dtype=float)
    where = f"problem '{problem.name}': evaluate returned"
    if g.shape != (u.shape[0],):
        raise ValueError(f"{where} shape {g.shape}, expected {(u.shape[0],)}")
    n_nan = int(np.add.reduce(np.isnan(g)))
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
    d (default: the problem's fixed dimension, else 2) must pass
    ``Problem``'s check, then equal the fixed dimension where there is
    one. A bool is neither a z nor a d."""
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem '{name}'; known: {', '.join(PROBLEMS)}")
    fixed, lsf = PROBLEMS[name]
    if isinstance(z, bool) or not isinstance(z, numbers.Real) or math.isnan(z):
        raise ValueError(f"z must be a real number other than NaN, got {z!r}")
    problem = Problem(name, (fixed or 2) if d is None else d, partial(lsf, z=z))
    if fixed not in (None, problem.dim):
        raise ValueError(f"{name} requires d = {fixed}")
    return problem
