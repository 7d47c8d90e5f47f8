"""Crude Monte Carlo reference estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_integer
from .problems import evaluate_lsf

__all__ = ["McEstimate", "mc_estimate"]


@dataclass
class McEstimate:
    pf: float
    n_total: int
    n_failures: int
    cv: float


def mc_estimate(
    problem,
    n_total: int = 1_000_000,
    batch_size: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Estimate the failure probability by direct standard normal sampling.

    Draws in batches from a single stream, so the draws depend only on
    the seed and not on the batch size (batch boundaries merely slice the
    same sequence). The LSF values need not: one built on BLAS products,
    as the oscillator's load is, may round a row differently in batches
    of different sizes. cv is the binomial coefficient of variation
    sqrt((1 - pf) / (n pf)).
    """
    _check_integer("n_total", n_total, 1)
    _check_integer("batch_size", batch_size, 1)
    _check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    d = problem.dim
    n_failures = 0
    done = 0
    while done < n_total:
        b = min(batch_size, n_total - done)
        u = rng.standard_normal((b, d))
        g = evaluate_lsf(problem, u)
        n_failures += int(np.sum(g <= 0.0))
        done += b
    pf = n_failures / n_total
    cv = float(np.sqrt((1.0 - pf) / (n_total * pf))) if pf > 0.0 else np.inf
    return McEstimate(pf=pf, n_total=n_total, n_failures=n_failures, cv=cv)
