"""Repeated-run benchmarking, the summary record, and persistence."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, replace

import numpy as np

from .core import RunConfig, RunResult, _check_integer, cv, run

__all__ = ["run_repetitions", "summary_record", "json_record", "persist"]


def run_repetitions(
    problem, config: RunConfig, n_runs: int, p_ref: float
) -> tuple[list[RunResult], dict]:
    """Run the configured method ``n_runs`` times, one after another, and
    return the runs with their ``summary_record``.

    Repetition i runs with seed config.seed + i, so results are
    reproducible.
    """
    _check_repetitions(n_runs, p_ref)
    runs = [run(problem, replace(config, seed=config.seed + i)) for i in range(n_runs)]
    return runs, summary_record(runs, p_ref)


def _check_repetitions(n_runs, p_ref) -> None:
    _check_integer("n_runs", n_runs, 2)  # the spread statistics need two
    # a bool, a non-number and a value outside (0, inf), NaN too
    if isinstance(p_ref, bool) or not isinstance(p_ref, numbers.Real) or not 0.0 < p_ref < np.inf:
        raise ValueError(f"p_ref must be a positive finite number, got {p_ref!r}")


def summary_record(runs: list[RunResult], p_ref: float) -> dict:
    """The aggregates of ``runs``: the last line of a bench output file and
    the ``safeice bench`` stdout.

    rel_error is |p_ref - mean(pf)| / p_ref and cv the sample coefficient
    of variation of the per-run estimates.
    """
    pf = [r.pf for r in runs]
    return {
        "summary": True,
        "p_ref": p_ref,
        "rel_error": abs(p_ref - float(np.mean(pf))) / p_ref,
        "cv": cv(pf),
        "mean_t": float(np.mean([r.iterations for r in runs])),
        "mean_k": float(np.mean([r.final_k for r in runs])),
        "n_runs": len(runs),
    }


def _strict(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, list):
        return [_strict(x) for x in value]
    return value


def json_record(record: dict) -> str:
    """``record`` as one line of strict JSON, which has no Infinity or NaN:
    a non-finite float is written as null."""
    return json.dumps({key: _strict(value) for key, value in record.items()}, allow_nan=False)


def persist(runs: list[RunResult], summary: dict, path: str) -> None:
    """Write the JSON lines file: one ``json_record`` per run, then
    ``summary``.

    Run i's record is ``{"run": i, **asdict(run)}``, the ``estimate``
    record plus its index, traces included. Finite floats round-trip
    bit-exactly.
    """
    if not runs:
        raise ValueError("no runs to persist")
    records = [{"run": i, **asdict(r)} for i, r in enumerate(runs)]
    with open(path, "w") as fh:
        for rec in records + [summary]:
            fh.write(json_record(rec) + "\n")
