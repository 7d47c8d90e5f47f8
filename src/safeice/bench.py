"""Repeated-run benchmarking, summary statistics, and persistence."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import RunConfig, RunResult, _check_integer, _check_positive, cv, run

__all__ = ["BenchmarkStats", "run_repetitions", "summary_record", "json_record", "persist"]

_RUN_FIELDS = ("run", "seed", "pf", "iterations", "final_k", "lsf_evals", "converged")


@dataclass
class BenchmarkStats:
    """Repeated runs of one problem/configuration and their aggregates.

    rel_error is |p_ref - mean(pf)| / p_ref and cv the sample coefficient
    of variation of the per-run estimates; every aggregate is derived from
    ``runs``.
    """

    p_ref: float
    runs: list

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def mean_pf(self) -> float:
        return float(np.mean([r.pf for r in self.runs]))

    @property
    def rel_error(self) -> float:
        return abs(self.p_ref - self.mean_pf) / self.p_ref

    @property
    def cv(self) -> float:
        return cv([r.pf for r in self.runs])

    @property
    def mean_iterations(self) -> float:
        return float(np.mean([r.iterations for r in self.runs]))

    @property
    def mean_final_k(self) -> float:
        return float(np.mean([r.final_k for r in self.runs]))


def run_repetitions(problem, config: RunConfig, n_runs: int, p_ref: float) -> BenchmarkStats:
    """Run the configured method ``n_runs`` times, one after another.

    Repetition i runs with seed config.seed + i, so results are
    reproducible.
    """
    _check_integer("n_runs", n_runs, 2)  # the spread statistics need two
    _check_positive("p_ref", p_ref)
    runs = [run(problem, replace(config, seed=config.seed + i)) for i in range(n_runs)]
    return BenchmarkStats(p_ref=p_ref, runs=runs)


def _run_record(i: int, r: RunResult) -> dict:
    return {"run": i, **{f: getattr(r, f) for f in _RUN_FIELDS[1:]}}


def summary_record(stats: BenchmarkStats) -> dict:
    """The summary line of a bench output file and of ``safeice bench`` stdout."""
    return {
        "summary": True,
        "p_ref": stats.p_ref,
        "rel_error": stats.rel_error,
        "cv": stats.cv,
        "mean_t": stats.mean_iterations,
        "mean_k": stats.mean_final_k,
        "n_runs": stats.n_runs,
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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def persist(stats: BenchmarkStats, path: str, fmt: str = "jsonl") -> None:
    """Write per-run records followed by one summary record.

    jsonl: one ``json_record`` per line. csv: union header of run and summary
    columns, floats with 17 significant digits; both round-trip float
    values bit-exactly.
    """
    if not stats.runs:
        raise ValueError("no runs to persist")
    records = [_run_record(i, r) for i, r in enumerate(stats.runs)]
    summary = summary_record(stats)
    if fmt == "jsonl":
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json_record(rec) + "\n")
            fh.write(json_record(summary) + "\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(_RUN_FIELDS) + list(summary))
            for rec in records:
                writer.writerow([_fmt(rec[f]) for f in _RUN_FIELDS] + [""] * len(summary))
            writer.writerow([""] * len(_RUN_FIELDS) + [_fmt(x) for x in summary.values()])
    else:
        raise ValueError("format must be 'jsonl' or 'csv'")
