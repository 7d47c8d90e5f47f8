"""Repeated-run benchmarking, summary statistics, and persistence."""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import RunConfig, RunResult, run

__all__ = ["BenchmarkStats", "run_repetitions", "summary_record", "persist"]

_RUN_FIELDS = ("run", "seed", "pf", "iterations", "final_k", "lsf_evals", "converged")
_SUMMARY_FIELDS = ("summary", "p_ref", "rel_error", "cv", "mean_t", "mean_k", "n_runs")


@dataclass
class BenchmarkStats:
    """Aggregate over repeated runs of one problem/configuration.

    rel_error is |p_ref - mean(pf)| / p_ref and cv the sample coefficient
    of variation of the per-run estimates.
    """

    p_ref: float
    rel_error: float
    cv: float
    mean_iterations: float
    mean_final_k: float
    n_runs: int
    runs: list

    @property
    def mean_pf(self) -> float:
        return float(np.mean([r.pf for r in self.runs]))


def run_repetitions(
    problem,
    config: RunConfig,
    n_runs: int,
    p_ref: float,
    threads: int = 1,
) -> BenchmarkStats:
    """Run the configured method ``n_runs`` times and aggregate.

    Repetition i runs with seed config.seed + i, so results are
    reproducible for any thread count; threads only parallelize the
    independent repetitions.
    """
    if n_runs < 2:
        raise ValueError("need at least two runs for spread statistics")
    if p_ref <= 0.0:
        raise ValueError("p_ref must be positive")

    def one(i: int) -> RunResult:
        return run(problem, replace(config, seed=config.seed + i))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(one, range(n_runs)))
    else:
        runs = [one(i) for i in range(n_runs)]

    pf = np.array([r.pf for r in runs])
    mean = pf.mean()
    rel_error = abs(p_ref - mean) / p_ref
    spread = float(pf.std(ddof=1) / mean) if mean > 0.0 else np.inf
    return BenchmarkStats(
        p_ref=p_ref,
        rel_error=float(rel_error),
        cv=spread,
        mean_iterations=float(np.mean([r.iterations for r in runs])),
        mean_final_k=float(np.mean([r.final_k for r in runs])),
        n_runs=n_runs,
        runs=runs,
    )


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


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def persist(stats: BenchmarkStats, path: str, fmt: str = "jsonl") -> None:
    """Write per-run records followed by one summary record.

    jsonl: one JSON object per line. csv: union header of run and summary
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
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps(summary) + "\n")
    elif fmt == "csv":
        header = list(_RUN_FIELDS) + list(_SUMMARY_FIELDS)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for rec in records:
                row = [_fmt(rec[f]) for f in _RUN_FIELDS]
                row += [""] * len(_SUMMARY_FIELDS)
                writer.writerow(row)
            row = [""] * len(_RUN_FIELDS)
            row += [_fmt(summary[f]) for f in _SUMMARY_FIELDS]
            writer.writerow(row)
    else:
        raise ValueError("format must be 'jsonl' or 'csv'")
