"""Tests for the repetition runner, summary statistics, and persistence."""

import csv
import json

import numpy as np
import pytest

import safeice.bench as bench
from safeice.bench import BenchmarkStats, persist, run_repetitions
from safeice.core import RunConfig, RunResult
from safeice.problems import problem_registry


def make_result(seed, pf, iterations=2, final_k=3, converged=True):
    return RunResult(
        pf=pf,
        iterations=iterations,
        final_k=final_k,
        lsf_evals=1000 * (iterations + 1),
        converged=converged,
        seed=seed,
    )


def stub_runner(table):
    """A runner that looks up pf by the seed the repetition loop assigns."""

    def run(problem, config, rng=None):
        return make_result(config.seed, table[config.seed])

    return run


PROB = problem_registry("two-mode", 2.0, 2)


# ------------------------------------------------------------ statistics math


def test_identical_runs_zero_error(monkeypatch):
    table = {i: 4.6527e-4 for i in range(4)}
    monkeypatch.setattr(bench, "run", stub_runner(table))
    stats = run_repetitions(PROB, RunConfig(seed=0), 4, p_ref=4.6527e-4)
    assert stats.rel_error == 0.0
    assert stats.cv == 0.0
    assert stats.mean_pf == 4.6527e-4
    assert stats.n_runs == 4


def test_two_run_arithmetic(monkeypatch):
    table = {0: 1e-4, 1: 3e-4}
    monkeypatch.setattr(bench, "run", stub_runner(table))
    stats = run_repetitions(PROB, RunConfig(seed=0), 2, p_ref=2e-4)
    assert stats.rel_error <= 1e-12
    assert stats.cv == pytest.approx(np.sqrt(2.0) * 1e-4 / 2e-4, rel=1e-12)
    assert stats.cv == pytest.approx(0.7071, abs=1e-4)


def test_zero_pf_runs_included(monkeypatch):
    # estimates of zero are kept and show up as an honest error
    table = {0: 0.0, 1: 0.0}
    monkeypatch.setattr(bench, "run", stub_runner(table))
    stats = run_repetitions(PROB, RunConfig(seed=0), 2, p_ref=1e-3)
    assert stats.rel_error == 1.0
    assert stats.cv == np.inf
    assert [r.pf for r in stats.runs] == [0.0, 0.0]


def test_statistics_permutation_invariant(monkeypatch):
    values = [2.1e-4, 1.7e-4, 2.6e-4, 1.2e-4, 2.0e-4]
    table_a = dict(enumerate(values))
    table_b = dict(enumerate(values[::-1]))
    monkeypatch.setattr(bench, "run", stub_runner(table_a))
    sa = run_repetitions(PROB, RunConfig(seed=0), 5, p_ref=2e-4)
    monkeypatch.setattr(bench, "run", stub_runner(table_b))
    sb = run_repetitions(PROB, RunConfig(seed=0), 5, p_ref=2e-4)
    assert sa.rel_error == pytest.approx(sb.rel_error, rel=1e-12)
    assert sa.cv == pytest.approx(sb.cv, rel=1e-12)
    assert sa.mean_final_k == sb.mean_final_k


def test_mean_iteration_and_k(monkeypatch):
    def run(problem, config, rng=None):
        i = config.seed
        return make_result(i, 2e-4, iterations=i + 1, final_k=i + 2)

    monkeypatch.setattr(bench, "run", run)
    stats = run_repetitions(PROB, RunConfig(seed=0), 3, p_ref=2e-4)
    assert stats.mean_iterations == 2.0
    assert stats.mean_final_k == 3.0


def test_doubling_runs_is_stable(monkeypatch):
    # fresh-seed doubling moves the relative error by less than the
    # sampling noise predicts, most of the time
    def run(problem, config, rng=None):
        noise = np.random.default_rng(config.seed).normal(scale=0.1)
        return make_result(config.seed, 2e-4 * (1.0 + noise))

    monkeypatch.setattr(bench, "run", run)
    ok = 0
    for trial in range(20):
        base = 1000 * trial
        s1 = run_repetitions(PROB, RunConfig(seed=base), 10, p_ref=2e-4)
        s2 = run_repetitions(PROB, RunConfig(seed=base), 20, p_ref=2e-4)
        if abs(s1.rel_error - s2.rel_error) < 3.0 * s1.cv / np.sqrt(10.0):
            ok += 1
    assert ok >= 14


def test_run_repetitions_validation():
    with pytest.raises(ValueError):
        run_repetitions(PROB, RunConfig(), 1, p_ref=1e-4)
    with pytest.raises(ValueError):
        run_repetitions(PROB, RunConfig(), 2, p_ref=0.0)


# ------------------------------------------------------------------ real runs


def test_real_repetitions_seed_and_threads():
    cfg = RunConfig(seed=100, n_per_iter=200, k_init=4)
    p_ref = 0.0455
    serial = run_repetitions(PROB, cfg, 3, p_ref, threads=1)
    threaded = run_repetitions(PROB, cfg, 3, p_ref, threads=3)
    assert [r.seed for r in serial.runs] == [100, 101, 102]
    assert [r.pf for r in serial.runs] == [r.pf for r in threaded.runs]
    assert serial.rel_error == threaded.rel_error
    assert all(r.pf > 0.0 for r in serial.runs)


# ---------------------------------------------------------------- persistence


def make_stats(n=3):
    runs = [
        make_result(i, (i + 1) / 3.0e4, iterations=i + 1, final_k=i + 2, converged=i != 1)
        for i in range(n)
    ]
    pf = np.array([r.pf for r in runs])
    return BenchmarkStats(
        p_ref=1.0 / 9.0e3,
        rel_error=float(abs(1.0 / 9.0e3 - pf.mean()) * 9.0e3),
        cv=float(pf.std(ddof=1) / pf.mean()),
        mean_iterations=float(np.mean([r.iterations for r in runs])),
        mean_final_k=float(np.mean([r.final_k for r in runs])),
        n_runs=n,
        runs=runs,
    )


def test_persist_jsonl_round_trip(tmp_path):
    stats = make_stats()
    path = tmp_path / "out.jsonl"
    persist(stats, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines[:3]):
        rec = json.loads(line)
        assert rec["run"] == i
        assert rec["seed"] == stats.runs[i].seed
        assert rec["pf"] == stats.runs[i].pf  # bit-exact float round-trip
        assert rec["converged"] == stats.runs[i].converged
        assert rec["lsf_evals"] == stats.runs[i].lsf_evals
    summary = json.loads(lines[3])
    assert summary["summary"] is True
    assert summary["p_ref"] == stats.p_ref
    assert summary["rel_error"] == stats.rel_error
    assert summary["cv"] == stats.cv
    assert summary["mean_t"] == stats.mean_iterations
    assert summary["mean_k"] == stats.mean_final_k
    assert summary["n_runs"] == 3


def test_persist_csv_round_trip(tmp_path):
    stats = make_stats()
    path = tmp_path / "out.csv"
    persist(stats, str(path), fmt="csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "run",
        "seed",
        "pf",
        "iterations",
        "final_k",
        "lsf_evals",
        "converged",
        "summary",
        "p_ref",
        "rel_error",
        "cv",
        "mean_t",
        "mean_k",
        "n_runs",
    ]
    assert len(rows) == 5
    for i, row in enumerate(rows[1:4]):
        assert int(row[0]) == i
        assert float(row[2]) == stats.runs[i].pf  # 17 digits round-trip
        assert row[6] == ("true" if stats.runs[i].converged else "false")
        assert row[7:] == [""] * 7
    summary = rows[4]
    assert summary[:7] == [""] * 7
    assert float(summary[8]) == stats.p_ref
    assert float(summary[9]) == stats.rel_error
    assert float(summary[10]) == stats.cv
    assert int(summary[13]) == 3


def test_persist_rejects_empty_and_bad_format(tmp_path):
    stats = make_stats()
    empty = BenchmarkStats(
        p_ref=1e-4, rel_error=0.0, cv=0.0, mean_iterations=0.0, mean_final_k=0.0, n_runs=0, runs=[]
    )
    with pytest.raises(ValueError):
        persist(empty, str(tmp_path / "x.jsonl"))
    with pytest.raises(ValueError):
        persist(stats, str(tmp_path / "x.xml"), fmt="xml")


def test_persist_propagates_io_error(tmp_path):
    stats = make_stats()
    with pytest.raises(OSError):
        persist(stats, str(tmp_path / "missing" / "x.jsonl"))


def test_mean_pf_property():
    stats = make_stats()
    assert stats.mean_pf == pytest.approx(np.mean([r.pf for r in stats.runs]), rel=1e-15)
