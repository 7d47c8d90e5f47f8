"""Tests for the repetition runner, summary statistics, and persistence."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

import safeice.cli as cli
from safeice.cli import persist, run_repetitions, summary_record
from safeice.core import RunConfig, RunResult, run
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

    def run(problem, config):
        return make_result(config.seed, table[config.seed])

    return run


PROB = problem_registry("two-mode", 2.0, 2)


# ------------------------------------------------------------ statistics math


def test_identical_runs_zero_error(monkeypatch):
    table = {i: 4.6527e-4 for i in range(4)}
    monkeypatch.setattr(cli, "run", stub_runner(table))
    _, summary = run_repetitions(PROB, RunConfig(seed=0), 4, p_ref=4.6527e-4)
    assert summary["rel_error"] == 0.0
    assert summary["cv"] == 0.0
    assert summary["n_runs"] == 4


def test_two_run_arithmetic(monkeypatch):
    table = {0: 1e-4, 1: 3e-4}
    monkeypatch.setattr(cli, "run", stub_runner(table))
    _, summary = run_repetitions(PROB, RunConfig(seed=0), 2, p_ref=2e-4)
    assert summary["rel_error"] <= 1e-12
    assert summary["cv"] == pytest.approx(np.sqrt(2.0) * 1e-4 / 2e-4, rel=1e-12)
    assert summary["cv"] == pytest.approx(0.7071, abs=1e-4)


def test_zero_pf_runs_included(monkeypatch):
    # estimates of zero are kept and show up as an honest error
    table = {0: 0.0, 1: 0.0}
    monkeypatch.setattr(cli, "run", stub_runner(table))
    runs, summary = run_repetitions(PROB, RunConfig(seed=0), 2, p_ref=1e-3)
    assert summary["rel_error"] == 1.0
    assert summary["cv"] == np.inf
    assert [r.pf for r in runs] == [0.0, 0.0]


def test_statistics_permutation_invariant(monkeypatch):
    values = [2.1e-4, 1.7e-4, 2.6e-4, 1.2e-4, 2.0e-4]
    table_a = dict(enumerate(values))
    table_b = dict(enumerate(values[::-1]))
    monkeypatch.setattr(cli, "run", stub_runner(table_a))
    _, sa = run_repetitions(PROB, RunConfig(seed=0), 5, p_ref=2e-4)
    monkeypatch.setattr(cli, "run", stub_runner(table_b))
    _, sb = run_repetitions(PROB, RunConfig(seed=0), 5, p_ref=2e-4)
    assert sa["rel_error"] == pytest.approx(sb["rel_error"], rel=1e-12)
    assert sa["cv"] == pytest.approx(sb["cv"], rel=1e-12)
    assert sa["mean_k"] == sb["mean_k"]


def test_mean_iteration_and_k(monkeypatch):
    def run(problem, config):
        i = config.seed
        return make_result(i, 2e-4, iterations=i + 1, final_k=i + 2)

    monkeypatch.setattr(cli, "run", run)
    _, summary = run_repetitions(PROB, RunConfig(seed=0), 3, p_ref=2e-4)
    assert summary["mean_t"] == 2.0
    assert summary["mean_k"] == 3.0


def test_doubling_runs_is_stable(monkeypatch):
    # fresh-seed doubling moves the relative error by less than the
    # sampling noise predicts, most of the time
    def run(problem, config):
        noise = np.random.default_rng(config.seed).normal(scale=0.1)
        return make_result(config.seed, 2e-4 * (1.0 + noise))

    monkeypatch.setattr(cli, "run", run)
    ok = 0
    for trial in range(20):
        base = 1000 * trial
        _, s1 = run_repetitions(PROB, RunConfig(seed=base), 10, p_ref=2e-4)
        _, s2 = run_repetitions(PROB, RunConfig(seed=base), 20, p_ref=2e-4)
        if abs(s1["rel_error"] - s2["rel_error"]) < 3.0 * s1["cv"] / np.sqrt(10.0):
            ok += 1
    assert ok >= 14


def test_run_repetitions_validation():
    with pytest.raises(ValueError):
        run_repetitions(PROB, RunConfig(), 1, p_ref=1e-4)
    with pytest.raises(ValueError):
        run_repetitions(PROB, RunConfig(), 2, p_ref=0.0)


@pytest.mark.parametrize(
    "n_runs, p_ref, match",
    [
        (2, True, "p_ref must be a positive finite number"),
        (2, "1e-4", "p_ref must be a positive finite number"),
        (2.5, 1e-4, "n_runs must be an integer"),
        (True, 1e-4, "n_runs must be an integer"),
        (1, 1e-4, "n_runs must be at least 2"),
    ],
)
def test_run_repetitions_names_a_bad_argument(n_runs, p_ref, match):
    with pytest.raises(ValueError, match=match):
        run_repetitions(PROB, RunConfig(), n_runs, p_ref)


# ------------------------------------------------------------------ real runs


def test_real_repetitions_seed_plus_i():
    cfg = RunConfig(seed=100, n_per_iter=200, k_init=4)
    runs, summary = run_repetitions(PROB, cfg, 3, 0.0455)
    assert [r.seed for r in runs] == [100, 101, 102]
    for i, r in enumerate(runs):
        assert r == run(PROB, replace(cfg, seed=100 + i))
    assert all(r.pf > 0.0 for r in runs)
    assert summary == summary_record(runs, 0.0455)


# ---------------------------------------------------------------- persistence


P_REF = 1.0 / 9.0e3


def make_runs(n=3):
    return [
        replace(
            make_result(i, (i + 1) / 3.0e4, iterations=i + 1, final_k=i + 2, converged=i != 1),
            sigma_trace=[10.0, (i + 1) / 7.0],
            lambda_trace=[0.0, 1.0 - (i + 1) / 3.0e7],
            k_trace=[20, i + 2],
            n_failures=17 * i,
            se=(i + 1) / 7.0e5,
            ess=17 * i / 3.0,
        )
        for i in range(n)
    ]


def test_persist_jsonl_round_trip(tmp_path):
    runs = make_runs()
    summary = summary_record(runs, P_REF)
    path = tmp_path / "out.jsonl"
    persist(runs, summary, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines[:3]):
        rec = json.loads(line)
        assert rec.pop("run") == i
        # the estimate record, every float bit-exact, the traces included
        assert rec == asdict(runs[i])
    assert json.loads(lines[3]) == summary  # p_ref, rel_error, cv, ... bit-exact


def test_persist_rejects_no_runs(tmp_path):
    with pytest.raises(ValueError, match="no runs to persist"):
        persist([], summary_record(make_runs(), P_REF), str(tmp_path / "x.jsonl"))


def test_persist_propagates_io_error(tmp_path):
    runs = make_runs()
    with pytest.raises(OSError):
        persist(runs, summary_record(runs, P_REF), str(tmp_path / "missing" / "x.jsonl"))


def test_aggregates_follow_runs():
    # every aggregate is the formula over the run list it is given, bit for bit
    runs = make_runs(4)
    for n in (4, 2):
        summary = summary_record(runs[:n], P_REF)
        pf = np.array([r.pf for r in runs[:n]])
        assert summary["n_runs"] == n
        assert summary["rel_error"] == float(abs(P_REF - pf.mean()) / P_REF)
        assert summary["cv"] == float(pf.std(ddof=1) / pf.mean())
        assert summary["mean_t"] == float(np.mean([r.iterations for r in runs[:n]]))
        assert summary["mean_k"] == float(np.mean([r.final_k for r in runs[:n]]))
