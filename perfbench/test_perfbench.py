"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import math

import pytest

import run
from layers import Tracer
from safeice import core, em

WORK_COUNTS = (
    "problems.evaluate.points",
    "em.density_elems",
    "core.select_sigma.cdf_elems",
    "em.fit.iterations",
)


def traced_runs(name, seeds):
    problem, config = run.build(name)
    tracer = Tracer()
    tracer.install(problem)
    try:
        runs = []
        for i, seed in enumerate(seeds):
            tracer.run_id = i
            runs.append(run.one_run(problem, config, seed))
    finally:
        tracer.uninstall()
    return tracer, runs


@pytest.mark.parametrize("name, seeds", [("four-branch", (3, 4)), ("two-mode-rare", (3,)), ("oscillator", (3,))])
def test_traced_run_repeats_exactly(name, seeds):
    first, runs1 = traced_runs(name, seeds)
    second, runs2 = traced_runs(name, seeds)
    assert first.absent == [] and all(r.ok for r in runs1 + runs2)
    for key in WORK_COUNTS:
        assert first.counts[key] > 0
        assert first.counts[key] == second.counts[key], key
    assert [r.result.lsf_evals for r in runs1] == [r.result.lsf_evals for r in runs2]
    assert run.digest(runs1) == run.digest(runs2)
    problem, config = run.build(name)
    untraced = [run.one_run(problem, config, s) for s in seeds]
    assert run.digest(untraced) == run.digest(runs1)


def test_uninstall_restores_every_binding():
    problem, _ = run.build("four-branch")
    evaluate, fit, select_sigma = problem.evaluate, em.fit, core.select_sigma
    tracer = Tracer()
    tracer.install(problem)
    assert core.fit is not fit and core.fit is em.fit and problem.evaluate is not evaluate
    tracer.uninstall()
    assert core.fit is fit and em.fit is fit and core.select_sigma is select_sigma
    assert problem.evaluate is evaluate


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(em, "beta_update")
    problem, _ = run.build("four-branch")
    tracer = Tracer()
    tracer.install(problem)
    tracer.uninstall()
    assert tracer.absent == ["em.beta_update"]
    metrics = tracer.per_run_metrics(1, {}, 0.0)
    assert metrics["em.beta_update.s"]["value"] == 0.0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        (0, 0, None, "core.run_safe_ice", 0.0, 10.0),
        (0, 1, 0, "em.fit", 1.0, 5.0),
        (0, 2, 1, "em.e_step", 1.5, 2.5),
        (0, 3, 0, "em.fit", 6.0, 7.0),
    ]
    totals = tracer.layer_totals()
    assert totals["core.run_safe_ice"]["self_s"] == pytest.approx(5.0)
    assert totals["em.fit"]["s"] == pytest.approx(5.0)
    assert totals["em.fit"]["self_s"] == pytest.approx(4.0)
    assert totals["em.fit"]["calls"] == 2


@pytest.mark.parametrize("n, q, rank", [(5, 100, 5), (11, 9, 1), (20, 50, 10), (100, 90, 90), (163, 93, 152)])
def test_tail_leaves_ten_runs_beyond(n, q, rank):
    got_q, value = run.tail(range(1, n + 1))
    assert (got_q, value) == (q, rank)
    if n > 10:
        assert n - value >= 10


def test_check_reasons():
    ok = run.Run(0, 0.1, core.RunResult(1.0e-3, 2, 3, 3000, True, 0))
    low = run.Run(1, 0.1, core.RunResult(0.5e-3, 2, 3, 3000, True, 1))
    nan = run.Run(2, 0.1, core.RunResult(math.nan, 2, 3, 3000, True, 2))
    raised = run.Run(3, 0.1, error="Traceback")
    huge = run.Run(4, 0.1, core.RunResult(17.0e-3, 2, 3, 3000, True, 4))
    ref = {"pf": 1.0e-3, "cv": 0.0, "tolerance": 0.1}
    assert run.check([ok, ok], [ok, ok], ref) == []
    assert run.check([ok, ok], [ok, ok], None) == ["reference missing"]
    assert "non-finite" in run.check([ok, ok, nan, raised], [ok, ok], ref)[0]
    assert "median pf" in run.check([low] * 3, [low] * 3, ref)[0]
    # one heavy run neither fails correct output nor widens the band
    assert run.check([ok] * 3 + [huge], [ok] * 3 + [huge], ref) == []
    assert "median pf" in run.check([low] * 3 + [huge], [low] * 3 + [huge], ref)[0]
    assert "allowed 0.130" in run.check([low], [low], {**ref, "cv": 0.01})[0]


def test_every_run_failing_still_prints_a_result(monkeypatch, capsys):
    def broken(problem, config):
        raise RuntimeError("broken estimator")

    monkeypatch.setattr(core, "run_safe_ice", broken)
    monkeypatch.setattr(run.SetupProbes, "_run", lambda self: self.samples.append(0.5))
    assert run.main(["--workload", "oscillator", "--seed", "1", "--seconds", "0.01"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == run.WORKLOADS["oscillator"].panel
    assert "runs_per_s" not in result["metrics"] and "setup_s" in result["metrics"]
    assert any(line.split()[:2] == ["failed_frac", "1"] for line in out)
