"""Tests for the crude Monte Carlo reference estimator."""

import numpy as np
import pytest
from scipy.stats import norm

from safeice.oracle import McEstimate, mc_estimate
from safeice.problems import Problem, problem_registry

import oracles

ALWAYS_SAFE = Problem("safe", 2, lambda u: np.ones(u.shape[0]))
ALWAYS_FAIL = Problem("fail", 2, lambda u: -np.ones(u.shape[0]))


def test_mc_two_mode_reference():
    prob = problem_registry("two-mode", 2.5, 2)
    est = mc_estimate(prob, 10**6, seed=0)
    ref = 2.0 * norm.cdf(-2.5)
    assert abs(est.pf - ref) <= 3.0 * 0.000111
    assert est.n_total == 10**6
    assert est.n_failures == round(est.pf * est.n_total)
    expect_cv = np.sqrt((1.0 - est.pf) / (est.n_total * est.pf))
    assert est.cv == pytest.approx(expect_cv, rel=1e-12)


def test_four_branch_quadrature_converges_and_agrees_with_monte_carlo():
    # the ray quadrature is the four-branch reference: 2^12 and 2^16 angles
    # agree far below any Monte Carlo error, and a 10^6-sample estimate lies
    # within 3 of its standard errors of the value
    coarse, fine = (oracles.four_branch_pf_by_quadrature(2**k) for k in (12, 16))
    assert coarse == pytest.approx(fine, rel=1e-9)
    assert fine == pytest.approx(2.22279507e-3, rel=1e-8)
    est = mc_estimate(problem_registry("four-branch", 0.0, 2), 10**6, seed=0)
    assert abs(est.pf - fine) <= 3.0 * est.cv * est.pf


def test_mc_batch_size_invariance():
    # batches slice one stream, so failure counts cannot depend on batching
    prob = problem_registry("two-mode", 1.5, 2)
    n = 10_500
    full = mc_estimate(prob, n, batch_size=n, seed=3)
    even = mc_estimate(prob, n, batch_size=1000, seed=3)
    ragged = mc_estimate(prob, n, batch_size=7, seed=3)
    assert full.n_failures == even.n_failures == ragged.n_failures
    assert full.pf == even.pf == ragged.pf


def test_mc_no_failures_sentinel():
    est = mc_estimate(ALWAYS_SAFE, 10**4, seed=1)
    assert est.pf == 0.0
    assert est.n_failures == 0
    assert est.cv == np.inf


def test_mc_certain_failure():
    est = mc_estimate(ALWAYS_FAIL, 10**4, seed=1)
    assert est.pf == 1.0
    assert est.n_failures == 10**4
    assert est.cv == 0.0


def test_mc_cv_formula_is_consistent():
    # the analytic binomial cv should predict the seed-to-seed spread
    prob = problem_registry("two-mode", 1.5, 2)
    pfs, cvs = [], []
    for seed in range(50):
        est = mc_estimate(prob, 10**4, seed=seed)
        pfs.append(est.pf)
        cvs.append(est.cv)
    empirical = np.std(pfs, ddof=1) / np.mean(pfs)
    predicted = np.mean(cvs)
    assert empirical / predicted < 1.5
    assert predicted / empirical < 1.5


def test_mc_validates_arguments():
    with pytest.raises(ValueError):
        mc_estimate(ALWAYS_SAFE, 0)
    with pytest.raises(ValueError):
        mc_estimate(ALWAYS_SAFE, 100, batch_size=0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"n_total": True}, "n_total must be an integer"),
        ({"n_total": "100"}, "n_total must be an integer"),
        ({"batch_size": 2.5}, "batch_size must be an integer"),
        ({"seed": -1}, "seed must be at least 0"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": False}, "seed must be an integer"),
    ],
)
def test_mc_names_a_bad_argument(kwargs, match):
    with pytest.raises(ValueError, match=match):
        mc_estimate(ALWAYS_SAFE, **{"n_total": 100, **kwargs})


def test_mc_estimate_fields():
    est = McEstimate(pf=0.5, n_total=10, n_failures=5, cv=0.1)
    assert (est.pf, est.n_total, est.n_failures, est.cv) == (0.5, 10, 5, 0.1)



@pytest.mark.parametrize(
    "evaluate, match",
    [
        (lambda u: np.ones((u.shape[0], 1)), r"'bad'.*shape \(100, 1\), expected \(100,\)"),
        (lambda u: np.where(u[:, 0] > 0.0, np.nan, 1.0), r"'bad'.*returned \d+ NaN"),
    ],
    ids=["column", "nan"],
)
def test_mc_rejects_bad_lsf_output(evaluate, match):
    with pytest.raises(ValueError, match=match):
        mc_estimate(Problem("bad", 2, evaluate), 100, seed=0)
