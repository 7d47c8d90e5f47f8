"""Tests for the adaptive loop building blocks and the run driver."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from safeice import core, em
from safeice.core import (
    RunConfig,
    _weight_cv,
    cv,
    estimate_pf,
    init_light_params,
    intermediate_log_weights,
    lambda_schedule,
    log_smooth_indicator,
    run,
    run_safe_ice,
    select_sigma,
    stop_cv,
)
from safeice.distributions import rng_from_seed
from safeice.mixtures import PolarSamples, SafeMixtureParams, prior_logpdf, safe_logpdf, safe_sample
from safeice.problems import Problem, problem_registry
from safeice.special import log_normal_cdf, shifted_exp

from oracles import select_sigma_full_grid_reference, select_sigma_sequential_reference, subset_estimate_pf


def prior_samples(rng, problem, n):
    """Draw n points from the standard normal prior in polar form, with
    their limit-state values."""
    u = rng.standard_normal((n, problem.dim))
    r = np.linalg.norm(u, axis=1)
    return PolarSamples(r=r, a=u / r[:, None]), problem.evaluate(u)


def prior_proposal(d):
    """The safe mixture that coincides with the prior (K=1, kappa=0, lam=1)."""
    light = init_light_params(rng_from_seed(0), d, 1)
    return SafeMixtureParams(light, 1.0)


# ------------------------------------------------------- smoothed indicator
# h_sigma(g) = Phi(-g / sigma), in log form in the weights and as 1 / h in
# stop_cv


def test_smooth_indicator_at_zero():
    for sigma in (0.1, 1.0, 37.0):
        assert log_smooth_indicator(0.0, sigma) == np.log(0.5)
    # failures at g = 0 weigh 1 / h = 2 each, safe samples 0: cv of (2, 2, 0, 0)
    got = stop_cv(np.array([0.0, 0.0, 1.0, 1.0]), 37.0)
    assert got == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-15)


def test_smooth_indicator_one_sigma():
    h = np.exp(log_smooth_indicator(2.0, 2.0))
    assert h == pytest.approx(0.158655, abs=1e-6)
    assert h == pytest.approx(norm.cdf(-1.0), rel=1e-15)


def test_smooth_indicator_deep_failure():
    assert np.exp(log_smooth_indicator(-5.0, 1.0)) == pytest.approx(0.9999997, abs=1e-7)


def test_smooth_indicator_monotone_in_g():
    g = np.linspace(-4.0, 4.0, 101)
    log_h = log_smooth_indicator(g, 0.7)
    assert np.all(np.diff(log_h) < 0.0)
    assert np.all((log_h > -np.inf) & (log_h < 0.0))


def test_log_smooth_indicator_matches_and_stays_finite():
    g = np.array([-3.0, 0.0, 2.5])
    assert np.allclose(np.exp(log_smooth_indicator(g, 1.3)), norm.cdf(-g / 1.3), rtol=1e-14)
    # far tail: the plain CDF underflows to 0 but the log form stays finite
    lw = log_smooth_indicator(300.0, 1.0)
    assert np.isfinite(lw) and lw < -1e4


def test_log_smooth_indicator_takes_the_limits_where_g_over_sigma_overflows():
    # select_sigma's grid floor is 1e-8 sigma_prev, so a level can get this small
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lw = log_smooth_indicator(np.array([3.5, -3.5]), 1e-308)
    assert lw.tolist() == [-np.inf, 0.0]


# ------------------------------------------------------------------------ cv


def test_cv_two_values():
    assert cv([1.0, 3.0]) == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-15)
    assert cv([1.0, 3.0]) == pytest.approx(0.70711, abs=1e-5)


def test_cv_constant_values():
    assert cv([4.2, 4.2, 4.2]) == 0.0


def test_cv_zero_mean_sentinel():
    assert cv([0.0, 0.0, 0.0]) == np.inf


def test_cv_needs_two_values():
    with pytest.raises(ValueError):
        cv([1.0])


@pytest.mark.parametrize("n", [2, 7, 8, 9, 128, 129, 10**4])
def test_cv_is_numpys_std_over_mean_bit_for_bit(n):
    # the sizes cross the edges of numpy's pairwise summation blocks
    rng = rng_from_seed(n)
    for x in (
        rng.standard_normal(n),
        rng.standard_normal(n) + 1e3,
        np.exp(30.0 * rng.standard_normal(n)),
        1e-300 * rng.exponential(size=n),
    ):
        assert cv(x) == float(np.std(x, ddof=1) / np.mean(x))
    zero_mean = np.zeros(n)
    zero_mean[:2] = [1.0, -1.0]
    assert np.mean(zero_mean) == 0.0 and cv(zero_mean) == np.inf
    for bad in (np.inf, -np.inf, np.nan):
        x = rng.standard_normal(n)
        x[n // 2] = bad
        assert not np.isfinite(np.mean(x)) and cv(x) == np.inf


# ------------------------------------------------------ intermediate weights


def test_intermediate_log_weights_manual_value():
    # single sample checked against scipy building blocks: the prior factor
    # is the 2d standard normal density times the polar Jacobian r^(d-1)
    r, g, sigma, q = 1.3, 0.4, 1.7, -2.0
    s = PolarSamples(r=np.array([r]), a=np.array([[1.0, 0.0]]))
    got = intermediate_log_weights(np.array([g]), sigma, prior_logpdf(s) - q)
    u = np.array([r, 0.0])
    expect = norm.logcdf(-g / sigma) + multivariate_normal.logpdf(u, np.zeros(2)) + np.log(r) - q
    assert got[0] == pytest.approx(expect, rel=1e-14)


def test_intermediate_log_weights_scale_shift():
    # doubling every proposal density shifts all log-weights by -ln 2 and
    # leaves the weight cv unchanged
    rng = rng_from_seed(11)
    prob = problem_registry("two-mode", 2.0, 2)
    s, g = prior_samples(rng, prob, 400)
    q_log = prior_logpdf(s) + rng.normal(scale=0.3, size=400)
    lw = intermediate_log_weights(g, 1.5, prior_logpdf(s) - q_log)
    lw2 = intermediate_log_weights(g, 1.5, prior_logpdf(s) - (q_log + np.log(2.0)))
    assert np.allclose(lw2, lw - np.log(2.0), atol=1e-12)
    assert cv(np.exp(lw - lw.max())) == pytest.approx(cv(np.exp(lw2 - lw2.max())), rel=1e-12)


def test_intermediate_log_weights_huge_sigma_constant():
    # with q = prior the density ratio cancels and h_sigma is essentially
    # flat at 1/2, so the weights are constant to high accuracy
    rng = rng_from_seed(5)
    prob = problem_registry("two-mode", 3.5, 2)
    _, g = prior_samples(rng, prob, 1000)
    lw = intermediate_log_weights(g, 1e12, np.zeros(g.size))
    assert cv(np.exp(lw)) <= 1e-6


# ---------------------------------------------------------------- select_sigma


def test_select_sigma_never_exceeds_previous():
    rng = rng_from_seed(3)
    prob = problem_registry("two-mode", 3.5, 2)
    _, g = prior_samples(rng, prob, 1000)
    log_ratio = np.zeros(g.size)  # q = p
    for sigma_prev in (10.0, 2.0, 0.5):
        assert select_sigma(g, log_ratio, sigma_prev, 4.0) <= sigma_prev


def test_select_sigma_first_iteration_decreases():
    # from the flat starting level the chosen sigma drops well below it
    rng = rng_from_seed(3)
    prob = problem_registry("two-mode", 3.5, 2)
    _, g = prior_samples(rng, prob, 1000)
    got = select_sigma(g, np.zeros(g.size), 10.0, 4.0)
    assert got < 10.0


def test_select_sigma_boundary_optimum():
    # when the weight cv still exceeds the target at sigma_prev and grows as
    # sigma shrinks, the boundary is the optimum
    rng = rng_from_seed(3)
    prob = problem_registry("two-mode", 3.5, 2)
    _, g = prior_samples(rng, prob, 1000)
    got = select_sigma(g, np.zeros(g.size), 0.5, 4.0)
    assert got == pytest.approx(0.5, rel=1e-12)
    assert got <= 0.5


def test_select_sigma_beats_coarse_grid():
    # the refined result is no worse than every coarse grid point
    rng = rng_from_seed(9)
    prob = problem_registry("two-mode", 3.0, 2)
    _, g = prior_samples(rng, prob, 800)
    log_ratio = np.zeros(g.size)
    delta = 4.0

    def objective(sigma):
        w = np.exp(log_smooth_indicator(g, sigma) + log_ratio)
        return (cv(w) - delta) ** 2

    got = select_sigma(g, log_ratio, 10.0, delta)
    grid = np.exp(np.linspace(np.log(1e-8 * 10.0), np.log(10.0), 50))
    assert objective(got) <= min(objective(x) for x in grid) + 1e-12


class _Captured(Exception):
    pass


def first_level_inputs(seed):
    """The arguments of the first select_sigma call of a four-branch run."""
    captured = []

    def capture(*args):
        captured.append(args)
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "select_sigma", capture)
        with pytest.raises(_Captured):
            run_safe_ice(problem_registry("four-branch", 0.0, 2), RunConfig(seed=seed))
    return captured[0]


def excess_on_grid(g, log_ratio, sigma_prev, delta):
    """select_sigma's log grid and cv(W) - delta at each of its points."""
    grid = np.linspace(np.log(1e-8 * sigma_prev), np.log(sigma_prev), 50)
    excess = []
    for x in grid:
        log_w = log_smooth_indicator(g, np.exp(x)) + log_ratio
        excess.append(cv(np.exp(log_w - log_w.max())) - delta)
    return grid, np.array(excess)


@pytest.mark.parametrize("seed", [1024, 1083, 1097])
def test_select_sigma_takes_the_smallest_crossing(seed):
    # cv crosses delta in two grid cells at these first levels; the rule
    # takes the crossing with the smaller sigma
    g, log_ratio, sigma_prev, delta = first_level_inputs(seed)
    grid, e = excess_on_grid(g, log_ratio, sigma_prev, delta)
    assert np.isfinite(e).all()
    crossing = e[:-1] * e[1:] < 0.0
    assert crossing.sum() >= 2
    got = select_sigma(g, log_ratio, sigma_prev, delta)
    log_w = intermediate_log_weights(g, got, log_ratio)
    assert abs(cv(np.exp(log_w - log_w.max())) - delta) < 1e-6
    assert not np.any(crossing[grid[1:] < np.log(got)])


def test_select_sigma_scans_the_grid_up_to_the_first_crossing(monkeypatch):
    # the grid is evaluated from below up to the first crossing cell
    # (i, i + 1), i + 2 points, and rooting that cell takes at most 12 more
    # evaluations, each one log_normal_cdf pass
    args = first_level_inputs(1024)
    grid, e = excess_on_grid(*args)
    i = np.flatnonzero(e[:-1] * e[1:] < 0.0)[0]
    sigmas, cdf_calls = [], []

    def recorded(g, sigma, log_ratio):
        sigmas.append(sigma)
        return intermediate_log_weights(g, sigma, log_ratio)

    def counted(x):
        cdf_calls.append(x)
        return log_normal_cdf(x)

    monkeypatch.setattr(core, "intermediate_log_weights", recorded)
    monkeypatch.setattr(core, "log_normal_cdf", counted)
    select_sigma(*args)
    on_grid = np.isin(sigmas, np.exp(grid))
    assert on_grid[: i + 2].all() and on_grid.sum() == i + 2
    assert 1 <= (~on_grid).sum() <= 12
    assert len(cdf_calls) == len(sigmas)


def assert_same_as_full_grid(g, log_ratio, sigma_prev, delta):
    """select_sigma takes the grid cell of the full-grid reference and a sigma
    within 1e-9 relative of the reference's; a root also solves cv(W) = delta
    to 1e-8."""
    got = select_sigma(g, log_ratio, sigma_prev, delta)
    want = select_sigma_full_grid_reference(g, log_ratio, sigma_prev, delta)
    grid, e = excess_on_grid(g, log_ratio, sigma_prev, delta)
    assert np.searchsorted(grid, np.log(got)) == np.searchsorted(grid, np.log(want))
    assert got == pytest.approx(want, rel=1e-9)
    finite = np.isfinite(e)
    if np.any(finite[:-1] & finite[1:] & (e[:-1] * e[1:] < 0.0)):
        assert abs(_weight_cv(intermediate_log_weights(g, got, log_ratio)) - delta) < 1e-8
    else:
        assert got == want


@pytest.mark.parametrize("seed", [1024, 1083, 1097])
def test_select_sigma_matches_the_full_grid_search_at_two_crossings(seed):
    assert_same_as_full_grid(*first_level_inputs(seed))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(50, 800),
    z=st.floats(1.0, 3.5),
    spread=st.floats(0.0, 2.0),
    sigma_prev=st.floats(0.05, 20.0),
    delta=st.sampled_from([1.5, 4.0, 1000.0]),
)
def test_select_sigma_matches_the_full_grid_search_on_two_mode_batches(seed, n, z, spread, sigma_prev, delta):
    # a prior two-mode batch with a random log ratio; at delta 1000 no grid
    # cell can change sign
    rng = rng_from_seed(seed)
    _, g = prior_samples(rng, problem_registry("two-mode", z, 2), n)
    log_ratio = spread * rng.standard_normal(n)
    assert_same_as_full_grid(g, log_ratio, sigma_prev, delta)


def test_select_sigma_without_crossing_takes_the_closest_grid_point():
    # 800 weights cannot reach a cv of 1000, so no grid cell changes sign
    rng = rng_from_seed(9)
    _, g = prior_samples(rng, problem_registry("two-mode", 3.0, 2), 800)
    log_ratio = np.zeros(g.size)
    grid, e = excess_on_grid(g, log_ratio, 10.0, 1000.0)
    assert np.all(e < 0.0)
    got = select_sigma(g, log_ratio, 10.0, 1000.0)
    assert got == min(np.exp(grid[np.argmin(np.abs(e))]), 10.0)


_G_SPECIALS = [0.0, -0.0, np.inf, -np.inf]
_LOG_RATIO_SPECIALS = [-np.inf, 1e300, -1e300, 1e20, -1e20, 2.0**40, -(2.0**40), 800.0, -800.0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 2000),
    fail_share=st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]),
    g_scale=st.sampled_from([1e-6, 1.0, 1e3]),
    log_ratio_offset=st.sampled_from([0.0, 1e3, -1e5, 1e12, -1e20]),
    log_ratio_scale=st.sampled_from([0.0, 1.0, 30.0, 1e3]),
    g_specials=st.lists(st.tuples(st.integers(0, 1999), st.sampled_from(_G_SPECIALS)), max_size=6),
    log_ratio_specials=st.lists(st.tuples(st.integers(0, 1999), st.sampled_from(_LOG_RATIO_SPECIALS)), max_size=6),
    sigma_prev=st.sampled_from([1e-3, 0.5, 10.0, 1e6]),
    delta=st.sampled_from([1.5, 4.0, 1000.0]),
)
def test_select_sigma_is_the_sequential_reference_bit_for_bit(
    seed, n, fail_share, g_scale, log_ratio_offset, log_ratio_scale, g_specials, log_ratio_specials, sigma_prev, delta
):
    # skipping the rows whose weight underflows to 0 changes no output bit:
    # batches with no failing row and with only failing rows, g exactly 0 and
    # infinite, ln p/q -inf and far from 0 in either direction
    rng = rng_from_seed(seed)
    g = g_scale * np.abs(rng.standard_normal(n))
    g[rng.random(n) < fail_share] *= -1.0
    log_ratio = log_ratio_offset + log_ratio_scale * rng.standard_normal(n)
    for i, value in g_specials:
        g[i % n] = value
    for i, value in log_ratio_specials:
        log_ratio[i % n] = value
    got = select_sigma(g, log_ratio, sigma_prev, delta)
    assert got == select_sigma_sequential_reference(g, log_ratio, sigma_prev, delta)


@pytest.mark.parametrize("seed", [1024, 1083, 1097])
def test_select_sigma_is_the_sequential_reference_at_first_levels(seed):
    args = first_level_inputs(seed)
    assert select_sigma(*args) == select_sigma_sequential_reference(*args)


@pytest.mark.parametrize("column", [0, 1])
def test_select_sigma_counts_a_nan_row(column):
    # a NaN in g or ln p/q makes every weight cv +inf; a skipped NaN row
    # would leave it finite
    rng = rng_from_seed(5)
    g, log_ratio = rng.standard_normal(200), 30.0 * rng.standard_normal(200)
    g[7] = 1.0
    (g, log_ratio)[column][7] = np.nan
    assert select_sigma(g, log_ratio, 1.0, 4.0) == select_sigma_sequential_reference(g, log_ratio, 1.0, 4.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_select_sigma_with_a_nan_g_and_a_huge_ln_p_q_raises_no_overflow():
    # the NaN row makes the shift NaN, which is reset to 0, and the weight
    # of ln p/q = 1e300 then overflows to +inf: silently, with cv +inf
    g, log_ratio = np.array([np.nan, 5.5e-6]), np.array([0.0, 1e300])
    got = select_sigma(g, log_ratio, 1e-3, 1.5)
    assert got == select_sigma_sequential_reference(g, log_ratio, 1e-3, 1.5)
    assert 0.0 < got <= 1e-3


@pytest.mark.parametrize("log_ratio", [-1e20, 1e20])
def test_select_sigma_skips_no_row_where_ln_p_q_is_far_from_0(log_ratio):
    # at |ln p/q| = 1e20 one unit in the last place is 16384, so ln W rounds
    # to ln p/q and a weight of 1 survives where the bound says it is 0
    g, log_ratio = np.linspace(-1.0, 3.0, 10), np.full(10, log_ratio)
    assert select_sigma(g, log_ratio, 1.0, 1.5) == select_sigma_sequential_reference(g, log_ratio, 1.0, 1.5)


def test_select_sigma_keeps_a_subnormal_weight(monkeypatch):
    # the failing rows put the shift at 0; at the first grid point, sigma =
    # 1e-8, row 2 has ln W = ln Phi(-1) - 720, about -721.8, a subnormal
    # weight that the skip must keep, while rows 3 and 4 lie far below -800
    g = np.array([-1.0, -0.5, 1e-8, 1.0, 2.0])
    log_ratio = np.array([0.0, -0.3, -720.0, -2000.0, -5000.0])
    sigmas, weights = [], []

    def recorded(g, sigma, log_ratio):
        sigmas.append(sigma)
        return intermediate_log_weights(g, sigma, log_ratio)

    def recorded_cv(w):
        weights.append(w.copy())
        return cv(w)

    monkeypatch.setattr(core, "intermediate_log_weights", recorded)
    monkeypatch.setattr(core, "cv", recorded_cv)
    got = select_sigma(g, log_ratio, 1.0, 4.0)
    monkeypatch.undo()
    assert got == select_sigma_sequential_reference(g, log_ratio, 1.0, 4.0)
    assert len(sigmas) == len(weights) > 0
    subnormal = (weights[0] > 0.0) & (weights[0] < np.finfo(float).tiny)
    assert subnormal.tolist() == [False, False, True, False, False]
    for sigma, w in zip(sigmas, weights):
        assert np.array_equal(w, shifted_exp(intermediate_log_weights(g, sigma, log_ratio))[0])


# -------------------------------------------------------------------- stop_cv


def test_stop_cv_half_failing_at_half():
    # two failures with h = 1/2 and two safe samples give values (2,2,0,0)
    got = stop_cv(np.array([0.0, 0.0, 1.0, 1.0]), 1.0)
    assert got == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-15)
    assert got == pytest.approx(1.1547, abs=1e-4)


def test_stop_cv_identical_failures_is_zero():
    assert stop_cv(np.array([-2.0, -2.0, -2.0]), 1.3) == 0.0


def test_stop_cv_no_light_samples():
    g, heavy = np.array([-1.0, -1.0]), np.array([True, True])
    assert stop_cv(g[~heavy], 1.0) == np.inf


def test_stop_cv_single_light_sample():
    g, heavy = np.array([-1.0, -1.0]), np.array([False, True])
    assert stop_cv(g[~heavy], 1.0) == np.inf


def test_stop_cv_no_failures():
    assert stop_cv(np.array([0.5, 1.0, 2.0]), 1.0) == np.inf


# ------------------------------------------------------------ lambda schedule


def test_lambda_schedule_exact_points():
    assert lambda_schedule(10.0) == 0.0
    assert lambda_schedule(5.0) == 0.5
    assert lambda_schedule(0.0) == 1.0


def test_lambda_schedule_above_horizon():
    assert lambda_schedule(11.0) == 0.0
    assert lambda_schedule(1e9) == 0.0


def test_lambda_schedule_monotone_decreasing_in_sigma():
    sig = np.linspace(0.0, 10.0, 200)
    lam = np.array([lambda_schedule(x) for x in sig])
    assert np.all(np.diff(lam) < 0.0 + 1e-15)
    assert np.all((lam >= 0.0) & (lam <= 1.0))


def test_lambda_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        lambda_schedule(-0.1)


# ----------------------------------------------------------------- estimate_pf


def test_estimate_pf_prior_proposal_is_failure_fraction():
    rng = rng_from_seed(21)
    prob = problem_registry("two-mode", 2.0, 2)
    s, g = prior_samples(rng, prob, 5000)
    est, se, ess = estimate_pf(g, prior_logpdf(s) - safe_logpdf(s, prior_proposal(2)))
    n_fail = np.count_nonzero(g <= 0.0)
    assert est == n_fail / len(s)  # unit weights make this exact
    assert ess == pytest.approx(n_fail, rel=1e-12)
    assert se == pytest.approx(np.sqrt(est * (1.0 - est) / (len(s) - 1)), rel=1e-9)


def test_estimate_pf_no_failures(caplog):
    # the run that gets this 0 warns, naming itself; estimate_pf is silent
    with caplog.at_level("WARNING"):
        assert estimate_pf(np.array([1.0, 2.0, 3.0]), np.zeros(3)) == (0.0, 0.0, 0.0)
    assert not caplog.records


def test_estimate_pf_two_mode_reference():
    rng = rng_from_seed(4)
    prob = problem_registry("two-mode", 2.5, 2)
    n = 10**5
    s, g = prior_samples(rng, prob, n)
    est, _, _ = estimate_pf(g, prior_logpdf(s) - safe_logpdf(s, prior_proposal(2)))
    ref = 2.0 * norm.cdf(-2.5)
    se = np.sqrt(ref * (1.0 - ref) / n)
    assert abs(est - ref) <= 3.0 * se


def test_estimate_pf_consistency_over_seeds():
    # with the prior proposal the estimator is the failure fraction, so
    # nearly every seed must land within 4 binomial standard errors
    prob = problem_registry("two-mode", 2.5, 2)
    phi = prior_proposal(2)
    n = 10**6
    ref = 2.0 * norm.cdf(-2.5)
    se = np.sqrt(ref * (1.0 - ref) / n)
    hits = 0
    for seed in range(50):
        s, g = prior_samples(rng_from_seed(seed), prob, n)
        est, _, _ = estimate_pf(g, prior_logpdf(s) - safe_logpdf(s, phi))
        assert est == np.count_nonzero(g <= 0.0) / n
        if abs(est - ref) <= 4.0 * se:
            hits += 1
    assert hits >= 48


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("k", [1, 3, 20])
@pytest.mark.parametrize("d", [2, 20])
def test_estimate_pf_matches_the_subset_path(d, k, lam):
    # the full batch's ln p - ln q read at the failures gives the estimate
    # of p and q evaluated on the failure samples alone, bit for bit
    rng = rng_from_seed(100 * d + k)
    phi = SafeMixtureParams(init_light_params(rng, d, k), lam)
    s = safe_sample(rng, phi, 2000)
    g = problem_registry("two-mode", 1.5, d).evaluate(s.cartesian())
    expect = subset_estimate_pf(s, g, phi)
    assert expect > 0.0
    assert estimate_pf(g, prior_logpdf(s) - safe_logpdf(s, phi))[0] == expect


# ------------------------------------------------------------ initialization


def test_init_light_params_single_component_is_prior():
    v = init_light_params(rng_from_seed(0), 4, 1)
    assert v.k == 1
    assert v.pi[0] == 1.0
    assert v.m[0] == 2.0
    assert v.omega[0] == 4.0
    assert v.kappa[0] == 0.0


def test_init_light_params_many_components():
    d, k = 3, 7
    v = init_light_params(rng_from_seed(1), d, k)
    assert v.k == k and v.dim == d
    assert np.all(v.pi == 1.0 / k)
    assert np.all(v.m == d / 2.0)
    assert np.all(v.omega == float(d))
    assert np.all(v.kappa == 2.0)
    assert np.allclose(np.linalg.norm(v.mu, axis=1), 1.0, atol=1e-12)


def test_init_light_params_directions_vary():
    v = init_light_params(rng_from_seed(2), 5, 10)
    gram = v.mu @ v.mu.T
    assert np.any(np.abs(gram - 1.0) > 0.1)  # not all identical


# ------------------------------------------------------------------ RunConfig


def test_run_config_defaults():
    assert [f.name for f in fields(RunConfig)] == ["n_per_iter", "k_init", "seed", "method"]
    c = RunConfig()
    assert c.n_per_iter == 1000 and c.k_init == 20
    assert c.seed == 0 and c.method == "safe-ice"
    # the settings no caller varies are constants
    assert (core.SIGMA0, core.DELTA_STAR, core.DELTA_TARGET, core.MAX_OUTER) == (10.0, 1.5, 4.0, 20)
    assert (em.EM_TOL, em.MAX_EM) == (1e-4, 20)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_per_iter": 5},
        {"k_init": 0},
        {"method": "mc"},
    ],
)
def test_run_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


@pytest.mark.parametrize(
    "name, value",
    [("seed", -1)],
)
def test_run_config_rejects_nan_and_negative_seed_by_name(name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        RunConfig(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("k_init", 2.5), ("n_per_iter", 100.5), ("seed", 1.5)],
)
def test_run_config_rejects_non_integral_counts(name, value):
    # a fractional seed would draw the stream of its integer part
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        RunConfig(**{name: value})


# ------------------------------------------------------------------ run loops


def test_run_safe_ice_smoke_and_traces():
    prob = problem_registry("two-mode", 3.5, 2)
    cfg = RunConfig(seed=0)
    res = run_safe_ice(prob, cfg)
    assert res.converged
    assert res.iterations == len(res.sigma_trace) - 1
    assert len(res.lambda_trace) == len(res.sigma_trace) == len(res.k_trace)
    assert res.lsf_evals == 1000 * (res.iterations + 1)
    assert res.sigma_trace[0] == core.SIGMA0
    assert res.lambda_trace[0] == 0.0  # the schedule fades the heavy kernel out from the start level
    assert res.lambda_trace == [lambda_schedule(sigma) for sigma in res.sigma_trace]
    assert np.all(np.diff(res.sigma_trace) < 0.0)
    assert np.all(np.diff(res.lambda_trace) >= 0.0)
    assert 1 <= res.final_k <= 20
    assert res.k_trace[0] == 20
    assert res.n_failures > 0
    ref = 2.0 * norm.cdf(-3.5)
    assert res.pf == pytest.approx(ref, rel=0.5)


def test_run_pins_the_seeded_two_mode_estimate():
    # `safeice estimate --problem two-mode --z 3.5 --d 2 --seed 0`; the
    # tolerance admits libm rounding, not a change of the algorithm
    res = run(problem_registry("two-mode", 3.5, 2), RunConfig(seed=0))
    assert res.pf == pytest.approx(4.6329712348145287e-4, rel=1e-9, abs=0.0)


@pytest.mark.parametrize(
    "name, z, d, n, expected",
    [
        ("four-branch", 0.0, 2, 1000, ("0x1.971f9020d4bcap-9", 2, 8, 3000)),
        ("two-mode", 5.5, 20, 10_000, ("0x1.432209692868dp-25", 3, 2, 40000)),
        ("oscillator", 0.05, 10, 1000, ("0x1.255ffed44050ap-9", 2, 2, 3000)),
    ],
    ids=["four-branch", "two-mode-rare", "oscillator"],
)
def test_run_pins_the_perfbench_seed_1000_outputs(name, z, d, n, expected):
    # the first panel run of each perfbench workload, whose digest hashes
    # these four fields; a change that claims bit-identity must keep them
    res = run_safe_ice(problem_registry(name, z, d), RunConfig(seed=1000, n_per_iter=n))
    assert (res.pf.hex(), res.iterations, res.final_k, res.lsf_evals) == expected


def test_run_reports_the_final_batch_se_and_ess(monkeypatch):
    batch = {}

    def spy(g, log_ratio):
        batch.update(g=g, log_ratio=log_ratio)
        return estimate_pf(g, log_ratio)

    monkeypatch.setattr(core, "estimate_pf", spy)
    res = run(problem_registry("two-mode", 3.5, 2), RunConfig(seed=0))
    y = np.where(batch["g"] <= 0.0, np.exp(batch["log_ratio"]), 0.0)
    assert res.pf == pytest.approx(y.mean(), rel=1e-12)
    assert res.se == pytest.approx(y.std(ddof=1) / np.sqrt(y.size), rel=1e-12)
    w = y[batch["g"] <= 0.0]
    assert res.ess == pytest.approx(w.sum() ** 2 / np.sum(w**2), rel=1e-12)


@pytest.mark.parametrize(
    "name, z, seed, warned",
    [
        (
            "three-mode",
            3.5,
            0,
            [
                "t 2 sigma 0.662788: smoothing level stagnated, weight cv 6.77 against the target 4",
                "Kish ESS 1.86 < 10",
            ],
        ),
        ("four-branch", 0.0, 253, ["Kish ESS 9.91 < 10"]),
        ("two-mode", 3.5, 0, []),
    ],
)
def test_run_warns_when_the_final_ess_is_below_10(caplog, name, z, seed, warned):
    with caplog.at_level("WARNING"):
        res = run(problem_registry(name, z, 2), RunConfig(seed=seed))
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == len(warned)
    for message, part in zip(messages, warned):
        assert message.startswith(f"run: problem '{name}' seed {seed} t {res.iterations} sigma ")
        assert part in message
    assert (res.ess < 10.0) == bool(warned)


def test_run_safe_ice_deterministic():
    prob = problem_registry("two-mode", 3.5, 2)
    r1 = run_safe_ice(prob, RunConfig(seed=7))
    r2 = run_safe_ice(prob, RunConfig(seed=7))
    assert r1.pf == r2.pf
    assert r1.sigma_trace == r2.sigma_trace
    assert r1.lambda_trace == r2.lambda_trace
    assert r1.k_trace == r2.k_trace
    assert (r1.iterations, r1.final_k, r1.n_failures) == (r2.iterations, r2.final_k, r2.n_failures)


def test_run_ice_deterministic_and_fixed_k():
    prob = problem_registry("four-branch", 0.0, 2)
    cfg = RunConfig(seed=3, method="ice", k_init=2)
    r1 = run(prob, cfg)
    r2 = run(prob, cfg)
    assert r1.pf == r2.pf
    assert r1.k_trace == r2.k_trace
    assert all(k == 2 for k in r1.k_trace)  # plain EM never prunes
    assert all(lam == 1.0 for lam in r1.lambda_trace)


def test_run_ice_single_component_unimodal():
    # one design point, one component: nothing to prune, clean convergence
    prob = Problem("halfspace", 2, lambda u: 2.5 - u[:, 0])
    res = run(prob, RunConfig(seed=1, k_init=1, method="ice"))
    assert res.converged
    assert res.final_k == 1
    ref = norm.cdf(-2.5)
    assert res.pf == pytest.approx(ref, rel=0.25)


def test_run_ice_survives_a_floored_component():
    # on this seed plain EM once kept a component of tiny positive weight
    # whose direction could not be normalized, and the run raised
    res = run(problem_registry("four-branch", 0.0, 2), RunConfig(seed=1023, method="ice"))
    assert res.converged
    assert res.final_k == 20
    assert res.pf > 0.0


def test_run_ice_drops_components_of_zero_em_weight(caplog):
    # plain EM on this seed drives six components to an EM weight of
    # exactly 0; they are pruned instead of kept as dead columns
    with caplog.at_level("WARNING"):
        res = run(problem_registry("four-branch", 0.0, 2), RunConfig(seed=1020, method="ice"))
    assert res.final_k < 20
    assert not [r for r in caplog.records if r.name == "safeice.em"]


def test_run_hits_outer_limit(monkeypatch, caplog):
    prob = problem_registry("two-mode", 5.5, 2)
    monkeypatch.setattr(core, "MAX_OUTER", 1)
    with caplog.at_level("WARNING"):
        res = run_safe_ice(prob, RunConfig(seed=0))
    assert not res.converged
    assert res.iterations == 1
    assert res.lsf_evals == 2000
    assert any(
        r.getMessage() == "run: problem 'two-mode' seed 0 t 1 sigma "
        f"{res.sigma_trace[1]:g}: outer iteration limit reached without convergence"
        for r in caplog.records
    )


@pytest.mark.parametrize(
    "evaluate, match",
    [
        (lambda u: (2.5 - u[:, 0])[:, None], r"'bad'.*shape \(1000, 1\), expected \(1000,\)"),
        # NaN on one half-plane only, as a user LSF might return off its domain
        (lambda u: np.where(u[:, 1] > 0.0, np.nan, 2.5 - u[:, 0]), r"'bad'.*returned \d+ NaN"),
    ],
    ids=["column", "nan"],
)
def test_run_rejects_bad_lsf_output(evaluate, match):
    with pytest.raises(ValueError, match=match):
        run(Problem("bad", 2, evaluate), RunConfig(seed=3))


def test_run_takes_one_log_ratio_per_batch(monkeypatch):
    # ln p - ln q is taken once per batch and shared by the sigma root,
    # the EM weights and the final estimate
    calls = {"prior_logpdf": 0, "safe_logpdf": 0}
    for name in calls:
        fn = getattr(core, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(core, name, counted)
    for method in ("safe-ice", "ice"):
        calls.update(prior_logpdf=0, safe_logpdf=0)
        result = run(problem_registry("four-branch", 0.0, 2), RunConfig(seed=3, method=method))
        assert result.iterations >= 2
        assert calls == {"prior_logpdf": result.iterations + 1, "safe_logpdf": result.iterations + 1}


@pytest.mark.parametrize(
    "problem",
    [problem_registry("two-mode", np.inf, 2), Problem("never-fails", 3, lambda u: np.full(len(u), np.inf))],
    ids=["z-inf", "lsf-inf"],
)
def test_run_stops_when_no_smoothed_weight_is_positive(problem, caplog):
    # with every g = +inf each smoothed weight Phi(-g/sigma) p/q is 0, so
    # there is nothing for EM to fit; the run stops and reports pf 0
    with caplog.at_level("WARNING"):
        result = run(problem, RunConfig(seed=0))
    assert result.pf == 0.0 and not result.converged and result.n_failures == 0
    assert result.iterations == 0
    where = f"run: problem '{problem.name}' seed 0 t 0 sigma 10: "
    assert [r.getMessage() for r in caplog.records] == [
        where + "no smoothed weight is positive at the next sigma 1e-07; stopping",
        where + "no failure samples; pf is 0",
    ]


def test_run_rejects_dimension_one():
    # the Problem is refused where it is built, so no run starts
    def line(u):
        raise AssertionError("the LSF must not be called")

    for method in ("safe-ice", "ice"):
        with pytest.raises(ValueError, match="line requires d >= 2"):
            run(Problem("line", 1, line), RunConfig(method=method))
    with pytest.raises(ValueError, match="line requires d >= 2"):
        run_safe_ice(Problem("line", 1, line), RunConfig())


def test_run_dispatches_on_method():
    prob = problem_registry("four-branch", 0.0, 2)
    ice_cfg = RunConfig(seed=3, method="ice", k_init=4, n_per_iter=200)
    safe_cfg = replace(ice_cfg, method="safe-ice")
    assert run(prob, safe_cfg) == run_safe_ice(prob, safe_cfg)
    # run_safe_ice pins the method whatever the config says
    assert run_safe_ice(prob, ice_cfg) == run(prob, safe_cfg)
    assert run(prob, safe_cfg) != run(prob, ice_cfg)


def test_safe_beats_plain_on_rare_two_mode():
    # matched seeds, z = 4.5: the heavy-tail guard suppresses the
    # mode-missing outliers that inflate the baseline's per-seed error
    prob = problem_registry("two-mode", 4.5, 2)
    ref = 2.0 * norm.cdf(-4.5)
    err_safe, err_ice = [], []
    for seed in range(12):
        rs = run_safe_ice(prob, RunConfig(seed=seed))
        ri = run(prob, RunConfig(seed=seed, method="ice", k_init=2))
        err_safe.append(abs(rs.pf - ref) / ref)
        err_ice.append(abs(ri.pf - ref) / ref)
    assert np.mean(err_ice) > np.mean(err_safe)
