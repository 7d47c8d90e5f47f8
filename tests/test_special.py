"""Scalar special-function kernels: frozen high-precision values,
cross-checks between the two Bessel evaluation routes, and the shifted
exponential against scipy's log-sum-exp."""

import warnings

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp, ndtr

from safeice.special import (
    _log_bessel_i_series,
    log_bessel_i_scaled,
    log_normal_cdf,
    log_sum_exp,
    shifted_exp,
)

from oracles import bessel_ratio

# Reference values below were frozen from 40-digit evaluations of the
# closed forms named next to them.


def test_normal_cdf_values():
    # through its log, the only form the package uses
    assert log_normal_cdf(0.0) == np.log(0.5)
    assert np.exp(log_normal_cdf(-3.5)) == pytest.approx(2.3262907903552504e-4, rel=1e-12)
    assert log_normal_cdf(40.0) == 0.0
    x = np.linspace(-3, 3, 7)
    assert np.allclose(np.exp(log_normal_cdf(x)) + np.exp(log_normal_cdf(-x)), 1.0, atol=1e-15)


def test_log_normal_cdf_matches_log_of_cdf():
    x = np.linspace(-8, 3, 12)
    assert np.allclose(log_normal_cdf(x), np.log(ndtr(x)), rtol=1e-12)


def test_log_normal_cdf_far_tail_finite():
    val = log_normal_cdf(-40.0)
    assert np.isfinite(val)
    # leading asymptotic term -x^2/2 dominates
    assert val == pytest.approx(-800.0, rel=0.01)


def test_log_bessel_i_scaled_closed_forms():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, here at x = 2
    assert log_bessel_i_scaled(0.5, np.array([2.0])) == pytest.approx(-1.2839975703105320, abs=1e-13)
    assert log_bessel_i_scaled(1.0, np.array([2.0])) == pytest.approx(-1.5358655264538403, abs=1e-13)


def test_log_bessel_i_scaled_underflow_fallback():
    # scipy's scaled Bessel underflows near order 200 at x = 1; the series
    # route must take over and agree with a direct high-order evaluation
    val = log_bessel_i_scaled(200.0, np.array([1.0]))
    assert np.isfinite(val)
    # ln I_200(1) - 1, frozen from a 40-digit evaluation
    assert val == pytest.approx(-1002.8601795271292, rel=1e-13)


def test_log_bessel_i_scaled_at_the_least_subnormal():
    # ive underflows there and the series route takes over; x / 2 would
    # round to 0, so its log must come from ln x - ln 2
    x = np.array([5e-324])
    for order in (0.5, 9.0):
        leading = order * (np.log(x) - np.log(2.0)) - gammaln(order + 1.0)
        assert log_bessel_i_scaled(order, x) == pytest.approx(leading, rel=1e-15)


@pytest.mark.parametrize("order", [1.5, 9.0])
def test_log_bessel_i_scaled_whole_array_path_matches_the_masked_path(order):
    # where ive underflows nowhere the log runs on the whole array; one more
    # x at which it underflows sends the same values through the mask
    x = np.geomspace(1e-3, 1e4, 15)
    masked = log_bessel_i_scaled(order, np.append(x, 1e-300))
    assert np.array_equal(log_bessel_i_scaled(order, x), masked[:-1])


def test_series_route_agrees_with_scaled_route():
    # where both routes are valid they must coincide
    for order, x in [(5.0, 0.5), (10.0, 2.0), (50.0, 10.0)]:
        a = log_bessel_i_scaled(order, np.array([x]))
        b = _log_bessel_i_series(order, np.asarray(x))
        assert a == pytest.approx(float(b), rel=1e-12)


def test_bessel_ratio_zero_and_closed_form():
    assert bessel_ratio(3, 0.0) == 0.0
    # d = 3: A_3(kappa) = coth(kappa) - 1/kappa
    assert bessel_ratio(3, 2.0) == pytest.approx(0.5373147207275481, abs=1e-14)


def test_bessel_ratio_saturates():
    assert bessel_ratio(3, 1e4) >= 0.999


def test_bessel_ratio_matches_bessel_quotient():
    # independent route through the scaled Bessel values themselves
    for d in (2, 3, 5, 10):
        for kappa in (0.5, 2.0, 10.0, 100.0):
            kp = np.array([kappa])
            direct = np.exp(log_bessel_i_scaled(d / 2.0, kp) - log_bessel_i_scaled(d / 2.0 - 1.0, kp))
            assert bessel_ratio(d, kappa) == pytest.approx(direct, rel=1e-12)


def test_bessel_ratio_monotone_in_kappa_and_bounded():
    kappas = np.logspace(-3, 5, 60)
    for d in (2, 4, 9):
        vals = [bessel_ratio(d, k) for k in kappas]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bessel_ratio_large_kappa_asymptote():
    # A_d(kappa) = 1 - (d-1)/(2 kappa) + O(kappa^-2)
    for d in (2, 3, 10):
        kappa = 1e4
        assert bessel_ratio(d, kappa) == pytest.approx(1.0 - (d - 1) / (2.0 * kappa), abs=1e-7)


def test_bessel_ratio_domain():
    with pytest.raises(ValueError):
        bessel_ratio(1, 1.0)
    with pytest.raises(ValueError):
        bessel_ratio(3, -0.5)


# ------------------------------------------------------ shifted exponential


def test_log_sum_exp_matches_scipy():
    special_rows = [
        [-np.inf, 2.0, -np.inf, -1.0],
        [-np.inf, -np.inf, -np.inf, -np.inf],
        [700.0, 699.5, -700.0, 0.0],
        [-700.0, -701.5, -745.0, -np.inf],
        [709.0, 709.0, 709.0, 709.0],
    ]
    x = np.vstack([np.random.default_rng(5).normal(0.0, 30.0, (40, 4)), special_rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_sum_exp(x, axis=1)
        e, shift = shifted_exp(x, axis=1)
    want = logsumexp(x, axis=1)
    assert got[41] == want[41] == -np.inf
    finite = np.isfinite(want)
    assert finite.sum() == len(x) - 1
    assert np.allclose(got[finite], want[finite], rtol=1e-13, atol=0.0)
    # a row's largest entry maps to 1; an all -inf row to zeros with shift 0
    assert np.all(e[finite].max(axis=1) == 1.0)
    assert np.all(e[41] == 0.0) and shift[41] == 0.0
    assert np.array_equal(log_sum_exp(x.T, axis=0), got)


def test_shifted_exp_is_exp_of_the_max_difference_exactly():
    # estimate_pf, the weight cv and the EM weights take their bits from
    # this being exp(x - x.max()) exactly
    x = np.random.default_rng(6).normal(-400.0, 50.0, 1000)
    e, shift = shifted_exp(x)
    assert shift == x.max()
    assert np.array_equal(e, np.exp(x - x.max()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shifted_exp_of_an_inf_max_overflows_silently():
    # the shift of a slice whose max is +inf or NaN is reset to 0, and
    # exp(800) then overflows to +inf without a warning
    e, shift = shifted_exp(np.array([np.inf, 800.0, 1.0]))
    assert shift == 0.0
    assert np.array_equal(e, [np.inf, np.inf, np.exp(1.0)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shifted_exp_leaves_slices_with_a_finite_max_bit_equal():
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 300.0, (6, 50))
    x[1, 3], x[4, 0], x[5] = np.inf, np.nan, -np.inf
    e, shift = shifted_exp(x, axis=1)
    finite = [0, 2, 3]
    want = np.exp(x[finite] - x[finite].max(axis=1, keepdims=True))
    assert np.array_equal(e[finite], want)
    assert np.array_equal(shift, np.where(np.isin(np.arange(6), finite), x.max(axis=1), 0.0))
    assert e[1, 3] == np.inf and np.isnan(e[4, 0]) and np.all(e[5] == 0.0)
    # the same along axis 0, written into x itself
    xt = x.T.copy()
    e0, shift0 = shifted_exp(xt, axis=0, out=xt)
    assert e0 is xt and np.array_equal(e0, e.T, equal_nan=True) and np.array_equal(shift0, shift)
