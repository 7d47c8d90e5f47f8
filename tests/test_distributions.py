"""Radial and angular laws: closed-form spot values, normalization by
quadrature, identity between reciprocal pairs, and sampler agreement with
the analytic CDFs. The radial log densities are the references in
``oracles``, built on the kernels' ``_radial_coefficients``."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammainc, gammaincc

from safeice.mixtures import (
    PolarSamples,
    inv_nakagami_sample,
    nakagami_sample,
    prior_logpdf,
    uniform_sphere_logpdf,
    vmf_log_normalizer,
    vmf_sample,
)

from oracles import bessel_ratio, inv_nakagami_logpdf, nakagami_logpdf, vmf_logpdf


def nakagami_cdf(r, m, omega):
    return gammainc(m, m * r * r / omega)


def inv_nakagami_cdf(r, m, omega):
    return gammaincc(m, m / (omega * r * r))


# ---------------------------------------------------------------- radial laws


def test_nakagami_logpdf_rayleigh_case():
    # m = 1 is Rayleigh: pdf(1) = 2 e^{-1}
    assert nakagami_logpdf(1.0, 1.0, 1.0) == pytest.approx(-0.3068528194400547, abs=1e-15)


def test_nakagami_logpdf_chi2_case():
    # m = d/2 = 1, omega = d = 2 is chi with 2 dof: pdf(r) = r exp(-r^2/2)
    assert nakagami_logpdf(1.0, 1.0, 2.0) == pytest.approx(-0.5, abs=1e-15)
    r = np.array([0.3, 1.7, 2.4])
    assert np.allclose(nakagami_logpdf(r, 1.0, 2.0), np.log(r) - r * r / 2.0, atol=1e-14)


def test_nakagami_logpdf_broadcasts():
    r = np.array([0.5, 1.0, 2.0])
    out = nakagami_logpdf(r[:, None], np.array([0.5, 1.5])[None, :], 1.0)
    assert out.shape == (3, 2)


def test_nakagami_logpdf_domain():
    # the shapes m and omega are checked by VmfnmParams.check
    with pytest.raises(ValueError, match="radius"):
        nakagami_logpdf(0.0, 1.0, 1.0)


@pytest.mark.parametrize("m,omega", [(0.5, 1.0), (1.0, 2.0), (3.5, 0.7)])
def test_nakagami_normalizes(m, omega):
    total, err = integrate.quad(lambda r: np.exp(nakagami_logpdf(r, m, omega)), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("m,omega", [(1.0, 1.0), (2.0, 3.0)])
def test_nakagami_sample_second_moment(m, omega):
    rng = np.random.default_rng(7)
    r = nakagami_sample(rng, np.full(1_000_000, m), omega)
    # E[r^2] = omega
    assert np.mean(r * r) == pytest.approx(omega, abs=0.01 * omega)


def test_nakagami_sample_deterministic():
    a = nakagami_sample(np.random.default_rng(3), np.full(10, 1.5), 2.0)
    b = nakagami_sample(np.random.default_rng(3), np.full(10, 1.5), 2.0)
    assert np.array_equal(a, b)


def test_nakagami_sample_ks():
    rng = np.random.default_rng(11)
    r = nakagami_sample(rng, np.full(100_000, 2.5), 1.3)
    stat = stats.kstest(r, lambda x: nakagami_cdf(x, 2.5, 1.3)).statistic
    assert stat < 0.005


def test_inv_nakagami_logpdf_value():
    # at r = 1 the inverse law coincides with the direct law
    assert inv_nakagami_logpdf(1.0, 1.0, 1.0) == pytest.approx(-0.3068528194400547, abs=1e-15)


def test_inv_nakagami_reciprocal_identity():
    # change of variables r -> 1/r: pdf_inv(r) = pdf(1/r) / r^2
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = 0.5 + 3.0 * rng.random()
        omega = 0.1 + 4.0 * rng.random()
        r = np.exp(rng.uniform(-2, 2, size=50))
        lhs = inv_nakagami_logpdf(r, m, omega)
        rhs = nakagami_logpdf(1.0 / r, m, omega) - 2.0 * np.log(r)
        assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    log_r=st.floats(-5.0, 5.0),
    m=st.floats(0.5, 50.0),
    omega=st.floats(0.05, 50.0),
)
def test_property_inv_nakagami_is_nakagami_of_the_reciprocal(log_r, m, omega):
    # both laws are one formula at side +1 and -1
    r = math.exp(log_r)
    lhs = inv_nakagami_logpdf(r, m, omega)
    rhs = nakagami_logpdf(1.0 / r, m, omega) - 2.0 * math.log(r)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_inv_nakagami_tail_order():
    # log-log slope of the density tends to -(2m+1): polynomial tail
    m = 2.0
    r1, r2 = 1e6, 1e8
    slope = (inv_nakagami_logpdf(r2, m, 1.0) - inv_nakagami_logpdf(r1, m, 1.0)) / (
        np.log(r2) - np.log(r1)
    )
    assert slope == pytest.approx(-(2.0 * m + 1.0), rel=1e-10)


@pytest.mark.parametrize("m,omega", [(1.0, 1.0), (2.0, 0.5)])
def test_inv_nakagami_normalizes(m, omega):
    total, err = integrate.quad(
        lambda r: np.exp(inv_nakagami_logpdf(r, m, omega)), 0, np.inf, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-7)


def test_inv_nakagami_sample_ks():
    rng = np.random.default_rng(5)
    r = inv_nakagami_sample(rng, np.full(100_000, 3.0), 0.8)
    stat = stats.kstest(r, lambda x: inv_nakagami_cdf(x, 3.0, 0.8)).statistic
    assert stat < 0.005


# --------------------------------------------------------------- angular laws


def test_uniform_sphere_logpdf_values():
    # circle: 1/(2 pi); sphere: 1/(4 pi)
    assert uniform_sphere_logpdf(2) == pytest.approx(-np.log(2.0 * np.pi), abs=1e-15)
    assert uniform_sphere_logpdf(3) == pytest.approx(-2.5310242469692908, abs=1e-15)


def test_vmf_log_normalizer_zero_kappa():
    for d in (2, 3, 7):
        assert vmf_log_normalizer(d, np.array([0.0])) == uniform_sphere_logpdf(d)
    out = vmf_log_normalizer(3, np.array([0.0, 2.0]))
    assert out[0] == uniform_sphere_logpdf(3)


@pytest.mark.parametrize("d", [2, 3, 20])
def test_vmf_log_normalizer_of_positive_kappas_matches_the_masked_path(d):
    # every kappa > 0 takes the whole-array path; one kappa = 0 more sends the
    # same values through the mask, and each entry must agree bit for bit.
    # At d = 20, kappa = 1e-300 also takes the Bessel series route.
    kappa = np.concatenate((np.random.default_rng(d).uniform(0.01, 50.0, 12), [1e-300, 1e-8, 1e4]))
    masked = vmf_log_normalizer(d, np.append(kappa, 0.0))
    assert np.array_equal(vmf_log_normalizer(d, kappa), masked[:-1])


def test_vmf_log_normalizer_d3_closed_form():
    # C_3(kappa) = kappa / (4 pi sinh kappa)
    for kappa in (0.5, 2.0, 10.0):
        expected = np.log(kappa / (4.0 * np.pi * np.sinh(kappa)))
        assert vmf_log_normalizer(3, np.array([kappa])) == pytest.approx(expected, rel=1e-12)


def test_vmf_logpdf_frozen_value():
    mu = np.array([0.0, 0.0, 1.0])
    assert vmf_logpdf(mu, mu, 2.0) == pytest.approx(-1.1262444390235136, abs=1e-12)


def test_vmf_logpdf_kappa_zero_matches_uniform():
    mu = np.array([1.0, 0.0, 0.0])
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    out = vmf_logpdf(a, mu, 0.0)
    assert np.allclose(out, uniform_sphere_logpdf(3))


def test_vmf_logpdf_rejects_non_unit_inputs():
    mu = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        vmf_logpdf(np.array([2.0, 0.0]), mu, 1.0)
    with pytest.raises(ValueError):
        vmf_logpdf(mu, np.array([0.5, 0.0]), 1.0)
    with pytest.raises(ValueError):
        vmf_logpdf(mu, mu, -1.0)


@pytest.mark.parametrize("kappa", [0.0, 0.7, 3.0])
def test_vmf_normalizes_on_circle(kappa):
    mu = np.array([1.0, 0.0])

    def dens(theta):
        a = np.array([np.cos(theta), np.sin(theta)])
        return np.exp(vmf_logpdf(a, mu, kappa))

    total, err = integrate.quad(dens, 0.0, 2.0 * np.pi)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kappa", [0.5, 2.0])
def test_vmf_normalizes_on_sphere(kappa):
    mu = np.array([0.0, 0.0, 1.0])

    def dens(theta):
        a = np.array([np.sin(theta), 0.0, np.cos(theta)])
        return np.exp(vmf_logpdf(a, mu, kappa)) * 2.0 * np.pi * np.sin(theta)

    total, err = integrate.quad(dens, 0.0, np.pi)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_vmf_sample_unit_norm_and_determinism():
    mu = np.array([0.0, 1.0, 0.0, 0.0])
    a = vmf_sample(np.random.default_rng(2), mu, 5.0, 500)
    assert a.shape == (500, 4)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    b = vmf_sample(np.random.default_rng(2), mu, 5.0, 500)
    assert np.array_equal(a, b)


def test_vmf_sample_uniform_case():
    a = vmf_sample(np.random.default_rng(9), np.array([1.0, 0.0, 0.0, 0.0, 0.0]), 0.0, 200_000)
    assert np.linalg.norm(a.mean(axis=0)) <= 0.006


@pytest.mark.parametrize("d,kappa", [(3, 2.0), (5, 1.0), (10, 5.0)])
def test_vmf_sample_resultant_matches_bessel_ratio(d, kappa):
    mu = np.zeros(d)
    mu[0] = 1.0
    a = vmf_sample(np.random.default_rng(17), mu, kappa, 200_000)
    t = a @ mu
    se = t.std(ddof=1) / np.sqrt(t.size)
    assert abs(t.mean() - bessel_ratio(d, kappa)) <= 3.0 * se
    # components orthogonal to mu average to zero
    ortho = a[:, 1:].mean(axis=0)
    assert np.all(np.abs(ortho) <= 4.0 / np.sqrt(t.size))


def test_vmf_sample_concentrates():
    mu = np.array([0.0, 0.0, 1.0])
    a = vmf_sample(np.random.default_rng(4), mu, 1e4, 1000)
    assert np.min(a @ mu) > 0.98


# --------------------------------------------------------------- prior radial


def test_prior_radial_is_chi():
    # chi_d pdf 2^{1-d/2}/Gamma(d/2) r^{d-1} exp(-r^2/2) times the uniform
    # sphere density Gamma(d/2) / (2 pi^{d/2}); past r ~ 1e154 r^2 is inf
    # and the log density its limit -inf, with no warning on the way
    from scipy.special import gammaln

    r = np.linspace(0.1, 5.0, 40)
    far = np.array([2e154, 1e300])
    for d in (2, 3, 10):
        expected = (
            (1.0 - d / 2.0) * np.log(2.0)
            - gammaln(d / 2.0)
            + (d - 1.0) * np.log(r)
            - r * r / 2.0
            + gammaln(d / 2.0)
            - np.log(2.0)
            - (d / 2.0) * np.log(np.pi)
        )
        radii = np.concatenate((r, far))
        samples = PolarSamples(radii, np.tile(np.eye(d)[0], (radii.size, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = prior_logpdf(samples)
        assert np.allclose(got[: r.size], expected, atol=1e-12)
        assert np.all(got[r.size :] == -np.inf)


def test_prior_radial_matches_gaussian_radii():
    rng = np.random.default_rng(21)
    for d in (2, 5, 10):
        u = rng.standard_normal((100_000, d))
        radii = np.linalg.norm(u, axis=1)
        stat = stats.kstest(radii, lambda x: gammainc(d / 2.0, x * x / 2.0)).statistic
        assert stat < 0.006
