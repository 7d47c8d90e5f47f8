"""Mixture densities and sampling: scalar oracles computed with plain
arithmetic, mixture-algebra invariances, the light-to-heavy parameter
derivation, and the importance-weight identity against an analytic
probability."""

import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammainc, gammaln, iv

from safeice.em import batch_statistics, e_step
from safeice.mixtures import (
    UNIT_NORM_TOL,
    PolarSamples,
    SafeMixtureParams,
    VmfnmParams,
    heavy_params_from_light,
    prior_logpdf,
    safe_logpdf,
    safe_sample,
)

from oracles import safe_logpdf_per_component


def nak_pdf(r, m, omega):
    return (
        2.0
        * m**m
        / (math.gamma(m) * omega**m)
        * r ** (2.0 * m - 1.0)
        * math.exp(-m * r * r / omega)
    )


def inv_nak_pdf(r, m, omega):
    return (
        2.0
        * m**m
        / (math.gamma(m) * omega**m)
        * r ** (-(2.0 * m + 1.0))
        * math.exp(-m / (omega * r * r))
    )


def vmf_pdf_2d(a, mu, kappa):
    return math.exp(kappa * float(np.dot(a, mu))) / (2.0 * math.pi * iv(0, kappa))


def one_component(m=1.0, omega=1.0, kappa=0.0, d=2):
    mu = np.zeros((1, d))
    mu[0, 0] = 1.0
    return VmfnmParams(
        pi=np.array([1.0]),
        m=np.array([m]),
        omega=np.array([omega]),
        mu=mu,
        kappa=np.array([kappa]),
    )


def two_component_2d():
    return VmfnmParams(
        pi=np.array([0.3, 0.7]),
        m=np.array([1.0, 2.0]),
        omega=np.array([1.0, 3.0]),
        mu=np.array([[1.0, 0.0], [0.0, 1.0]]),
        kappa=np.array([1.5, 4.0]),
    )


# -------------------------------------------------------------- PolarSamples


def test_polar_samples_basicproperties():
    r = np.array([1.0, 2.0])
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = PolarSamples(r, a)
    assert len(s) == 2
    assert s.dim == 2
    assert np.allclose(s.cartesian(), np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert s.n_light == 2


def test_polar_samples_shape_validation():
    with pytest.raises(ValueError):
        PolarSamples(np.ones((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        PolarSamples(np.ones(3), np.eye(2))


def test_take_keeps_its_rows_radial_statistics_and_light_count():
    # the light side is kept before take and carried over; the heavy side
    # is made by the new batch, with the bits of a batch built from scratch
    rng = np.random.default_rng(35)
    r = np.exp(rng.standard_normal(7))
    a = rng.standard_normal((7, 3))
    s = PolarSamples(r, a, n_light=4)
    light = s.radial_statistics(1)
    rows = np.array([1, 3, 4, 6])
    sub = s.take(rows)
    assert sub.n_light == 2
    assert np.array_equal(sub.r, r[rows]) and np.array_equal(sub.a, a[rows])
    assert np.array_equal(sub.radial_statistics(1), light[rows])
    fresh = PolarSamples(r[rows], a[rows])
    for side in (1, -1):
        assert sub.radial_statistics(side).tobytes() == fresh.radial_statistics(side).tobytes()


# --------------------------------------------------------------- VmfnmParams


def test_vmfnm_params_validation():
    good = two_component_2d()
    assert good.k == 2
    assert good.dim == 2
    good.check()
    fields = {"pi": good.pi, "m": good.m, "omega": good.omega, "mu": good.mu, "kappa": good.kappa}
    invalid = {
        "pi": np.array([0.5, 0.4]),
        "m": np.array([0.2, 1.0]),
        "omega": np.array([0.0, 1.0]),
        "mu": 2.0 * good.mu,
        "kappa": -good.kappa,
    }
    for name, value in invalid.items():
        # a plain record: construction takes anything, the check names the field
        v = VmfnmParams(**{**fields, name: value})
        with pytest.raises(ValueError, match=f"^{name} must"):
            v.check()
    # NaN passes every comparison check, so finiteness is checked apart
    for name, value in fields.items():
        for bad in (np.nan, np.inf):
            broken = value.copy()
            broken.flat[0] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                VmfnmParams(**{**fields, name: broken}).check()
    for name, value in (("kappa", good.kappa[:1]), ("mu", good.mu[:, :1]), ("mu", good.mu[0])):
        with pytest.raises(ValueError, match=f"^{name} must have shape"):
            VmfnmParams(**{**fields, name: value}).check()


# -------------------------------------------------------------- light mixture


def test_vmfnm_logpdf_single_component_scalar_oracle():
    v = one_component(m=1.0, omega=1.0, kappa=1.5)
    s = PolarSamples(np.array([1.0]), np.array([[1.0, 0.0]]))
    expected = math.log(nak_pdf(1.0, 1.0, 1.0) * vmf_pdf_2d([1.0, 0.0], [1.0, 0.0], 1.5))
    assert safe_logpdf(s, SafeMixtureParams(v, 1.0))[0] == pytest.approx(expected, abs=1e-12)


def test_vmfnm_logpdf_two_component_scalar_oracle():
    v = two_component_2d()
    a = np.array([1.0, 0.0])
    s = PolarSamples(np.array([1.0]), a[None, :])
    mix = 0.3 * nak_pdf(1.0, 1.0, 1.0) * vmf_pdf_2d(a, [1.0, 0.0], 1.5)
    mix += 0.7 * nak_pdf(1.0, 2.0, 3.0) * vmf_pdf_2d(a, [0.0, 1.0], 4.0)
    assert safe_logpdf(s, SafeMixtureParams(v, 1.0))[0] == pytest.approx(math.log(mix), abs=1e-12)


def test_vmfnm_logpdf_duplication_invariance():
    v = one_component(m=2.0, omega=1.5, kappa=3.0)
    doubled = VmfnmParams(
        pi=np.array([0.5, 0.5]),
        m=np.repeat(v.m, 2),
        omega=np.repeat(v.omega, 2),
        mu=np.repeat(v.mu, 2, axis=0),
        kappa=np.repeat(v.kappa, 2),
    )
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    s = PolarSamples(np.exp(rng.uniform(-1, 1, 40)), a)
    light = safe_logpdf(s, SafeMixtureParams(v, 1.0))
    assert np.allclose(light, safe_logpdf(s, SafeMixtureParams(doubled, 1.0)), atol=1e-12)


# ------------------------------------------------------------- heavy kernels


def test_heavy_params_worked_example():
    # m = 1, omega = 1, d = 2: shape ceil(sqrt(2)) = 2 and
    # spread (4/5) * (Gamma(1)/Gamma(1.5))^2 = 3.2/pi
    m_h, omega_h = heavy_params_from_light(one_component(m=1.0, omega=1.0))
    assert m_h == 2
    assert omega_h[0] == pytest.approx(1.0185916357881302, abs=1e-12)


def test_heavy_shape_depends_only_on_dimension():
    v10 = VmfnmParams(
        pi=np.array([1.0]),
        m=np.array([2.0]),
        omega=np.array([5.0]),
        mu=np.eye(10)[:1],
        kappa=np.array([0.0]),
    )
    m_h, _ = heavy_params_from_light(v10)
    assert m_h == 4


def test_heavy_mode_matches_light_mean():
    # the inverse-law mode sqrt(2 m_h / ((2 m_h + 1) omega_h)) must equal
    # the Nakagami mean Gamma(m + 1/2)/Gamma(m) * sqrt(omega/m)
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(2, 12))
        m = 0.5 + 5.0 * rng.random()
        omega = 0.1 + 5.0 * rng.random()
        mu = np.zeros((1, d))
        mu[0, -1] = 1.0
        v = VmfnmParams(np.array([1.0]), np.array([m]), np.array([omega]), mu, np.array([0.0]))
        m_h, omega_h = heavy_params_from_light(v)
        mode = math.sqrt(2.0 * m_h / ((2.0 * m_h + 1.0) * omega_h[0]))
        mean = math.gamma(m + 0.5) / math.gamma(m) * math.sqrt(omega / m)
        assert mode == pytest.approx(mean, rel=1e-12)


@st.composite
def light_mixtures(draw):
    """Valid light mixtures over a range of K, d, shapes and spreads."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(2, 12))
    m = draw(hnp.arrays(float, k, elements=st.floats(0.5, 50.0)))
    omega = draw(hnp.arrays(float, k, elements=st.floats(1e-3, 1e3)))
    mu = np.tile(np.eye(d)[0], (k, 1))
    return VmfnmParams(np.full(k, 1.0 / k), m, omega, mu, np.zeros(k))


@settings(max_examples=60, deadline=None)
@given(v=light_mixtures(), lam=st.floats(0.0, 1.0))
def test_property_safe_params_heavy_mode_at_light_mean(v, lam):
    phi = SafeMixtureParams(v, lam)
    assert phi.heavy_m == math.ceil(math.sqrt(v.dim))
    mode = np.sqrt(2.0 * phi.heavy_m / ((2.0 * phi.heavy_m + 1.0) * phi.heavy_omega))
    mean = np.exp(gammaln(v.m + 0.5) - gammaln(v.m)) * np.sqrt(v.omega / v.m)
    assert np.allclose(mode, mean, rtol=1e-10, atol=0.0)


# --------------------------------------------------------------- safe mixture


def test_safe_params_validation():
    v = one_component()
    with pytest.raises(ValueError):
        SafeMixtureParams(v, 1.5)
    with pytest.raises(ValueError):
        SafeMixtureParams(v, -0.1)
    with pytest.raises(ValueError, match="^m must be at least 0.5"):
        SafeMixtureParams(one_component(m=0.2), 0.5)
    # an overflowing light m / omega is the light check's, by name
    with pytest.raises(ValueError, match="^omega must"):
        SafeMixtureParams(one_component(m=1e300, omega=1e-300), 0.5)
    # finite light shapes at the float limits derive a NaN or infinite spread
    for m, omega in ((1e307, 1.0), (0.5, 5e-309)):
        with pytest.raises(ValueError, match="heavy radial"):
            with np.errstate(invalid="ignore", over="ignore"):
                SafeMixtureParams(one_component(m=m, omega=omega), 0.5)
    # a light omega near the largest float derives a heavy spread of 1.02e-308,
    # whose coefficient m_h / omega_h overflows
    with pytest.raises(ValueError, match="heavy_m / heavy_omega must be finite"):
        SafeMixtureParams(one_component(omega=1e308), 0.5)


@st.composite
def light_mixtures_and_samples(draw):
    """(v, samples): a light mixture with d in [2, 20], K in [1, 8] and
    kappa from 0 up, and 1 to 300 points scattered around it."""
    d, k, n = draw(st.integers(2, 20)), draw(st.integers(1, 8)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pi = draw(hnp.arrays(float, k, elements=st.floats(0.05, 1.0)))
    m = draw(hnp.arrays(float, k, elements=st.floats(0.5, 50.0)))
    omega = draw(hnp.arrays(float, k, elements=st.floats(1e-2, 1e2)))
    kappa = draw(hnp.arrays(float, k, elements=st.one_of(st.just(0.0), st.floats(0.0, 1e3))))
    mu = rng.standard_normal((k, d))
    a = rng.standard_normal((n, d))
    v = VmfnmParams(pi / pi.sum(), m, omega, mu / np.linalg.norm(mu, axis=1, keepdims=True), kappa)
    r = np.exp(rng.uniform(-3.0, 3.0, n)) * np.sqrt(omega.mean())
    return v, PolarSamples(r, a / np.linalg.norm(a, axis=1, keepdims=True))


@settings(max_examples=60, deadline=None)
@given(light_mixtures_and_samples())
def test_property_light_density_is_the_e_step_normaliser(case):
    # outside EM the light density is safe_logpdf at lambda = 1, inside it
    # the E-step's row normaliser; both go through the one joint builder
    v, s = case
    assert np.array_equal(e_step(s, v)[1], safe_logpdf(s, SafeMixtureParams(v, 1.0)))


def test_safe_logpdf_heavy_limit_scalar_oracle():
    v = one_component(m=1.0, omega=1.0, kappa=2.0)
    phi = SafeMixtureParams(v, 0.0)
    a = np.array([1.0, 0.0])
    s = PolarSamples(np.array([1.3]), a[None, :])
    expected = math.log(
        inv_nak_pdf(1.3, phi.heavy_m, phi.heavy_omega[0]) * vmf_pdf_2d(a, a, 2.0)
    )
    assert safe_logpdf(s, phi)[0] == pytest.approx(expected, abs=1e-12)


def test_safe_logpdf_half_mix_scalar_oracle():
    v = one_component(m=1.0, omega=1.0, kappa=0.0)
    phi = SafeMixtureParams(v, 0.5)
    s = PolarSamples(np.array([1.0]), np.array([[0.0, 1.0]]))
    radial = 0.5 * nak_pdf(1.0, 1.0, 1.0) + 0.5 * inv_nak_pdf(1.0, 2.0, phi.heavy_omega[0])
    expected = math.log(radial / (2.0 * math.pi))
    assert safe_logpdf(s, phi)[0] == pytest.approx(expected, abs=1e-12)


def test_safe_logpdf_is_convex_combination():
    v = two_component_2d()
    lam = 0.3
    phi = SafeMixtureParams(v, lam)
    light = SafeMixtureParams(v, 1.0)
    heavy = SafeMixtureParams(v, 0.0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    s = PolarSamples(np.exp(rng.uniform(-1.5, 1.5, 50)), a)
    mixed = lam * np.exp(safe_logpdf(s, light)) + (1.0 - lam) * np.exp(safe_logpdf(s, heavy))
    assert np.allclose(np.exp(safe_logpdf(s, phi)), mixed, rtol=1e-12)


def test_safe_logpdf_continuous_at_lambda_edges():
    v = two_component_2d()
    s = PolarSamples(np.array([0.5, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    near_zero = safe_logpdf(s, SafeMixtureParams(v, 1e-13))
    at_zero = safe_logpdf(s, SafeMixtureParams(v, 0.0))
    assert np.allclose(near_zero, at_zero, atol=1e-10)
    near_one = safe_logpdf(s, SafeMixtureParams(v, 1.0 - 1e-13))
    at_one = safe_logpdf(s, SafeMixtureParams(v, 1.0))
    assert np.allclose(near_one, at_one, atol=1e-10)


def random_mixture(rng, d, k=4):
    mu = rng.standard_normal((k, d))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    return VmfnmParams(
        pi=rng.dirichlet(np.ones(k)),
        m=rng.uniform(0.6, 4.0, k),
        omega=rng.uniform(0.5, d + 3.0, k),
        mu=mu,
        kappa=rng.uniform(0.0, 20.0, k),
    )


@pytest.mark.parametrize("d", [2, 5, 20])
@pytest.mark.parametrize("lam", [0.3, 0.7])
def test_safe_logpdf_matches_the_per_component_form(lam, d):
    # 2K weighted columns and the per-component radial mixture are one density
    rng = np.random.default_rng(d)
    phi = SafeMixtureParams(random_mixture(rng, d), lam)
    s = safe_sample(rng, phi, 400)
    want = safe_logpdf_per_component(s, phi)
    np.testing.assert_allclose(safe_logpdf(s, phi), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [2, 20])
@pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
def test_a_batch_reads_its_radial_statistics_as_a_fresh_copy_would(lam, d):
    # a run reads safe_logpdf and then every E-step of the fit on one batch,
    # which keeps its radial statistics per side after the first read; each
    # call must equal the same call on a copy that has kept nothing yet. At
    # lambda = 0 the heavy side is read first, so statistics kept without
    # their side would reach the light E-step
    rng = np.random.default_rng(d)
    phi = SafeMixtureParams(random_mixture(rng, d), lam)
    s = safe_sample(rng, phi, 300)

    def fresh():
        return PolarSamples(s.r.copy(), s.a.copy(), s.n_light)

    assert np.array_equal(safe_logpdf(s, phi), safe_logpdf(fresh(), phi))
    v = random_mixture(rng, d, k=3)
    gamma, log_q = e_step(s, v)
    gamma_fresh, log_q_fresh = e_step(fresh(), v)
    assert np.array_equal(gamma, gamma_fresh)
    assert np.array_equal(log_q, log_q_fresh)
    # 0 < lambda < 1 reads the heavy side as well as the light one
    phi2 = SafeMixtureParams(v, 0.6)
    assert np.array_equal(safe_logpdf(s, phi2), safe_logpdf(fresh(), phi2))


def test_prior_mixture_and_em_statistics_read_one_kept_array_per_side():
    # a level takes ln p, ln q and the M-step's S from one batch; once each
    # side's statistics are kept, none of the three takes ln r or r^2 again:
    # with r overwritten by NaN they return the same bits, from the same arrays
    rng = np.random.default_rng(9)
    phi = SafeMixtureParams(random_mixture(rng, 3), 0.6)
    s = safe_sample(rng, phi, 200)
    w = rng.random(len(s))

    def read():
        return prior_logpdf(s), safe_logpdf(s, phi), batch_statistics(s, w)

    first = read()
    kept = dict(s._radial)
    assert sorted(kept) == [-1, 1]
    s.r = np.full(len(s), np.nan)
    for a, b in zip(first, read()):
        assert np.array_equal(a, b)
    assert s._radial.keys() == kept.keys()
    assert all(s._radial[side] is kept[side] for side in kept)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_safe_logpdf_at_extreme_radii_is_minus_inf_not_nan(lam):
    # r^2 overflows above ~1.3e154 and r^-2 below ~7.5e-155, so the light
    # columns are -inf at the two large radii and the heavy ones at the
    # small radius; the density is -inf where every column in play is
    v = two_component_2d()
    s = PolarSamples(np.array([1e-200, 1e160, 1e200]), np.tile([1.0, 0.0], (3, 1)))
    light_dead = np.array([False, True, True])
    expected = {0.0: ~light_dead, 0.5: np.zeros(3, dtype=bool), 1.0: light_dead}[lam]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = safe_logpdf(s, SafeMixtureParams(v, lam))
    assert not np.isnan(out).any()
    assert np.array_equal(np.isneginf(out), expected)


# -------------------------------------------------------------- normalization


@st.composite
def plane_mixtures(draw):
    """Valid d=2 mixtures: random weights, directions and concentrations."""
    k = draw(st.integers(1, 3))
    pi = draw(hnp.arrays(float, k, elements=st.floats(0.1, 1.0)))
    m = draw(hnp.arrays(float, k, elements=st.floats(0.5, 8.0)))
    omega = draw(hnp.arrays(float, k, elements=st.floats(0.2, 5.0)))
    theta = draw(hnp.arrays(float, k, elements=st.floats(0.0, 2.0 * np.pi)))
    kappa = draw(hnp.arrays(float, k, elements=st.floats(0.0, 30.0)))
    mu = np.column_stack([np.cos(theta), np.sin(theta)])
    return VmfnmParams(pi / pi.sum(), m, omega, mu, kappa)


def plane_integral(logpdf, v):
    """Integral of exp(logpdf) over r > 0 and the angle: the periodic
    trapezoid rule (spectrally accurate) on the circle, adaptive
    quadrature in r, split at the largest radial scale times 10."""
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    a = np.column_stack([np.cos(theta), np.sin(theta)])

    def ring(r):
        return 2.0 * np.pi * np.exp(logpdf(PolarSamples(np.full(theta.size, r), a))).mean()

    scales = np.sqrt(v.omega)
    cut = 10.0 * scales.max()
    inner, _ = integrate.quad(ring, 0.0, cut, points=scales, limit=200)
    outer, _ = integrate.quad(ring, cut, np.inf, limit=200)
    return inner + outer


@settings(max_examples=10, deadline=None)
@given(v=plane_mixtures())
def test_property_mixture_densities_normalize_over_the_plane(v):
    for lam in (0.0, 0.5, 1.0):
        phi = SafeMixtureParams(v, lam)
        total = plane_integral(lambda s: safe_logpdf(s, phi), v)
        assert total == pytest.approx(1.0, abs=1e-6), lam


# ------------------------------------------------------------------- sampling


def test_safe_sample_stratification_counts():
    v = two_component_2d()
    for lam, expect in [(0.5, 500), (0.0, 0), (1.0, 1000), (0.2505, 250)]:
        s = safe_sample(np.random.default_rng(0), SafeMixtureParams(v, lam), 1000)
        assert s.n_light == expect
    with pytest.raises(ValueError):
        safe_sample(np.random.default_rng(0), SafeMixtureParams(v, 0.5), 0)


def test_safe_sample_fields_and_determinism():
    v = two_component_2d()
    phi = SafeMixtureParams(v, 0.6)
    s1 = safe_sample(np.random.default_rng(8), phi, 400)
    s2 = safe_sample(np.random.default_rng(8), phi, 400)
    assert np.array_equal(s1.r, s2.r)
    assert np.array_equal(s1.a, s2.a)
    assert np.all(s1.r > 0)
    assert np.allclose(np.linalg.norm(s1.a, axis=1), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 6),
    kappa=st.floats(0.0, 50.0),
    lam=st.floats(0.0, 1.0),
    stretch=st.floats(-UNIT_NORM_TOL, UNIT_NORM_TOL),
)
@example(d=2, kappa=3.0, lam=1.0, stretch=1e-10)
def test_property_accepted_mixture_can_be_sampled(d, kappa, lam, stretch):
    # the mean direction sits anywhere inside the accepted norm band
    mu = np.full((1, d), (1.0 + stretch) / math.sqrt(d))
    v = VmfnmParams(np.ones(1), np.ones(1), np.ones(1), mu, np.array([kappa]))
    try:
        v.check()
    except ValueError:
        assume(False)
    s = safe_sample(np.random.default_rng(0), SafeMixtureParams(v, lam), 20)
    assert s.r.shape == (20,)


def test_safe_sample_component_frequencies():
    # opposite, tightly concentrated directions: the side of a sample
    # tells its component apart with probability 1 - O(exp(-2 kappa))
    v = VmfnmParams(
        pi=np.array([0.3, 0.7]),
        m=np.array([1.0, 2.0]),
        omega=np.array([1.0, 3.0]),
        mu=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        kappa=np.array([50.0, 50.0]),
    )
    s = safe_sample(np.random.default_rng(14), SafeMixtureParams(v, 0.5), 100_000)
    frac = (s.a[:, 0] > 0.0).mean()
    assert frac == pytest.approx(0.3, abs=0.006)


def test_safe_sample_prior_case_reproduces_gaussian_radii():
    d = 3
    mu = np.zeros((1, d))
    mu[0, 0] = 1.0
    v = VmfnmParams(np.array([1.0]), np.array([d / 2.0]), np.array([float(d)]), mu, np.array([0.0]))
    phi = SafeMixtureParams(v, 1.0)
    s = safe_sample(np.random.default_rng(6), phi, 100_000)
    stat = stats.kstest(s.r, lambda x: gammainc(d / 2.0, x * x / 2.0)).statistic
    assert stat < 0.006


def test_importance_weights_recover_analytic_probability():
    # E_q[f p/q] = E_p[f] with f = 1{|u| <= 1} in d = 2, where
    # E_p[f] = P(chi2_2 <= 1) = 1 - exp(-1/2)
    v = two_component_2d()
    phi = SafeMixtureParams(v, 0.4)
    rng = np.random.default_rng(10)
    s = safe_sample(rng, phi, 200_000)
    w = np.exp(prior_logpdf(s) - safe_logpdf(s, phi))
    f = (s.r <= 1.0).astype(float)
    est = np.mean(f * w)
    se = np.std(f * w, ddof=1) / np.sqrt(len(s))
    assert abs(est - 0.3934693402873666) <= 4.0 * se
    # total mass check: E_q[p/q] = 1
    assert abs(np.mean(w) - 1.0) <= 4.0 * np.std(w, ddof=1) / np.sqrt(len(s))


def test_prior_logpdf_closed_form():
    # polar density of N(0, I): (2 pi)^{-d/2} exp(-r^2/2) r^{d-1}
    rng = np.random.default_rng(12)
    for d in (2, 4, 9):
        a = rng.standard_normal((25, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        r = np.exp(rng.uniform(-1, 1, 25))
        s = PolarSamples(r, a)
        expected = -0.5 * d * np.log(2.0 * np.pi) - r * r / 2.0 + (d - 1.0) * np.log(r)
        assert np.allclose(prior_logpdf(s), expected, atol=1e-12)
