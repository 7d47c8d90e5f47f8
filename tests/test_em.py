"""Penalized weighted EM: hand-evaluated update examples, the algebraic
invariants of each step (sum preservation, weight-scale invariance, the
beta=0 reduction), pruning arithmetic, M-step moment formulas, and a
synthetic recovery experiment that exercises component collapse."""

import logging
import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from safeice import em
from safeice.distributions import nakagami_sample, rng_from_seed, vmf_sample
from safeice.em import (
    KAPPA_MAX,
    M_MAX,
    FitResult,
    batch_statistics,
    beta_update,
    e_step,
    fit,
    m_step_params,
    penalized_weight_update,
    prune,
    weighted_loglik,
)
from safeice.mixtures import (
    PolarSamples,
    SafeMixtureParams,
    VmfnmParams,
    _mixture_columns,
    heavy_params_from_light,
    safe_logpdf,
)

from oracles import e_step as reference_e_step
from oracles import entropy_sum
from oracles import m_step_params as reference_m_step
from oracles import mixture_columns as reference_columns
from oracles import penalized_weight_update as reference_weight_update
from oracles import prune as reference_prune


def make_params(pi, m, omega, mu, kappa):
    return VmfnmParams(
        pi=np.asarray(pi, dtype=float),
        m=np.asarray(m, dtype=float),
        omega=np.asarray(omega, dtype=float),
        mu=np.asarray(mu, dtype=float),
        kappa=np.asarray(kappa, dtype=float),
    )


def start_params(k, d):
    """Valid K-component starting mixture for an M-step: equal weights,
    m = omega = 1, every direction e_1, kappa = 1."""
    ones = np.ones(k)
    return make_params(ones / k, ones, ones, np.tile(np.eye(d)[0], (k, 1)), ones)


def random_samples(rng, n, d):
    a = rng.standard_normal((n, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    return PolarSamples(np.exp(rng.uniform(-1, 1, n)), a)


# -------------------------------------------------------------------- e-step


def test_e_step_single_component():
    v = make_params([1.0], [1.0], [1.0], [[1.0, 0.0]], [0.0])
    s = random_samples(rng_from_seed(0), 20, 2)
    gamma, _ = e_step(s, v)
    assert np.array_equal(gamma, np.ones((1, 20)))


def test_e_step_rows_sum_to_one():
    v = make_params(
        [0.2, 0.5, 0.3],
        [1.0, 2.0, 0.8],
        [1.0, 2.0, 0.5],
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
        [2.0, 1.0, 0.0],
    )
    s = random_samples(rng_from_seed(1), 50, 2)
    gamma, _ = e_step(s, v)
    assert np.allclose(gamma.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(gamma >= 0.0)


def test_e_step_separated_components():
    # sample sitting on component 1's center, far from component 2
    v = make_params(
        [0.5, 0.5],
        [20.0, 20.0],
        [1.0, 100.0],
        [[1.0, 0.0], [-1.0, 0.0]],
        [50.0, 50.0],
    )
    s = PolarSamples(np.array([1.0]), np.array([[1.0, 0.0]]))
    gamma, _ = e_step(s, v)
    assert gamma[0, 0] >= 0.999


def test_e_step_symmetric_tie():
    v = make_params(
        [0.5, 0.5], [1.0, 1.0], [1.0, 1.0], [[1.0, 0.0], [-1.0, 0.0]], [2.0, 2.0]
    )
    s = PolarSamples(np.array([1.0]), np.array([[0.0, 1.0]]))
    gamma, _ = e_step(s, v)
    assert np.allclose(gamma[:, 0], [0.5, 0.5], atol=1e-12)


def test_e_step_zero_density_rows_get_uniform(caplog):
    # r^2 overflows past ~1.3e154, so 1e160 and 1e200 have zero density;
    # at 1e-200 it underflows to 0 and the density stays finite
    v = make_params([0.5, 0.5], [1.0, 1.0], [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    a = np.tile([[1.0, 0.0], [0.0, 1.0]], (2, 1))
    s = PolarSamples(np.array([1.0, 1e160, 1e200, 1e-200]), a)
    with caplog.at_level(logging.WARNING), warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma, log_q = e_step(s, v)
    assert np.allclose(gamma[:, 1:3], 0.5)
    assert np.all(log_q[1:3] == -np.inf) and np.isfinite(log_q[[0, 3]]).all()
    assert "zero density" in caplog.text


# ------------------------------------------------------------ weight updates


def em_weights(gamma, weights):
    """pi_em of ``penalized_weight_update``, which does not depend on pi_old."""
    k = gamma.shape[0]
    return penalized_weight_update(gamma, weights, np.full(k, 1.0 / k), 0.0, 0.0)[0]


def test_em_weight_update_examples():
    gamma = np.eye(2)
    assert np.allclose(em_weights(gamma, np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-15)
    assert np.allclose(em_weights(gamma, np.array([3.0, 1.0])), [0.75, 0.25], atol=1e-15)
    uniform = np.full((3, 6), 1.0 / 3.0)
    out = em_weights(uniform, np.arange(1.0, 7.0))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-15)


def test_penalized_update_beta_zero_is_plain_em():
    rng = rng_from_seed(2)
    gamma = rng.dirichlet(np.ones(4), size=30).T
    w = rng.random(30)
    pi_old = rng.dirichlet(np.ones(4))
    pi_em, pi_new = penalized_weight_update(gamma, w, pi_old, 0.0, entropy_sum(pi_old))
    assert np.array_equal(pi_em, gamma @ w / (gamma @ w).sum())
    assert np.array_equal(pi_new, pi_em)


def test_penalized_update_uniform_pi_has_zero_penalty():
    rng = rng_from_seed(3)
    for k in (2, 4):
        gamma = rng.dirichlet(np.ones(k), size=25).T
        w = rng.random(25)
        pi_old = np.full(k, 1.0 / k)
        pi_em, out = penalized_weight_update(gamma, w, pi_old, 1.0, entropy_sum(pi_old))
        assert np.allclose(out, pi_em, atol=1e-15)


def test_penalized_update_hand_example():
    # gamma = I, W = (1, 1), pi_old = (0.9, 0.1), beta = 1:
    # pi_em = (1/2, 1/2), ratio = 1, E = 0.9 ln 0.9 + 0.1 ln 0.1
    pi_old = np.array([0.9, 0.1])
    pi_em, out = penalized_weight_update(np.eye(2), np.ones(2), pi_old, 1.0, entropy_sum(pi_old))
    assert np.array_equal(pi_em, [0.5, 0.5])
    assert out[0] == pytest.approx(0.697750, abs=1e-6)
    assert out[1] == pytest.approx(0.302249, abs=1e-5)
    # full-precision values of the same arithmetic
    assert out[0] == pytest.approx(0.6977502119602597, abs=1e-14)
    assert out[1] == pytest.approx(0.3022497880397403, abs=1e-14)


def test_penalized_update_sums_to_one():
    rng = rng_from_seed(4)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(5, 40))
        gamma = rng.dirichlet(np.ones(k), size=n).T
        w = rng.random(n) + 0.01
        pi_old = rng.dirichlet(np.ones(k))
        beta = 2.0 * rng.random()
        _, out = penalized_weight_update(gamma, w, pi_old, beta, entropy_sum(pi_old))
        assert abs(out.sum() - 1.0) <= 1e-12


def test_penalized_update_weight_scale_invariance():
    rng = rng_from_seed(5)
    gamma = rng.dirichlet(np.ones(3), size=40).T
    w = rng.random(40) + 0.1
    pi_old = rng.dirichlet(np.ones(3))
    _, a = penalized_weight_update(gamma, w, pi_old, 0.7, entropy_sum(pi_old))
    _, b = penalized_weight_update(gamma, 7.0 * w, pi_old, 0.7, entropy_sum(pi_old))
    assert np.allclose(a, b, atol=1e-12)


# ------------------------------------------------------------------- pruning


def test_prune_arithmetic():
    v = make_params(
        [0.4, 0.3, 0.3],
        [1.0, 2.0, 3.0],
        [1.0, 2.0, 3.0],
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
        [1.0, 2.0, 3.0],
    )
    gamma = np.array([[0.2], [0.3], [0.5]])
    v2, gamma2 = prune(np.array([0.6, 0.5, -0.1]), gamma, v)
    assert v2.k == 2
    assert np.allclose(v2.pi, [6.0 / 11.0, 5.0 / 11.0], atol=1e-12)
    assert np.allclose(gamma2, [[0.4], [0.6]], atol=1e-12)
    # surviving component parameters carried over in order
    assert np.array_equal(v2.m, [1.0, 2.0])


def test_prune_all_positive_is_identity():
    v = make_params([0.5, 0.5], [1.0, 1.0], [1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    gamma = np.array([[0.25, 0.6], [0.75, 0.4]])
    for pi_new in ([0.5, 0.5], [0.7, 0.3000000000000001], [1e-300, 1.0]):
        pi_new = np.array(pi_new)
        v2, gamma2 = prune(pi_new, gamma, v)
        assert v2.k == 2
        # the weights renormalized as the pruning path does it, bit for bit
        assert np.array_equal(v2.pi, pi_new / pi_new.sum())
        # nothing pruned, nothing copied
        assert gamma2 is gamma
        assert all(getattr(v2, f) is getattr(v, f) for f in ("m", "omega", "mu", "kappa"))


def test_prune_rows_sum_to_one():
    v = make_params(
        [0.4, 0.3, 0.3],
        [1.0, 2.0, 3.0],
        [1.0, 2.0, 3.0],
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
        [1.0, 2.0, 3.0],
    )
    rng = rng_from_seed(6)
    gamma = rng.dirichlet(np.ones(3), size=10).T
    _, gamma2 = prune(np.array([0.7, -0.2, 0.5]), gamma, v)
    assert np.allclose(gamma2.sum(axis=0), 1.0, atol=1e-12)


@st.composite
def responsibilities(draw, min_entry):
    """(gamma, k): a (k, n) responsibility matrix with columns summing to 1,
    or to 0 where a column drew only zeros."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    raw = draw(hnp.arrays(float, (k, n), elements=st.floats(min_entry, 1.0, allow_subnormal=False)))
    total = raw.sum(axis=0)
    return raw / np.where(total > 0.0, total, 1.0), k


@settings(max_examples=60, deadline=None)
@given(
    resp=responsibilities(min_entry=1e-3),
    data=st.data(),
    beta=st.floats(0.0, 2.0),
    scale=st.floats(1e-3, 1e3),
)
def test_property_penalized_update_normalized_and_scale_invariant(resp, data, beta, scale):
    gamma, k = resp
    w = data.draw(hnp.arrays(float, gamma.shape[1], elements=st.floats(1e-3, 1e3)))
    pi_old = data.draw(hnp.arrays(float, k, elements=st.floats(1e-3, 1.0)))
    pi_old /= pi_old.sum()
    _, out = penalized_weight_update(gamma, w, pi_old, beta, entropy_sum(pi_old))
    assert abs(out.sum() - 1.0) <= 1e-12
    _, scaled = penalized_weight_update(gamma, scale * w, pi_old, beta, entropy_sum(pi_old))
    assert np.allclose(scaled, out, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(resp=responsibilities(min_entry=0.0), data=st.data())
def test_property_prune_normalizes_survivors(resp, data):
    gamma, k = resp
    pi_new = data.draw(hnp.arrays(float, k, elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    assume(np.any(pi_new > 0.0))
    v2, gamma2 = prune(pi_new, gamma, start_params(k, 2))
    assert v2.k == np.count_nonzero(pi_new > 0.0) == gamma2.shape[0]
    assert abs(v2.pi.sum() - 1.0) <= 1e-12
    if v2.k == k:
        # e_step's columns already sum to 1, so a prune that drops nothing
        # passes gamma through; a column of zeros reaches prune only when
        # the components it had mass on were dropped
        assert gamma2 is gamma
    else:
        assert np.allclose(gamma2.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)


# ------------------------------------------------------ (K, n) layout


def random_params(rng, k, d):
    mu = rng.standard_normal((k, d))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    return make_params(
        rng.dirichlet(np.ones(k)), rng.uniform(0.6, 3.0, k), rng.uniform(0.5, 3.0, k), mu, rng.uniform(0.0, 20.0, k)
    )


@settings(max_examples=100, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 20]),
    k=st.integers(1, 20),
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    zero_density=st.booleans(),
    dead_row=st.booleans(),
    n_pruned=st.integers(0, 19),
)
def test_property_component_major_kernels_match_the_sample_major_reference(
    d, k, n, seed, zero_density, dead_row, n_pruned
):
    # K runs over 1..20, so both of numpy's orders of summing K entries
    # (sequential below 8, unrolled by 8 from there) meet the reference's
    # row sums. A log density near 0 is a difference of terms of order
    # kappa, so it is compared to 1e-12 of max(1, |value|). zero_density
    # puts sample 0 at r = 1e160, where every light density is 0; dead_row
    # gives sample 1 all its responsibility on component 0, which is then
    # pruned; n_pruned = 0 keeps every component.
    rng = rng_from_seed(seed)
    s = random_samples(rng, n, d)
    if zero_density:
        s.r[0] = 1e160
    v = random_params(rng, k, d)
    m_h, omega_h = heavy_params_from_light(v)
    for sets in ([(v.pi, v.m, v.omega, 1)], [(0.5 * v.pi, v.m, v.omega, 1), (0.5 * v.pi, m_h, omega_h, -1)]):
        ref = reference_columns(s, v, sets).T
        assert np.allclose(_mixture_columns(s, v, sets), ref, rtol=1e-12, atol=1e-12)

    gamma, log_q = e_step(s, v)
    gamma_ref, log_q_ref = reference_e_step(s, v)
    assert gamma.shape == (k, n)
    assert np.allclose(gamma, gamma_ref.T, rtol=1e-12, atol=0.0)
    assert np.allclose(log_q, log_q_ref, rtol=1e-12, atol=1e-12)
    assert (log_q[0] == -np.inf) == zero_density

    pi_new = v.pi.copy()
    pi_new[rng.permutation(k)[: min(n_pruned, k - 1)]] = -1.0
    dead_row = dead_row and k > 1
    if dead_row:
        gamma_ref[1] = np.eye(k)[0]
        pi_new[0] = -1.0
        pi_new[1] = abs(pi_new[1])
    gamma = np.ascontiguousarray(gamma_ref.T)
    (v2, gamma2), (v2_ref, gamma2_ref) = prune(pi_new, gamma, v), reference_prune(pi_new, gamma_ref, v)
    assert np.allclose(gamma2, gamma2_ref.T, rtol=1e-12, atol=0.0)
    for name in ("pi", "m", "omega", "mu", "kappa"):
        assert np.array_equal(getattr(v2, name), getattr(v2_ref, name))
    if dead_row:
        assert np.all(gamma2[:, 1] == 1.0 / v2.k)
    if v2.k == k:
        assert gamma2 is gamma


@pytest.mark.parametrize("k", [1, 2, 4, 5, 8, 13, 20])
@pytest.mark.parametrize("d", [2, 3, 5, 10, 20])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 299))
def test_property_rows_do_not_depend_on_the_batch(d, k, seed, size):
    # a sample's gamma column, ln q and safe density are the same bits in
    # any batch of 2 or more rows, so a run's result cannot depend on how
    # its samples are split. A 1-row batch is left out: numpy sends its
    # products down BLAS's matrix-vector path, which rounds otherwise.
    rng = rng_from_seed(seed)
    s = random_samples(rng, 300, d)
    v = random_params(rng, k, d)
    idx = np.sort(rng.choice(300, size, replace=False))
    sub = PolarSamples(s.r[idx], s.a[idx])
    gamma, log_q = e_step(s, v)
    gamma_sub, log_q_sub = e_step(sub, v)
    assert np.array_equal(gamma_sub, gamma[:, idx])
    assert np.array_equal(log_q_sub, log_q[idx])
    for lam in (0.0, 0.5, 1.0):
        phi = SafeMixtureParams(v, lam)
        assert np.array_equal(safe_logpdf(sub, phi), safe_logpdf(s, phi)[idx])


# ------------------------------------------------------------------- beta


def test_beta_zero_change_takes_second_argument():
    # pi_new = pi_old makes the first argument exactly 1, so beta is the
    # capped second argument: (1 - 0.75) / (0.9 * (-E)) with
    # E = 0.9 ln 0.9 + 0.1 ln 0.1
    pi = np.array([0.9, 0.1])
    beta = beta_update(pi, pi, np.array([0.75, 0.25]), 2, 1000, entropy_sum(pi))
    assert beta == pytest.approx(0.8544827029230228, abs=1e-14)


def test_beta_eta_dimension_scaling():
    # |pi_new - pi_old| = ln 2 per component and N = 1 make the first
    # argument 2^-eta: eta = 1 at d = 2 and 0.5^4 at d = 10
    delta = np.log(2.0)
    pi_old = np.array([0.5, 0.5])
    pi_new = pi_old + np.array([delta, -delta])
    pi_em = np.array([0.5, 0.5])
    assert beta_update(pi_new, pi_old, pi_em, 2, 1, entropy_sum(pi_old)) == pytest.approx(0.5, abs=1e-14)
    assert beta_update(pi_new, pi_old, pi_em, 10, 1, entropy_sum(pi_old)) == pytest.approx(
        2.0 ** (-0.0625), abs=1e-14
    )


def test_beta_guards_degenerate_second_argument():
    # pi_em max = 1 gives second argument 0, which is still valid; a
    # one-hot pi_old gives E = 0 and the second argument is skipped
    pi = np.array([0.9, 0.1])
    assert beta_update(pi, pi, np.array([1.0, 0.0]), 2, 10, entropy_sum(pi)) == 0.0
    one_hot = np.array([1.0, 0.0])
    first_only = beta_update(one_hot, one_hot, np.array([0.6, 0.4]), 2, 10, 0.0)
    assert first_only == pytest.approx(1.0, abs=1e-14)


def test_beta_weight_free():
    # the update depends on pi vectors, d, and N only; N enters the decay.
    # Near-uniform pi_old keeps the cap argument above 1 so the decay term
    # is the one returned for both sample sizes.
    pi_old = np.array([0.34, 0.33, 0.33])
    pi_new = pi_old + np.array([1e-4, -0.5e-4, -0.5e-4])
    pi_em = np.full(3, 1.0 / 3.0)
    b1 = beta_update(pi_new, pi_old, pi_em, 4, 1000, entropy_sum(pi_old))
    b2 = beta_update(pi_new, pi_old, pi_em, 4, 2000, entropy_sum(pi_old))
    assert b1 > b2  # stronger decay with more samples
    eta = 0.5  # min(1, 0.5 ** (4 // 2 - 1))
    expected1 = np.mean(np.exp(-eta * 1000 * np.abs(pi_new - pi_old)))
    assert b1 == pytest.approx(expected1, rel=1e-12)


# ------------------------------------------------------------------- M-step


def test_m_step_zero_radial_variance_clamps_m():
    s = PolarSamples(np.full(10, 2.0), np.tile([1.0, 0.0], (10, 1)))
    gamma = np.ones((1, 10))
    out = m_step_params(gamma, batch_statistics(s, np.ones(10)), start_params(1, 2))
    assert out.omega[0] == pytest.approx(4.0, abs=1e-12)
    assert out.m[0] == M_MAX


def test_m_step_two_radii_moment_arithmetic():
    # radii {1, sqrt(3)}: E[r^2] = 2, E[r^4] = 5, var = 1 -> m = 4
    r = np.array([1.0, np.sqrt(3.0)])
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = m_step_params(np.ones((1, 2)), batch_statistics(PolarSamples(r, a), np.ones(2)), start_params(1, 2))
    assert out.omega[0] == pytest.approx(2.0, abs=1e-12)
    assert out.m[0] == pytest.approx(4.0, rel=1e-12)


def test_m_step_concentrated_directions_clamp_kappa():
    s = PolarSamples(np.array([1.0, 2.0, 0.5]), np.tile([0.0, 1.0], (3, 1)))
    out = m_step_params(np.ones((1, 3)), batch_statistics(s, np.ones(3)), start_params(1, 2))
    assert np.allclose(out.mu[0], [0.0, 1.0], atol=1e-12)
    assert out.kappa[0] == KAPPA_MAX


def test_m_step_recovers_moderate_concentration():
    rng = rng_from_seed(8)
    d = 3
    center = np.array([0.0, 0.0, 1.0])
    a = vmf_sample(rng, center, 5.0, 20_000)
    r = nakagami_sample(rng, np.full(20_000, 2.0), 3.0)
    s = PolarSamples(r, a)
    out = m_step_params(np.ones((1, 20_000)), batch_statistics(s, np.ones(20_000)), start_params(1, d))
    assert out.omega[0] == pytest.approx(3.0, rel=0.03)
    assert out.m[0] == pytest.approx(2.0, rel=0.05)
    assert out.mu[0] @ center > 0.999
    assert out.kappa[0] == pytest.approx(5.0, rel=0.05)


def test_m_step_dead_component_flagged(caplog):
    s = PolarSamples(np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    gamma = np.array([[1.0, 1.0], [0.0, 0.0]])
    v = make_params([0.5, 0.5], [1.0, 3.0], [1.0, 5.0], [[1.0, 0.0], [0.0, -1.0]], [1.0, 7.0])
    with caplog.at_level(logging.WARNING):
        out = m_step_params(gamma, batch_statistics(s, np.ones(2)), v)
    # the dead component keeps its row; the live one is refitted
    assert (out.m[1], out.omega[1], out.kappa[1]) == (3.0, 5.0, 7.0)
    assert np.array_equal(out.mu[1], [0.0, -1.0])
    assert out.omega[0] == pytest.approx(2.5, abs=1e-12)
    assert np.array_equal(out.pi, v.pi)
    assert "zero responsibility" in caplog.text


def test_m_step_underflowing_resultant_keeps_row():
    # a component can keep a tiny positive responsibility mass, here near
    # 1e-160; the squares of its resultant's entries underflow and the
    # norm is too inexact to normalize by
    s = random_samples(rng_from_seed(11), 50, 2)
    gamma = np.vstack([np.ones(50), np.full(50, 1e-160 / 50)])
    v = make_params([0.5, 0.5], [1.0, 3.0], [1.0, 5.0], [[1.0, 0.0], [0.0, -1.0]], [1.0, 7.0])
    out = m_step_params(gamma, batch_statistics(s, np.ones(50)), v)
    assert (out.m[1], out.omega[1], out.kappa[1]) == (3.0, 5.0, 7.0)
    assert np.array_equal(out.mu[1], [0.0, -1.0])
    assert np.linalg.norm(out.mu[0]) == pytest.approx(1.0, abs=1e-12)


def test_m_step_weight_scale_invariance():
    s = random_samples(rng_from_seed(9), 100, 3)
    rng = rng_from_seed(10)
    gamma = rng.dirichlet(np.ones(2), size=100).T
    w = rng.random(100) + 0.1
    v = start_params(2, 3)
    out1 = m_step_params(gamma, batch_statistics(s, w), v)
    out7 = m_step_params(gamma, batch_statistics(s, 7.0 * w), v)
    for name in ("m", "omega", "mu", "kappa"):
        assert np.allclose(getattr(out1, name), getattr(out7, name), rtol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 5, 20]),
    k=st.sampled_from([1, 3, 20]),
    n=st.integers(5, 200),
    seed=st.integers(0, 2**32 - 1),
    dead_column=st.booleans(),
)
def test_property_em_algebra_matches_the_reference(d, k, n, seed, dead_column):
    # gamma comes from e_step and from prune, with about 30% zero-weight
    # rows; with dead_column the last component points away from every
    # sample at kappa 1e4, so its responsibilities underflow to exactly 0.
    # m = E[r^2]^2 / var(r^2) and kappa take their last steps from
    # differences of nearly equal numbers, and both routes lose about
    # log10(m) and log10(kappa) digits there, so their relative bound
    # scales with max(1, value).
    rng = rng_from_seed(seed)
    center = np.eye(d)[0]
    s = PolarSamples(np.exp(rng.uniform(-1.0, 1.0, n)), vmf_sample(rng, center, 20.0, n))
    mu = rng.standard_normal((k, d))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    kappa = rng.uniform(0.0, 20.0, k)
    dead_column = dead_column and k > 1
    if dead_column:
        mu[-1], kappa[-1] = -center, KAPPA_MAX
    v = make_params(rng.dirichlet(np.ones(k)), rng.uniform(0.6, 3.0, k), rng.uniform(0.5, 3.0, k), mu, kappa)
    w = np.where(rng.random(n) < 0.3, 0.0, rng.random(n))
    w[0] = 1.0
    gamma, _ = e_step(s, v)
    assert not dead_column or np.all(gamma[-1] == 0.0)
    cases = [(gamma, v)]
    if k > 1:
        v_pruned, gamma_pruned = prune(np.concatenate(([-1.0], v.pi[1:])), gamma, v)
        cases.append((gamma_pruned, v_pruned))
    stats = batch_statistics(s, w)
    for gamma, v in cases:
        beta = float(rng.uniform(0.0, 2.0))
        for new, ref in zip(
            penalized_weight_update(gamma, w, v.pi, beta, entropy_sum(v.pi)), reference_weight_update(gamma.T, w, v.pi, beta)
        ):
            assert np.allclose(new, ref, rtol=0.0, atol=1e-15)
        new, ref = m_step_params(gamma, stats, v), reference_m_step(s, gamma.T, w, v)
        assert np.allclose(new.omega, ref.omega, rtol=1e-12, atol=0.0)
        assert np.allclose(new.mu, ref.mu, rtol=0.0, atol=1e-12)  # unit rows
        for name in ("m", "kappa"):
            a, b = getattr(new, name), getattr(ref, name)
            assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b) * np.maximum(1.0, b))


# ------------------------------------------------------------ log-likelihood


def test_weighted_loglik_unit_weights():
    v = make_params([1.0], [1.5], [2.0], [[0.0, 1.0]], [1.0])
    s = random_samples(rng_from_seed(11), 30, 2)
    expected = float(np.sum(safe_logpdf(s, SafeMixtureParams(v, 1.0))))
    assert weighted_loglik(s, np.ones(30), v) == pytest.approx(expected, rel=1e-12)


def test_weighted_loglik_linearity_in_weights():
    v = make_params([1.0], [1.5], [2.0], [[0.0, 1.0]], [1.0])
    s = random_samples(rng_from_seed(12), 30, 2)
    w = rng_from_seed(13).random(30)
    assert weighted_loglik(s, 3.0 * w, v) == pytest.approx(
        3.0 * weighted_loglik(s, w, v), rel=1e-12
    )


def test_weighted_loglik_two_sample_scalar_oracle():
    v = make_params([1.0], [1.0], [1.0], [[1.0, 0.0]], [0.0])
    s = PolarSamples(np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    # Rayleigh radial times uniform circle, weights (2, 5)
    def comp(r):
        return math.log(2.0 * r * math.exp(-r * r) / (2.0 * math.pi))

    expected = 2.0 * comp(1.0) + 5.0 * comp(2.0)
    assert weighted_loglik(s, np.array([2.0, 5.0]), v) == pytest.approx(expected, abs=1e-12)


def test_weighted_loglik_skips_zero_weight_rows():
    v = make_params([1.0], [1.0], [1.0], [[1.0, 0.0]], [0.0])
    s = PolarSamples(np.array([1.0, 1e160]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = weighted_loglik(s, np.array([1.0, 0.0]), v)
    assert np.isfinite(out)


# ------------------------------------------------------------------ full fit


def test_fit_validates_weights():
    v = make_params([1.0], [1.0], [1.0], [[1.0, 0.0]], [0.0])
    s = random_samples(rng_from_seed(14), 10, 2)
    with pytest.raises(ValueError):
        fit(s, np.zeros(10), v, penalized=True)
    with pytest.raises(ValueError):
        fit(s, -np.ones(10), v, penalized=True)
    nan_weight = np.ones(10)
    nan_weight[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        fit(s, nan_weight, v, penalized=True)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("m", [np.nan, 2.0], "^m must be finite"),
        ("mu", [[1.0, 0.0], [0.0, 1.1]], "^mu must have rows of unit norm"),
        ("pi", [0.5, 0.6], "^pi must be positive and sum to 1"),
        # m / omega = 1e309 would make the radial coefficient -inf inside EM
        ("omega", [1e-309, 2.0], "^omega must be large enough that m / omega is finite"),
    ],
)
def test_fit_rejects_a_bad_start_by_field_before_any_e_step(monkeypatch, field, value, match):
    calls = []

    def counting(samples, v, **kwargs):
        calls.append(v.k)
        return e_step(samples, v, **kwargs)

    monkeypatch.setattr(em, "e_step", counting)
    fields = dict(pi=[0.5, 0.5], m=[1.0, 2.0], omega=[1.0, 2.0], mu=[[1.0, 0.0], [0.0, 1.0]], kappa=[1.0, 1.0])
    v0 = make_params(**{**fields, field: value})
    s = random_samples(rng_from_seed(14), 10, 2)
    for penalized in (True, False):
        with pytest.raises(ValueError, match=match):
            fit(s, np.ones(10), v0, penalized=penalized)
    assert calls == []


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(2, 7),
    k=st.integers(1, 7),
    n=st.integers(2, 200),
    seed=st.integers(0, 2**32 - 1),
    decades=st.lists(st.floats(-200.0, 75.0), min_size=1, max_size=3),
    zero_share=st.sampled_from([0.0, 0.5, 0.95]),
    weight_decades=st.sampled_from([0.0, 30.0, 300.0]),
    penalized=st.booleans(),
)
@example(d=2, k=3, n=50, seed=0, decades=[-190.0], zero_share=0.0, weight_decades=0.0, penalized=False)
@example(d=3, k=3, n=50, seed=0, decades=[-190.0], zero_share=0.5, weight_decades=30.0, penalized=True)
@example(d=2, k=1, n=2, seed=0, decades=[-153.0], zero_share=0.0, weight_decades=0.0, penalized=True)
def test_property_every_fit_passes_the_parameter_check(
    d, k, n, seed, decades, zero_share, weight_decades, penalized
):
    # fit checks only its start; the mixtures it derives are not checked,
    # so they must pass by construction. Each radius lies within a decade
    # of one of ``decades``, which span 1e-201 to 1e76, so r^4 stays
    # finite. The examples put every radius near 1e-190, where r^2
    # underflows to 0, so every M-step omega is 0, or near 1e-153, where
    # omega is so small that m / omega overflows in the radial kernel;
    # either way each component must keep its old radial law. The weights
    # are 0 on about zero_share of the samples and span weight_decades
    # decades on the rest, which leaves kept components with no mass; the
    # penalised loop prunes, and the survivors' pi must sum to 1 again.
    rng = rng_from_seed(seed)
    s = random_samples(rng, n, d)
    s.r[:] = 10.0 ** (rng.choice(decades, n) + rng.uniform(-1.0, 1.0, n))
    w = np.where(rng.random(n) < zero_share, 0.0, 10.0 ** -rng.uniform(0.0, weight_decades, n))
    w[rng.integers(n)] = 1.0
    fit(s, w, random_params(rng, k, d), penalized=penalized).v.check()


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 7),
    n=st.integers(2, 200),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.5, 0.95]),
    weight_decades=st.sampled_from([0.0, 30.0, 300.0]),
)
def test_property_penalty_is_inert_at_one_component(d, n, seed, zero_share, weight_decades):
    # at K = 1 every pi is [1], so the penalty beta pi (ln pi - E) is 0
    # whatever beta_update returns: the penalized loop is plain EM, bit for bit
    rng = rng_from_seed(seed)
    s = random_samples(rng, n, d)
    w = np.where(rng.random(n) < zero_share, 0.0, 10.0 ** -rng.uniform(0.0, weight_decades, n))
    w[rng.integers(n)] = 1.0
    v0 = random_params(rng, 1, d)
    penalized, plain = (fit(s, w, v0, penalized=p) for p in (True, False))
    assert penalized.n_iterations == plain.n_iterations
    for name in ("pi", "m", "omega", "mu", "kappa"):
        assert np.array_equal(getattr(penalized.v, name), getattr(plain.v, name))


def test_fit_plain_keeps_component_count(monkeypatch):
    monkeypatch.setattr(em, "MAX_EM", 50)
    rng = rng_from_seed(15)
    s = random_samples(rng, 500, 2)
    v0 = make_params(
        [0.5, 0.5], [1.0, 2.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]
    )
    res = fit(s, np.ones(500), v0, penalized=False)
    assert isinstance(res, FitResult)
    assert res.v.k == 2
    assert 1 <= res.n_iterations <= 50


@pytest.mark.parametrize("penalized", [True, False])
def test_fit_max_iter_zero_returns_the_start(monkeypatch, penalized):
    monkeypatch.setattr(em, "MAX_EM", 0)
    s = random_samples(rng_from_seed(15), 50, 2)
    v0 = make_params([0.5, 0.5], [1.0, 2.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    res = fit(s, np.ones(50), v0, penalized=penalized)
    assert res.v is v0 and res.n_iterations == 0


@pytest.mark.parametrize("penalized", [True, False])
def test_fit_evaluates_the_densities_once_per_iteration(monkeypatch, penalized):
    calls = []

    def counting(samples, v, column_sets, **kwargs):
        calls.append(v.k)
        return _mixture_columns(samples, v, column_sets, **kwargs)

    monkeypatch.setattr(em, "_mixture_columns", counting)
    rng = rng_from_seed(20)
    s = random_samples(rng, 300, 2)
    v0 = make_params(
        [0.3, 0.7], [1.0, 2.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0]
    )
    monkeypatch.setattr(em, "EM_TOL", 0.0)
    monkeypatch.setattr(em, "MAX_EM", 6)
    res = fit(s, rng.random(300) + 0.05, v0, penalized=penalized)
    assert res.n_iterations == 6
    # one E-step before the loop and one after each M-step but the last
    assert len(calls) == res.n_iterations


@pytest.mark.parametrize("penalized", [True, False])
def test_fit_at_max_em_ends_at_the_m_step_and_says_so(monkeypatch, caplog, penalized):
    # the last iteration's E-step cannot change v, so it is not run; a fit
    # that stops on the tolerance first logs nothing
    rng = rng_from_seed(20)
    s = random_samples(rng, 300, 2)
    w = rng.random(300) + 0.05
    v0 = make_params([0.3, 0.7], [1.0, 2.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0])
    monkeypatch.setattr(em, "MAX_EM", 6)
    with caplog.at_level(logging.DEBUG, logger="safeice.em"):
        res = fit(s, w, v0, penalized=penalized)
    assert res.n_iterations == 6
    assert "stopped at MAX_EM=6" in caplog.text
    caplog.clear()
    monkeypatch.setattr(em, "MAX_EM", 100)
    with caplog.at_level(logging.DEBUG, logger="safeice.em"):
        assert fit(s, w, v0, penalized=penalized).n_iterations < 100
    assert "stopped at MAX_EM" not in caplog.text


def test_fit_plain_prunes_a_component_of_zero_em_weight(caplog):
    # the third component points away from every sample with kappa 1e4,
    # so its responsibilities underflow to exactly 0 and so does its EM
    # weight; plain EM drops it rather than keep a dead column
    rng = rng_from_seed(22)
    theta = rng.uniform(-0.5, 0.5, 200)
    a = np.column_stack([np.cos(theta), np.sin(theta)])
    s = PolarSamples(np.exp(rng.uniform(-1, 1, 200)), a)
    v0 = make_params(
        [0.4, 0.4, 0.2],
        [1.0, 2.0, 1.0],
        [1.0, 2.0, 1.0],
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
        [1.0, 1.0, KAPPA_MAX],
    )
    assert np.all(e_step(s, v0)[0][2] == 0.0)
    with caplog.at_level(logging.WARNING):
        res = fit(s, np.ones(200), v0, penalized=False)
    assert res.v.k == 2
    assert "zero responsibility mass" not in caplog.text


@pytest.mark.parametrize("penalized", [True, False])
def test_fit_updates_the_em_weights_once_per_iteration(monkeypatch, penalized):
    calls = []

    def counting(*args):
        calls.append(args[0].shape[0])
        return penalized_weight_update(*args)

    monkeypatch.setattr(em, "penalized_weight_update", counting)
    rng = rng_from_seed(20)
    s = random_samples(rng, 300, 2)
    v0 = make_params(
        [0.3, 0.7], [1.0, 2.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0]
    )
    monkeypatch.setattr(em, "EM_TOL", 0.0)
    monkeypatch.setattr(em, "MAX_EM", 6)
    res = fit(s, rng.random(300) + 0.05, v0, penalized=penalized)
    assert res.n_iterations == 6
    assert len(calls) == res.n_iterations


@pytest.mark.parametrize("penalized", [True, False])
def test_fit_builds_the_batch_statistics_once(monkeypatch, penalized):
    calls = []

    def counting(samples, weights):
        calls.append(len(samples))
        return batch_statistics(samples, weights)

    monkeypatch.setattr(em, "batch_statistics", counting)
    rng = rng_from_seed(20)
    s = random_samples(rng, 300, 2)
    v0 = make_params(
        [0.3, 0.7], [1.0, 2.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0]
    )
    monkeypatch.setattr(em, "EM_TOL", 0.0)
    monkeypatch.setattr(em, "MAX_EM", 6)
    res = fit(s, rng.random(300) + 0.05, v0, penalized=penalized)
    assert res.n_iterations == 6
    assert calls == [300]


def test_fit_plain_loglik_nondecreasing(monkeypatch):
    rng = rng_from_seed(16)
    s = random_samples(rng, 800, 3)
    v0 = make_params(
        [0.5, 0.5],
        [1.0, 2.0],
        [1.0, 2.0],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [1.0, 1.0],
    )
    w = rng.random(800) + 0.05
    # one example, not a property: the m and kappa updates are moment and
    # approximation estimators, not exact maximisers, so on some batches
    # plain EM's log-likelihood does fall
    monkeypatch.setattr(em, "EM_TOL", 0.0)
    trace = []
    for j in range(1, 31):
        monkeypatch.setattr(em, "MAX_EM", j)
        trace.append(weighted_loglik(s, w, fit(s, w, v0, penalized=False).v))
    trace = np.array(trace)
    assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))


def test_fit_weight_scale_invariance():
    rng = rng_from_seed(17)
    s = random_samples(rng, 400, 2)
    w = rng.random(400) + 0.05
    v0 = make_params(
        [0.3, 0.7], [1.0, 2.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [2.0, 2.0]
    )
    r1 = fit(s, w, v0, penalized=True)
    r7 = fit(s, 7.0 * w, v0, penalized=True)
    assert r1.v.k == r7.v.k
    assert np.allclose(r1.v.pi, r7.v.pi, atol=1e-10)
    assert np.allclose(r1.v.m, r7.v.m, rtol=1e-10)
    assert np.allclose(r1.v.omega, r7.v.omega, rtol=1e-10)
    assert np.allclose(r1.v.mu, r7.v.mu, atol=1e-10)
    assert np.allclose(r1.v.kappa, r7.v.kappa, rtol=1e-10, atol=1e-10)


def test_fit_penalized_weights_stay_normalized():
    rng = rng_from_seed(18)
    s = random_samples(rng, 600, 2)
    w = rng.random(600)
    v0 = make_params(
        [0.25, 0.25, 0.25, 0.25],
        [1.0, 1.5, 2.0, 2.5],
        [1.0, 1.5, 2.0, 2.5],
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        [1.0, 1.0, 1.0, 1.0],
    )
    res = fit(s, w, v0, penalized=True)
    assert abs(res.v.pi.sum() - 1.0) <= 1e-12
    assert res.v.k <= 4


def test_fit_one_hot_weights_center_on_the_sample(monkeypatch):
    # with all mass on one sample every surviving component collapses
    # onto it and the degeneracy clamps engage
    rng = rng_from_seed(19)
    s = random_samples(rng, 50, 2)
    w = np.zeros(50)
    w[17] = 1.0
    v0 = make_params(
        [0.5, 0.5], [1.0, 2.0], [1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]
    )
    monkeypatch.setattr(em, "MAX_EM", 40)
    res = fit(s, w, v0, penalized=True)
    for k in range(res.v.k):
        assert res.v.omega[k] == pytest.approx(s.r[17] ** 2, rel=1e-9)
        assert res.v.m[k] == M_MAX
        assert res.v.mu[k] @ s.a[17] == pytest.approx(1.0, abs=1e-12)
        assert res.v.kappa[k] == KAPPA_MAX


def test_fit_synthetic_recovery_prunes_to_truth(monkeypatch):
    # data from one vMFN component; a five-component fit with random
    # initial weights must collapse to at most two components in almost
    # every trial and recover the generating parameters
    d = 3
    true_m, true_omega, true_kappa = 3.0, 2.0, 10.0
    true_mu = np.array([1.0, 0.0, 0.0])
    monkeypatch.setattr(em, "EM_TOL", 1e-6)
    monkeypatch.setattr(em, "MAX_EM", 100)
    wins = 0
    for trial in range(50):
        rng = rng_from_seed(2000 + trial)
        n = 2000
        r = nakagami_sample(rng, np.full(n, true_m), true_omega)
        a = vmf_sample(rng, true_mu, true_kappa, n)
        s = PolarSamples(r, a)
        pi0 = rng.dirichlet(np.ones(5))
        idx = rng.integers(0, n, size=5)
        v0 = make_params(pi0, np.full(5, 2.0), np.full(5, float(np.mean(r * r))), a[idx],
                         np.full(5, 5.0))
        res = fit(s, np.ones(n), v0, penalized=True)
        if res.v.k > 2:
            continue
        top = int(np.argmax(res.v.pi))
        assert res.v.m[top] == pytest.approx(true_m, rel=0.10)
        assert res.v.omega[top] == pytest.approx(true_omega, rel=0.10)
        assert res.v.mu[top] @ true_mu >= 0.99
        wins += 1
    assert wins >= 45
