"""Work arrays that the sampling, mixture and EM kernels write in place or
reuse: bit-equality with the fresh-array code they replaced, no state
carried from one call to the next, no returned array overwritten by a
later call, and one scratch per thread. Also the BLAS products of small
results, which ``np.dot`` takes with the bits of ``np.matmul``."""

import threading
from dataclasses import asdict

import numpy as np
import pytest

from safeice import core, mixtures
from safeice.em import batch_statistics, e_step, fit
from safeice.mixtures import (
    PolarSamples,
    SafeMixtureParams,
    VmfnmParams,
    _mixture_columns,
    safe_logpdf,
    safe_sample,
    vmf_sample,
)
from safeice.problems import problem_registry

from oracles import (
    batch_statistics_reference,
    e_step_reference,
    mixture_columns_reference,
    safe_logpdf_reference,
    safe_sample_reference,
    vmf_sample_reference,
)


def random_mixture(rng, d, k):
    mu = rng.standard_normal((k, d))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    return VmfnmParams(
        pi=rng.dirichlet(np.ones(k)),
        m=rng.uniform(0.6, 4.0, k),
        omega=rng.uniform(0.5, d + 3.0, k),
        mu=mu,
        kappa=rng.uniform(0.0, 20.0, k),
    )


def batch(seed, d, k, n, lam=0.5):
    rng = np.random.default_rng(seed)
    phi = SafeMixtureParams(random_mixture(rng, d, k), lam)
    return phi, safe_sample(rng, phi, n)


def in_fresh_thread(fn):
    """``fn()`` run in a new thread, whose scratch starts empty."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()))
    t.start()
    t.join()
    return out[0]


def assert_same_fit(got, want):
    assert got.n_iterations == want.n_iterations
    for name in ("pi", "m", "omega", "mu", "kappa"):
        assert np.array_equal(getattr(got.v, name), getattr(want.v, name))


@pytest.mark.parametrize("d", [2, 10, 20])
@pytest.mark.parametrize("n", [1, 7, 1500])
@pytest.mark.parametrize("kappa", [0.0, 2.0, 500.0])
def test_vmf_sample_equals_the_fresh_array_sampler_bit_for_bit(kappa, n, d):
    for seed in range(4):
        mu = np.random.default_rng(100 + seed).standard_normal(d)
        mu /= np.linalg.norm(mu)
        got = vmf_sample(np.random.default_rng(seed), mu, kappa, n)
        want = vmf_sample_reference(np.random.default_rng(seed), mu, kappa, n)
        assert got.shape == (n, d) and got.flags.c_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("d", [2, 10, 20])
@pytest.mark.parametrize("k", [1, 2, 20])
def test_safe_sample_equals_the_per_component_sampler_bit_for_bit(k, d, lam):
    # seeds 1 and 3 set one kappa to 0 among positive ones (the only one at
    # K = 1); one component of weight 1e-12 is never drawn, and batches of
    # 1, 3 and 40 rows draw some components once
    counts = set()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        v = random_mixture(rng, d, k)
        if seed % 2:
            v.kappa[0] = 0.0
        if k > 1:
            v.pi[-1] = 1e-12
            v.pi /= v.pi.sum()
        phi = SafeMixtureParams(v, lam)
        for n in (1, 3, 40, 700):
            got_rng, want_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            counts.update(np.bincount(np.random.default_rng([seed, n]).choice(k, n, p=v.pi), minlength=k).tolist())
            got, want = safe_sample(got_rng, phi, n), safe_sample_reference(want_rng, phi, n)
            assert np.array_equal(got.r, want.r) and np.array_equal(got.a, want.a)
            assert got.n_light == want.n_light
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
            assert not np.shares_memory(got.a, mixtures._SCRATCH.buf)
    assert {0, 1} <= counts if k > 1 else 1 in counts


def mixture_batch(rng, n, d):
    """n unit directions and radii over six decades; from 7 rows on, row 0
    at r = 1e160 and row 1 at r = 1e-160, where every light or every heavy
    density is 0."""
    a = rng.standard_normal((n, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    r = np.exp(rng.uniform(-3.0, 3.0, n))
    if n >= 7:
        r[:2] = 1e160, 1e-160
    return PolarSamples(r, a)


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("d", [2, 10, 20])
@pytest.mark.parametrize("k", [1, 2, 3, 20])
def test_mixture_kernels_equal_the_unpadded_reference_bit_for_bit(k, d, n):
    # the scratch and the filled (K + 1, d) directions change no bit of the
    # joints on either side, of safe_logpdf or of e_step, with or without
    # an out array; seed 1 sets one kappa to 0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        s = mixture_batch(rng, n, d)
        v = random_mixture(rng, d, k)
        if seed == 1:
            v.kappa[0] = 0.0
        phi = SafeMixtureParams(v, 0.5)
        light, heavy = (v.pi, v.m, v.omega, 1), (v.pi, phi.heavy_m, phi.heavy_omega, -1)
        for sets in ([light], [heavy], [light, heavy]):
            want = mixture_columns_reference(s, v, sets)
            assert np.array_equal(_mixture_columns(s, v, sets), want)
            out = np.empty_like(want)
            assert _mixture_columns(s, v, sets, out=out) is out and np.array_equal(out, want)
        for lam in (0.0, 0.5, 1.0):
            phi = SafeMixtureParams(v, lam)
            assert np.array_equal(safe_logpdf(s, phi), safe_logpdf_reference(s, phi))
        want_gamma, want_log_q = e_step_reference(s, v)
        for out in (None, np.empty((k, n))):
            gamma, log_q = e_step(s, v, out=out)
            assert np.array_equal(gamma, want_gamma) and np.array_equal(log_q, want_log_q)


@pytest.mark.parametrize("d", [2, 10, 20])
@pytest.mark.parametrize("n", [1, 7, 1500])
def test_batch_statistics_equals_the_stacked_product_bit_for_bit(n, d):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        s = PolarSamples(np.exp(rng.uniform(-3.0, 3.0, n)), a)
        w = np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-300.0, 10.0, n))
        assert np.array_equal(batch_statistics(s, w), batch_statistics_reference(s, w))


def test_kernels_carry_no_state_from_one_batch_to_the_next():
    # batch A, then a batch with larger n and K, then A again: every call
    # equals the same call in a new thread, which starts with no scratch
    phi_a, a = batch(1, 20, 3, 500)
    phi_b, b = batch(2, 20, 12, 2000)
    w_a = np.random.default_rng(3).random(len(a))
    w_b = np.random.default_rng(4).random(len(b))
    for phi, s, w in ((phi_a, a, w_a), (phi_b, b, w_b), (phi_a, a, w_a)):
        v = phi.light
        assert np.array_equal(safe_logpdf(s, phi), in_fresh_thread(lambda: safe_logpdf(s, phi)))
        got, want = e_step(s, v), in_fresh_thread(lambda: e_step(s, v))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for penalized in (True, False):
            assert_same_fit(
                fit(s, w, v, penalized=penalized),
                in_fresh_thread(lambda: fit(s, w, v, penalized=penalized)),
            )


def test_returned_arrays_are_not_overwritten_by_later_calls():
    phi_a, a = batch(5, 10, 4, 800)
    phi_b, b = batch(6, 10, 9, 1200)
    log_q = safe_logpdf(a, phi_a)
    gamma, log_q_e = e_step(a, phi_a.light)
    kept = [x.copy() for x in (log_q, gamma, log_q_e)]
    for phi, s in ((phi_b, b), (phi_a, a)):
        safe_logpdf(s, phi)
        e_step(s, phi.light)
        fit(s, np.ones(len(s)), phi.light, penalized=True)
    for before, after in zip(kept, (log_q, gamma, log_q_e)):
        assert np.array_equal(before, after)


def test_e_step_into_a_buffer_view_equals_a_fresh_call():
    phi, s = batch(7, 20, 6, 900)
    v = phi.light
    buf = np.full((10, len(s)), np.nan)
    gamma, log_q = e_step(s, v, out=buf[: v.k])
    assert np.shares_memory(gamma, buf)
    want_gamma, want_log_q = e_step(s, v)
    assert np.array_equal(gamma, want_gamma) and np.array_equal(log_q, want_log_q)
    assert np.isnan(buf[v.k :]).all()


def test_two_runs_in_two_threads_equal_the_sequential_runs():
    jobs = [
        (problem_registry("two-mode", 3.5, 20), core.RunConfig(n_per_iter=2000, seed=3)),
        (problem_registry("four-branch", 0.0, 2), core.RunConfig(seed=1004)),
    ]
    want = [asdict(core.run(p, c)) for p, c in jobs]
    got = [None, None]

    def job(i):
        got[i] = asdict(core.run(*jobs[i]))

    threads = [threading.Thread(target=job, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert repr(got) == repr(want)



def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 20])
def test_np_dot_gives_the_matmul_bits_of_the_em_and_sampler_products(k, n):
    # gamma W and gamma S, with gamma the leading rows of a (K0, n) buffer
    # and W zero on about half the rows, and one component's rows of
    # z @ mu; at n = 1 and K = 1 numpy takes other BLAS paths
    rng = np.random.default_rng(100 * k + n)
    for d in (2, 3, 10, 20):
        a = rng.standard_normal((n, d))
        gamma = rng.random((k + 3, n))[:k]
        weights = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
        stats = batch_statistics(PolarSamples(np.exp(rng.standard_normal(n)), a), weights)
        assert_same_bits(np.dot(gamma, weights), gamma @ weights)
        assert_same_bits(np.dot(gamma, stats), gamma @ stats)
        assert_same_bits(np.dot(a, a[0]), a @ a[0])


@pytest.mark.parametrize("n", [1, 254, 255, 257, 300, 1000])
def test_np_dot_gives_the_matmul_bits_of_the_oscillator_stage_product(n):
    # the (3, 3) @ (3, n) linear part of each RK4 stage, into a buffer
    rng = np.random.default_rng(n)
    linear = rng.standard_normal((3, 3))
    state = rng.standard_normal((3, n))
    got, want = np.empty((3, n)), np.empty((3, n))
    np.dot(linear, state, got)
    np.matmul(linear, state, want)
    assert_same_bits(got, want)
