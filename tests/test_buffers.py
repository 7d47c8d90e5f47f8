"""Work arrays that the sampling, mixture and EM kernels write in place or
reuse: bit-equality with the fresh-array code they replaced, no state
carried from one call to the next, no returned array overwritten by a
later call, and one scratch per thread."""

import threading
from dataclasses import asdict

import numpy as np
import pytest

from safeice import core
from safeice.em import batch_statistics, e_step, fit
from safeice.mixtures import (
    PolarSamples,
    SafeMixtureParams,
    VmfnmParams,
    safe_logpdf,
    safe_sample,
    vmf_sample,
)
from safeice.problems import problem_registry

from oracles import batch_statistics_reference, vmf_sample_reference


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
