"""End-to-end acceptance checks.

Each test covers one headline requirement at its stated tolerance and
prints a single PASS/FAIL line with the measured numbers. The expensive
run batches are shared module-scoped fixtures, so the whole file costs a
few minutes, dominated by the repeated adaptive runs.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gammaincc, gammaln
from scipy.stats import kstest, norm

from safeice.cli import run_repetitions
from safeice.core import RunConfig, lambda_schedule
from safeice.em import batch_statistics, m_step_params, penalized_weight_update
from safeice.mixtures import (
    PolarSamples,
    VmfnmParams,
    heavy_params_from_light,
    inv_nakagami_sample,
    vmf_sample,
)
from safeice.oracle import mc_estimate
from safeice.problems import problem_registry

from oracles import bessel_ratio, entropy_sum
from oracles import penalized_weight_update as reference_weight_update


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def batch(problem, config, n_runs, p_ref):
    return run_repetitions(problem, config, n_runs, p_ref)


@pytest.fixture(scope="module")
def two_mode_z35():
    prob = problem_registry("two-mode", 3.5, 2)
    return batch(prob, RunConfig(seed=0), 50, 2.0 * norm.cdf(-3.5))


@pytest.fixture(scope="module")
def two_mode_z45():
    prob = problem_registry("two-mode", 4.5, 2)
    return batch(prob, RunConfig(seed=0), 50, 2.0 * norm.cdf(-4.5))


@pytest.fixture(scope="module")
def two_mode_z55():
    prob = problem_registry("two-mode", 5.5, 2)
    return batch(prob, RunConfig(seed=0), 50, 2.0 * norm.cdf(-5.5))


@pytest.fixture(scope="module")
def four_branch_oracle():
    return mc_estimate(problem_registry("four-branch", 0.0, 2), 10**7, seed=0)


@pytest.fixture(scope="module")
def four_branch_safe(four_branch_oracle):
    prob = problem_registry("four-branch", 0.0, 2)
    return batch(prob, RunConfig(seed=0), 50, four_branch_oracle.pf)


@pytest.fixture(scope="module")
def four_branch_ice(four_branch_oracle):
    prob = problem_registry("four-branch", 0.0, 2)
    cfg = RunConfig(seed=0, method="ice", k_init=2)
    return batch(prob, cfg, 50, four_branch_oracle.pf)


@pytest.fixture(scope="module")
def oscillator_pair():
    prob = problem_registry("oscillator", 0.05, 10)
    safe = batch(prob, RunConfig(seed=0), 25, 1.0)
    ice = batch(prob, RunConfig(seed=0, method="ice", k_init=1), 25, 1.0)
    return safe, ice


def test_two_mode_analytic_accuracy(two_mode_z35, two_mode_z55):
    (runs35, s35), (_, s55) = two_mode_z35, two_mode_z55
    # printed only: how often the run's own se interval covers the exact pf
    covered = sum(abs(r.pf - s35["p_ref"]) <= 2.0 * r.se for r in runs35)
    ok = (
        s35["rel_error"] <= 0.15
        and s35["cv"] <= 0.20
        and s55["rel_error"] <= 0.20
        and s55["mean_t"] <= 4.5
    )
    detail = (
        f"z=3.5: rel_err {s35['rel_error']:.3f} <= 0.15, cv {s35['cv']:.3f} <= 0.20, "
        f"|pf - p| <= 2 se in {covered}/{len(runs35)}; "
        f"z=5.5: rel_err {s55['rel_error']:.3f} <= 0.20, mean T {s55['mean_t']:.2f} <= 4.5"
    )
    assert report(1, "two-mode analytic", ok, detail)


def test_four_branch_against_oracle(four_branch_oracle, four_branch_safe, four_branch_ice):
    mc, (_, safe), (ice_runs, ice) = four_branch_oracle, four_branch_safe, four_branch_ice
    ice_converged = float(np.mean([r.converged for r in ice_runs]))
    ok = (
        mc.cv <= 0.01
        and safe["rel_error"] <= 0.10
        and safe["cv"] <= 0.15
        and safe["mean_t"] <= 2.0
        and ice_converged == 1.0
        and ice["mean_t"] <= 4.0
    )
    detail = (
        f"oracle pf {mc.pf:.4e} (cv {mc.cv:.4f} <= 0.01); safe rel_err {safe['rel_error']:.3f}"
        f" <= 0.10, cv {safe['cv']:.3f} <= 0.15, mean T {safe['mean_t']:.2f} <= 2;"
        f" plain K=2 converged {ice_converged:.0%}, mean T {ice['mean_t']:.2f} <= 4"
    )
    assert report(2, "four-branch vs MC oracle", ok, detail)


def test_component_pruning_band(two_mode_z35, two_mode_z45):
    k35 = two_mode_z35[1]["mean_k"]
    k45 = two_mode_z45[1]["mean_k"]
    ok = 2.0 <= k35 <= 6.0 and 2.0 <= k45 <= 6.0
    detail = f"mean final K from 20: z=3.5 -> {k35:.2f}, z=4.5 -> {k45:.2f}, band [2, 6]"
    assert report(3, "component pruning", ok, detail)


def test_oscillator_cross_method_agreement(oscillator_pair):
    (safe_runs, safe), (ice_runs, ice) = oscillator_pair
    pf_s = np.array([r.pf for r in safe_runs])
    pf_i = np.array([r.pf for r in ice_runs])
    diff = abs(pf_s.mean() - pf_i.mean())
    se = np.sqrt(pf_s.var(ddof=1) / len(pf_s) + pf_i.var(ddof=1) / len(pf_i))
    ok = diff <= 3.0 * se and safe["mean_t"] <= ice["mean_t"] + 1.0
    detail = (
        f"means {pf_s.mean():.4e} vs {pf_i.mean():.4e}, |diff| {diff:.2e} <= 3 SE {3 * se:.2e};"
        f" mean T {safe['mean_t']:.2f} <= {ice['mean_t']:.2f} + 1"
    )
    assert report(4, "oscillator cross-method", ok, detail)


def test_distribution_properties():
    n = 10**6
    # (a) heavy radial sampler follows the reciprocal law
    m, omega = 1.5, 2.0
    draws = inv_nakagami_sample(np.random.default_rng(0), np.full(n, m), omega)
    ks_inv = kstest(draws, lambda r: gammaincc(m, m / (omega * r * r))).statistic
    # (b) directional sampler: mean projection on mu matches the Bessel ratio
    ks_dirs = []
    for d, kappa in ((3, 2.0), (5, 1.0), (10, 5.0)):
        mu = np.zeros(d)
        mu[0] = 1.0
        t = vmf_sample(np.random.default_rng(d), mu, kappa, n) @ mu
        se = t.std(ddof=1) / np.sqrt(n)
        ks_dirs.append(abs(t.mean() - bessel_ratio(d, kappa)) / se)
    resultant_ok = max(ks_dirs) <= 3.0
    # (c) the radius of a standard normal vector follows the prior radial law
    ks_prior = []
    for d in (2, 5, 10):
        u = np.random.default_rng(100 + d).standard_normal((n, d))
        radii = np.linalg.norm(u, axis=1)
        ks_prior.append(kstest(radii, lambda r, d=d: 1.0 - gammaincc(d / 2.0, r * r / 2.0)).statistic)
    # (d) heavy spread identity: heavy mode equals light radial mean
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 51))
        mm = rng.uniform(0.5, 10.0, size=3)
        oo = rng.uniform(0.1, 5.0, size=3)
        v = VmfnmParams(
            pi=np.full(3, 1 / 3),
            m=mm,
            omega=oo,
            mu=np.eye(d)[:3],
            kappa=np.zeros(3),
        )
        m_h, o_h = heavy_params_from_light(v)
        mode = np.sqrt(2.0 * m_h / ((2.0 * m_h + 1.0) * o_h))
        mean = np.exp(gammaln(mm + 0.5) - gammaln(mm)) * np.sqrt(oo / mm)
        worst = max(worst, float(np.max(np.abs(mode / mean - 1.0))))
    ok = ks_inv < 0.002 and resultant_ok and max(ks_prior) < 0.002 and worst <= 1e-12
    detail = (
        f"reciprocal KS {ks_inv:.5f} < 0.002; resultant max |z| {max(ks_dirs):.2f} <= 3;"
        f" prior-radial max KS {max(ks_prior):.5f} < 0.002; mode identity worst rel {worst:.1e}"
    )
    assert report(5, "distribution properties", ok, detail)


def test_em_algebra():
    rng = np.random.default_rng(12)
    worst_sum = 0.0
    worst_plain = 0.0
    worst_scale = 0.0
    for _ in range(20):
        n, k = int(rng.integers(5, 40)), int(rng.integers(2, 6))
        gamma = rng.dirichlet(np.ones(k), size=n).T
        w = rng.lognormal(size=n)
        pi_old = rng.dirichlet(np.ones(k))
        beta = float(rng.uniform())
        _, pi_new = penalized_weight_update(gamma, w, pi_old, beta, entropy_sum(pi_old))
        worst_sum = max(worst_sum, abs(float(pi_new.sum()) - 1.0))
        _, plain = penalized_weight_update(gamma, w, pi_old, 0.0, entropy_sum(pi_old))
        reference_em, _ = reference_weight_update(gamma.T, w, pi_old, beta)
        worst_plain = max(worst_plain, float(np.max(np.abs(plain - reference_em))))
        _, scaled = penalized_weight_update(gamma, 7.0 * w, pi_old, beta, entropy_sum(pi_old))
        worst_scale = max(worst_scale, float(np.max(np.abs(scaled - pi_new))))
        d = int(rng.integers(2, 6))
        u = rng.standard_normal((n, d))
        r = np.linalg.norm(u, axis=1)
        samples = PolarSamples(r=r, a=u / r[:, None])
        v = VmfnmParams(pi_old, np.ones(k), np.ones(k), np.tile(np.eye(d)[0], (k, 1)), np.ones(k))
        params = m_step_params(gamma, batch_statistics(samples, w), v)
        params7 = m_step_params(gamma, batch_statistics(samples, 7.0 * w), v)
        for name in ("m", "omega", "mu", "kappa"):
            diff = getattr(params, name) - getattr(params7, name)
            worst_scale = max(worst_scale, float(np.max(np.abs(diff))))
    pi_old = np.array([0.9, 0.1])
    _, hand = penalized_weight_update(np.eye(2), np.ones(2), pi_old, 1.0, entropy_sum(pi_old))
    hand_ok = abs(hand[0] - 0.697750) <= 1e-6 and abs(hand[1] - 0.302249) <= 1e-6
    ok = worst_sum <= 1e-12 and worst_plain <= 1e-12 and worst_scale <= 1e-10 and hand_ok
    detail = (
        f"sum-to-1 worst {worst_sum:.1e} <= 1e-12; beta=0 vs plain worst {worst_plain:.1e}"
        f" <= 1e-12; 7x weight-scale worst {worst_scale:.1e} <= 1e-10;"
        f" hand example -> ({hand[0]:.6f}, {hand[1]:.6f})"
    )
    assert report(6, "penalized EM algebra", ok, detail)


def test_schedule_and_sigma_decrease(
    two_mode_z35, two_mode_z45, two_mode_z55, four_branch_safe, four_branch_ice, oscillator_pair
):
    exact = (
        lambda_schedule(10.0) == 0.0
        and lambda_schedule(5.0) == 0.5
        and lambda_schedule(0.0) == 1.0
    )
    batches = [
        two_mode_z35,
        two_mode_z45,
        two_mode_z55,
        four_branch_safe,
        four_branch_ice,
        *oscillator_pair,
    ]
    runs = [r for b, _ in batches for r in b if r.converged]

    # Strict decrease is required of every accepted level. When the weight
    # cv exceeds the target at every candidate level, the search keeps the
    # current level, the loop refits the proposal there, and only a second
    # consecutive repeat counts as stagnation, so a level may appear twice
    # in a row (exact equality) but never three times and never increase.
    def trace_ok(trace):
        steps = np.diff(np.asarray(trace))
        if not np.all(steps <= 0.0):
            return False
        flat = steps == 0.0
        return not np.any(flat[1:] & flat[:-1])

    bad = sum(1 for r in runs if not trace_ok(r.sigma_trace))
    repeats = sum(int(np.sum(np.diff(np.asarray(r.sigma_trace)) == 0.0)) for r in runs)
    ok = exact and bad == 0
    detail = (
        f"lambda(M)=0, lambda(M/2)=0.5, lambda(0)=1 exact: {exact};"
        f" sigma strictly decreasing across accepted levels in"
        f" {len(runs) - bad}/{len(runs)} converged runs"
        f" ({repeats} single boundary repeats)"
    )
    assert report(7, "annealing schedule", ok, detail)


def test_cli_byte_determinism():
    argv = [
        sys.executable,
        "-m",
        "safeice.cli",
        "estimate",
        "--problem",
        "two-mode",
        "--z",
        "3.5",
        "--d",
        "2",
        "--seed",
        "42",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    detail = f"two invocations, {len(first.stdout)} bytes each, identical: {ok}"
    assert report(8, "byte-identical estimate", ok, detail)
