"""Tests for the benchmark limit-state functions."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.stats import norm

from oracles import oscillator_response_rk4_reference
from safeice import problems
from safeice.problems import (
    PROBLEMS,
    four_branch,
    oscillator_lsf,
    oscillator_response,
    problem_registry,
    three_mode,
    two_mode,
)

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------- four_branch


def test_four_branch_origin():
    assert four_branch([[0.0, 0.0]], 0.0)[0] == 3.0
    assert four_branch([[0.0, 0.0]], 1.25)[0] == 4.25


def test_four_branch_swap_symmetry():
    rng = np.random.default_rng(0)
    u = rng.standard_normal((200, 2)) * 3.0
    swapped = u[:, ::-1]
    assert np.array_equal(four_branch(u, 0.7), four_branch(swapped, 0.7))


def test_four_branch_linear_branch_boundary():
    # u1 - u2 + 7/sqrt(2) vanishes at u = (-7/sqrt(2), 0) and is the minimum
    g = four_branch([[-7.0 / SQRT2, 0.0]], 0.0)
    assert g[0] == 0.0


def test_four_branch_matches_min_of_branches():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((500, 2)) * 4.0
    u1, u2 = u[:, 0], u[:, 1]
    b1 = 0.1 * (u1 - u2) ** 2 - (u1 + u2) / SQRT2 + 3.0
    b2 = 0.1 * (u1 - u2) ** 2 + (u1 + u2) / SQRT2 + 3.0
    b3 = u1 - u2 + 7.0 / SQRT2
    b4 = u2 - u1 + 7.0 / SQRT2
    expect = np.minimum(np.minimum(b1, b2), np.minimum(b3, b4)) + 0.3
    assert np.array_equal(four_branch(u, 0.3), expect)


def test_four_branch_failure_direction():
    # far along the diagonal the s-branches dominate and fail
    assert four_branch([[4.0, 4.0]], 0.0)[0] < 0.0
    assert four_branch([[-4.0, -4.0]], 0.0)[0] < 0.0


def test_four_branch_rejects_wrong_dim():
    with pytest.raises(ValueError):
        four_branch(np.zeros((3, 3)), 0.0)


# ---------------------------------------------------------------- three_mode


def test_three_mode_origin():
    assert three_mode([[0.0, 0.0]], 3.0)[0] == 3.0


def test_three_mode_first_branch_boundary():
    # u = (0, z): z - 1 - z + exp(0) + 0 = 0
    assert three_mode([[0.0, 3.0]], 3.0)[0] == 0.0


def test_three_mode_second_branch_boundary():
    # u1 u2 = z^2 / 2 makes the product branch vanish
    assert three_mode([[3.0, 1.5]], 3.0)[0] == 0.0


def test_three_mode_matches_min_of_branches():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((500, 2)) * 4.0
    u1, u2 = u[:, 0], u[:, 1]
    z = 3.0
    b1 = z - 1.0 - u2 + np.exp(-(u1**2) / 10.0) + (u1 / 5.0) ** 4
    b2 = z * z / 2.0 - u1 * u2
    assert np.array_equal(three_mode(u, z), np.minimum(b1, b2))


def test_three_mode_rejects_wrong_dim():
    with pytest.raises(ValueError):
        three_mode(np.zeros((2, 5)), 3.0)


def test_planar_problems_finite_on_random_grid():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((10**6, 2)) * 5.0
    assert np.all(np.isfinite(four_branch(u, 0.0)))
    assert np.all(np.isfinite(three_mode(u, 3.0)))


# ------------------------------------------------------------------ two_mode


def test_two_mode_at_origin_gives_z():
    for d in (1, 2, 5, 10):
        assert two_mode(np.zeros((1, d)), 4.5)[0] == 4.5


def test_two_mode_sign_symmetry():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((300, 6))
    assert np.array_equal(two_mode(u, 2.0), two_mode(-u, 2.0))


def test_two_mode_boundary():
    # sum(u)/sqrt(d) = z lands exactly on the failure surface
    u = np.full((1, 4), 1.7 / 2.0)
    assert two_mode(u, 1.7)[0] == 0.0


def test_two_mode_permutation_invariance():
    # permuting coordinates reorders the floating-point sum, so allow
    # last-ulp differences
    rng = np.random.default_rng(5)
    u = rng.standard_normal((100, 8))
    perm = rng.permutation(8)
    assert np.allclose(two_mode(u, 3.0), two_mode(u[:, perm], 3.0), rtol=0.0, atol=1e-14)


def test_two_mode_failure_fraction_matches_analytic():
    # sum(u)/sqrt(d) is standard normal, so P(g <= 0) = 2 Phi(-z)
    rng = np.random.default_rng(6)
    n, z = 10**6, 2.0
    u = rng.standard_normal((n, 3))
    frac = np.mean(two_mode(u, z) <= 0.0)
    ref = 2.0 * norm.cdf(-z)
    se = np.sqrt(ref * (1.0 - ref) / n)
    assert abs(frac - ref) <= 3.0 * se


# ---------------------------------------------------------------- oscillator


def test_oscillator_zero_forcing_is_equilibrium():
    u = np.zeros((1, 10))
    assert oscillator_response(u)[0] == 0.0
    assert oscillator_lsf(u, 0.05)[0] == 0.05


def test_oscillator_deterministic():
    rng = np.random.default_rng(7)
    u = rng.standard_normal((4, 10))
    assert np.array_equal(oscillator_response(u), oscillator_response(u))


def test_oscillator_batch_shape():
    rng = np.random.default_rng(8)
    x = oscillator_response(rng.standard_normal((6, 10)))
    assert x.shape == (6,)
    x1 = oscillator_response(rng.standard_normal(10))
    assert x1.shape == (1,)


def test_oscillator_rejects_wrong_dim():
    with pytest.raises(ValueError):
        oscillator_response(np.zeros((2, 8)))


def test_oscillator_typical_magnitude():
    rng = np.random.default_rng(9)
    x = oscillator_response(rng.standard_normal((5, 10)))
    assert np.all(np.abs(x) > 1e-5)
    assert np.all(np.abs(x) < 1.0)


def test_oscillator_hysteresis_changes_response(monkeypatch):
    rng = np.random.default_rng(10)
    u = rng.standard_normal((3, 10))
    hysteretic = oscillator_response(u)
    monkeypatch.setattr(problems, "OSC_ALPHA", 1.0)
    linear = oscillator_response(u)
    assert np.max(np.abs(linear - hysteretic)) > 1e-4


def test_oscillator_linear_scaling(monkeypatch):
    # with alpha = 1 the restoring force is linear in x, so doubling the
    # load doubles the response
    monkeypatch.setattr(problems, "OSC_ALPHA", 1.0)
    rng = np.random.default_rng(11)
    u = rng.standard_normal((3, 10))
    x1 = oscillator_response(u)
    x2 = oscillator_response(2.0 * u)
    assert np.max(np.abs(x2 - 2.0 * x1)) <= 1e-8


def test_oscillator_fourth_order_convergence(monkeypatch):
    # single-harmonic load, linear restoring force; reference from an
    # adaptive integrator at tight tolerance. Halving the step should cut
    # the endpoint error by about 2^4.
    monkeypatch.setattr(problems, "OSC_ALPHA", 1.0)
    d_omega = 30.0 * np.pi / problems.OSC_DIM
    sig = np.sqrt(2.0 * problems.OSC_INTENSITY * d_omega)
    m, k = problems.OSC_MASS, problems.OSC_STIFFNESS
    c = 2.0 * m * problems.OSC_DAMPING_RATIO * np.sqrt(k / m)

    def rhs(t, y):
        x, v = y
        f = -m * sig * np.cos(d_omega * t)
        return [v, (f - c * v - k * x) / m]

    ref = solve_ivp(rhs, (0.0, 8.0), [0.0, 0.0], rtol=1e-13, atol=1e-16, max_step=0.02)
    x_ref = ref.y[0, -1]
    u = np.zeros((1, 10))
    u[0, 0] = 1.0
    steps = (0.02, 0.01, 0.005, 0.0025)
    errs = []
    for h in steps:
        monkeypatch.setattr(problems, "OSC_DT", h)
        errs.append(abs(oscillator_response(u)[0] - x_ref))
    errs = np.array(errs)
    ratios = errs[:-1] / errs[1:]
    assert np.all(ratios > 11.0) and np.all(ratios < 22.0)
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert 3.6 <= slope <= 4.3


def test_oscillator_blowup_guard():
    with pytest.raises(ValueError, match="non-finite"):
        oscillator_response(np.full((1, 10), 1e150))


# a fixed seeded set of loads: 200 unit-scale rows and the same rows times 3
ORACLE_U = np.random.default_rng(13).standard_normal((200, 10)) * np.repeat([[1.0], [3.0]], 100, axis=0)


@pytest.mark.parametrize(
    "constants",
    [{}, {"OSC_ALPHA": 1.0}, {"OSC_DT": 0.02}],
    ids=["default", "alpha=1", "dt=0.02"],
)
def test_oscillator_matches_the_per_stage_rk4(monkeypatch, constants):
    # the folded constants round differently, so the two integrators agree
    # to a tolerance, and on every failure indicator at z = 0.05
    for name, value in constants.items():
        monkeypatch.setattr(problems, name, value)
    x = oscillator_response(ORACLE_U)
    x_ref = oscillator_response_rk4_reference(ORACLE_U)
    assert np.max(np.abs(x - x_ref)) <= 1e-12
    assert np.array_equal(x >= 0.05, x_ref >= 0.05)


def test_oscillator_pins_the_constants():
    # the per-stage reference reads the same constants, so only pinned
    # values catch a mistyped one
    x = oscillator_response(ORACLE_U[[0, 57, 150]])
    expect = [0.010069585263555822, 0.0006219787237657149, 0.05185126631128282]
    assert x == pytest.approx(expect, rel=1e-10, abs=0.0)


def test_oscillator_blocks_match_one_block(monkeypatch):
    # 200 rows in blocks of 64, 64, 64 and 8
    whole = oscillator_response(ORACLE_U)
    monkeypatch.setattr(problems, "_OSCILLATOR_BLOCK_ROWS", 64)
    assert np.max(np.abs(oscillator_response(ORACLE_U) - whole)) <= 1e-12


def test_oscillator_memory_is_bounded_by_the_block():
    # one block holds its load array, about 52 MB; the 20,000-row load
    # alone would take 256 MB
    u = np.random.default_rng(14).standard_normal((20_000, 10))
    tracemalloc.start()
    try:
        x = oscillator_response(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.shape == (20_000,)
    assert peak < 100e6


# ------------------------------------------------------------------ registry


def test_registry_two_mode():
    p = problem_registry("two-mode", 5.5, 2)
    assert p.name == "two-mode" and p.dim == 2
    u = np.random.default_rng(12).standard_normal((20, 2))
    assert np.array_equal(p.evaluate(u), two_mode(u, 5.5))


def test_registry_two_mode_dims():
    assert problem_registry("two-mode", 3.5).dim == 2
    assert problem_registry("two-mode", 3.5, 7).dim == 7
    for d in (0, 1):  # adaptive runs need a sphere of directions, d >= 2
        with pytest.raises(ValueError, match="requires d >= 2"):
            problem_registry("two-mode", 3.5, d)


@pytest.mark.parametrize(
    "name, d",
    [
        pytest.param("two-mode", 2.5, id="2.5"),
        pytest.param("two-mode", "3", id="3"),
        ("four-branch", 2.0),
        ("four-branch", "2"),
        ("oscillator", 10.0),
    ],
)
def test_registry_rejects_a_non_integer_dimension(name, d):
    # int(d) would truncate 2.5 to 2 and parse "3"; a float equal to the
    # fixed dimension is refused like any other
    with pytest.raises(ValueError, match=f"d must be an integer, got {d!r}"):
        problem_registry(name, 3.5, d)


@pytest.mark.parametrize(
    "z, d, message",
    [
        (np.nan, 2, "z must be a real number other than NaN, got nan"),
        ("3.5", 2, "z must be a real number other than NaN, got '3.5'"),
        (None, 2, "z must be a real number other than NaN, got None"),
        (True, 2, "z must be a real number other than NaN, got True"),
        (3.5, True, "d must be an integer, got True"),
    ],
)
def test_registry_names_a_bad_z_or_d(z, d, message):
    # unchecked, a NaN z shows only after a batch, as NaN values of g, a
    # string z as numpy's UFuncTypeError from inside g, and d=True as d = 1
    with pytest.raises(ValueError, match=re.escape(message)):
        problem_registry("two-mode", z, d)


def test_registry_takes_a_numpy_integer_dimension():
    assert problem_registry("two-mode", 3.5, np.int64(4)).dim == 4


def test_registry_four_branch():
    assert problem_registry("four-branch", 0.0).dim == 2
    assert problem_registry("four-branch", 0.0, 2).dim == 2
    with pytest.raises(ValueError):
        problem_registry("four-branch", 0.0, 3)


def test_registry_three_mode():
    assert problem_registry("three-mode", 3.0).dim == 2
    with pytest.raises(ValueError):
        problem_registry("three-mode", 3.0, 5)


def test_registry_oscillator():
    p = problem_registry("oscillator", 0.05, 10)
    assert p.dim == 10
    assert p.evaluate(np.zeros((1, 10)))[0] == 0.05
    assert problem_registry("oscillator", 0.05).dim == 10
    with pytest.raises(ValueError):
        problem_registry("oscillator", 0.05, 8)


def test_registry_unknown_name():
    with pytest.raises(ValueError, match="unknown problem"):
        problem_registry("banana", 1.0)


def test_registry_names_constant():
    assert tuple(PROBLEMS) == ("four-branch", "three-mode", "two-mode", "oscillator")
