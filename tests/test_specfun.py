"""Polynomial recurrences and eigenfunctions against explicit-sum and
high-precision oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from gcslib import kernels, specfun

import oracles

# frozen from tests/oracles.py (explicit sums; mpmath at 50 digits; sum of ln k)
HERMITE_5_AT_1_3 = -76.70623999999998
LAGUERRE_3_2_AT_1_5 = 0.0625
LAGUERRE_4_AT_2 = 0.3333333333333336
EIGEN_7_2_AT_0_9 = 0.4912876025064285
GROUND_PEAK = 0.7511255444649425  # pi ** -0.25
LOG_FACT_170 = 706.5730622457876


@pytest.mark.parametrize(
    "n,z,expected",
    [(0, 1.7, 1.0), (1, 2.0, 4.0), (5, 1.3, HERMITE_5_AT_1_3)],
)
def test_hermite_values(n, z, expected):
    assert_allclose(specfun.hermite(n, z), expected, rtol=1e-12)


def test_hermite_matches_explicit_sum():
    for n in range(13):
        for z in np.linspace(-3.0, 3.0, 13):
            ref = oracles.hermite_sum(n, z)
            assert_allclose(
                specfun.hermite(n, z), ref, rtol=1e-12, atol=1e-12, err_msg=f"{n=} {z=}"
            )


def test_hermite_overflows_cleanly():
    with pytest.raises(OverflowError):
        specfun.hermite(400, 30.0)


@pytest.mark.parametrize("bad", [-1, 2.5, "3"])
def test_index_validation(bad):
    with pytest.raises(ValueError):
        specfun.hermite(bad, 1.0)
    with pytest.raises(ValueError):
        specfun.laguerre_assoc(2, bad, 1.0)


@pytest.mark.parametrize(
    "k,m,z,expected",
    [
        (0, 3, 0.5, 1.0),
        (1, 0, 2.0, -1.0),
        (3, 2, 1.5, LAGUERRE_3_2_AT_1_5),
    ],
)
def test_laguerre_assoc_values(k, m, z, expected):
    assert_allclose(specfun.laguerre_assoc(k, m, z), expected, rtol=1e-12, atol=1e-15)


def test_laguerre_matches_explicit_sum():
    for k in range(13):
        for m in range(7):
            for z in (0.0, 0.3, 1.5, 2.9):
                ref = oracles.laguerre_sum(k, m, z)
                got = specfun.laguerre_assoc(k, m, z)
                assert abs(got - ref) / max(1.0, abs(ref)) < 1e-12


def test_laguerre_assoc_is_the_table_entry_bit_for_bit():
    # the scalar recurrence repeats the table's arithmetic; where the table
    # entry is not finite (overflow to inf, then inf - inf) it raises instead
    nonfinite = 0
    for k in list(range(40)) + [100, 1000, 2500]:
        for m in (0, 1, 3, 50, 300):
            for z in (0.0, 0.5, 2.0, 30.0, 900.0, 1600.0, 1e5, 1e200):
                with np.errstate(over="ignore", invalid="ignore"):
                    ref = kernels.laguerre_table(k, [m], z)[k, 0]
                if not np.isfinite(ref):
                    nonfinite += 1
                    with pytest.raises(ValueError, match="float range"):
                        specfun.laguerre_assoc(k, m, z)
                    continue
                got = specfun.laguerre_assoc(k, m, z)
                assert np.float64(got).tobytes() == ref.tobytes(), (k, m, z)
    assert nonfinite > 100


def test_laguerre_assoc_memory_is_flat():
    tracemalloc.start()
    try:
        specfun.laguerre_assoc(10**5, 3, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


@pytest.mark.parametrize(
    "n,z,expected", [(0, 7.3, 1.0), (1, 1.0, 0.0), (4, 2.0, LAGUERRE_4_AT_2)]
)
def test_laguerre_plain(n, z, expected):
    assert_allclose(specfun.laguerre(n, z), expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "n,omega,x,expected",
    [(0, 1.0, 0.0, GROUND_PEAK), (1, 1.0, 0.0, 0.0), (7, 2.0, 0.9, EIGEN_7_2_AT_0_9)],
)
def test_eigenfunction_values(n, omega, x, expected):
    assert_allclose(specfun.eigenfunction(n, omega, x), expected, rtol=1e-12, atol=1e-14)


def test_eigenfunction_against_mpmath():
    # spot checks where the direct factorial formula is exact to 50 digits
    for n, omega, x in [(3, 1.0, -1.4), (12, 0.7, 2.2), (40, 1.0, 0.5), (25, 3.1, -0.8)]:
        ref = oracles.eigenfunction_mp(n, omega, x)
        assert_allclose(specfun.eigenfunction(n, omega, x), ref, rtol=1e-11, atol=1e-13)


def test_eigenfunction_large_n_stays_finite():
    x = np.linspace(-25.0, 25.0, 501)
    vals = specfun.eigenfunction(200, 1.0, x)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0


def test_eigenfunction_parity():
    x = np.linspace(0.0, 6.0, 101)
    for n in range(9):
        left = specfun.eigenfunction(n, 1.3, -x)
        right = (-1.0) ** n * specfun.eigenfunction(n, 1.3, x)
        assert np.max(np.abs(left - right)) < 1e-14


@pytest.mark.parametrize("omega", [1.0, 2.5])
def test_eigenfunction_orthonormality(omega):
    lim = 12.0 / math.sqrt(omega)
    x = np.linspace(-lim, lim, 4097)
    funcs = np.array([specfun.eigenfunction(n, omega, x) for n in range(21)])
    gram = simpson(funcs[:, None, :] * funcs[None, :, :], x=x, axis=-1)
    assert np.max(np.abs(gram - np.eye(21))) < 1e-8


def test_eigenfunction_rejects_bad_omega():
    with pytest.raises(ValueError):
        specfun.eigenfunction(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.eigenfunction(2, -1.5, 1.0)


@pytest.mark.parametrize("n,x", [(800, 39.0), (800, 40.5), (760, 38.65), (720, 37.9)])
def test_eigenfunction_past_seed_underflow(n, x):
    # exp(-x^2/2) alone is below 1e-296 here; the unscaled seed returned 0.0
    ref = oracles.eigenfunction_mp(n, 1.0, x)
    assert_allclose(specfun.eigenfunction(n, 1.0, x), ref, rtol=1e-12)


@pytest.mark.parametrize("n,x", [(1500, 54.7), (3000, 77.4)])
def test_eigenfunction_past_float_range(n, x):
    # the seed shift is 2^1178 and 2^3340 here, so the scaled values pass
    # the float range on their way up and are rescaled one or more times
    ref = oracles.eigenfunction_mp(n, 1.0, x)
    assert_allclose(specfun.eigenfunction(n, 1.0, x), ref, rtol=1e-12)


@pytest.mark.parametrize("n,x", [(600, 110.0), (500, 200.0), (800, 90.0), (800, 1000.0)])
def test_eigenfunction_far_tail_underflows_to_zero(n, x):
    # phi_n is below the float range here, while its scaled value, phi_n
    # times exp(x^2/2 - 680), is above it
    assert specfun.eigenfunction(n, 1.0, x) == 0.0
    assert specfun.eigenfunction(n, 1.0, -x) == 0.0


@pytest.mark.parametrize("omega", [math.inf, math.nan])
def test_eigenfunction_rejects_non_finite_omega(omega):
    with pytest.raises(ValueError, match="finite and positive"):
        specfun.eigenfunction(2, omega, 1.0)


@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
def test_eigenfunction_rejects_non_finite_y(y):
    with pytest.raises(ValueError, match="not finite"):
        specfun.eigenfunction(3, 1.0, np.array([0.5, y]))
    if math.isinf(y):
        assert specfun.eigenfunction(0, 1.0, y) == 0.0
    else:
        with pytest.raises(ValueError, match="not finite"):
            specfun.eigenfunction(0, 1.0, y)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(0, 800), omega=st.floats(0.1, 10.0), u=st.floats(-1.0, 1.0))
def test_eigenfunction_matches_mpmath(n, omega, u):
    # y over the allowed region plus 3 ground-state widths on each side; the
    # absolute slack covers the points next to a node of phi_n
    y = u * (math.sqrt((2 * n + 1) / omega) + 3.0 / math.sqrt(omega))
    got = specfun.eigenfunction(n, omega, y)
    ref = oracles.eigenfunction_mp(n, omega, y)
    assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * (omega / math.pi) ** 0.25)


def test_log_factorial_small_exact():
    for n in range(21):
        assert_allclose(specfun.log_factorial(n), math.log(math.factorial(n)) if n else 0.0, rtol=1e-15)


@pytest.mark.parametrize("n,expected", [(0, 0.0), (5, math.log(120.0)), (170, LOG_FACT_170)])
def test_log_factorial_values(n, expected):
    assert_allclose(specfun.log_factorial(n), expected, rtol=1e-13)


def test_log_factorial_monotone():
    vals = [specfun.log_factorial(n) for n in range(0, 300, 7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
