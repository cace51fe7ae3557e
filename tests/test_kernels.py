"""Shape handling and reference values of the array kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcslib import kernels

import oracles


def test_hermite_functions_scalar_returns_float():
    out = kernels.hermite_functions(3, 1.0, 0.7)
    assert isinstance(out, float)


def test_hermite_functions_preserves_shape():
    y = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
    out = kernels.hermite_functions(2, 1.5, y)
    assert out.shape == (3, 4)
    flat = kernels.hermite_functions(2, 1.5, y.ravel())
    assert_allclose(out.ravel(), flat, rtol=0, atol=0)


def test_hermite_functions_match_reference_sums():
    y = np.linspace(-3.0, 3.0, 41)
    for n in (0, 1, 4, 9):
        got = kernels.hermite_functions(n, 2.0, y)
        ref = np.array([oracles.eigenfunction_mp(n, 2.0, x) for x in y])
        assert_allclose(got, ref, rtol=1e-11, atol=1e-13)


def _same_bytes(n, omega, y):
    got = kernels.hermite_functions(n, omega, y)
    ref = oracles.hermite_functions_recurrence(n, omega, y)
    assert np.shape(got) == np.shape(ref)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (n, omega, np.shape(y))


@pytest.mark.parametrize("size", [0, 1, 8191, 8192, 8193, 3 * 8192 + 5])
def test_hermite_functions_blocks_are_the_recurrence_bit_for_bit(size):
    y = np.random.default_rng(size).uniform(-12.0, 12.0, size)
    for n in (0, 1, 17):
        _same_bytes(n, 1.0, y)


@pytest.mark.parametrize("shape", [(128, 2048), (3, 41, 67), ()])
def test_hermite_functions_shapes_are_the_recurrence_bit_for_bit(shape):
    y = np.random.default_rng(7).uniform(-6.0, 6.0, shape)
    _same_bytes(17, 1.3, y if shape else float(y))
    _same_bytes(4, 0.8, y[..., ::3] if shape else float(y))  # strided input


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.3])
@pytest.mark.parametrize("n", [0, 1, 2, 17, 40, 200])
def test_hermite_functions_levels_are_the_recurrence_bit_for_bit(n, omega):
    y = np.random.default_rng(n).uniform(-25.0, 25.0, 2 * 8192 + 3) / np.sqrt(omega)
    _same_bytes(n, omega, y)


def test_hermite_functions_unshifted_points_keep_their_bits_next_to_shifted_ones():
    # |y| past sqrt(1360 / omega) takes a shifted seed; the points short of
    # it, in the same blocks, must still be the unscaled recurrence
    for omega in (1.0, 2.3):
        y = np.random.default_rng(3).uniform(-60.0, 60.0, 2 * 8192 + 3) / np.sqrt(omega)
        near = 0.5 * omega * y * y < 680.0
        assert 0 < near.sum() < y.size
        for n in (0, 1, 40, 200):
            got = kernels.hermite_functions(n, omega, y)
            ref = oracles.hermite_functions_recurrence(n, omega, y)
            assert got[near].tobytes() == ref[near].tobytes(), (n, omega)
            assert np.isfinite(got).all()


def test_hermite_functions_names_the_first_bad_point():
    y = np.zeros(3 * 8192)
    y[8192 + 5], y[-1] = np.nan, np.inf
    with pytest.raises(ValueError, match=r"phi_3\(y\) is not finite at y = nan"):
        kernels.hermite_functions(3, 1.0, y)


def test_laguerre_table_matches_explicit_sums():
    orders = np.arange(7)
    for s in (0, 1, 4, 6):
        for z in (0.0, 0.4, 1.3, 2.8):
            out = kernels.laguerre_table(s, orders, z)
            assert out.shape == (s + 1, 7)
            ref = [[oracles.laguerre_sum(j, m, z) for m in range(7)] for j in range(s + 1)]
            assert_allclose(out, ref, rtol=1e-12, atol=1e-14)


def test_laguerre_table_rows_are_the_one_degree_recurrence_bit_for_bit():
    d = np.arange(40)
    for s, z in ((0, 1.0), (1, 0.5), (7, 2.0), (40, 9.0), (150, 900.0)):
        table = kernels.laguerre_table(s, d, z)
        for j in range(s + 1):
            assert table[j].tobytes() == oracles.laguerre_last_row(j, d, z).tobytes(), (s, j)


def _diagonal(n, z):
    # entry [k, n - k] is L_k^{n-k}(z), k < n: what the number-basis
    # amplitudes below n read
    k = np.arange(n)
    return kernels.laguerre_table(n, np.arange(n + 1), z)[k, n - k]


def test_laguerre_diagonal_is_the_per_degree_tables_bit_for_bit():
    for n, z in ((1, 0.5), (5, 2.0), (40, 9.0), (150, 900.0), (300, 400.0)):
        per_k = np.array([oracles.laguerre_last_row(k, [n - k], z)[0] for k in range(n)])
        assert _diagonal(n, z).tobytes() == per_k.tobytes()
        assert _diagonal(n, z).tobytes() == oracles.laguerre_diagonal(n, z).tobytes()


def test_laguerre_diagonal_matches_explicit_sums():
    assert _diagonal(0, 1.0).shape == (0,)
    for n in range(1, 9):
        for z in (0.0, 0.4, 1.3, 2.8):
            ref = [oracles.laguerre_sum(k, n - k, z) for k in range(n)]
            assert_allclose(_diagonal(n, z), ref, rtol=1e-12, atol=1e-14)
