"""Shape handling and reference values of the array kernels."""

import numpy as np
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


def test_laguerre_table_matches_explicit_sums():
    orders = np.arange(7)
    for s in (0, 1, 4, 6):
        for z in (0.0, 0.4, 1.3, 2.8):
            out = kernels.laguerre_table(s, orders, z)
            assert out.shape == (7,)
            ref = np.array([oracles.laguerre_sum(s, m, z) for m in range(7)])
            assert_allclose(out, ref, rtol=1e-12, atol=1e-14)


def test_laguerre_diagonal_is_the_per_degree_tables_bit_for_bit():
    for n, z in ((1, 0.5), (5, 2.0), (40, 9.0), (150, 900.0), (300, 400.0)):
        per_k = np.array([kernels.laguerre_table(k, [n - k], z)[0] for k in range(n)])
        assert kernels.laguerre_diagonal(n, z).tobytes() == per_k.tobytes()


def test_laguerre_diagonal_matches_explicit_sums():
    assert kernels.laguerre_diagonal(0, 1.0).shape == (0,)
    for n in range(1, 9):
        for z in (0.0, 0.4, 1.3, 2.8):
            ref = [oracles.laguerre_sum(k, n - k, z) for k in range(n)]
            assert_allclose(kernels.laguerre_diagonal(n, z), ref, rtol=1e-12, atol=1e-14)
