"""Truncated number-basis machinery: ladder operators, displacement,
state construction, expectations, and the midpoint propagator."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcslib import fock, states

import oracles


def test_ladder_small_matrices():
    a, adag, num = fock.ladder_matrices(2)
    assert_allclose(a, [[0, 1], [0, 0]])
    assert_allclose(adag, [[0, 0], [1, 0]])
    a, adag, num = fock.ladder_matrices(4)
    assert_allclose(np.diag(num), [0, 1, 2, 3])
    e3 = np.zeros(4)
    e3[3] = 1.0
    assert_allclose(a @ e3, math.sqrt(3) * np.eye(4)[2], rtol=1e-15)


def test_ladder_commutator_in_interior():
    a, adag, _ = fock.ladder_matrices(8)
    comm = a @ adag - adag @ a
    # identity holds away from the truncation corner
    assert_allclose(comm[:7, :7], np.eye(7), atol=1e-14)


def test_ladder_rejects_tiny_dim():
    with pytest.raises(ValueError):
        fock.ladder_matrices(1)


def test_displacement_zero_is_identity():
    assert_allclose(fock.displacement_matrix(0.0, 12), np.eye(12), atol=1e-15)


def test_displacement_inverse_composition():
    d_plus = fock.displacement_matrix(1.1 - 0.6j, 50)
    d_minus = fock.displacement_matrix(-1.1 + 0.6j, 50)
    assert np.max(np.abs((d_plus @ d_minus)[:25, :25] - np.eye(25))) < 1e-10


def test_displacement_first_column_is_poisson():
    col = fock.displacement_matrix(1.0, 40)[:, 0]
    k = np.arange(40)
    expected = np.exp(-0.5) / np.sqrt([float(math.factorial(int(j))) for j in k])
    assert_allclose(col.real, expected, atol=1e-12)
    assert np.max(np.abs(col.imag)) < 1e-14


def test_displacement_unitary_block():
    d = fock.displacement_matrix(2.0 + 1.0j, 60)
    gram = d.conj().T @ d
    assert np.max(np.abs(gram[:30, :30] - np.eye(30))) < 1e-10


@pytest.mark.parametrize("alpha,dim", [
    (0.3, 24), (1.1 - 0.6j, 40), (3.0 * np.exp(2.5j), 97), (-5.0 + 4.0j, 180),
    (8.5 * np.exp(-1.2j), 300),
])
def test_displacement_matches_expm_oracle(alpha, dim):
    # the eigensolve form against scipy's expm of the dense generator
    ref = oracles.displacement_dense(alpha, dim)
    assert np.max(np.abs(fock.displacement_matrix(alpha, dim) - ref)) <= 1e-13
    for n in (0, 1, dim // 4):
        assert np.max(np.abs(fock.gcs_vector(n, alpha, dim).coeffs - ref[:, n])) <= 1e-13


def test_gcs_vector_one_eigensolve_per_dim(monkeypatch):
    dims = []
    real = fock.dstevd

    def counted(d, e, *args):
        dims.append(d.shape[0])
        return real(d, e, *args)

    monkeypatch.setattr(fock, "dstevd", counted)
    assert fock.gcs_vector(2, 1.5, 40).dim == 40
    assert dims == [40]
    dims.clear()
    # (20, 6) starts at min_dim + 24 = 147, whose top five levels hold
    # 4.5e-13, and grows once by 1.25x
    assert fock.gcs_vector(20, 6.0).dim == 184
    assert dims == [147, 184]


def test_gcs_vector_grows_until_the_top_levels_are_empty():
    # the dims tried are start, ceil(1.25 start), ...; the last one is the
    # first whose top five levels hold <= 1e-14
    for n, alpha, start in ((20, 6.0, 147), (50, 10.0, 295), (4, 0.5, 48)):
        tried = [start]
        vec = fock.gcs_vector(n, alpha)
        while tried[-1] < vec.dim:
            tried.append(math.ceil(1.25 * tried[-1]))
        assert tried[-1] == vec.dim
        assert vec.tail_mass(5) <= 1e-14
        for dim in tried[:-1]:
            assert fock.gcs_vector(n, alpha, dim).tail_mass(5) > 1e-14


def test_displacement_small_dim_trips_tail_check():
    with pytest.raises(fock.TruncationError):
        fock.displacement_matrix(3.0, 12)


@pytest.mark.parametrize("alpha,dim", [
    (0.0, 12), (0.3, 24), (1.1 - 0.6j, 40), (3.0 * np.exp(2.5j), 97), (-5.0 + 4.0j, 180),
])
def test_displacement_columns_are_gcs_vectors(alpha, dim):
    mat = fock.displacement_matrix(alpha, dim)
    for n in range(dim // 2):
        if dim >= fock.min_dim(alpha, n):
            assert np.max(np.abs(mat[:, n] - fock.gcs_vector(n, alpha, dim).coeffs)) <= 1e-15


def _no_eigensolve(*args):
    raise AssertionError("dstevd must not run")


@pytest.mark.parametrize("call", [
    lambda: fock.min_dim(1e200),
    lambda: fock.displacement_matrix(1e200, 10),
    lambda: fock.displacement_matrix(200.0, fock.MAX_DIM + 1),
    lambda: fock.gcs_vector(0, 200.0),
    lambda: fock.gcs_vector(1, 1.0, fock.MAX_DIM + 1),
    lambda: fock.ladder_matrices(fock.MAX_DIM + 1),
], ids=["min_dim", "displacement", "displacement-dim", "grown", "gcs-dim", "ladder"])
def test_dim_above_the_cap_raises_before_any_eigensolve(monkeypatch, call):
    monkeypatch.setattr(fock, "dstevd", _no_eigensolve)
    with pytest.raises(fock.TruncationError, match=f"above MAX_DIM={fock.MAX_DIM}"):
        call()


def test_min_dim_names_the_needed_dim():
    # 200^2 + 6 * 200 + 10 + 2 = 41212
    with pytest.raises(fock.TruncationError, match="needs dim > 41212,"):
        fock.min_dim(200.0, 1)
    # 87^2 + 6 * 87 + 10 = 8101 is under the cap, 88^2 + 6 * 88 + 10 = 8282 is not
    assert fock.min_dim(87.0) == 8102
    with pytest.raises(fock.TruncationError, match="needs dim > 8282,"):
        fock.min_dim(88.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, complex(1.0, np.nan), -np.inf])
def test_non_finite_alpha_is_a_value_error(monkeypatch, alpha):
    monkeypatch.setattr(fock, "dstevd", _no_eigensolve)
    with pytest.raises(ValueError, match="alpha must be finite"):
        fock.min_dim(alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        fock.displacement_matrix(alpha, 20)
    with pytest.raises(ValueError, match="alpha must be finite"):
        fock.gcs_vector(0, alpha)


def test_growth_stops_at_the_cap(monkeypatch):
    # (20, 6) starts at 147 and needs 184; under a cap of 150 it stops after
    # the one eigensolve at 147 and names the dim it would need next
    dims = []
    real = fock.dstevd

    def counted(d, e, *args):
        dims.append(d.shape[0])
        return real(d, e, *args)

    monkeypatch.setattr(fock, "dstevd", counted)
    monkeypatch.setattr(fock, "MAX_DIM", 150)
    with pytest.raises(fock.TruncationError, match="next dim 184 is above MAX_DIM=150"):
        fock.gcs_vector(20, 6.0)
    assert dims == [147]


def test_min_dim_is_sufficient():
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for n in (0, 2, 5):
            dim = fock.min_dim(alpha, n)
            vec = fock.gcs_vector(n, alpha, dim)  # guard passes at min_dim
            assert vec.tail_mass() < 1e-9
            with pytest.raises(fock.TruncationError):
                fock.gcs_vector(n, alpha, dim - 1)


def test_non_integer_dim_is_a_value_error():
    # min_dim(1.0) = 18 and min_dim(1.0, 1) = 20: dims just above the
    # formula's value reach ladder_matrices, which rejects them
    for dim in (17.5, 30.5, 5.5):
        with pytest.raises(ValueError, match="dim must be an integer"):
            fock.displacement_matrix(1.0, dim)
    for dim in (19.5, 40.0):
        with pytest.raises(ValueError, match="dim must be an integer"):
            fock.gcs_vector(1, 1.0, dim)


def test_number_state_basics():
    vec = fock.number_state(3, 10)
    assert vec.dim == 10
    assert vec.coeffs[3] == 1.0
    assert vec.norm() == 1.0


def test_gcs_vector_alpha_zero_is_number_state():
    vec = fock.gcs_vector(3, 0.0, 20)
    assert_allclose(vec.coeffs, np.eye(20)[3], atol=1e-15)


@pytest.mark.parametrize("n,alpha", [(0, 1.0), (1, 2.0), (4, 1.5 + 0.5j)])
def test_gcs_vector_normalized(n, alpha):
    vec = fock.gcs_vector(n, alpha, 80)
    assert abs(vec.norm() - 1.0) < 1e-10


def test_gcs_vector_rejects_cramped_dim():
    with pytest.raises(fock.TruncationError):
        fock.gcs_vector(6, 1.0, 11)  # n >= dim/2
    with pytest.raises(fock.TruncationError):
        fock.gcs_vector(0, 5.0, 20)  # displaced mass escapes


def test_expectation_number_state():
    _, _, num = fock.ladder_matrices(8)
    vec = fock.number_state(3, 8)
    assert_allclose(fock.expectation(num, vec), 3.0, atol=1e-14)


def test_expectation_mean_photon_sweep():
    a, adag, num = fock.ladder_matrices(100)
    for n in range(6):
        for mag in (0.5, 1.5, 3.0):
            vec = fock.gcs_vector(n, mag, 100)
            mean = fock.expectation(num, vec).real
            assert_allclose(mean, n + mag**2, atol=1e-8)


def test_expectation_annihilation_on_coherent():
    a, _, _ = fock.ladder_matrices(60)
    alpha = 1.7 - 0.4j
    vec = fock.gcs_vector(0, alpha, 60)
    assert abs(fock.expectation(a, vec) - alpha) < 1e-9


def test_expectation_shape_mismatch():
    _, _, num = fock.ladder_matrices(8)
    with pytest.raises(ValueError):
        fock.expectation(num, fock.number_state(1, 9))


def test_expectation_guards_leaky_tail():
    coeffs = np.zeros(6, dtype=complex)
    coeffs[-1] = 1.0
    vec = fock.FockVector(coeffs)
    _, _, num = fock.ladder_matrices(6)
    with pytest.raises(fock.TruncationError):
        fock.expectation(num, vec)


# The number distribution of a displaced |n> has spread (2n+1)|alpha|^2, not
# |alpha|^2: displacement feeds n into the fluctuations through cross terms.
# The advertised closed form photon_variance() drops that factor, so for
# n >= 1 this check documents the gap rather than papering over it.
@pytest.mark.parametrize("n", [0, 1, 2])
def test_variance_invariant_under_displacement(n):
    alpha = 1.5
    a, adag, num = fock.ladder_matrices(100)
    vec = fock.gcs_vector(n, alpha, 100)
    mean = fock.expectation(num, vec).real
    second = fock.expectation(num @ num, vec).real
    measured = second - mean**2
    assert_allclose(
        measured,
        states.photon_variance(n, alpha),
        rtol=1e-7,
        err_msg=(
            f"measured spread {measured:.12g} equals (2n+1)|alpha|^2 = "
            f"{(2 * n + 1) * alpha**2:.12g} for n={n}, not |alpha|^2"
        ),
    )


def test_evolve_stationary_state_one_period():
    dim = 12
    ham = fock.TridiagonalHamiltonian(np.arange(dim) + 0.5, np.zeros(dim - 1), np.zeros_like)
    vec = fock.number_state(2, dim)
    out = fock.schrodinger_evolve(ham, vec, 0.0, 2.0 * math.pi, 200)
    amp = np.vdot(vec.coeffs, out.coeffs)
    assert abs(abs(amp) - 1.0) < 1e-8
    # e2 picks up e^{-i 5 pi} = -1 over one period
    assert abs(amp - (-1.0)) < 1e-8


def _constant_force(dim):
    # num + 0.3 (a + adag)
    return fock.TridiagonalHamiltonian(
        np.arange(dim, dtype=float), np.sqrt(np.arange(1.0, dim)), lambda t: np.full_like(t, 0.3)
    )


def test_evolve_constant_hamiltonian_step_invariance():
    dim = 30
    ham = _constant_force(dim)
    vec = fock.gcs_vector(1, 0.5, dim)
    one = fock.schrodinger_evolve(ham, vec, 0.0, 2.0, 1)
    many = fock.schrodinger_evolve(ham, vec, 0.0, 2.0, 1000)
    assert np.max(np.abs(one.coeffs - many.coeffs)) < 1e-8


def test_evolve_rejects_plain_callable():
    # only the banded form is integrated; a dense callable is not accepted
    _, _, num = fock.ladder_matrices(4)
    with pytest.raises(TypeError, match="TridiagonalHamiltonian"):
        fock.schrodinger_evolve(lambda t: num, fock.number_state(0, 4), 0.0, 1.0, 10)


def test_evolve_rejects_bad_steps():
    with pytest.raises(ValueError):
        fock.schrodinger_evolve(_constant_force(4), fock.number_state(0, 4), 0.0, 1.0, 0)


def test_tridiagonal_hamiltonian_validation():
    with pytest.raises(ValueError):
        fock.TridiagonalHamiltonian(np.ones(4), np.ones(4), lambda t: 0.0 * t)
    with pytest.raises(ValueError):
        fock.TridiagonalHamiltonian(np.array([0.5, np.inf]), np.ones(1), lambda t: 0.0 * t)

