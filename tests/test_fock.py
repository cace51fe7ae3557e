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
    # every column the rule returns matches; the n = dim // 4 columns it
    # refuses at the three larger |alpha| hold 6.0e-14, 1.1e-2 and 2.3e-2 in
    # the top five levels of the expm column too
    ref = oracles.displacement_dense(alpha, dim)
    assert np.max(np.abs(fock.displacement_matrix(alpha, dim) - ref)) <= 1e-13
    for n in (0, 1, dim // 8, dim // 4):
        if np.sum(np.abs(ref[-5:, n]) ** 2) > fock.TOP_MASS:
            with pytest.raises(fock.TruncationError, match=f"column n={n} hold"):
                fock.gcs_vector(n, alpha, dim)
        else:
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
    # (20, 6) starts at ceil(110.8 + 42 + 2 sqrt 20 + 12) = 174, which holds
    assert fock.gcs_vector(20, 6.0).dim == 174
    assert dims == [174]


def test_gcs_vector_grows_until_the_top_levels_are_empty(monkeypatch):
    # start_dim is never short, so start each column just above its edge:
    # the dims tried are start, ceil(1.25 start), ...; the last one is the
    # first whose top five levels hold <= 1e-14
    for n, alpha in ((20, 6.0), (50, 10.0), (4, 0.5)):
        start = math.floor(fock._edge(alpha, n)) + 1
        monkeypatch.setattr(fock, "start_dim", lambda alpha, n=0: start)
        tried = [start]
        vec = fock.gcs_vector(n, alpha)
        while tried[-1] < vec.dim:
            tried.append(math.ceil(1.25 * tried[-1]))
        assert tried[-1] == vec.dim > start
        assert vec.tail_mass(5) <= 1e-14
        for dim in tried[:-1]:
            with pytest.raises(fock.TruncationError, match=f"at dim={dim},"):
                fock.gcs_vector(n, alpha, dim)


def test_displacement_small_dim_trips_tail_check():
    with pytest.raises(fock.TruncationError):
        fock.displacement_matrix(3.0, 12)


@pytest.mark.parametrize("alpha,dim", [
    (0.0, 12), (0.3, 24), (1.1 - 0.6j, 40), (3.0 * np.exp(2.5j), 97), (-5.0 + 4.0j, 180),
])
def test_displacement_columns_are_gcs_vectors(alpha, dim):
    # every column the rule accepts at this dim; it accepts a low block
    mat = fock.displacement_matrix(alpha, dim)
    accepted = []
    for n in range(dim // 2):
        try:
            vec = fock.gcs_vector(n, alpha, dim)
        except fock.TruncationError:
            continue
        accepted.append(n)
        assert np.max(np.abs(mat[:, n] - vec.coeffs)) <= 1e-15
    assert accepted == list(range(len(accepted))) and len(accepted) >= 6


def _no_eigensolve(*args):
    raise AssertionError("dstevd must not run")


@pytest.mark.parametrize("call", [
    lambda: fock.start_dim(1e200),
    lambda: fock.displacement_matrix(1e200, 10),
    lambda: fock.displacement_matrix(200.0, fock.MAX_DIM + 1),
    lambda: fock.gcs_vector(0, 200.0),
    lambda: fock.gcs_vector(1, 1.0, fock.MAX_DIM + 1),
    lambda: fock.ladder_matrices(fock.MAX_DIM + 1),
], ids=["start_dim", "displacement", "displacement-dim", "grown", "gcs-dim", "ladder"])
def test_dim_above_the_cap_raises_before_any_eigensolve(monkeypatch, call):
    monkeypatch.setattr(fock, "dstevd", _no_eigensolve)
    with pytest.raises(fock.TruncationError, match=f"above MAX_DIM={fock.MAX_DIM}"):
        call()


def test_start_dim_names_the_needed_dim():
    # (200 + sqrt 1.5)^2 = 40491.4 is the edge of level 1
    with pytest.raises(fock.TruncationError, match="classical edge 40491.4 is above"):
        fock.start_dim(200.0, 1)
    # ceil((80 + sqrt 0.5)^2 + 560 + 12) = 7086 is under the cap; at 89 the
    # edge 8047.4 is too, but the start 8683 is not
    assert fock.start_dim(80.0) == 7086
    with pytest.raises(fock.TruncationError, match="starts at dim 8683, above MAX_DIM"):
        fock.start_dim(89.0)
    # a given dim below that edge is refused before any eigensolve
    with pytest.raises(fock.TruncationError, match="not above the classical edge 8047.37"):
        fock.displacement_matrix(89.0, 8000)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, complex(1.0, np.nan), -np.inf])
def test_non_finite_alpha_is_a_value_error(monkeypatch, alpha):
    monkeypatch.setattr(fock, "dstevd", _no_eigensolve)
    with pytest.raises(ValueError, match="alpha must be finite"):
        fock.start_dim(alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        fock.displacement_matrix(alpha, 20)
    with pytest.raises(ValueError, match="alpha must be finite"):
        fock.gcs_vector(0, alpha)


def test_growth_stops_at_the_cap(monkeypatch):
    # started at 147, (20, 6) keeps 4.5e-13 in its top five levels and needs
    # 184; under a cap of 150 it stops after the one eigensolve at 147 and
    # names the dim it would need next
    dims = []
    real = fock.dstevd

    def counted(d, e, *args):
        dims.append(d.shape[0])
        return real(d, e, *args)

    monkeypatch.setattr(fock, "dstevd", counted)
    monkeypatch.setattr(fock, "start_dim", lambda alpha, n=0: 147)
    monkeypatch.setattr(fock, "MAX_DIM", 150)
    with pytest.raises(fock.TruncationError, match="next dim 184 is above MAX_DIM=150"):
        fock.gcs_vector(20, 6.0)
    assert dims == [147]


def test_start_dim_is_sufficient(monkeypatch):
    # every grown column takes the one eigensolve at start_dim and agrees
    # with the closed form to 1e-7 (to 1.9e-8 on a wider grid, e < 650)
    dims = []
    real = fock.dstevd

    def counted(d, e, *args):
        dims.append(d.shape[0])
        return real(d, e, *args)

    monkeypatch.setattr(fock, "dstevd", counted)
    for n in (0, 1, 3, 8, 20, 50):
        for mag in (0.05, 0.5, 1.5, 3.0, 6.0, 9.0, 12.0):
            alpha = mag * np.exp(0.7j)
            start = fock.start_dim(alpha, n)
            if start > 300:
                continue
            dims.clear()
            vec = fock.gcs_vector(n, alpha)
            assert dims == [start] == [vec.dim], (n, mag)
            ref = states.number_expansion(n, alpha, vec.dim - 1)
            assert np.max(np.abs(vec.coeffs - ref)) <= 1e-7, (n, mag)


def test_revival_below_the_classical_edge_raises():
    # at n = 0, |alpha| = 12 (edge 161.47) the truncated operator nearly
    # revives: at dims 33 and 40 the expm column is mostly |0>, and its top
    # five levels hold 8.0e-15 and 4.9e-21, so a guard on mass alone would
    # return it
    for dim in (33, 40):
        col = oracles.displacement_dense(12.0, dim)[:, 0]
        assert abs(col[0]) > 0.75 and np.sum(np.abs(col[-5:]) ** 2) <= fock.TOP_MASS
    for dim in range(30, 41):
        with pytest.raises(fock.TruncationError, match="not above the classical edge 161.471 "):
            fock.gcs_vector(0, 12.0, dim)


@pytest.mark.parametrize("n,alpha,dim,match", [
    (50, 12.93, 355, "not above the classical edge 401.4"),  # column error 0.11
    (20, 8.0, 163, "hold 2.106e-02"),
    (5, 3.0, 48, "hold 3.978e-08"),  # column error 3e-6
])
def test_columns_a_heuristic_dim_accepted_raise(n, alpha, dim, match):
    with pytest.raises(fock.TruncationError, match=match):
        fock.gcs_vector(n, alpha, dim)


@pytest.mark.parametrize("n", [0, 3, 17])
def test_undisplaced_level_needs_five_empty_levels_above_it(n):
    with pytest.raises(fock.TruncationError, match="hold 1.000e"):
        fock.gcs_vector(n, 0.0, n + 5)
    vec = fock.gcs_vector(n, 0.0, n + 6)
    assert vec.coeffs.tobytes() == np.eye(n + 6, dtype=complex)[n].tobytes()


def test_non_integer_dim_is_a_value_error():
    # alpha = 1 is finite, so these reach the dim check, which rejects them
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
        fock.gcs_vector(6, 1.0, 11)  # below the classical edge 12.6
    with pytest.raises(fock.TruncationError):
        fock.gcs_vector(0, 5.0, 20)  # below the classical edge 32.6


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

