"""Closed-form state machinery: trajectories, wavefunctions, overlaps,
expansions, photon and field statistics, coherence, completeness."""

import cmath
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from gcslib import fock, kernels, specfun, states

import oracles

# frozen from independent quadrature routes in tests/oracles.py
POSITION_ALPHA3_T_PI3 = 2.1213203435596424  # Simpson x|psi|^2, 8193 pts
MOMENTUM_N1_A3E04_T09 = -2.034030296429653  # 4th-order d/dx + Simpson, 16385 pts
OVERLAP_2_HALFJ_ONE = 0.08543274830125404 - 0.04667212311117309j  # 60-dim columns
PHOTON_2_10_100 = 0.01993049840457351  # |<100|D(10)|2>|^2 at dim 220


def test_label_normalizes_types():
    lab = states.GcsLabel(2, 1.5)
    assert isinstance(lab.alpha, complex)
    assert lab.alpha_mag == 1.5
    assert lab.theta == 0.0
    lab = states.GcsLabel(0, 2j)
    assert_allclose(lab.theta, math.pi / 2)


def test_label_validation():
    with pytest.raises(ValueError):
        states.GcsLabel(-1, 1.0)
    with pytest.raises(ValueError):
        states.GcsLabel(0, 1.0, omega=0.0)


@pytest.mark.parametrize(
    "alpha, omega", [(math.nan, 1.0), (complex(0.5, math.inf), 1.0), (1.0, math.inf)]
)
def test_label_rejects_non_finite(alpha, omega):
    # a NaN or infinite label would flow into every closed form as data
    with pytest.raises(ValueError, match="must be finite"):
        states.GcsLabel(0, alpha, omega)


def test_label_rejects_alpha_whose_square_overflows():
    # |alpha|^2 = 1e400 is not a float: every closed form would overflow
    for alpha in (1e200, complex(0.0, -1e155), complex(1.3e308, 1.3e308)):
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 and omega must be finite"):
            states.GcsLabel(1, alpha)
    assert states.GcsLabel(1, 1e150).alpha_mag == 1e150


@pytest.mark.parametrize("call, name", [
    (lambda: states.mean_photon(-1, 2), "n"),
    (lambda: states.field_variance(-3, 1.0), "n"),
    (lambda: states.fractional_uncertainty(-2, 1.0), "n"),
    (lambda: states.g2(1, math.inf), "alpha"),
    (lambda: states.mean_photon(1, math.nan), "alpha"),
    (lambda: states.photon_distribution(1.5, 1.0, 5), "n"),
    (lambda: states.photon_distribution(-1, 1.0, 5), "n"),
    (lambda: states.photon_variance(2, 1e200), "alpha"),
    (lambda: states.number_expansion(1, math.nan, 5), "alpha"),
    (lambda: states.photon_probability(-2, 1.0, 3), "n"),
    (lambda: states.overlap(1, 0.5, 1e200), "alpha"),
    (lambda: states.field_expectation(-1, 1.0, 1.0, 0.0, 0.0), "n"),
    (lambda: states.quadrature_variances(2.5), "n"),
], ids=["mean_photon-n", "field_variance-n", "fractional_uncertainty-n", "g2-alpha",
        "mean_photon-alpha", "photon_distribution-n-float", "photon_distribution-n",
        "photon_variance-alpha", "number_expansion-alpha", "photon_probability-n",
        "overlap-alpha", "field_expectation-n", "quadrature_variances-n"])
def test_closed_forms_reject_bad_n_and_alpha(call, name):
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        call()


def test_grid_validation():
    with pytest.raises(ValueError):
        states.SpatialGrid(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        states.SpatialGrid(0.0, 1.0, 1)


def test_default_grid_covers_turning_points():
    lab = states.GcsLabel(0, 3.0, omega=4.0)
    grid = states.default_grid(lab, points=64)
    turning = math.sqrt(2.0 / 4.0) * 3.0
    assert grid.x_max > turning + 3.9
    assert grid.x_min == -grid.x_max
    assert grid.values.shape == (64,)
    # at n = 40 the n-state's own turning points sqrt(2n+1) widen the grid,
    # so even the frames at the largest displacement keep their mass
    lab = states.GcsLabel(40, 3.0)
    grid = states.default_grid(lab, points=4097)
    for t in np.linspace(0.0, math.pi, 9):
        mass = simpson(states.density_grid(lab, grid, t), x=grid.values)
        assert abs(mass - 1.0) < 1e-12, (t, mass)


def test_position_expectation_values():
    lab = states.GcsLabel(0, 3.0)
    assert_allclose(states.position_expectation(lab, 0.0), 3.0 * math.sqrt(2.0), rtol=1e-15)
    assert_allclose(
        states.position_expectation(lab, math.pi / 3.0), POSITION_ALPHA3_T_PI3, rtol=1e-9
    )
    assert states.position_expectation(states.GcsLabel(2, 0.0), 1.3) == 0.0


def test_momentum_expectation_values():
    lab = states.GcsLabel(1, 3.0 * cmath.exp(0.4j))
    assert_allclose(states.momentum_expectation(lab, 0.9), MOMENTUM_N1_A3E04_T09, rtol=1e-8)
    # momentum vanishes when omega t aligns with the label phase
    assert abs(states.momentum_expectation(lab, 0.4)) < 1e-15


def test_trajectory_respects_omega_scaling():
    lab = states.GcsLabel(0, 2.0, omega=4.0)
    assert_allclose(states.position_expectation(lab, 0.0), 2.0 * math.sqrt(0.5), rtol=1e-15)
    assert_allclose(
        states.momentum_expectation(lab, math.pi / 8.0), -2.0 * math.sqrt(8.0), rtol=1e-12
    )


def test_wavefunction_scalar_values():
    psi = states.wavefunction(states.GcsLabel(0, 0.0), 0.0, 0.0)
    assert isinstance(psi, complex)
    assert_allclose(psi, math.pi**-0.25, rtol=1e-13)
    assert states.wavefunction(states.GcsLabel(1, 0.0), 0.0, 0.0) == 0.0


@pytest.mark.parametrize("n,alpha,t", [(0, 1.0, 0.0), (1, 2.0, 0.7), (2, 1.5j, 2.1)])
def test_wavefunction_unit_norm(n, alpha, t):
    lab = states.GcsLabel(n, alpha)
    x = states.default_grid(lab, points=4097).values
    dens = np.abs(states.wavefunction(lab, x, t)) ** 2
    assert_allclose(simpson(dens, x=x), 1.0, atol=1e-8)


@pytest.mark.parametrize("n,alpha", [(0, 3.0), (1, 0.0), (2, 1.0 + 1.0j)])
@pytest.mark.parametrize("t", [0.0, 0.9])
def test_wavefunction_solves_equation_of_motion(n, alpha, t):
    lab = states.GcsLabel(n, alpha)
    offset = states.position_expectation(lab, t)
    x = np.linspace(-8.0, 8.0, 41) + offset
    res = oracles.schrodinger_residual(
        lambda xs, ts: states.wavefunction(lab, xs, ts), 1.0, x, t
    )
    assert res < 1e-4


def test_density_grid_is_translated_profile():
    lab = states.GcsLabel(2, 2.0)
    grid = states.default_grid(lab, points=801)
    t = 1.1
    dens = states.density_grid(lab, grid, t)
    assert_allclose(dens, np.abs(states.wavefunction(lab, grid.values, t)) ** 2, atol=1e-13)


def test_overlap_same_label_is_one():
    for n in range(4):
        assert_allclose(states.overlap(n, 1.3 - 0.2j, 1.3 - 0.2j), 1.0, atol=1e-14)


def test_overlap_frozen_value():
    got = states.overlap(2, 0.5 + 0.5j, 1.0)
    assert abs(got - OVERLAP_2_HALFJ_ONE) < 1e-9


def test_overlap_magnitude_decay_law():
    alpha, beta = 1.0, 0.5 + 0.5j
    for n in range(5):
        got = abs(states.overlap(n, beta, alpha))
        law = math.exp(-0.5 * abs(alpha - beta) ** 2) * abs(
            oracles.laguerre_sum(n, 0, abs(alpha - beta) ** 2)
        )
        assert_allclose(got, law, rtol=1e-12)


@pytest.mark.parametrize("n, alpha", [(700, 40.0), (400, 45.0)])
def test_overlap_raises_where_the_laguerre_recurrence_leaves_the_float_range(n, alpha):
    # true values 3.6e-4 and 7e-32; L_n(alpha^2) passes inf on the way
    with pytest.raises(ValueError, match="float range"):
        states.overlap(n, 0, alpha)


def test_overlap_matches_mpmath_below_the_float_range():
    import mpmath as mp

    with mp.workdps(40):
        ref = float(mp.exp(-450) * mp.laguerre(300, 0, 900))
    got = states.overlap(300, 0, 30)
    assert got.imag == 0.0 and abs(got.real - ref) <= 1e-14
    assert abs(ref + 0.0271208908) < 1e-10


def test_overlap_vs_matrix_oracle():
    for n in (0, 1, 3):
        ref = oracles.overlap_pair(n, 0.5 + 0.5j, 1.0)
        assert abs(states.overlap(n, 0.5 + 0.5j, 1.0) - ref) < 1e-9


@pytest.mark.parametrize("n,m,alpha", [(2, 2, 1.3), (1, 3, 2.0), (0, 1, 0.0)])
def test_orthonormality_under_displacement(n, m, alpha):
    assert states.orthonormality_check(n, m, alpha) < 1e-10


def test_number_expansion_alpha_zero():
    c = states.number_expansion(3, 0.0, 7)
    assert_allclose(c, np.eye(8)[3], atol=1e-15)


def test_number_expansion_ground_is_poissonian():
    c = states.number_expansion(0, 1.0, 25)
    k = np.arange(26)
    expected = np.exp(-0.5) / np.sqrt(
        np.array([float(math.factorial(int(j))) for j in k])
    )
    assert_allclose(c.real, expected, atol=1e-12)
    assert np.max(np.abs(c.imag)) < 1e-14


def test_number_expansion_matches_displacement_column():
    c = states.number_expansion(2, 1.5, 35)
    ref = oracles.displacement_dense(1.5, 36)[:, 2]
    assert np.max(np.abs(c - ref)) < 1e-10


def test_number_expansion_complex_alpha_column():
    alpha = 1.2 * cmath.exp(0.9j)
    c = states.number_expansion(1, alpha, 30)
    ref = oracles.displacement_dense(alpha, 31)[:, 1]
    assert np.max(np.abs(c - ref)) < 1e-10


def test_number_expansion_validation():
    with pytest.raises(ValueError):
        states.number_expansion(3, 1.0, 2)
    with pytest.raises(fock.TruncationError):
        states.number_expansion(0, 3.0, 12)


def test_evolved_expansion_phases():
    lab = states.GcsLabel(1, 1.2)
    base = states.number_expansion(1, 1.2, 20)
    assert_allclose(states.evolved_expansion(lab, 0.0, 20), base, atol=1e-15)
    t = 0.7
    k = np.arange(21)
    assert_allclose(
        states.evolved_expansion(lab, t, 20),
        base * np.exp(-1j * (k + 0.5) * t),
        atol=1e-14,
    )


def test_photon_probability_frozen_value():
    assert_allclose(states.photon_probability(2, 10.0, 100), PHOTON_2_10_100, rtol=1e-10)


def test_photon_probability_trivial_cases():
    assert states.photon_probability(0, 0.0, 0) == 1.0
    assert states.photon_probability(0, 0.0, 3) == 0.0
    assert states.photon_probability(2, 0.0, 2) == 1.0
    # L_1^0(1) = 0: exact zero of the distribution at k = |alpha|^2
    assert states.photon_probability(1, 1.0, 1) == 0.0


def test_photon_probability_validation():
    with pytest.raises(ValueError):
        states.photon_probability(1, 1.0, -1)
    with pytest.raises(ValueError):
        states.photon_probability(1, 1.0, 1.5)


def test_photon_distribution_agrees_pointwise():
    dist = states.photon_distribution(3, 1.4 - 0.3j, 40)
    for k in (0, 1, 2, 3, 5, 17, 40):
        assert_allclose(
            dist.probs[k], states.photon_probability(3, 1.4 - 0.3j, k), rtol=1e-12, atol=1e-300
        )


def test_photon_distribution_mass_and_mean():
    dist = states.photon_distribution(2, 1.5, 60)
    assert dist.k_max == 60
    assert abs(dist.tail_deficit) < 1e-12
    assert_allclose(dist.mean(), states.mean_photon(2, 1.5), atol=1e-10)


def test_truncated_moments_raise():
    # P_0..P_8 of |2, 1.2> miss 1.3 % of the mass: the table is right, but
    # its moments would be wrong (mean 3.32 against 3.44, variance 6.89
    # against 7.20), so they raise instead
    dist = states.photon_distribution(2, 1.2, 8)
    assert dist.tail_deficit > 0.01
    for moment in (dist.mean, dist.second_moment, dist.variance):
        with pytest.raises(fock.TruncationError, match="k_max"):
            moment()
    assert dist.mean(tol=0.02) == float(np.sum(np.arange(9) * dist.probs))
    assert_allclose(states.photon_distribution(2, 1.2, 60).mean(), 2 + 1.2**2, rtol=1e-12)


def test_photon_distribution_keeps_mass_at_large_amplitude():
    # L_150^k(900) reaches 4.5e212 here; squaring it alone would overflow
    n, alpha, k_max = 150, 30.0, 2500
    probs = states.photon_distribution(n, alpha, k_max).probs
    assert abs(np.sum(probs) - 1.0) < 1e-10
    expected = np.abs(states.number_expansion(n, alpha, k_max)) ** 2
    assert np.max(np.abs(probs - expected)) < 1e-12 * np.max(expected)
    assert np.all(probs[1700:1800] > 0.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 300),
    mag=st.floats(0.0, 30.0),
    phase=st.floats(-math.pi, math.pi),
    where=st.floats(0.0, 1.0),
)
def test_one_amplitude_routine_behind_probabilities_and_coefficients(n, mag, phase, where):
    # P_k and c_k are read off one amplitude routine, so the scalar and the
    # vectorized P_k agree bit for bit and |c_k|^2 matches P_k; the Laguerre
    # recurrence may overflow only above n = 250, and then it raises
    alpha = cmath.rect(mag, phase)
    reach = mag + math.sqrt(n + 0.5)
    k_max = int(reach**2 + 5.0 * reach + 20.0)
    try:
        probs = states.photon_distribution(n, alpha, k_max).probs
    except ValueError:
        assert n > 250
        return
    k = int(where * k_max)
    assert states.photon_probability(n, alpha, k) == probs[k]
    assert abs(np.sum(probs) - 1.0) < 1e-10
    coeffs = states.number_expansion(n, alpha, k_max)
    assert np.max(np.abs(np.abs(coeffs) ** 2 - probs)) <= 1e-14 * np.max(probs)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 100),
    mag=st.floats(0.0, 15.0),
    phase=st.floats(-math.pi, math.pi),
)
def test_number_expansion_matches_the_fock_oracle_or_raises(n, mag, phase):
    # the Fock oracle grows its own dim until its top five levels hold
    # <= 1e-14, so above min_dim's stated range it is still a reference.
    # That bounds their mass, not their error: truncation shifts the top
    # amplitudes by up to ~1e-8 (4.9e-9 at n = 50, |alpha| = 12.93, dim
    # 474), so the reference is the column one growth step further, whose
    # top levels are empty.  The closed form agrees with it to 1e-12 or raises.
    alpha = cmath.rect(mag, phase)
    dim = math.ceil(1.25 * fock.gcs_vector(n, alpha).dim)
    try:
        coeffs = states.number_expansion(n, alpha, dim - 1)
    except (ValueError, fock.TruncationError):
        return
    assert np.max(np.abs(coeffs - fock.gcs_vector(n, alpha, dim).coeffs)) <= 1e-12


def test_non_finite_amplitudes_raise():
    # far out in k the Laguerre recurrence at degree 300 overflows
    with pytest.raises(ValueError, match=r"k=2357 is not finite for n=300, \|alpha\|=30"):
        states.photon_distribution(300, 30.0, 2497)
    with pytest.raises(ValueError, match="k=2357"):
        states.number_expansion(300, 30.0, 2497)


def test_amplitude_overflow_raises_without_numpy_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="k=2357"):
            states._amplitudes(300, 30.0, 2497)


def test_log_factorial_table_is_log_factorial_bit_for_bit():
    ref = np.array([specfun.log_factorial(k) for k in range(5001)])
    assert states._log_factorials(5000)[:5001].tobytes() == ref.tobytes()


def test_amplitudes_run_one_laguerre_table(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0])
        return kernels.laguerre_table(*args)

    monkeypatch.setattr(states, "laguerre_table", counted)
    for k_max in (200, 20):  # both sides of n, and below n only
        states._amplitudes(40, 3.0, k_max)
    assert calls == [40, 40]
    assert [name for name in dir(kernels) if "laguerre" in name] == ["laguerre_table"]


def _amplitudes_two_recurrences(n, alpha, k_max):
    # _amplitudes as it was with one Laguerre kernel for k >= n and another
    # for k < n, built on the verbatim recurrences in oracles
    z = abs(complex(alpha)) ** 2
    a = np.zeros(k_max + 1)
    if z == 0.0:
        if n <= k_max:
            a[n] = 1.0
        return a
    if n:
        lo = np.arange(min(n, k_max + 1))
        weights = [math.exp(lw) for lw in states._log_weight(lo, n - lo, z).tolist()]
        a[: lo.size] = np.array(weights) * oracles.laguerre_diagonal(n, z)[: lo.size]
    if k_max >= n:
        d = np.arange(k_max - n + 1)
        a[n:] = np.exp(states._log_weight(n, d, z)) * oracles.laguerre_last_row(n, d, z)
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(
            f"amplitude of k={bad[0]} is not finite for n={n}, "
            f"|alpha|={math.sqrt(z):.6g}: the Laguerre recurrence overflows"
        )
    return a


def _sweep_cases():
    # n < 80 with |alpha| < 12, n in 80..300 with |alpha| < 40, random
    # phases, and fixed points up to the overflow edge at n = 300
    rng = np.random.default_rng(2026)
    cases = [(int(rng.integers(0, 80)), cmath.rect(rng.uniform(0, 12), rng.uniform(-3.2, 3.2)))
             for _ in range(160)]
    cases += [(int(rng.integers(80, 301)), cmath.rect(rng.uniform(0, 40), rng.uniform(-3.2, 3.2)))
              for _ in range(153)]
    return cases + [(5, math.sqrt(2.0)), (40, 3.0), (150, 30.0), (250, 30.0),
                    (300, 20.0), (300, 30.0), (300, 40.0)]


def _outcome(f, *args):
    try:
        out = f(*args)
    except (ValueError, fock.TruncationError) as exc:
        return type(exc), str(exc)
    return np.asarray(getattr(out, "probs", out)).tobytes()


def _photon_cutoff(n, alpha):
    r = abs(alpha) + math.sqrt(n + 0.5)
    return int(r * r + 5.0 * r + 20.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_one_table_is_the_two_recurrences_bit_for_bit(monkeypatch):
    # with k_max at the photon cutoff and at n // 2 (k < n only), every a_k,
    # and the P_k and c_k read off it, has the two kernels' bits or raises
    # their error; each amplitude routine runs once per (n, alpha, k_max)
    # and the public functions read its cached result
    def outcomes(amplitudes):
        cached = functools.cache(amplitudes)
        monkeypatch.setattr(states, "_amplitudes", lambda *case: cached(*case).copy())
        rows = []
        for n, alpha in cases:
            cut = _photon_cutoff(n, alpha)
            rows.append([_outcome(f, n, alpha, k) for f, k in (
                (states._amplitudes, cut), (states._amplitudes, n // 2),
                (states.photon_distribution, cut), (states.number_expansion, cut),
                (states.photon_probability, n // 2))])
        return rows

    cases = _sweep_cases()
    assert len(cases) == 320
    new = outcomes(states._amplitudes)
    old = outcomes(_amplitudes_two_recurrences)
    for case, got, ref in zip(cases, new, old):
        assert got == ref, case
    raised = [r for row in old for r in row if isinstance(r, tuple)]
    assert any("overflows" in message for _, message in raised)


def test_photon_distribution_validation():
    with pytest.raises(ValueError):
        states.photon_distribution(2, 1.0, -1)


def test_mean_photon():
    assert states.mean_photon(1, 3.0) == 10.0
    assert states.mean_photon(4, 0.0) == 4.0


# The distribution's own moments give Var N = (2n+1)|alpha|^2; the closed
# form photon_variance() advertises |alpha|^2 for every n.  Documented
# discrepancy: this test states the advertised value and fails, with the
# measured value in the message.
def test_distribution_variance_matches_closed_form():
    dist = states.photon_distribution(2, 1.2, 60)
    measured = dist.variance()
    assert_allclose(
        measured,
        states.photon_variance(2, 1.2),
        rtol=1e-9,
        err_msg=(
            f"distribution variance {measured:.12g} equals (2n+1)|alpha|^2 = "
            f"{5 * 1.2**2:.12g}, not |alpha|^2 = {1.2**2:.12g}"
        ),
    )


def test_photon_variance_vanishes_without_displacement():
    assert states.photon_variance(3, 0.0) == 0.0


def test_fractional_uncertainty():
    assert_allclose(states.fractional_uncertainty(0, 10.0), 0.1, rtol=1e-15)
    assert_allclose(states.fractional_uncertainty(1, 3.0), 0.3, rtol=1e-15)
    with pytest.raises(ValueError):
        states.fractional_uncertainty(0, 0.0)


def test_fractional_uncertainty_decays():
    mags = [1.0, 3.0, 10.0, 30.0]
    vals = [states.fractional_uncertainty(2, a) for a in mags]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_energy_expectation():
    assert_allclose(states.energy_expectation(states.GcsLabel(1, 2.0, omega=2.0)), 11.0)
    assert_allclose(states.energy_expectation(states.GcsLabel(0, 0.0)), 0.5)


def test_g2_coherent_state_is_one():
    for alpha in (0.3, 1.0, 2.5j):
        assert states.g2(0, alpha) == 1.0


def test_g2_values():
    assert states.g2(1, 0.0) == 0.0
    assert_allclose(states.g2(9, 3.0), 35.0 / 36.0, rtol=1e-15)
    with pytest.raises(ValueError):
        states.g2(0, 0.0)


def test_g2_approaches_one_from_below():
    vals = [states.g2(2, a) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(v < 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "alpha,n_max,expected",
    [
        (1.0, 6, 1),
        (2.0, 10, 4),
        (3.0, 15, 9),
        (math.sqrt(0.2), 6, 1),
        (math.sqrt(2.5), 8, 3),
    ],
)
def test_g2_argmin_frozen(alpha, n_max, expected):
    assert states.g2_argmin_over_n(alpha, n_max) == expected
    # brute force over the same range must agree
    brute = min(
        range(n_max + 1), key=lambda n: states.g2(n, alpha) if n or alpha else 1.0
    )
    assert brute == expected


def test_g2_argmin_validation():
    with pytest.raises(ValueError):
        states.g2_argmin_over_n(3.0, 9)  # n_max must exceed |alpha|^2


def test_quadrature_variances():
    for n, v in [(0, 0.125), (1, 0.375), (2, 0.625), (3, 0.875)]:
        assert states.quadrature_variances(n) == (v, v)
    with pytest.raises(ValueError):
        states.quadrature_variances(-1)


def test_field_expectation_values():
    assert np.all(states.field_expectation(2, 0.0, 1.0, np.linspace(0, 5, 7), 0.3) == 0.0)
    # peak amplitude sqrt(2/omega)|alpha| at chi + theta + pi/2 = 0
    got = states.field_expectation(0, 2.0, 4.0, -math.pi / 8.0, 0.0)
    assert_allclose(got, math.sqrt(0.5) * 2.0, rtol=1e-12)


def test_field_expectation_independent_of_n():
    x = np.linspace(-2.0, 2.0, 9)
    a = states.field_expectation(0, 1.5j, 1.0, x, 0.4)
    b = states.field_expectation(3, 1.5j, 1.0, x, 0.4)
    assert_allclose(a, b, atol=0)


def test_field_expectation_is_the_field_center_formula_bit_for_bit():
    x = np.linspace(-3.0, 3.0, 17)
    for n, alpha, omega, t in ((0, 1.5j, 1.0, 0.4), (2, 0.7 - 1.1j, 2.5, -1.3), (1, 0.0, 1, 0.0)):
        ref = (
            math.sqrt(2.0 / omega)
            * abs(complex(alpha))
            * np.cos(omega * x - omega * t + cmath.phase(complex(alpha)) + 0.5 * np.pi)
        )
        assert states.field_expectation(n, alpha, omega, x, t).tobytes() == ref.tobytes()


def test_field_variance():
    assert states.field_variance(0, 1.0) == 0.5
    assert states.field_variance(3, 2.0) == 7.0 / 4.0


def test_field_density_rows_normalized():
    grid = states.SpatialGrid(-math.pi, math.pi, 33, k=1.0)
    # n = 40 needs the n-state's own turning points on the default axis
    for lab in (states.GcsLabel(1, 1.5), states.GcsLabel(40, 3.0)):
        e = states.default_field_axis(lab, points=2049)
        dens = states.field_density_grid(lab, grid, 0.0, e)
        assert dens.shape == (33, 2049)
        masses = simpson(dens, x=e, axis=1)
        assert_allclose(masses, np.ones(33), atol=1e-8)


def test_field_density_alpha_zero_is_phase_independent():
    lab = states.GcsLabel(2, 0.0)
    grid = states.SpatialGrid(-2.0, 2.0, 9, k=1.0)
    e = states.default_field_axis(lab, points=257)
    dens = states.field_density_grid(lab, grid, 0.0, e)
    for row in dens[1:]:
        assert np.array_equal(row, dens[0])


def test_field_node_curves_shapes():
    grid = states.SpatialGrid(-math.pi, math.pi, 17, k=1.0)
    assert states.field_node_curves(states.GcsLabel(0, 2.0), grid, 0.0).shape == (0, 17)
    curves = states.field_node_curves(states.GcsLabel(2, 2.0), grid, 0.0)
    assert curves.shape == (2, 17)


def test_field_density_vanishes_on_node_curves():
    lab = states.GcsLabel(2, 2.0)
    grid = states.SpatialGrid(-math.pi, math.pi, 17, k=1.0)
    curves = states.field_node_curves(lab, grid, 0.4)
    chi = grid.values - 0.4
    centers = states.field_center(lab, chi)
    for j in range(curves.shape[0]):
        dens = states.field_density_grid(lab, grid, 0.4, curves[j])
        # diagonal entries sit exactly on the node of their own column
        assert np.max(np.diag(dens)) < 1e-12


def test_completeness_defect_shrinks():
    assert states.completeness_defect(0.0, 60, 10) == 0.0
    d12 = states.completeness_defect(1.0, 12, 10)
    d16 = states.completeness_defect(1.0, 16, 10)
    d20 = states.completeness_defect(1.0, 20, 10)
    assert d20 < d16 < d12  # decays fast until it hits roundoff
    assert states.completeness_defect(1.0, 60, 10) < 1e-6


def test_completeness_defect_validation():
    with pytest.raises(ValueError):
        states.completeness_defect(1.0, 0, 1)
    with pytest.raises(ValueError):
        states.completeness_defect(1.0, 10, 11)
