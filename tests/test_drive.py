"""Driven-oscillator factorization: pulses, response integrals, and the
analytic propagator against direct integration."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcslib import drive, fock, states, verify

import oracles

# frozen from trapezoid-with-Richardson routes in tests/oracles.py
# (gaussian amplitude 0.8, center 2.5, width 0.5 on [0, 5], omega 1, t = 5)
ZETA_GAUSS = 0.3744486750051228 + 0.5012550179415771j
BETA_GAUSS = 0.12036689230889547

GAUSS_ARGS = (0.8, 2.5, 0.5, 0.0, 5.0)


def test_pulse_piece_semantics():
    pulse = drive.DrivePulse(
        "two", 0.0, 2.0,
        ((0.0, 1.0, lambda t: np.full_like(t, 1.0)), (1.0, 2.0, lambda t: np.full_like(t, 5.0))),
    )
    assert pulse(0.0) == 1.0
    assert pulse(1.0) == 5.0  # boundary belongs to the right piece
    assert pulse(2.0) == 5.0  # last piece closed on the right
    assert pulse(2.5) == 0.0 and pulse(-0.1) == 0.0
    assert_allclose(pulse(np.array([0.5, 1.5])), [1.0, 5.0])


def test_pulse_validation():
    with pytest.raises(ValueError):
        drive.DrivePulse("bad", 1.0, 1.0, ((0.0, 1.0, lambda t: t),))
    with pytest.raises(ValueError):
        drive.DrivePulse("bad", 0.0, 1.0, ())


def test_factory_validation():
    with pytest.raises(ValueError):
        drive.gaussian_pulse(1.0, 0.5, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        drive.rectangular_pulse(1.0, 0.8, 0.2, 0.0, 1.0)
    with pytest.raises(ValueError):
        drive.rectangular_pulse(1.0, -0.5, 0.2, 0.0, 1.0)


def test_rectangular_pulse_values():
    pulse = drive.rectangular_pulse(2.0, 1.0, 3.0, 0.0, 4.0)
    assert_allclose(pulse(np.array([0.5, 1.0, 2.0, 3.5])), [0.0, 2.0, 2.0, 0.0])


def test_sine_burst_values():
    pulse = drive.sine_burst_pulse(1.5, 2.0, 1.0, 4.0, phase=0.3)
    ts = np.linspace(1.0, 4.0, 7)
    assert_allclose(pulse(ts), 1.5 * np.sin(2.0 * (ts - 1.0) + 0.3), atol=1e-15)


def test_table_pulse_interpolates():
    times = np.linspace(0.0, 2.0, 9)
    values = 3.0 * times - 1.0
    pulse = drive.table_pulse(times, values)
    probe = np.linspace(0.0, 2.0, 23)
    assert_allclose(pulse(probe), 3.0 * probe - 1.0, atol=1e-14)


def test_table_pulse_validation():
    with pytest.raises(ValueError):
        drive.table_pulse([0.0, 1.0, 1.5], [0.0, 1.0, 2.0])  # non-uniform
    with pytest.raises(ValueError):
        drive.table_pulse([0.0, -1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        drive.table_pulse([0.0], [1.0])


@pytest.mark.parametrize(
    "times, values",
    [
        ([0.0, 1.0, 2.0], [0.0, np.nan, 1.0]),
        ([0.0, 1.0, 2.0], [0.0, 1.0, -np.inf]),
        ([0.0, np.nan, 2.0], [0.0, 1.0, 1.0]),
    ],
)
def test_table_pulse_rejects_non_finite(times, values):
    with pytest.raises(ValueError, match="not finite"):
        drive.table_pulse(times, values)


def test_zeta_zero_force():
    pulse = drive.gaussian_pulse(0.0, 1.0, 0.5, 0.0, 3.0)
    assert drive.zeta(pulse, 1.0, 3.0) == 0.0


def test_zeta_full_period_constant_force():
    omega = 1.3
    period = 2.0 * math.pi / omega
    pulse = drive.rectangular_pulse(0.9, 0.0, period, 0.0, period)
    assert abs(drive.zeta(pulse, omega, period)) < 1e-10


def test_zeta_constant_force_closed_form():
    force, omega, horizon = 0.7, 1.3, 2.0
    pulse = drive.rectangular_pulse(force, 0.0, horizon, 0.0, horizon)
    expected = -force * (np.exp(1j * omega * horizon) - 1.0) / (
        omega * math.sqrt(2.0 * omega)
    )
    assert abs(drive.zeta(pulse, omega, horizon) - expected) < 1e-12


def test_zeta_frozen_gaussian():
    pulse = drive.gaussian_pulse(*GAUSS_ARGS)
    assert abs(drive.zeta(pulse, 1.0, 5.0) - ZETA_GAUSS) < 1e-12


def test_zeta_linear_in_force():
    small = drive.gaussian_pulse(0.4, 2.5, 0.5, 0.0, 5.0)
    large = drive.gaussian_pulse(1.2, 2.5, 0.5, 0.0, 5.0)
    z_small = drive.zeta(small, 1.0, 4.0)
    z_large = drive.zeta(large, 1.0, 4.0)
    assert abs(z_large - 3.0 * z_small) < 1e-12


def test_zeta_time_bounds():
    pulse = drive.gaussian_pulse(*GAUSS_ARGS)
    with pytest.raises(ValueError):
        drive.zeta(pulse, 1.0, 5.5)
    with pytest.raises(ValueError):
        drive.zeta(pulse, 1.0, -0.5)


@pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
def test_response_rejects_bad_omega(omega):
    pulse = drive.gaussian_pulse(*GAUSS_ARGS)
    for call in (lambda: drive.zeta(pulse, omega, 4.0),
                 lambda: drive.beta_phase(pulse, omega, 4.0),
                 lambda: drive.drive_hamiltonian(pulse, omega, 20)):
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            call()


def test_zeta_reports_quadrature_failure():
    wild = drive.DrivePulse(
        "wild", 0.0, 1.0, ((0.0, 1.0, lambda s: np.sin(1.0 / (s + 1e-9))),)
    )
    for call in (drive.zeta, drive.beta_phase):
        with pytest.raises(drive.QuadratureError, match="unresolved at 4096"):
            call(wild, 1.0, 1.0)
    # a non-finite sample raises before any transform can spread it
    half_nan = drive.DrivePulse(
        "half-nan", 0.0, 4.0, ((0.0, 4.0, lambda t: np.where(t > 2.0, np.nan, 0.5)),)
    )
    all_nan = drive.DrivePulse(
        "all-nan", 0.0, 4.0, ((0.0, 4.0, lambda t: np.full_like(t, np.nan)),)
    )
    for pulse in (half_nan, all_nan):
        for call in (drive.zeta, drive.beta_phase):
            with pytest.raises(drive.QuadratureError, match="is nan"):
                call(pulse, 1.0, 4.0)


def test_response_rejects_an_estimate_above_tolerance():
    # resolved to 1e-13 of its scale, a force of 1e6 leaves a tail of ~1e-8
    pulse = drive.gaussian_pulse(1e6, 2.5, 0.5, 0.0, 5.0)
    with pytest.raises(drive.QuadratureError, match="error estimate"):
        drive.response(pulse, 1.0, 5.0)
    assert drive.response(drive.gaussian_pulse(*GAUSS_ARGS), 1.0, 5.0).tail <= 1e-12


def test_beta_vanishes_at_start():
    pulse = drive.gaussian_pulse(*GAUSS_ARGS)
    assert drive.beta_phase(pulse, 1.0, 0.0) == 0.0


def test_beta_frozen_gaussian():
    pulse = drive.gaussian_pulse(*GAUSS_ARGS)
    assert abs(drive.beta_phase(pulse, 1.0, 5.0) - BETA_GAUSS) < 1e-9


def test_beta_constant_force_closed_form():
    force, omega, horizon = 0.7, 1.3, 2.0
    pulse = drive.rectangular_pulse(force, 0.0, horizon, 0.0, horizon)
    expected = force**2 / (2.0 * omega**2) * (horizon - math.sin(omega * horizon) / omega)
    assert abs(drive.beta_phase(pulse, omega, horizon) - expected) < 1e-10


@pytest.mark.parametrize("t_on, t_off, t", [(0.0, 2.0, 2.0), (1.0, 3.0, 4.0), (1.0, 3.0, 2.2)])
@pytest.mark.parametrize("omega", [0.8, 1.3])
def test_beta_rectangular_closed_form_to_roundoff(t_on, t_off, t, omega):
    force = 0.7
    pulse = drive.rectangular_pulse(force, t_on, t_off, 0.0, 4.0)
    width = min(t, t_off) - t_on
    expected = force**2 / (2.0 * omega**2) * (width - math.sin(omega * width) / omega)
    assert abs(drive.beta_phase(pulse, omega, t) - expected) <= 1e-14


def _reference_pulses():
    ts = np.linspace(0.0, 5.0, 401)
    return verify._registry_pulses() + (drive.table_pulse(ts, 0.6 * np.sin(1.3 * ts) * ts / 4.0),)


@pytest.mark.parametrize("pulse", _reference_pulses(), ids=lambda p: p.name)
@pytest.mark.parametrize("omega", [0.8, 1.0, 1.25])
def test_response_matches_quad_and_ode_references(pulse, omega):
    for t in (0.5 * (pulse.t0 + pulse.t1), pulse.t1):
        got = drive.response(pulse, omega, t)
        assert abs(got.zeta - oracles.zeta_quad(pulse, omega, t)) <= 1e-12
        assert abs(got.beta - oracles.beta_phase_ode(pulse, omega, t)) <= 1e-12
        assert 0.0 <= got.tail <= drive.RESPONSE_TOL
        assert (got.zeta, got.beta) == (drive.zeta(pulse, omega, t), drive.beta_phase(pulse, omega, t))


def test_chebyshev_steps_match_numpy_polynomial():
    rng = np.random.default_rng(13)
    n = 32
    c = rng.standard_normal((3, n + 1)) + 1j * rng.standard_normal((3, n + 1))
    x = np.cos(np.pi * np.arange(n + 1) / n)
    values = np.polynomial.chebyshev.chebval(x, c.T, tensor=True)
    assert_allclose(drive._chebyshev_coefficients(values), c, rtol=0, atol=1e-13)
    big = drive._antiderivative(c)
    assert_allclose(big, np.polynomial.chebyshev.chebint(c, lbnd=-1, axis=-1), rtol=0, atol=1e-15)
    assert_allclose(
        drive._values_at_nodes(big),
        np.polynomial.chebyshev.chebval(x, big.T, tensor=True), rtol=0, atol=1e-13,
    )


def test_response_integrals_match_trapezoid_oracles():
    pulse = drive.sine_burst_pulse(0.6, 2.0, 0.0, 3.0)
    omega = 1.4
    z_ref = oracles.zeta_trapz(pulse, omega, 3.0)
    b_ref = oracles.beta_trapz(pulse, omega, 3.0)
    assert abs(drive.zeta(pulse, omega, 3.0) - z_ref) < 1e-9
    assert abs(drive.beta_phase(pulse, omega, 3.0) - b_ref) < 1e-9


def test_time_development_unitary():
    pulse = drive.gaussian_pulse(0.5, 1.0, 0.3, 0.0, 2.0)
    op = drive.time_development(pulse, 1.0, 40)
    gram = op.conj().T @ op
    assert np.max(np.abs(gram[:20, :20] - np.eye(20))) < 1e-10


def test_zero_force_gives_free_phases():
    pulse = drive.gaussian_pulse(0.0, 1.0, 0.5, 0.0, 2.0)
    op = drive.time_development(pulse, 1.5, 16)
    k = np.arange(16)
    expected = np.diag(np.exp(-1j * (k + 0.5) * 1.5 * 2.0))
    assert np.max(np.abs(op - expected)) < 1e-12


def test_driving_ground_state_builds_poisson_statistics():
    pulse = drive.gaussian_pulse(0.6, 1.5, 0.4, 0.0, 3.0)
    vec, label = drive.drive_number_state(0, pulse, 1.0, 40)
    z1 = drive.zeta(pulse, 1.0, 3.0)
    assert label.n == 0 and abs(label.alpha - z1) < 1e-12
    _, _, num = fock.ladder_matrices(40)
    assert_allclose(fock.expectation(num, vec).real, abs(z1) ** 2, atol=1e-9)
    probs = np.abs(vec.coeffs) ** 2
    for k in (0, 1, 3):
        assert_allclose(probs[k], states.photon_probability(0, z1, k), atol=1e-10)


def test_driven_excited_state_statistics():
    pulse = drive.gaussian_pulse(0.5, 2.0, 0.4, 0.0, 4.0)
    vec, label = drive.drive_number_state(2, pulse, 1.0, 50)
    probs = np.abs(vec.coeffs) ** 2
    for k in (0, 1, 2, 4, 7):
        assert_allclose(probs[k], states.photon_probability(2, label.alpha, k), atol=1e-8)


def test_driven_state_matches_direct_integration():
    pulse = drive.gaussian_pulse(0.5, 2.0, 0.4, 0.0, 4.0)
    vec, label = drive.drive_number_state(1, pulse, 1.0, 60)
    ham = drive.drive_hamiltonian(pulse, 1.0, 60)
    direct = fock.schrodinger_evolve(ham, fock.number_state(1, 60), 0.0, 4.0, 600)
    fid = abs(np.vdot(direct.coeffs, vec.coeffs))
    assert fid > 1.0 - 1e-9


def test_driven_state_phase_is_beta():
    pulse = drive.gaussian_pulse(0.5, 2.0, 0.4, 0.0, 4.0)
    vec, label = drive.drive_number_state(1, pulse, 1.0, 60)
    evolved = states.evolved_expansion(label, 4.0, 59)
    amp = np.vdot(evolved, vec.coeffs)
    assert abs(abs(amp) - 1.0) < 1e-10
    beta = drive.beta_phase(pulse, 1.0, 4.0)
    assert abs(amp - np.exp(1j * beta)) < 1e-9


def test_weak_pulse_limit_recovers_free_evolution():
    free = np.exp(-1j * (np.arange(30) + 0.5) * 1.0 * 3.0)
    devs = []
    for amp in (1e-3, 1e-6):
        pulse = drive.gaussian_pulse(amp, 1.5, 0.4, 0.0, 3.0)
        vec, _ = drive.drive_number_state(1, pulse, 1.0, 30)
        devs.append(np.max(np.abs(vec.coeffs - free[1] * np.eye(30)[1])))
    assert devs[0] < 1e-2
    assert devs[1] < 1e-5
    assert devs[1] < devs[0] * 1e-2


def test_drive_rejects_cramped_level():
    pulse = drive.gaussian_pulse(0.5, 1.0, 0.3, 0.0, 2.0)
    with pytest.raises(fock.TruncationError):
        drive.drive_number_state(10, pulse, 1.0, 20)
    with pytest.raises(ValueError):
        drive.drive_number_state(-1, pulse, 1.0, 20)


@pytest.mark.parametrize("dim", [40, 48, 120])
def test_driven_state_is_column_n_of_time_development(dim):
    # drive_number_state forms column n alone; time_development forms them all
    omega = 1.0
    for pulse in verify._registry_pulses():
        op = drive.time_development(pulse, omega, dim)
        for n in range(4):
            vec, label = drive.drive_number_state(n, pulse, omega, dim)
            assert np.max(np.abs(vec.coeffs - op[:, n])) <= 1e-15
            assert label.n == n and label.alpha == drive.zeta(pulse, omega, pulse.t1)


def test_drive_hamiltonian_bands_build_the_dense_matrix():
    pulse = drive.gaussian_pulse(0.8, 2.5, 0.5, 0.0, 5.0)
    omega, dim = 1.3, 30
    ham = drive.drive_hamiltonian(pulse, omega, dim)
    assert_allclose(ham.diag, (np.arange(dim) + 0.5) * omega, rtol=0, atol=0)
    assert_allclose(ham.off, np.sqrt(np.arange(1, dim) / (2.0 * omega)), rtol=1e-15)
    off = np.sqrt(np.arange(1.0, dim)) / math.sqrt(2.0 * omega)
    x = np.diag(off, 1) + np.diag(off, -1)
    for t in (0.0, 2.2, 2.5, 5.0):
        dense = np.diag((np.arange(dim) + 0.5) * omega) + pulse(t) * x
        assert_allclose(oracles.tridiagonal_dense(ham, t), dense, rtol=1e-15, atol=0)


def _band_pulses():
    ts = np.linspace(0.0, 4.0, 17)
    return verify._registry_pulses() + (drive.table_pulse(ts, 0.6 * np.sin(1.3 * ts) * ts),)


@pytest.mark.parametrize("pulse", _band_pulses(), ids=lambda p: p.name)
def test_band_propagation_matches_dense_path(pulse):
    dim, steps = 60, 400
    ham = drive.drive_hamiltonian(pulse, 1.0, dim)
    block = np.eye(dim, dtype=complex)[:, :3]
    banded = fock._propagate(ham, block, pulse.t0, pulse.t1, steps)
    dense = oracles.propagate_dense_per_step(
        lambda t: oracles.tridiagonal_dense(ham, t), block, pulse.t0, pulse.t1, steps
    )
    assert np.max(np.abs(banded - dense)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_band_propagation_rejects_non_finite_force(bad):
    pulse = drive.DrivePulse(
        "bad", 0.0, 4.0, ((0.0, 4.0, lambda t: np.where(t > 2.0, bad, 0.5)),)
    )
    ham = drive.drive_hamiltonian(pulse, 1.0, 20)
    with pytest.raises(ValueError, match="not finite"):
        fock.schrodinger_evolve(ham, fock.number_state(1, 20), 0.0, 4.0, 100)


def _force_pulse(kind, amp):
    if kind == "table":
        ts = np.linspace(0.0, 4.0, 17)
        return drive.table_pulse(ts, amp * np.sin(1.3 * ts) * ts / 4.0)
    if kind == "gaussian":
        return drive.gaussian_pulse(amp, 2.5, 0.5, 0.0, 5.0)
    if kind == "rectangular":
        return drive.rectangular_pulse(amp, 1.0, 3.0, 0.0, 4.0)
    return drive.sine_burst_pulse(amp, 2.0, 0.0, 4.0)


# (pulse, amplitude, dim, steps, columns): the registry amplitudes and the
# benchmark's shape first, then strong forces, a zero force and few steps
_SWEEP = [
    ("gaussian", 0.8, 48, 500, 1),
    ("gaussian", 0.8, 120, 4000, 3),
    ("rectangular", 0.6, 120, 2000, 3),
    ("sine-burst", 0.5, 20, 4000, 3),
    ("gaussian", 5.0, 20, 4000, 3),
    ("table", 0.9, 48, 4000, 1),
    ("table", 2.4, 60, 1000, 1),
    ("gaussian", 20.0, 120, 300, 3),
    ("sine-burst", 20.0, 20, 4000, 1),
    ("rectangular", 20.0, 48, 1000, 1),
    ("table", 20.0, 20, 2000, 3),
    ("gaussian", 0.0, 30, 300, 3),
    ("gaussian", 0.8, 48, 1, 1),
    ("sine-burst", 20.0, 120, 1, 3),
    ("sine-burst", 5.0, 48, 2, 1),
    ("table", 5.0, 20, 7, 3),
]


@pytest.mark.parametrize("kind, amp, dim, steps, ncol", _SWEEP)
def test_interpolated_steps_match_one_eigensolve_per_step(kind, amp, dim, steps, ncol):
    pulse = _force_pulse(kind, amp)
    ham = drive.drive_hamiltonian(pulse, 1.0, dim)
    block = np.eye(dim, dtype=complex)[:, :ncol]
    dt = (pulse.t1 - pulse.t0) / steps
    got = fock._propagate(ham, block, pulse.t0, pulse.t1, steps)
    ref = oracles.propagate_bands_per_step(ham, block, pulse.t0, dt, steps)
    assert np.max(np.abs(got - ref)) <= 1e-12
    # every step reuses the same node operators, so a departure from
    # unitarity would add up linearly: the columns must keep their norm
    assert np.max(np.abs(np.linalg.norm(got, axis=0) - 1.0)) <= 5e-13


def _record(monkeypatch, name):
    # every call of fock.<name>, its arguments kept, the call passed through
    calls = []
    real = getattr(fock, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fock, name, recording)
    return calls


def _step_forces(ham, t0, t1, steps):
    dt = (t1 - t0) / steps
    return dt, ham.force(t0 + (np.arange(steps) + 0.5) * dt)


def _assert_one_eigensolve_per_step(eigensolves, ham, forces):
    # the per-step branch: one eigensolve at each midpoint force, in order,
    # and none at a node
    assert len(eigensolves) == forces.size
    for (diag, off), f in zip(eigensolves, forces):
        assert diag is ham.diag and off.tobytes() == (f * ham.off).tobytes()


@pytest.mark.parametrize("most", [1, 3, 6])
@pytest.mark.parametrize("kind, amp, dim, steps, ncol", [
    ("gaussian", 20.0, 20, 300, 3),
    ("table", 20.0, 24, 400, 1),
    ("sine-burst", 5.0, 16, 200, 2),
])
def test_capped_node_stack_matches_one_eigensolve_per_step(
        monkeypatch, kind, amp, dim, steps, ncol, most):
    # the whole force range needs more than `most` nodes, so its stack would
    # pass the cap: every step takes its own eigensolve, and no node operator
    # is built
    pulse = _force_pulse(kind, amp)
    ham = drive.drive_hamiltonian(pulse, 1.0, dim)
    block = np.eye(dim, dtype=complex)[:, :ncol]
    monkeypatch.setattr(fock, "MAX_STACK_BYTES", most * 16 * dim * dim)
    real = fock._force_nodes
    sets = _record(monkeypatch, "_force_nodes")
    eigensolves = _record(monkeypatch, "dstevd")
    got = fock._propagate(ham, block, pulse.t0, pulse.t1, steps)
    dt, forces = _step_forces(ham, pulse.t0, pulse.t1, steps)
    assert len(sets) == 1 and most < real(*sets[0])[0].size < steps
    _assert_one_eigensolve_per_step(eigensolves, ham, forces)
    ref = oracles.propagate_bands_per_step(ham, block, pulse.t0, dt, steps)
    assert got.tobytes() == ref.tobytes()
    assert np.max(np.abs(np.linalg.norm(got, axis=0) - 1.0)) <= 5e-13


@pytest.mark.parametrize("kind, amp, dim, steps", [
    ("table", 5.0, 20, 7),
    ("table", 20.0, 48, 8),
    ("sine-burst", 20.0, 60, 10),
])
def test_as_many_nodes_as_steps_take_one_eigensolve_per_step(monkeypatch, kind, amp, dim, steps):
    # m >= steps: a node operator would serve at most one step, so none is built
    pulse = _force_pulse(kind, amp)
    ham = drive.drive_hamiltonian(pulse, 1.0, dim)
    block = np.eye(dim, dtype=complex)[:, :2]
    dt, forces = _step_forces(ham, pulse.t0, pulse.t1, steps)
    assert fock._force_nodes(forces, dt * 2.0 * np.max(ham.off))[0].size >= steps
    eigensolves = _record(monkeypatch, "dstevd")
    got = fock._propagate(ham, block, pulse.t0, pulse.t1, steps)
    _assert_one_eigensolve_per_step(eigensolves, ham, forces)
    ref = oracles.propagate_bands_per_step(ham, block, pulse.t0, dt, steps)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["gaussian", "rectangular", "sine-burst"])
def test_benchmark_shape_takes_one_node_set(monkeypatch, kind):
    # gcsbench's drive workload: dim 48, 500 steps over [0, 5], |f| <= 0.9;
    # one node set of at most 9 operators (332 KB), far under the cap, with
    # the bits of the node path as it was
    pulse = _force_pulse(kind, 0.9)
    pulse = drive.DrivePulse(pulse.name, 0.0, 5.0, pulse.pieces)
    ham = drive.drive_hamiltonian(pulse, 1.25, 48)
    block = np.eye(48, dtype=complex)[:, 1:2]
    real = fock._force_nodes
    sets = _record(monkeypatch, "_force_nodes")
    got = fock._propagate(ham, block, 0.0, 5.0, 500)
    assert len(sets) == 1 and real(*sets[0])[0].size <= 9
    dt, forces = _step_forces(ham, 0.0, 5.0, 500)
    whole = oracles.propagate_node_run(ham, block, forces, dt, dt * 2.0 * np.max(ham.off))
    assert got.tobytes() == whole.tobytes()


def test_force_weights_interpolate_and_pick_hit_nodes():
    forces = 0.9 * np.sin(np.linspace(0.0, 7.0, 500))
    nodes, weights = fock._force_nodes(forces, 0.1)
    assert 2 < nodes.size < 20
    assert np.all((nodes > forces.min()) & (nodes < forces.max()))
    for degree in range(nodes.size):
        assert_allclose(weights @ nodes**degree, forces**degree, rtol=0, atol=1e-13)
    # a force equal to a node takes that node's operator alone
    hit = np.append(forces, nodes[2])
    again, weights = fock._force_nodes(hit, 0.1)
    assert again.tobytes() == nodes.tobytes()
    assert weights[-1].tolist() == [float(j == 2) for j in range(nodes.size)]


def _count_eigensolves(monkeypatch, pulse, omega, dim, steps):
    calls = _record(monkeypatch, "dstevd")
    ham = drive.drive_hamiltonian(pulse, omega, dim)
    fock.schrodinger_evolve(ham, fock.number_state(1, dim), pulse.t0, pulse.t1, steps)
    return len(calls)


@pytest.mark.parametrize("kind", ["gaussian", "sine-burst", "table"])
@pytest.mark.parametrize("omega", [0.8, 1.25])
def test_benchmark_shape_takes_few_eigensolves(monkeypatch, kind, omega):
    # gcsbench's drive workload: dim 48, 500 steps over [0, 5], |f| <= 0.9
    pulse = _force_pulse(kind, 0.9)
    pulse = drive.DrivePulse(pulse.name, 0.0, 5.0, pulse.pieces)
    assert _count_eigensolves(monkeypatch, pulse, omega, 48, 500) <= 10


def test_distinct_forces_are_the_nodes(monkeypatch):
    rect = drive.rectangular_pulse(0.9, 1.0, 3.0, 0.0, 4.0)
    assert _count_eigensolves(monkeypatch, rect, 1.0, 48, 500) == 2
    gauss = _force_pulse("gaussian", 0.9)
    assert _count_eigensolves(monkeypatch, gauss, 1.0, 48, 1) == 1
