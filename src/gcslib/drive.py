"""Classically driven oscillator: H = H0 + f(t) x.

A real force f enters through x = (a + adag)/sqrt(2 omega); the exact
time-development operator factorizes into a real phase beta, a displacement
by zeta, and free evolution.  zeta comes from adaptive quadrature of
f(t) e^{i omega t}, beta from a single ODE sweep that carries the inner
integral along, and both are cross-checked against direct Schrodinger
integration in the verify suite.

Pulses are stored as tuples of smooth pieces so that neither the quadrature
nor the ODE sweep ever integrates across a jump or kink.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from . import fock
from .states import GcsLabel


class QuadratureError(Exception):
    """Quadrature or ODE sweep failed to reach the requested tolerance."""


@dataclass(frozen=True)
class DrivePulse:
    """Force f(t) on [t0, t1], as contiguous smooth pieces (a, b, callable).

    Piece callables must be smooth on their closed interval; boundaries may
    carry jumps.  Evaluation uses each piece on [a, b) and the last one on
    its closed interval; outside [t0, t1] the force is zero.
    """

    name: str
    t0: float
    t1: float
    pieces: tuple
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"need t0 < t1, got [{self.t0}, {self.t1}]")
        if not self.pieces:
            raise ValueError("pulse needs at least one piece")

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        last = len(self.pieces) - 1
        for i, (a, b, f) in enumerate(self.pieces):
            sel = (t >= a) & ((t <= b) if i == last else (t < b))
            if np.any(sel):
                out[sel] = f(t[sel])
        return float(out) if t.ndim == 0 else out


def gaussian_pulse(amplitude, center, width, t0, t1):
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    amp, c, w = float(amplitude), float(center), float(width)
    pieces = ((t0, t1, lambda t: amp * np.exp(-0.5 * ((t - c) / w) ** 2)),)
    return DrivePulse(
        "gaussian", t0, t1, pieces,
        {"amplitude": amp, "center": c, "width": w},
    )


def rectangular_pulse(amplitude, t_on, t_off, t0, t1):
    if not (t0 <= t_on < t_off <= t1):
        raise ValueError(f"need t0 <= t_on < t_off <= t1, got {t_on}, {t_off}")
    amp = float(amplitude)
    pieces = []
    if t_on > t0:
        pieces.append((t0, t_on, lambda t: np.zeros_like(t)))
    pieces.append((t_on, t_off, lambda t: np.full_like(t, amp)))
    if t_off < t1:
        pieces.append((t_off, t1, lambda t: np.zeros_like(t)))
    return DrivePulse(
        "rectangular", t0, t1, tuple(pieces),
        {"amplitude": amp, "t_on": float(t_on), "t_off": float(t_off)},
    )


def sine_burst_pulse(amplitude, freq, t0, t1, phase=0.0):
    """f(t) = amplitude * sin(freq (t - t0) + phase), freq in rad/time."""
    amp, nu, ph = float(amplitude), float(freq), float(phase)
    pieces = ((t0, t1, lambda t: amp * np.sin(nu * (t - t0) + ph)),)
    return DrivePulse(
        "sine-burst", t0, t1, pieces,
        {"amplitude": amp, "freq": nu, "phase": ph},
    )


def table_pulse(times, values):
    """Linear interpolation of a uniformly sampled force table."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.ndim != 1 or times.shape != values.shape or times.size < 2:
        raise ValueError("need matching 1-d times/values with at least 2 samples")
    bad = np.flatnonzero(~(np.isfinite(times) & np.isfinite(values)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"pulse table sample {i} is not finite (t={times[i]}, f={values[i]})"
        )
    steps = np.diff(times)
    if np.any(steps <= 0):
        raise ValueError("times must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ValueError("times must be uniformly spaced")

    def make_segment(i):
        ta, fa = times[i], values[i]
        slope = (values[i + 1] - values[i]) / steps[i]
        return lambda t: fa + slope * (t - ta)

    pieces = tuple(
        (times[i], times[i + 1], make_segment(i)) for i in range(times.size - 1)
    )
    return DrivePulse(
        "table", float(times[0]), float(times[-1]), pieces,
        {"samples": int(times.size), "dt": float(steps[0])},
    )


PULSES = {
    "gaussian": gaussian_pulse,
    "rectangular": rectangular_pulse,
    "sine-burst": sine_burst_pulse,
}


def _check_omega(omega):
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega}")


def _check_time(pulse, t):
    if not pulse.t0 <= t <= pulse.t1:
        raise ValueError(f"t={t} outside pulse interval [{pulse.t0}, {pulse.t1}]")


def zeta(pulse, omega, t):
    """-(i/sqrt(2 omega)) * integral of f(s) e^{i omega s} from t0 to t.

    Adaptive quadrature per smooth piece, absolute tolerance 1e-10 overall;
    raises QuadratureError with the achieved error estimate on failure, and
    when the integral or the estimate is not finite.
    """
    _check_omega(omega)
    _check_time(pulse, t)
    total = 0.0 + 0.0j
    err = 0.0
    for a, b, f in pulse.pieces:
        hi = min(b, t)
        if hi <= a:
            break
        re, err_re = quad(
            lambda s: f(s) * math.cos(omega * s), a, hi,
            epsabs=1e-13, epsrel=1e-13, limit=1024, full_output=False,
        )
        im, err_im = quad(
            lambda s: f(s) * math.sin(omega * s), a, hi,
            epsabs=1e-13, epsrel=1e-13, limit=1024, full_output=False,
        )
        total += re + 1j * im
        err += err_re + err_im
    if not np.isfinite(total):
        raise QuadratureError(f"zeta quadrature gave a non-finite integral {total}")
    if not err <= 1e-10:  # a NaN estimate fails here too
        raise QuadratureError(f"zeta quadrature error estimate {err:.3e} > 1e-10")
    return -1j / math.sqrt(2.0 * omega) * total


def beta_phase(pulse, omega, t):
    """Real phase (1/2w) double integral of f(t')f(t'') sin(w(t'-t'')).

    Rewritten as one sweep: carry G(t') = integral of f e^{-i w s} ds and
    accumulate d(beta)/dt' = f(t') Im[e^{i w t'} G(t')] / (2 w).
    """
    _check_omega(omega)
    _check_time(pulse, t)
    state = np.zeros(3)

    for a, b, f in pulse.pieces:
        hi = min(b, t)
        if hi <= a:
            break

        def rhs(s, y, f=f):
            fs = float(f(np.float64(s)))
            return [
                fs * math.cos(omega * s),
                -fs * math.sin(omega * s),
                fs
                * (math.sin(omega * s) * y[0] + math.cos(omega * s) * y[1])
                / (2.0 * omega),
            ]

        sol = solve_ivp(
            rhs, (a, hi), state, method="DOP853", rtol=1e-12, atol=1e-13
        )
        if not sol.success:
            raise QuadratureError(f"beta sweep failed on [{a}, {hi}]: {sol.message}")
        state = sol.y[:, -1]
    return float(state[2])


def position_matrix(omega, dim):
    """x = (a + adag)/sqrt(2 omega) as a dim x dim matrix."""
    a, adag, _ = fock.ladder_matrices(dim)
    return (a + adag) / math.sqrt(2.0 * omega)


def drive_hamiltonian(pulse, omega, dim):
    """H0 + f(t) x for direct Schrodinger integration.

    A fock.TridiagonalHamiltonian with bands (k + 1/2) omega and
    f(t) sqrt(k + 1)/sqrt(2 omega), which fock._propagate integrates without
    forming the dense matrix.  It diagonalises the bands only at m force
    nodes, m the least count with 2 (r dt ||X||/2)^m / m! <= 1e-17 (r the
    half-width of the force range, ||X|| <= 2 sqrt((dim - 1)/(2 omega))), and
    keeps m dim^2 16 bytes of step operators.
    """
    _check_omega(omega)
    return fock.TridiagonalHamiltonian(
        (np.arange(dim) + 0.5) * omega,
        np.sqrt(np.arange(1.0, dim)) / math.sqrt(2.0 * omega),
        pulse,
    )


def time_development(pulse, omega, dim):
    """Unitary propagator from t0 to t1: e^{i beta} D(zeta e^{-i w t1}) e^{-i H0 dt}.

    dim must be tail-safe for |zeta| (TruncationError otherwise).
    """
    z1 = zeta(pulse, omega, pulse.t1)
    b1 = beta_phase(pulse, omega, pulse.t1)
    disp = fock.displacement_matrix(z1 * np.exp(-1j * omega * pulse.t1), dim)
    free = np.exp(-1j * (np.arange(dim) + 0.5) * omega * (pulse.t1 - pulse.t0))
    return np.exp(1j * b1) * (disp * free[None, :])


def drive_number_state(n, pulse, omega, dim):
    """Drive level n through the pulse; returns (final vector, predicted label).

    The vector is column n of time_development, taken alone.  The label
    (n, zeta(t1)) is in the canonical t=0 convention: its coefficients at
    time t1 are number_expansion values times the e^{-i(k+1/2) w t1} phases,
    and they agree with the returned vector up to a global phase.  dim must
    be tail-safe for level n at |zeta| (TruncationError otherwise).
    """
    z1 = zeta(pulse, omega, pulse.t1)
    return _driven_state(n, pulse, omega, dim, z1, beta_phase(pulse, omega, pulse.t1))


def _driven_state(n, pulse, omega, dim, z1, b1):
    # drive_number_state for a caller that already holds zeta(t1) and beta(t1)
    col = fock.gcs_vector(n, z1 * np.exp(-1j * omega * pulse.t1), dim, omega)
    free = np.exp(-1j * (n + 0.5) * omega * (pulse.t1 - pulse.t0))
    return fock.FockVector(np.exp(1j * b1) * (col.coeffs * free), omega), GcsLabel(n, z1, omega)
