"""Classically driven oscillator: H = H0 + f(t) x.

A real force f enters through x = (a + adag)/sqrt(2 omega); the exact
time-development operator factorizes into a real phase beta, a displacement
by zeta, and free evolution.  `response` takes zeta and beta from one
Chebyshev sweep: on each smooth piece it samples f at Chebyshev-Lobatto
points, integrates the Chebyshev series of f e^{-i omega t} exactly, and sums
the beta integrand with Clenshaw-Curtis weights, doubling the points until
the last coefficients reach roundoff; those coefficients are its error
estimate.  Both are cross-checked against direct Schrodinger integration in
the verify suite.

Pulses are stored as tuples of smooth pieces so that no Chebyshev series
ever spans a jump or kink.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.fft import dct

from . import fock
from .states import GcsLabel


class QuadratureError(Exception):
    """The zeta/beta sweep failed to reach the requested tolerance."""


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
        # each piece runs on one slice of the sorted times (equal times, equal values)
        t = np.asarray(t, dtype=np.float64)
        ts = np.sort(t, axis=None)
        values = np.zeros(ts.size)
        a, b = np.array([(a, b) for a, b, _ in self.pieces]).T
        lo, hi = np.searchsorted(ts, a), np.searchsorted(ts, b)
        hi[-1] = np.searchsorted(ts, b[-1], side="right")
        for (_, _, f), i, j in zip(self.pieces, lo, hi):
            if j > i:
                values[i:j] = f(ts[i:j])
        out = values[np.searchsorted(ts, t)]
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


class Response(NamedTuple):
    """zeta(t), beta(t), the error estimate of the sweep that gave them, and
    reach, the peak of |zeta| over the sampled times up to t."""

    zeta: complex
    beta: float
    tail: float
    reach: float


def _chebyshev_coefficients(values):
    # samples at x_j = cos(pi j / n), j = 0..n, along the last axis -> the
    # Chebyshev coefficients of their interpolant: one DCT-I, which is an FFT
    # of the mirrored samples
    n = values.shape[-1] - 1
    c = dct(values, type=1, axis=-1) / n
    c[..., [0, n]] /= 2
    return c


def _antiderivative(c):
    """Chebyshev coefficients of each series' antiderivative, zero at x = -1.

    The same series as numpy.polynomial.chebyshev.chebint(c, lbnd=-1,
    axis=-1), whose Python loop over the degree this replaces by one array
    step: B_k = (c_{k-1} - c_{k+1}) / (2k) with c_0 doubled.
    """
    n = c.shape[-1]
    pad = np.zeros(c.shape[:-1] + (n + 2,), c.dtype)
    pad[..., :n] = c
    pad[..., 0] *= 2
    k = np.arange(1, n + 1)
    out = np.empty(c.shape[:-1] + (n + 1,), c.dtype)
    out[..., 1:] = (pad[..., :-2] - pad[..., 2:]) / (2 * k)
    out[..., 0] = -(out[..., 1:] @ (-1.0) ** k)
    return out


def _values_at_nodes(c):
    # a series of degree n + 1 at the n + 1 points x_j = cos(pi j / n): there
    # T_{n+1}(x_j) = T_{n-1}(x_j), so fold the top coefficient down and invert
    # the DCT-I
    n = c.shape[-1] - 2
    folded = c[..., :n + 1].copy()
    folded[..., n - 1] += c[..., n + 1]
    folded[..., [0, n]] *= 2
    return dct(folded, type=1, axis=-1) / 2


# Chebyshev-Lobatto sampling per piece: N starts at _N0 and doubles up to
# _N_MAX.  A piece is resolved when the last N/8 + 1 coefficients of g and
# of h are at most _TAIL_RTOL of their scale (max|f| for g, max|f| times
# max|G_p - G(a)| for h), well above the ~1e-16 roundoff plateau of the FFT.
_N0, _N_MAX, _TAIL_RTOL = 16, 4096, 1e-13
RESPONSE_TOL = 1e-10  # of the peak |G| for zeta, of its square for beta


def response(pulse, omega, t):
    """zeta(t) and beta(t) from one Chebyshev sweep over the smooth pieces.

    Both rest on G(s) = integral of f e^{-i omega s'} from t0 to s:
    zeta(t) = -(i/sqrt(2 omega)) conj G(t), and beta(t) = (1/(2 omega))
    integral of f(s) Im[e^{i omega s} G(s)] from t0 to t.  On each piece
    [a, b] (cut at t) f is sampled at N + 1 Chebyshev-Lobatto points; one
    FFT gives the Chebyshev coefficients of g = f e^{-i omega s}, whose exact
    integral is G_p(s) - G(a), and h = f Im[e^{i omega s} (G_p(s) - G(a))] is
    summed with Clenshaw-Curtis weights (Trefethen, Approximation Theory and
    Approximation Practice, SIAM 2013, ch. 3 and 19; Clenshaw & Curtis,
    Numer. Math. 2, 197 (1960)).  With I_p and B_p the piece integrals of g
    and h, G(t) = sum_p I_p and 2 omega beta = sum_p (B_p + Im[G(a_p) conj
    I_p]), so every piece is resolved on its own: all unresolved pieces are
    sampled together, N doubling from 16, until the last N/8 + 1 coefficients
    of g and h are at most 1e-13 of their sample scale.

    `tail`, the error estimate, sums over pieces the piece length times those
    last coefficients of g and of h.  `reach` is max_p (|G(a_p)| +
    max|G_p - G(a_p)|) / sqrt(2 omega) over the samples, a bound on the peak
    of |zeta| on [t0, t]; it is 0 when t = t0.  Raises QuadratureError when a
    sample is not finite, when a piece is still unresolved at N = 4096, or
    when the g part of the tail exceeds RESPONSE_TOL = 1e-10 times that peak
    |G| or the h part exceeds RESPONSE_TOL times its square.
    """
    _check_omega(omega)
    _check_time(pulse, t)
    spans = []
    for a, b, f in pulse.pieces:
        hi = min(b, t)
        if hi <= a:
            break
        spans.append((a, hi, f))
    lo = np.array([span[0] for span in spans], dtype=np.float64)
    hi = np.array([span[1] for span in spans], dtype=np.float64)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    integral = np.zeros(len(spans), complex)
    local, tail, tail_beta, peak = (np.zeros(len(spans)) for _ in range(4))
    pending, n = np.arange(len(spans)), _N0
    while pending.size:
        if n > _N_MAX:
            i = pending[0]
            raise QuadratureError(
                f"zeta/beta: {pending.size} piece(s) unresolved at {_N_MAX} Chebyshev "
                f"points, the first on [{lo[i]}, {hi[i]}]"
            )
        x = np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))  # cos(pi j/n)
        s = mid[pending, None] + half[pending, None] * x
        fs = np.empty_like(s)
        for row, i in enumerate(pending):
            fs[row] = spans[i][2](s[row])
        bad = np.flatnonzero(~np.isfinite(fs))
        if bad.size:
            row, j = divmod(bad[0], n + 1)
            raise QuadratureError(
                f"zeta/beta: force at t={s[row, j]:.6g} is {fs[row, j]}"
            )
        cg = _chebyshev_coefficients(fs * np.exp(-1j * omega * s))
        big = _antiderivative(cg)
        g_local = half[pending, None] * _values_at_nodes(big)
        ch = _chebyshev_coefficients(fs * np.imag(np.exp(1j * omega * s) * g_local))
        last = n // 8 + 1
        tail_g = np.max(np.abs(cg[:, -last:]), axis=1)
        tail_h = np.max(np.abs(ch[:, -last:]), axis=1)
        scale = np.max(np.abs(fs), axis=1)
        ok = (tail_g <= _TAIL_RTOL * scale) & (
            tail_h <= _TAIL_RTOL * scale * np.max(np.abs(g_local), axis=1)
        )
        done = pending[ok]
        weights = np.zeros(n + 1)
        weights[::2] = 2.0 / (1.0 - np.arange(0.0, n + 1, 2) ** 2)
        integral[done] = half[done] * big[ok].sum(axis=1)
        local[done] = half[done] * (ch[ok] @ weights)
        tail[done] = 2.0 * half[done] * (tail_g[ok] + tail_h[ok])
        tail_beta[done] = 2.0 * half[done] * tail_h[ok]
        peak[done] = np.max(np.abs(g_local[ok]), axis=1)
        pending, n = pending[~ok], 2 * n
    starts = np.cumsum(integral) - integral
    peak_g = float(np.max(np.abs(starts) + peak, initial=0.0))
    est, est_beta = float(tail.sum()), float(tail_beta.sum())
    if not (est - est_beta <= RESPONSE_TOL * peak_g and est_beta <= RESPONSE_TOL * peak_g**2):
        raise QuadratureError(
            f"zeta/beta error estimate {est:.3e} > {RESPONSE_TOL:.0e} of the peak "
            f"|G| = {peak_g:.3e} (of its square for beta)"
        )
    beta = (local.sum() + np.sum(np.imag(starts * np.conj(integral)))) / (2.0 * omega)
    root = math.sqrt(2.0 * omega)
    return Response(complex(-1j / root * np.conj(integral.sum())), float(beta), est,
                    peak_g / root)


def zeta(pulse, omega, t):
    """-(i/sqrt(2 omega)) * integral of f(s) e^{i omega s} from t0 to t.

    The zeta of `response`, which raises QuadratureError when the Chebyshev
    sweep fails or its error estimate exceeds RESPONSE_TOL of its scale.
    """
    return response(pulse, omega, t).zeta


def beta_phase(pulse, omega, t):
    """Real phase (1/2w) double integral of f(t')f(t'') sin(w(t'-t'')) over t'' < t'.

    The beta of `response`, which raises QuadratureError when the Chebyshev
    sweep fails or its error estimate exceeds RESPONSE_TOL of its scale.
    """
    return response(pulse, omega, t).beta


def drive_hamiltonian(pulse, omega, dim):
    """H0 + f(t) x for direct Schrodinger integration: a
    fock.TridiagonalHamiltonian with bands (k + 1/2) omega and
    f(t) sqrt(k + 1)/sqrt(2 omega), integrated without a dense matrix.
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
    z1, b1 = response(pulse, omega, pulse.t1)[:2]
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
    z1, b1 = response(pulse, omega, pulse.t1)[:2]
    return _driven_state(n, pulse, omega, dim, z1, b1)


def _driven_state(n, pulse, omega, dim, z1, b1):
    # drive_number_state for a caller that already holds zeta(t1) and beta(t1)
    col = fock.gcs_vector(n, z1 * np.exp(-1j * omega * pulse.t1), dim, omega)
    free = np.exp(-1j * (n + 0.5) * omega * (pulse.t1 - pulse.t0))
    return fock.FockVector(np.exp(1j * b1) * (col.coeffs * free), omega), GcsLabel(n, z1, omega)
