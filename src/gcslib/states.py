"""Closed forms for displaced number states of a unit-mass oscillator
(hbar = 1): wavefunctions, trajectory expectations, overlaps, number-basis
expansions, photon statistics, field statistics, second-order coherence, and
basis-completeness defects.

A state is labelled (n, alpha, omega) with alpha = |alpha| e^{i theta}; all
coefficient-level quantities are canonical t = 0 objects, and time enters
only through the explicit t arguments of the trajectory/wavefunction/field
functions.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fock, specfun
from .kernels import laguerre_table


@dataclass(frozen=True)
class GcsLabel:
    """Displaced-number-state label: level n, complex amplitude, frequency."""

    n: int
    alpha: complex
    omega: float = 1.0

    def __post_init__(self):
        specfun._check_index(self.n)
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "omega", float(self.omega))
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        try:  # |alpha|^2 past the float range raises OverflowError
            finite = math.isfinite(abs(self.alpha) ** 2) and math.isfinite(self.omega)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(
                f"alpha, |alpha|^2 and omega must be finite, got {self.alpha}, {self.omega}"
            )

    @property
    def alpha_mag(self):
        return abs(self.alpha)

    @property
    def theta(self):
        return cmath.phase(self.alpha)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid x_min..x_max inclusive; k optionally tags a wavenumber."""

    x_min: float
    x_max: float
    points: int
    k: float = None

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"empty grid: [{self.x_min}, {self.x_max}]")
        if not isinstance(self.points, (int, np.integer)) or self.points < 2:
            raise ValueError(f"points must be an integer >= 2, got {self.points!r}")

    @property
    def values(self):
        return np.linspace(self.x_min, self.x_max, self.points)


def _half_width(label):
    # displacement amplitude plus the n-state's classical turning point
    # sqrt(2n+1) and 7 more widths, in units of the ground-state width
    # 1/sqrt(omega); at n = 0 this is the n-blind 8 widths exactly
    return math.sqrt(2.0 / label.omega) * label.alpha_mag + (
        math.sqrt(2 * label.n + 1) + 7.0
    ) / math.sqrt(label.omega)


def default_grid(label, points=2048, k=None):
    """Grid spanning the displaced n-state's turning points plus 7 widths."""
    half = _half_width(label)
    return SpatialGrid(-half, half, points, k)


def position_expectation(label, t):
    """<x>(t) = sqrt(2/omega) |alpha| cos(omega t - theta)."""
    return math.sqrt(2.0 / label.omega) * label.alpha_mag * math.cos(
        label.omega * t - label.theta
    )


def momentum_expectation(label, t):
    """<p>(t) = -sqrt(2 omega) |alpha| sin(omega t - theta)."""
    return -math.sqrt(2.0 * label.omega) * label.alpha_mag * math.sin(
        label.omega * t - label.theta
    )


def wavefunction(label, x, t):
    """psi_{n,alpha}(x, t): a rigidly translated eigenfunction times a phase.

    The amplitude is phi_n(x - <x>(t)); the phase is
    exp(i[-(n + 1/2) omega t + x <p>(t) - <x>(t) <p>(t)/2]), which makes the
    result an exact solution of the time-dependent Schrodinger equation.
    """
    x = np.asarray(x, dtype=np.float64)
    xav = position_expectation(label, t)
    pav = momentum_expectation(label, t)
    amp = specfun.eigenfunction(label.n, label.omega, x - xav)
    phase = np.exp(
        1j * (-(label.n + 0.5) * label.omega * t + x * pav - 0.5 * xav * pav)
    )
    out = amp * phase
    return complex(out) if x.ndim == 0 else out


def density_grid(label, grid, t):
    """|psi|^2 on the grid: the n-state density rigidly carried along <x>(t)."""
    amp = specfun.eigenfunction(label.n, label.omega, grid.values - position_expectation(label, t))
    return amp * amp


def overlap(n, beta, alpha):
    """<n, beta | n, alpha> = e^{-(|a|^2+|b|^2-2 a b*)/2} L_n(|a-b|^2)."""
    alpha, beta = GcsLabel(n, alpha).alpha, GcsLabel(n, beta).alpha
    ex = -0.5 * (abs(alpha) ** 2 + abs(beta) ** 2 - 2.0 * alpha * beta.conjugate())
    return cmath.exp(ex) * specfun.laguerre(n, abs(alpha - beta) ** 2)


def orthonormality_check(n, m, alpha, dim=None):
    """|<n,alpha|m,alpha> - delta_nm| from displacement-matrix columns m and
    n alone, at a dim the Fock oracle accepts for level max(n, m)."""
    cols = fock._displaced_columns(alpha, dim, max(n, m), [m, n])
    ip = np.vdot(cols[:, 0], cols[:, 1])
    return float(abs(ip - (1.0 if n == m else 0.0)))


_LOG_FACTORIALS = np.zeros(1)  # ln k! for k < len, grown by _log_factorials


def _log_factorials(top):
    """ln k! for k = 0..top (or more), each from specfun.log_factorial.

    The table outlives the call and doubles when it is too short, so a run
    calls log_factorial once per k rather than once per s and s + d.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if table.shape[0] <= top:
        size = max(top + 1, 2 * table.shape[0])
        table = np.array([specfun.log_factorial(k) for k in range(size)])
        _LOG_FACTORIALS = table
    return table


def _log_weight(s, d, z):
    # ln of sqrt(s!/(s+d)!) e^{-z/2} z^{d/2}, vectorized over integer s and d
    top = s + d
    lf = _log_factorials(int(np.max(top)))
    out = 0.5 * (lf[s] - lf[top]) - 0.5 * z
    pos = d > 0
    if np.any(pos):
        out = np.where(pos, out + 0.5 * d * np.log(np.where(pos, z, 1.0)), out)
    return out


def _mag2(n, alpha):
    """|alpha|^2, once GcsLabel(n, alpha) has checked n and alpha (ValueError)."""
    return GcsLabel(n, alpha).alpha_mag ** 2


def _amplitude_rows(n, alpha, k_max, low):
    """Signed real amplitudes a_0..a_{k_max} of |m, alpha> for the levels
    m = low..n, one row per level; z = |alpha|^2.

    a_k = sqrt(s!/(s+d)!) e^{-z/2} z^{d/2} L_s^d(z) with s = min(m, k) and
    d = |m - k|, so P_k = a_k^2 and c_k = a_k e^{i d theta}.  The weight is
    taken in log space, in one _log_weight call over every (m, k), so the
    k ~ 100 regime neither over- nor underflows.  Every Laguerre value comes
    from one laguerre_table call over the upper indices
    0..max(k_max - low, n): a_k reads entry [s, d], which is row m at
    d = k - m for k >= m and the anti-diagonal entry [k, m - k] below.  Each
    column of the table is its own recurrence, so row m carries the bits of
    a level-m call.  Below the level the weight goes through math.exp, which
    rounds some values differently from np.exp.  Raises ValueError for a bad
    n or alpha (GcsLabel's checks), and when an amplitude is not finite: for
    large n and |alpha| the Laguerre recurrence overflows far out in k.
    """
    z = _mag2(n, alpha)
    m = np.arange(low, n + 1)[:, None]
    k = np.arange(k_max + 1)
    if z == 0.0:
        return (k == m).astype(np.float64)
    s, d = np.minimum(m, k), np.abs(k - m)
    lw = _log_weight(s, d, z)
    weights = np.exp(lw)
    below = k < m
    weights[below] = [math.exp(v) for v in lw[below].tolist()]
    # an overflow here is reported below, as the k whose amplitude it spoils
    with np.errstate(over="ignore", invalid="ignore"):
        table = laguerre_table(n, np.arange(max(k_max - low, n) + 1), z)
        a = weights * table[s, d]
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        raise ValueError(
            f"amplitude of k={bad[0, 1]} is not finite for n={low + bad[0, 0]}, "
            f"|alpha|={math.sqrt(z):.6g}: the Laguerre recurrence overflows"
        )
    return a


def _amplitudes(n, alpha, k_max):
    """Signed real amplitudes a_0..a_{k_max} of |n, alpha>: the one row of
    _amplitude_rows at level n, from one laguerre_table call over the upper
    indices 0..max(k_max - n, n)."""
    return _amplitude_rows(n, alpha, k_max, n)[0]


def _coefficients(a, low, alpha):
    """Number-basis coefficients from the amplitude rows a of levels
    low, low + 1, ...: c_k = a_k e^{i d theta} with theta = arg(alpha) at
    k >= m and arg(-conj(alpha)) below, d = |m - k|.  Raises TruncationError
    when a row captures less than 1 - 1e-10 of the mass."""
    levels = np.arange(low, low + a.shape[0])[:, None]
    d = np.arange(a.shape[1]) - levels
    coeffs = a.astype(complex)
    if abs(alpha) ** 2 != 0.0:
        up = d >= 0
        coeffs[up] = a[up] * np.exp(1j * d[up] * cmath.phase(alpha))
        theta = cmath.phase(-alpha.conjugate())
        coeffs[~up] = a[~up] * np.array(
            [cmath.exp(1j * j * theta) for j in (-d[~up]).tolist()], dtype=complex)
    mass = np.sum(np.abs(coeffs) ** 2, axis=1)
    short = np.flatnonzero(~(mass >= 1.0 - 1e-10))  # a NaN mass fails here too
    if short.size:
        raise fock.TruncationError(
            f"k_max={a.shape[1] - 1} captures mass {mass[short[0]]:.12f} < 1 - 1e-10 "
            f"for n={low + short[0]}, |alpha|={abs(alpha):.3f}"
        )
    return coeffs


def _check_k_max(n, k_max):
    if not isinstance(k_max, (int, np.integer)) or k_max < n:
        raise ValueError(f"k_max must be an integer >= n, got {k_max!r}")


def number_expansion(n, alpha, k_max):
    """Number-basis coefficients c_0..c_{k_max} of |n, alpha> at t = 0.

    c_k = sqrt(n!/k!) e^{-|a|^2/2} a^{k-n} L_n^{k-n}(|a|^2) for k >= n and the
    mirrored form with a -> -conj(a) below n: the real amplitude a_k times
    e^{i d theta}, theta = arg(a) at k >= n and arg(-conj(a)) below.  Raises
    TruncationError when the captured mass falls below 1 - 1e-10.
    """
    _check_k_max(n, k_max)
    alpha = complex(alpha)
    return _coefficients(_amplitudes(n, alpha, k_max)[None, :], n, alpha)[0]


def number_expansion_levels(n, alpha, k_max):
    """Row m is number_expansion(m, alpha, k_max), for every level m = 0..n.

    One laguerre_table call and one log-weight pass serve all n + 1 rows, and
    each row has the bits of its own number_expansion call.  Raises
    TruncationError, naming the first such level, when any row captures less
    than 1 - 1e-10 of the mass.
    """
    _check_k_max(n, k_max)
    alpha = complex(alpha)
    return _coefficients(_amplitude_rows(n, alpha, k_max, 0), 0, alpha)


def evolved_expansion(label, t, k_max):
    """Number-basis coefficients at time t: c_k(0) e^{-i(k + 1/2) omega t}.

    Free evolution only dephases the number basis, so these coefficients are
    the complete state at t; the label keeps its canonical t=0 value.
    """
    c = number_expansion(label.n, label.alpha, k_max)
    k = np.arange(k_max + 1)
    return c * np.exp(-1j * (k + 0.5) * label.omega * t)


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number probabilities p_0..p_K of a displaced number state."""

    probs: np.ndarray
    n: int
    alpha: complex

    @property
    def k_max(self):
        return self.probs.shape[0] - 1

    @property
    def tail_deficit(self):
        """Probability mass beyond k_max: 1 - sum(probs)."""
        return float(1.0 - np.sum(self.probs))

    def _weights(self, power, tol):
        # a moment of a table missing more than tol of its mass would be a
        # plausible wrong number, so it raises instead
        if self.tail_deficit > tol:
            raise fock.TruncationError(
                f"P_0..P_{self.k_max} miss {self.tail_deficit:.3g} of the mass "
                f"(tol {tol:g}); raise k_max"
            )
        return np.arange(self.probs.shape[0]) ** power * self.probs

    def mean(self, tol=1e-10):
        return float(np.sum(self._weights(1, tol)))

    def second_moment(self, tol=1e-10):
        return float(np.sum(self._weights(2, tol)))

    def variance(self, tol=1e-10):
        return self.second_moment(tol) - self.mean(tol) ** 2


def photon_probability(n, alpha, k):
    """P_k = probability of k photons in |n, alpha>.

    Symmetric form with s = min(n, k), d = |n - k|:
    P_k = (s!/(s+d)!) e^{-|a|^2} |a|^{2d} [L_s^d(|a|^2)]^2, the square of
    the same amplitude photon_distribution squares, so the two agree bit for
    bit; it costs as much as photon_distribution(n, alpha, k).
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    amp = _amplitudes(n, alpha, k)[k]
    return float(amp * amp)


def photon_distribution(n, alpha, k_max):
    """P_0..P_{k_max} for |n, alpha>: the squared amplitudes.

    Squaring the amplitude rather than the Laguerre value keeps large n and
    |alpha| finite: L alone reaches 1e212 there, and L * L would overflow.
    """
    if not isinstance(k_max, (int, np.integer)) or k_max < 0:
        raise ValueError(f"k_max must be a non-negative integer, got {k_max!r}")
    alpha = complex(alpha)
    a = _amplitudes(n, alpha, k_max)
    return PhotonDistribution(a * a, n, alpha)


def mean_photon(n, alpha):
    """<N> = n + |alpha|^2."""
    return n + _mag2(n, alpha)


def photon_variance(n, alpha):
    """Closed-form photon-number spread |alpha|^2, independent of n.

    Note: direct moments of the distribution above give
    sum k^2 P_k - (sum k P_k)^2 = (2n+1)|alpha|^2, which matches this value
    only at n = 0.  Both numbers are reported side by side by the CLI
    `expect` command; the verify suites check the moment identities that
    actually hold for the distribution.
    """
    return _mag2(n, alpha)


def fractional_uncertainty(n, alpha):
    """|alpha| / (n + |alpha|^2); vanishes as the amplitude grows."""
    a = GcsLabel(n, alpha).alpha_mag
    if n == 0 and a == 0.0:
        raise ValueError("fractional uncertainty undefined for the vacuum")
    return a / (n + a * a)


def energy_expectation(label):
    """<H> = omega (n + |alpha|^2 + 1/2)."""
    return label.omega * (label.n + label.alpha_mag**2 + 0.5)


def g2(n, alpha):
    """Equal-time second-order coherence 1 - n/(n + |alpha|^2)^2.

    This is the closed form carried by the rest of the statistics set; the
    moment-based (<N^2> - <N>)/<N>^2 of the actual distribution equals
    1 + ((2n+1)|alpha|^2 - n - |alpha|^2)/<N>^2 and crosses it only at n = 0
    or alpha = 0.  See photon_variance.
    """
    z = _mag2(n, alpha)
    if n == 0 and z == 0.0:
        raise ValueError("g2 undefined for the vacuum (0/0)")
    return 1.0 - n / (n + z) ** 2


def g2_argmin_over_n(alpha, n_max):
    """Level n in 0..n_max minimizing g2; exact ties go to the smaller n."""
    z = _mag2(0, alpha)
    if not isinstance(n_max, (int, np.integer)) or not n_max > z:
        raise ValueError(f"n_max must be an integer > |alpha|^2 = {z:.6g}")
    # alpha = 0: treat the undefined vacuum entry as its limit value 1
    values = [
        1.0 if (n == 0 and z == 0.0) else g2(n, alpha) for n in range(n_max + 1)
    ]
    return int(np.argmin(values))


def quadrature_variances(n):
    """Variances of the two field quadratures, each (2n+1)/8.

    The quadrature pair decomposes the field mode as
    E ~ X cos(omega t - kx) + Y sin(omega t - kx) with X = (a + adag)/(2 sqrt 2)
    and Y = i(a - adag)/(2 sqrt 2); on |n, alpha> both variances equal the
    number-state value (2n+1)/8 for every alpha and omega.
    """
    specfun._check_index(n)
    v = (2 * n + 1) / 8.0
    return v, v


def field_expectation(n, alpha, omega, x, t):
    """<E>(x, t) = sqrt(2/omega) |alpha| cos(kx - omega t + theta + pi/2), k = omega.

    This is field_center of the label at chi = kx - omega t; unit field
    scaling and c = 1; independent of n.
    """
    label = GcsLabel(n, alpha, omega)
    return field_center(label, label.omega * np.asarray(x, float) - label.omega * t)


def field_variance(n, omega):
    """(Delta E)^2 = (2n+1)/(2 omega), independent of alpha, x and t."""
    GcsLabel(n, 0.0, omega)
    return (2 * n + 1) / (2.0 * omega)


def field_center(label, chi):
    """Field-space center of the distribution at field phase chi = kx - omega t."""
    return (
        math.sqrt(2.0 / label.omega)
        * label.alpha_mag
        * np.cos(np.asarray(chi, float) + label.theta + 0.5 * np.pi)
    )


def default_field_axis(label, points=2048):
    """Field-value axis wide enough for every band at every phase."""
    half = _half_width(label)
    return np.linspace(-half, half, points)


def field_density_grid(label, grid, t, e_values=None):
    """Distribution of the field value E at each grid position and time t.

    The distribution is the oscillator n-state density evaluated in the field
    variable: P(E) = |phi_n^(omega)(E - center)|^2 with the center following
    the cosine of chi = k x - omega t (k = grid.k, defaulting to omega, c = 1).
    Returns shape (grid.points, len(e_values)).
    """
    k = label.omega if grid.k is None else grid.k
    if e_values is None:
        e_values = default_field_axis(label)
    e_values = np.asarray(e_values, float)
    chi = k * grid.values - label.omega * t
    centers = field_center(label, chi)
    amp = specfun.eigenfunction(label.n, label.omega, e_values[None, :] - centers[:, None])
    return amp * amp


def field_node_curves(label, grid, t):
    """E positions of the n zero-probability curves at each grid position.

    Row j follows the j-th eigenfunction node, rigidly offset from the
    oscillating center; shape (n, grid.points).
    """
    k = label.omega if grid.k is None else grid.k
    chi = k * grid.values - label.omega * t
    centers = field_center(label, chi)
    if label.n == 0:
        return np.empty((0, grid.points))
    roots = np.polynomial.hermite.hermroots([0.0] * label.n + [1.0])
    return centers[None, :] + roots[:, None] / math.sqrt(label.omega)


def completeness_defect(alpha, big_n, d):
    """How far sum_{n<=N} |n,alpha><n,alpha| is from identity on levels < d.

    Max-abs deviation of the d x d leading block from the identity; the sum
    is evaluated through the first N displacement-matrix columns, at a dim
    the Fock oracle picks for level N - 1.
    """
    if not isinstance(big_n, (int, np.integer)) or big_n < 1:
        raise ValueError(f"N must be a positive integer, got {big_n!r}")
    if not isinstance(d, (int, np.integer)) or not 0 < d <= big_n:
        raise ValueError(f"d must be an integer in 1..N, got {d!r}")
    cols = fock._displaced_columns(alpha, None, big_n - 1, slice(0, big_n))
    block = (cols @ cols.conj().T)[:d, :d]
    return float(np.max(np.abs(block - np.eye(d))))
