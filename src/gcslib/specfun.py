"""Special functions for oscillator work: Hermite and generalized Laguerre
polynomials by three-term recurrences, normalized eigenfunctions, and
log-factorials for stable large-index ratios."""

import math

import numpy as np

from . import kernels


def _check_index(n, name="n"):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {n!r}")


def hermite(n, z):
    """Physicists' Hermite polynomial H_n(z).

    Upward recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1} in plain Python
    floats; values grow like (2z)^n, and genuinely unrepresentable results
    raise OverflowError rather than returning inf/nan.  For large n use
    eigenfunction(), which keeps the normalization inside the recurrence.
    """
    _check_index(n)
    z = float(z)
    h0 = 1.0
    if n == 0:
        return h0
    h1 = 2.0 * z
    for k in range(1, n):
        h0, h1 = h1, 2.0 * z * h1 - 2.0 * k * h0
    if not math.isfinite(h1):
        raise OverflowError(
            f"H_{n}({z}) exceeds float range; use eigenfunction() instead"
        )
    return h1


def laguerre_assoc(k, m, z):
    """Generalized Laguerre polynomial L_k^m(z) for integer k >= 0, m >= 0.

    ValueError when it is not finite: a NaN z, or a recurrence past the float
    range, as L_700(1600) (about 1e344) goes through inf - inf."""
    _check_index(k, "k")
    _check_index(m, "m")
    # kernels.laguerre_table's recurrence on one column, in the same order,
    # so the bits agree; two scalars instead of all k + 1 degrees
    d, z = float(m), float(z)
    if k == 0:
        return 1.0
    L0, L1 = 1.0, 1.0 + d - z
    for j in range(1, k):
        L0, L1 = L1, ((2.0 * j + 1.0 + d - z) * L1 - (j + d) * L0) / (j + 1.0)
    if not math.isfinite(L1):
        raise ValueError(f"L_{k}^{m}({z!r}) is {L1}: the recurrence leaves the float range")
    return L1


def laguerre(k, z):
    """Ordinary Laguerre polynomial L_k(z) = L_k^0(z)."""
    return laguerre_assoc(k, 0, z)


def eigenfunction(n, omega, x):
    """Normalized harmonic-oscillator eigenfunction phi_n(x) (mass 1, hbar 1).

    Parameters
    ----------
    n : int
        Quantum number, n >= 0.
    omega : float
        Oscillator frequency, > 0.
    x : array_like
        Positions; any shape, or a scalar.

    The recurrence acts on the normalized functions, so no factorials or
    2^n appear, and a binary-scaled seed, rescaled as the recurrence grows
    it, keeps it accurate where exp(-omega x^2/2) alone would underflow
    (n from ~750); values below the float range come out 0.0.  Raises
    ValueError when a value is not finite (a NaN x, or an infinite x with
    n >= 1), never returning NaN.
    """
    _check_index(n)
    omega = float(omega)
    if not (omega > 0 and math.isfinite(omega)):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    return kernels.hermite_functions(n, omega, x)


def log_factorial(n):
    """ln(n!), exact via integers for small n, lgamma beyond."""
    _check_index(n)
    if n <= 20:
        return math.log(math.factorial(n)) if n > 1 else 0.0
    return math.lgamma(n + 1.0)
