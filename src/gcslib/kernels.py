"""Hot numeric kernels: three-term recurrences vectorized in NumPy.

Each recurrence step is one array operation over every point (or every
upper index) at once, so the Python loop runs over the degree only.
"""

import numpy as np


def hermite_functions(n, omega, y):
    """Normalized oscillator eigenfunction phi_n(y) for scalar or any-shape y.

    Three-term recurrence on the normalized functions; the Gaussian and the
    1/sqrt(2^n n!) factor ride along, so nothing overflows for n <= 200.
    """
    arr = np.asarray(y, dtype=np.float64)
    x = arr.reshape(-1)
    p0 = (omega / np.pi) ** 0.25 * np.exp(-0.5 * omega * x * x)
    p1 = np.sqrt(2.0 * omega) * x * p0 if n else p0
    for k in range(1, n):
        p0, p1 = p1, np.sqrt(2.0 * omega / (k + 1.0)) * x * p1 - np.sqrt(k / (k + 1.0)) * p0
    res = p1.reshape(arr.shape)
    return float(res) if arr.ndim == 0 else res


def laguerre_table(s, d, z):
    """Generalized Laguerre L_s^{d_i}(z): fixed degree s over an array d of upper indices."""
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    L0 = np.ones_like(d)
    if s == 0:
        return L0
    L1 = 1.0 + d - z
    for j in range(1, s):
        L0, L1 = L1, ((2.0 * j + 1.0 + d - z) * L1 - (j + d) * L0) / (j + 1.0)
    return L1


def laguerre_diagonal(n, z):
    """L_k^{n-k}(z) for k = 0..n-1: the anti-diagonal degree + index = n.

    One laguerre_table recurrence runs over the indices d = n - k at once,
    entry k is read off when the degree reaches k, and the arrays then drop
    it, so finished entries neither cost steps nor overflow.  Each entry
    takes the same arithmetic as laguerre_table(k, [n - k], z), so the two
    agree bit for bit.
    """
    d = np.arange(n, 0, -1, dtype=np.float64)
    out = np.ones_like(d)
    if n < 2:
        return out
    d = d[1:]
    L0, L1 = np.ones_like(d), 1.0 + d - z
    out[1] = L1[0]
    for j in range(1, n - 1):
        d = d[1:]
        L0, L1 = L1[1:], ((2.0 * j + 1.0 + d - z) * L1[1:] - (j + d) * L0[1:]) / (j + 1.0)
        out[j + 1] = L1[0]
    return out
