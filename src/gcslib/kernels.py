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
