"""Truncated number-basis numerics: ladder matrices, displacement operators
by matrix exponential, displaced number states, expectation values, and a
direct Schrodinger integrator.

Everything here is an independent cross-check for the closed forms in
states.py, so it deliberately shares no code with them.  Matrices are plain
complex ndarrays in the number basis at t = 0; callers fold Schrodinger
phases into their complex labels.  Truncation corrupts the top of the basis,
hence the tail-mass guards below.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dstevd


class TruncationError(Exception):
    """The truncated dimension cannot hold the requested state safely."""


def min_dim(alpha, n=0):
    """Smallest dimension passing the tail guard for displacing level n by alpha.

    A displaced number state has essentially all its weight below
    |alpha|^2 + O(|alpha|); the margin 6|alpha| + 10 + 2n pushes the
    neglected tail under ~1e-9 for |alpha| <= 3, n <= 5.  Callers that
    feed the result to expectation() should add headroom.
    """
    a = abs(alpha)
    return int(math.floor(a * a + 6.0 * a + 10.0 + 2 * n)) + 1


def ladder_matrices(dim):
    """Annihilation, creation, and number matrices (a, adag, num) at size dim."""
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    adag = a.conj().T.copy()
    return a, adag, adag @ a


def displacement_matrix(alpha, dim, check_tail=True):
    """Displacement operator exp(alpha adag - conj(alpha) a), truncated to dim.

    Computed by scipy's scaling-and-squaring expm.  Unitary to machine
    precision only when the tail guard dim >= min_dim(alpha) holds; pass
    check_tail=False to inspect the raw truncated exponential anyway.  A
    dim that is not an integer skips the guard, and ladder_matrices rejects it.
    """
    alpha = complex(alpha)
    if check_tail and isinstance(dim, (int, np.integer)) and dim < min_dim(alpha):
        raise TruncationError(
            f"dim={dim} too small for |alpha|={abs(alpha):.3f}; "
            f"need at least {min_dim(alpha)}"
        )
    a, adag, _ = ladder_matrices(dim)
    return expm(alpha * adag - np.conj(alpha) * a)


@dataclass(frozen=True)
class FockVector:
    """A pure state as number-basis coefficients plus its oscillator frequency."""

    coeffs: np.ndarray
    omega: float = 1.0

    @property
    def dim(self):
        return self.coeffs.shape[0]

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def tail_mass(self, count=1):
        """Probability sitting in the top `count` basis levels."""
        return float(np.sum(np.abs(self.coeffs[-count:]) ** 2))


def number_state(n, dim):
    if n >= dim:
        raise ValueError(f"n={n} does not fit in dim={dim}")
    e = np.zeros(dim, complex)
    e[n] = 1.0
    return FockVector(e)


def gcs_vector(n, alpha, dim, omega=1.0):
    """Displaced number state: column n of the displacement matrix."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if not n < dim / 2:
        raise TruncationError(f"n={n} too close to the truncation edge dim={dim}")
    if isinstance(dim, (int, np.integer)) and dim < min_dim(alpha, n):
        raise TruncationError(
            f"dim={dim} too small for n={n}, |alpha|={abs(alpha):.3f}; "
            f"need at least {min_dim(alpha, n)}"
        )
    mat = displacement_matrix(alpha, dim)
    return FockVector(mat[:, n].copy(), omega)


def expectation(op, vec, tail_tol=1e-10):
    """<vec| op |vec> / <vec|vec>, guarded against truncation leakage."""
    op = np.asarray(op)
    if op.shape != (vec.dim, vec.dim):
        raise ValueError(f"operator shape {op.shape} does not match dim {vec.dim}")
    if vec.tail_mass() > tail_tol:
        raise TruncationError(
            f"tail mass {vec.tail_mass():.3e} exceeds {tail_tol:.1e}; enlarge dim"
        )
    c = vec.coeffs
    return complex(np.vdot(c, op @ c) / np.vdot(c, c))


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal H(t): diag on the diagonal, force(t) * off beside it.

    Called with t it returns the dense complex matrix, like any Hamiltonian
    callable.  _propagate works on the bands instead: it samples force (a
    vectorised t -> f(t)) once at every midpoint and diagonalises each step
    with LAPACK's real tridiagonal dstevd.
    """

    diag: np.ndarray
    off: np.ndarray
    force: object

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=np.float64)
        off = np.asarray(self.off, dtype=np.float64)
        if diag.ndim != 1 or diag.size < 2 or off.shape != (diag.size - 1,):
            raise ValueError(
                f"need bands of sizes (dim, dim - 1), got {diag.shape}, {off.shape}"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("hamiltonian bands must be finite")
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

    def __call__(self, t):
        f = float(self.force(t))
        h = np.diag(self.diag) + np.diag(f * self.off, 1) + np.diag(f * self.off, -1)
        return h.astype(complex)


def _propagate_bands(hamiltonian, block, t0, dt, steps):
    mids = t0 + (np.arange(steps) + 0.5) * dt
    forces = np.asarray(hamiltonian.force(mids), dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(forces))
    if bad.size:
        raise ValueError(
            f"force at t={mids[bad[0]]:.6g} is {forces[bad[0]]} "
            f"({bad.size} of {steps} midpoints not finite)"
        )
    for f in forces:
        evals, evecs, info = dstevd(hamiltonian.diag, f * hamiltonian.off)
        if info != 0:
            raise np.linalg.LinAlgError(f"dstevd failed with info={info} at force {f!r}")
        block = evecs @ (np.exp(-1j * evals * dt)[:, None] * (evecs.T @ block))
    return block


def _propagate(hamiltonian, block, t0, t1, steps):
    # exponential midpoint rule: each step applies expm(-i H(t_mid) dt)
    # through an eigendecomposition, so every step is exactly unitary up to
    # the Hermitian eigensolver's roundoff.  A TridiagonalHamiltonian takes
    # the real banded eigensolver; any other callable the dense one.
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    dt = (t1 - t0) / steps
    block = np.asarray(block, complex).copy()
    if isinstance(hamiltonian, TridiagonalHamiltonian):
        return _propagate_bands(hamiltonian, block, t0, dt, steps)
    for i in range(steps):
        h = np.asarray(hamiltonian(t0 + (i + 0.5) * dt))
        skew = float(np.max(np.abs(h - h.conj().T)))
        if skew > 1e-10:
            raise ValueError(
                f"hamiltonian(t={t0 + (i + 0.5) * dt:.6g}) is not Hermitian "
                f"(max asymmetry {skew:.3e})"
            )
        evals, evecs = np.linalg.eigh(h)
        block = evecs @ (np.exp(-1j * evals * dt)[:, None] * (evecs.conj().T @ block))
    return block


def schrodinger_evolve(hamiltonian, vec, t0, t1, steps):
    """Integrate i d|v>/dt = H(t)|v> from t0 to t1 with a midpoint exponential.

    hamiltonian is a callable t -> (dim, dim) Hermitian ndarray, or a
    TridiagonalHamiltonian, which is integrated on its bands.  Raises if a
    sampled H fails a 1e-10 Hermiticity check (a non-finite force for the
    bands), or if the final norm drifts from the initial one by more than 1e-8.
    """
    out = _propagate(hamiltonian, vec.coeffs[:, None], t0, t1, steps)[:, 0]
    drift = abs(float(np.linalg.norm(out)) - vec.norm())
    if drift > 1e-8:
        raise RuntimeError(f"norm drifted by {drift:.3e} during evolution")
    return FockVector(out, vec.omega)
