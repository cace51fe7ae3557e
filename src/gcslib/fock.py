"""Truncated number-basis numerics: ladder matrices, displacement operators
from one real tridiagonal eigensolve, displaced number states, expectation
values, and a direct Schrodinger integrator.

The displacement generator alpha adag - conj(alpha) a is P (-i |alpha| X) P^H
with P = diag(i^k e^{ik arg alpha}) and X the real symmetric tridiagonal
matrix with zero diagonal and off-diagonal sqrt(k), whose eigenvalues are
sqrt(2) times the Gauss-Hermite nodes (Golub & Welsch, Math. Comp. 23, 221
(1969)).  So one LAPACK dstevd, X = V Lambda V^T, gives
D(alpha) = P V e^{-i |alpha| Lambda} V^T P^H, and a single column of it costs
O(dim^2) after the eigensolve.  On a TridiagonalHamiltonian the integrator
diagonalises only at m nodes of the force, m chosen so that the interpolation
bound 2 (r dt ||X||/2)^m / m! is at most 1e-17, and keeps the m step
operators, m dim^2 16 bytes.

Everything here is an independent cross-check for the closed forms in
states.py, so it deliberately shares no code with them.  Matrices are plain
complex ndarrays in the number basis at t = 0; callers fold Schrodinger
phases into their complex labels.  Truncation corrupts the top of the basis,
hence the tail-mass guards below.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd


class TruncationError(Exception):
    """The truncated dimension cannot hold the requested state safely."""


# gcs_vector without a dim grows its dim by this factor until the top
# TOP_LEVELS levels of the column hold at most TOP_MASS
GROWTH, TOP_LEVELS, TOP_MASS = 1.25, 5, 1e-14


def min_dim(alpha, n=0):
    """Starting dimension for displacing level n by alpha, and the least one
    the tail guards accept.

    A displaced number state has essentially all its weight below
    |alpha|^2 + O(|alpha|); the margin 6|alpha| + 10 + 2n pushes the
    neglected tail under ~1e-9 for |alpha| <= 3, n <= 5.  Beyond that range
    it is only a starting size: gcs_vector without a dim grows from it until
    the measured top-level mass is small enough.
    """
    a = abs(alpha)
    return int(math.floor(a * a + 6.0 * a + 10.0 + 2 * n)) + 1


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")


def ladder_matrices(dim):
    """Annihilation, creation, and number matrices (a, adag, num) at size dim.

    num is the exact diagonal 0, 1, ..., dim - 1, so num * num is N^2.
    """
    _check_dim(dim)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    adag = a.conj().T.copy()
    return a, adag, np.diag(np.arange(dim, dtype=complex))


def _displacement_factors(alpha, dim):
    """(V, phases, P) with D(alpha) = P V diag(phases) V^T P^H at size dim.

    One dstevd on X (zero diagonal, off-diagonal sqrt(k)): phases are
    e^{-i |alpha| lambda} and P = i^k e^{ik arg alpha}.
    """
    evals, evecs, info = dstevd(np.zeros(dim), np.sqrt(np.arange(1.0, dim)))
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info={info} at dim={dim}")
    k = np.arange(dim)
    p = np.array([1.0, 1j, -1.0, -1j])[k % 4] * np.exp(1j * k * np.angle(alpha))
    return evecs, np.exp(-1j * abs(alpha) * evals), p


def displacement_matrix(alpha, dim, check_tail=True):
    """Displacement operator exp(alpha adag - conj(alpha) a), truncated to dim.

    Computed as P V e^{-i |alpha| Lambda} V^T P^H from one real tridiagonal
    eigensolve (see the module docstring); alpha = 0 gives the identity
    exactly.  Unitary to machine precision only when the tail guard
    dim >= min_dim(alpha) holds; pass check_tail=False to inspect the raw
    truncated exponential anyway.  A dim that is not an integer skips the
    guard and raises ValueError.
    """
    alpha = complex(alpha)
    if check_tail and isinstance(dim, (int, np.integer)) and dim < min_dim(alpha):
        raise TruncationError(
            f"dim={dim} too small for |alpha|={abs(alpha):.3f}; "
            f"need at least {min_dim(alpha)}"
        )
    _check_dim(dim)
    if alpha == 0:
        return np.eye(dim, dtype=complex)
    v, phases, p = _displacement_factors(alpha, dim)
    mat = (v * phases.real) @ v.T + 1j * ((v * phases.imag) @ v.T)
    return p[:, None] * mat * p.conj()


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


def gcs_vector(n, alpha, dim=None, omega=1.0):
    """Displaced number state D(alpha)|n>: column n of the displacement matrix.

    The column is P V (e^{-i |alpha| lambda} * V[n, :]) conj(P_n), O(dim^2)
    after the one eigensolve per dim; no dim x dim complex matrix is formed.
    With dim None it starts at max(min_dim(alpha, n) + 24, 48) and grows by
    GROWTH until the top TOP_LEVELS levels hold at most TOP_MASS.  A given dim
    is used as it is, and raises TruncationError below min_dim(alpha, n).
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if dim is None:
        dim = max(min_dim(alpha, n) + 24, 48)
        vec = gcs_vector(n, alpha, dim, omega)
        while vec.tail_mass(TOP_LEVELS) > TOP_MASS:
            dim = math.ceil(GROWTH * dim)
            vec = gcs_vector(n, alpha, dim, omega)
        return vec
    if not n < dim / 2:
        raise TruncationError(f"n={n} too close to the truncation edge dim={dim}")
    if isinstance(dim, (int, np.integer)) and dim < min_dim(alpha, n):
        raise TruncationError(
            f"dim={dim} too small for n={n}, |alpha|={abs(alpha):.3f}; "
            f"need at least {min_dim(alpha, n)}"
        )
    _check_dim(dim)
    alpha = complex(alpha)
    if alpha == 0:
        return FockVector(number_state(n, dim).coeffs, omega)
    v, phases, p = _displacement_factors(alpha, dim)
    w = phases * v[n] * p[n].conjugate()
    col = v @ np.stack([w.real, w.imag], axis=1)
    return FockVector(p * (col[:, 0] + 1j * col[:, 1]), omega)


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
    vectorised t -> f(t)) once at every midpoint and interpolates the step
    operator U(f) = exp(-i dt (diag + f off)), an entire function of f with
    ||d^j U/df^j|| <= (dt ||X||)^j and ||X|| <= 2 max|off|.  LAPACK's real
    tridiagonal dstevd runs only at the m Chebyshev nodes of the force range
    [f_min, f_max] of half-width r, m the least count with
    2 (r dt ||X||/2)^m / m! <= 1e-17, or at the distinct midpoint forces
    when there are no more than m of them.  The m node operators take
    m dim^2 16 bytes.
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
    nodes, weights = _force_nodes(forces, dt * 2.0 * np.max(np.abs(hamiltonian.off)))
    dim, ncol = block.shape
    eye = np.eye(dim)
    stack = np.empty((nodes.size, dim, dim), complex)
    for j, f in enumerate(nodes):
        evals, evecs, info = dstevd(hamiltonian.diag, f * hamiltonian.off)
        if info != 0:
            raise np.linalg.LinAlgError(f"dstevd failed with info={info} at force {f!r}")
        u = (evecs * np.exp(-1j * evals * dt)) @ evecs.T
        # each node operator is applied up to `steps` times, so its departure
        # from unitarity (that of evecs, ~dim eps) would add up linearly; one
        # Newton-Schulz step takes it to roundoff
        stack[j] = u + 0.5 * u @ (eye - u.conj().T @ u)
    for w in weights:
        block = (w @ (stack @ block).reshape(nodes.size, -1)).reshape(dim, ncol)
    return block


def _force_nodes(forces, scale):
    """Interpolation nodes in the force and each step's weights on them.

    scale is |dt| ||X||.  Takes the least m with 2 (r scale/2)^m / m! <= 1e-17,
    r the half-width of the force range; if the forces take no more than m
    distinct values those are the nodes, and each weight row picks its own.
    Otherwise the nodes are the m Chebyshev points of the range, and the
    weights are the barycentric Lagrange basis at every force at once.
    """
    values = np.unique(forces)
    x = 0.25 * (values[-1] - values[0]) * abs(scale)
    m, bound = 1, 2.0 * x
    while m < values.size and bound > 1e-17:
        m += 1
        bound *= x / m
    if m == values.size:
        return values, (forces[:, None] == values).astype(np.float64)
    theta = (2.0 * np.arange(m) + 1.0) * np.pi / (2.0 * m)
    nodes = 0.5 * (values[0] + values[-1]) + 0.5 * (values[-1] - values[0]) * np.cos(theta)
    diff = forces[:, None] - nodes
    hit = diff == 0.0
    terms = (-1.0) ** np.arange(m) * np.sin(theta) / np.where(hit, 1.0, diff)
    weights = terms / terms.sum(axis=1, keepdims=True)
    exact = hit.any(axis=1)
    weights[exact] = hit[exact]
    return nodes, weights


def _propagate(hamiltonian, block, t0, t1, steps):
    # exponential midpoint rule: each step applies expm(-i H(t_mid) dt)
    # through an eigendecomposition, so every step is exactly unitary up to
    # the Hermitian eigensolver's roundoff.  A TridiagonalHamiltonian takes
    # the real banded eigensolver at m force nodes only (m the least count
    # with 2 (r dt ||X||/2)^m / m! <= 1e-17, a stack of m dim^2 16 bytes)
    # and interpolates each step's operator between them, within that bound;
    # any other callable takes the dense eigensolver at every step.
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
