"""Truncated number-basis numerics: ladder matrices, displaced number states
from one real tridiagonal eigensolve, expectation values, and a banded
Schrodinger integrator.

The displacement generator alpha adag - conj(alpha) a is P (-i |alpha| X) P^H
with P = diag(i^k e^{ik arg alpha}) and X the real symmetric tridiagonal
matrix with zero diagonal and off-diagonal sqrt(k), whose eigenvalues are
sqrt(2) times the Gauss-Hermite nodes (Golub & Welsch, Math. Comp. 23, 221
(1969)).  So one LAPACK dstevd, X = V Lambda V^T, gives
D(alpha) = P V e^{-i |alpha| Lambda} V^T P^H; one guarded routine forms any
set of its columns, a single one in O(dim^2) after the eigensolve.  The
integrator takes a TridiagonalHamiltonian only: it diagonalises at m nodes
of the force, m chosen so that the interpolation bound
2 (r dt ||X||/2)^m / m! is at most 1e-17, and keeps the m step operators,
m dim^2 16 bytes.

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
# TOP_LEVELS levels of the column hold at most TOP_MASS.  No dim above
# MAX_DIM is accepted: the eigensolve holds two dim^2 float64 arrays and a
# displacement matrix 16 dim^2 bytes, 1 GiB at the cap.
GROWTH, TOP_LEVELS, TOP_MASS = 1.25, 5, 1e-14
MAX_DIM = 8192


def min_dim(alpha, n=0):
    """Starting dimension for displacing level n by alpha, and the least one
    the tail guards accept.

    A displaced number state has essentially all its weight below
    |alpha|^2 + O(|alpha|); the margin 6|alpha| + 10 + 2n pushes the
    neglected tail under ~1e-9 for |alpha| <= 3, n <= 5.  Beyond that range
    it is only a starting size: gcs_vector without a dim grows from it until
    the measured top-level mass is small enough.  Raises ValueError for a
    non-finite alpha and TruncationError when the size is above MAX_DIM.
    """
    a = abs(alpha)
    if not math.isfinite(a):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    need = a * a + 6.0 * a + 10.0 + 2 * n
    if need >= MAX_DIM:
        raise TruncationError(
            f"n={n}, |alpha|={a:.6g} needs dim > {need:.6g}, above MAX_DIM={MAX_DIM}"
        )
    return int(math.floor(need)) + 1


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    if dim > MAX_DIM:
        raise TruncationError(f"dim={dim} is above MAX_DIM={MAX_DIM}")


def ladder_matrices(dim):
    """Annihilation, creation, and number matrices (a, adag, num) at size dim.

    num is the exact diagonal 0, 1, ..., dim - 1, so num * num is N^2.
    """
    _check_dim(dim)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    adag = a.conj().T.copy()
    return a, adag, np.diag(np.arange(dim, dtype=complex))


def _displaced_columns(alpha, dim, n, cols):
    """Columns cols of D(alpha) at size dim, guarded for displacing level n.

    The one tail guard: TruncationError unless n < dim/2 and
    dim >= min_dim(alpha, n).  One dstevd on X (zero diagonal, off-diagonal
    sqrt(k)) and one real product form P V (e^{-i |alpha| lambda} * V[cols]^T)
    P[cols]^H, P = i^k e^{ik arg alpha}; alpha = 0 gives identity columns
    exactly.
    """
    _check_dim(dim)
    if not n < dim / 2:
        raise TruncationError(f"n={n} too close to the truncation edge dim={dim}")
    need = min_dim(alpha, n)
    if dim < need:
        raise TruncationError(
            f"dim={dim} too small for n={n}, |alpha|={abs(alpha):.3f}; need at least {need}"
        )
    alpha = complex(alpha)
    if alpha == 0:
        return np.eye(dim, dtype=complex)[:, cols]
    evals, v, info = dstevd(np.zeros(dim), np.sqrt(np.arange(1.0, dim)))
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info={info} at dim={dim}")
    k = np.arange(dim)
    p = np.array([1.0, 1j, -1.0, -1j])[k % 4] * np.exp(1j * k * np.angle(alpha))
    w = np.exp(-1j * abs(alpha) * evals)[:, None] * v[cols].T * p[cols].conj()
    out = v @ np.concatenate([w.real, w.imag], axis=1)
    m = w.shape[1]
    return p[:, None] * (out[:, :m] + 1j * out[:, m:])


def displacement_matrix(alpha, dim):
    """Displacement operator exp(alpha adag - conj(alpha) a), truncated to dim.

    Every column of the eigensolve form (see the module docstring); alpha = 0
    gives the identity exactly.  Raises TruncationError below min_dim(alpha),
    where the truncated operator is no longer unitary to machine precision.
    """
    return _displaced_columns(alpha, dim, 0, slice(None))


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

    def guard_tail(self, tol):
        """Raise TruncationError when the top level holds more than tol."""
        if self.tail_mass() > tol:
            raise TruncationError(
                f"tail mass {self.tail_mass():.3e} exceeds {tol:.1e}; enlarge dim"
            )


def number_state(n, dim):
    if n >= dim:
        raise ValueError(f"n={n} does not fit in dim={dim}")
    e = np.zeros(dim, complex)
    e[n] = 1.0
    return FockVector(e)


def gcs_vector(n, alpha, dim=None, omega=1.0):
    """Displaced number state D(alpha)|n>: column n of the displacement matrix.

    O(dim^2) after the one eigensolve per dim; no dim x dim complex matrix is
    formed.  With dim None it starts at max(min_dim(alpha, n) + 24, 48) and
    grows by GROWTH until the top TOP_LEVELS levels hold at most TOP_MASS,
    raising TruncationError if that takes a dim above MAX_DIM.  A given dim is
    used as it is, and raises TruncationError below min_dim(alpha, n).
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if dim is None:
        dim = max(min_dim(alpha, n) + 24, 48)
        vec = gcs_vector(n, alpha, dim, omega)
        while vec.tail_mass(TOP_LEVELS) > TOP_MASS:
            dim = math.ceil(GROWTH * dim)
            if dim > MAX_DIM:
                raise TruncationError(
                    f"n={n}, |alpha|={abs(alpha):.6g}: the top {TOP_LEVELS} levels "
                    f"hold {vec.tail_mass(TOP_LEVELS):.3e} at dim={vec.dim}, and the "
                    f"next dim {dim} is above MAX_DIM={MAX_DIM}"
                )
            vec = gcs_vector(n, alpha, dim, omega)
        return vec
    return FockVector(_displaced_columns(alpha, dim, n, [n])[:, 0], omega)


def expectation(op, vec, tail_tol=1e-10):
    """<vec| op |vec> / <vec|vec>, guarded against truncation leakage."""
    op = np.asarray(op)
    if op.shape != (vec.dim, vec.dim):
        raise ValueError(f"operator shape {op.shape} does not match dim {vec.dim}")
    vec.guard_tail(tail_tol)
    c = vec.coeffs
    return complex(np.vdot(c, op @ c) / np.vdot(c, c))


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Real symmetric tridiagonal H(t): diag on the diagonal, force(t) * off beside it.

    The only Hamiltonian the integrator takes.  _propagate samples force (a
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


def _propagate(hamiltonian, block, t0, t1, steps):
    # exponential midpoint rule: each step applies exp(-i H(t_mid) dt),
    # interpolated between the node operators (see TridiagonalHamiltonian)
    if not isinstance(hamiltonian, TridiagonalHamiltonian):
        raise TypeError(
            f"hamiltonian must be a TridiagonalHamiltonian, got {type(hamiltonian).__name__}"
        )
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    dt = (t1 - t0) / steps
    block = np.asarray(block, complex)
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


def schrodinger_evolve(hamiltonian, vec, t0, t1, steps):
    """Integrate i d|v>/dt = H(t)|v> from t0 to t1 with a midpoint exponential.

    hamiltonian must be a TridiagonalHamiltonian (TypeError otherwise); it is
    integrated on its bands.  Raises ValueError on a non-finite force at a
    midpoint, and RuntimeError if the final norm drifts from the initial one
    by more than 1e-8.
    """
    out = _propagate(hamiltonian, vec.coeffs[:, None], t0, t1, steps)[:, 0]
    drift = abs(float(np.linalg.norm(out)) - vec.norm())
    if drift > 1e-8:
        raise RuntimeError(f"norm drifted by {drift:.3e} during evolution")
    return FockVector(out, vec.omega)
