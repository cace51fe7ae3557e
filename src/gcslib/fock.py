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
integrator takes a TridiagonalHamiltonian only, and diagonalises it at a few
nodes of the force (see there).

Everything here is an independent cross-check for the closed forms in
states.py, so it deliberately shares no code with them.  Matrices are plain
complex ndarrays in the number basis at t = 0; callers fold Schrodinger
phases into their complex labels.  Truncation corrupts the top of the basis,
so one rule, in _displaced_columns, decides every dim.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd


class TruncationError(Exception):
    """The truncated dimension cannot hold the requested state safely."""


# The truncation rule's measured mass, and the growth factor from start_dim.
# No dim above MAX_DIM is accepted: the eigensolve holds two dim^2 float64
# arrays and a displacement matrix 16 dim^2 bytes, 1 GiB at the cap.
GROWTH, TOP_LEVELS, TOP_MASS = 1.25, 5, 1e-14
MAX_DIM = 8192
# The integrator holds at most this many bytes of node operators; past it,
# each step takes its own eigensolve.
MAX_STACK_BYTES = 64 << 20


def _edge(alpha, n):
    # the classical edge (|alpha| + sqrt(n + 1/2))^2 of D(alpha)|n>
    a = abs(alpha)
    if not math.isfinite(a):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    root = a + math.sqrt(n + 0.5)
    edge = root * root
    if not edge < MAX_DIM:
        raise TruncationError(f"n={n}, |alpha|={a:.6g}: the classical edge {edge:.6g} "
                              f"is above MAX_DIM={MAX_DIM}")
    return edge


def start_dim(alpha, n=0):
    """ceil(e + 7|alpha| + 2 sqrt n + 12), e the classical edge of level n:
    the dim the columns guarded at n start from, never short on a grid up to
    e = 650.  TruncationError above MAX_DIM, ValueError for a non-finite alpha.
    """
    dim = math.ceil(_edge(alpha, n) + 7.0 * abs(alpha) + 2.0 * math.sqrt(n) + 12.0)
    if dim > MAX_DIM:
        raise TruncationError(f"n={n}, |alpha|={abs(alpha):.6g} starts at dim {dim}, "
                              f"above MAX_DIM={MAX_DIM}")
    return dim


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


def _tridiagonal_eigh(diag, off):
    # eigenvalues and eigenvectors of the real symmetric tridiagonal matrix
    # with these bands: the one LAPACK dstevd call, and its one check
    evals, evecs, info = dstevd(diag, off)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info={info} at dim={diag.size}")
    return evals, evecs


def _displaced_columns(alpha, dim, n, cols):
    """Columns cols of D(alpha), which must include n, at a dim safe for level n.

    The one truncation rule: a dim is accepted only above the classical edge
    e = (|alpha| + sqrt(n + 1/2))^2 and only when the top TOP_LEVELS levels of
    column n hold at most TOP_MASS; TruncationError otherwise.  Below e the
    truncated operator can nearly revive (at n = 0, |alpha| = 12 the column
    at dim 33 or 40 is mostly |0>, its top empty).  With dim None the columns
    start at start_dim(alpha, n) and grow by GROWTH on that mass.  Per dim,
    one dstevd on X (zero diagonal, off-diagonal sqrt(k)) and one real product
    form P V (e^{-i |alpha| lambda} * V[cols]^T) P[cols]^H,
    P = i^k e^{ik arg alpha}; alpha = 0 gives identity columns exactly.
    """
    edge = _edge(alpha, n)
    grows = dim is None
    if grows:
        dim = start_dim(alpha, n)
    else:
        _check_dim(dim)
        if not dim > edge:
            raise TruncationError(f"dim={dim} is not above the classical edge {edge:.6g} "
                                  f"of n={n}, |alpha|={abs(alpha):.6g}")
    alpha = complex(alpha)
    while True:
        k = np.arange(dim)
        if alpha == 0:
            out = np.eye(dim, dtype=complex)[:, cols]
        else:
            evals, v = _tridiagonal_eigh(np.zeros(dim), np.sqrt(np.arange(1.0, dim)))
            p = np.array([1.0, 1j, -1.0, -1j])[k % 4] * np.exp(1j * k * np.angle(alpha))
            w = np.exp(-1j * abs(alpha) * evals)[:, None] * v[cols].T * p[cols].conj()
            out = v @ np.concatenate([w.real, w.imag], axis=1)
            m = w.shape[1]
            out = p[:, None] * (out[:, :m] + 1j * out[:, m:])
        at = np.flatnonzero(k[cols] == n)[0]
        top = float(np.sum(np.abs(out[-TOP_LEVELS:, at]) ** 2))
        if top <= TOP_MASS:
            return out
        where = f"the top {TOP_LEVELS} levels of column n={n} hold {top:.3e} at dim={dim}"
        if not grows:
            raise TruncationError(f"{where}, over TOP_MASS={TOP_MASS:.0e}")
        dim = math.ceil(GROWTH * dim)
        if dim > MAX_DIM:
            raise TruncationError(f"{where}, and the next dim {dim} is above MAX_DIM={MAX_DIM}")


def displacement_matrix(alpha, dim):
    """Displacement operator exp(alpha adag - conj(alpha) a), truncated to dim.

    Every column of the eigensolve form (see the module docstring); alpha = 0
    gives the identity exactly.  The rule of _displaced_columns guards column
    0 only; the top columns are those of the truncated operator.
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
    formed.  dim is accepted or grown by the rule of _displaced_columns
    (TruncationError otherwise).
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
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
    ||d^j U/df^j|| <= (dt ||X||)^j and ||X|| <= 2 max|off|.  dstevd runs only
    at the m nodes of _force_nodes.  When m is not below the step count, or
    the m dim^2 16 bytes of node operators would pass MAX_STACK_BYTES, none
    is formed: each step applies its own V e^{-i Lambda dt} V^T to the block.
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
    # interpolated between the node operators or through its own
    # eigenvectors (see TridiagonalHamiltonian)
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
    if nodes.size >= steps or nodes.size * dim * dim * 16 > MAX_STACK_BYTES:
        for f in forces:
            evals, evecs = _tridiagonal_eigh(hamiltonian.diag, f * hamiltonian.off)
            block = evecs @ (np.exp(-1j * evals * dt)[:, None] * (evecs.T @ block))
        return block
    eye = np.eye(dim)
    stack = np.empty((nodes.size, dim, dim), complex)
    for j, f in enumerate(nodes):
        evals, evecs = _tridiagonal_eigh(hamiltonian.diag, f * hamiltonian.off)
        u = (evecs * np.exp(-1j * evals * dt)) @ evecs.T
        # each node operator is applied up to `steps` times, so its departure
        # from unitarity (that of evecs, ~dim eps) would add up linearly; one
        # Newton-Schulz step takes it to roundoff
        stack[j] = u + 0.5 * u @ (eye - u.conj().T @ u)
    for w in weights:
        block = (w @ (stack @ block).reshape(nodes.size, -1)).reshape(dim, ncol)
    return block


def _node_count(spread, scale, most):
    # the least m with 2 (spread scale/4)^m / m! <= 1e-17, spread the width
    # of the force range, or `most` if that is smaller
    x = 0.25 * spread * abs(scale)
    m, bound = 1, 2.0 * x
    while m < most and bound > 1e-17:
        m += 1
        bound *= x / m
    return m


def _force_nodes(forces, scale):
    """Interpolation nodes in the force and each step's weights on them.

    scale is |dt| ||X||.  Takes the least m with 2 (r scale/2)^m / m! <= 1e-17,
    r the half-width of the force range; if the forces take no more than m
    distinct values those are the nodes, and each weight row picks its own.
    Otherwise the nodes are the m Chebyshev points of the range, and the
    weights are the barycentric Lagrange basis at every force at once.
    """
    values = np.unique(forces)
    m = _node_count(values[-1] - values[0], scale, values.size)
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
