"""Independent reference routes used to freeze expected values in the tests.

Every routine here recomputes its target by a different algorithm than the
library: explicit coefficient sums, high-precision mpmath evaluation, a dense
matrix exponential built from scratch, Richardson-extrapolated trapezoids,
adaptive quadrature and ODE sweeps, and high-order finite differences.  Tests compare library output against
these, or against constants frozen from a run of these.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.linalg.lapack import dstevd

# the explicit coefficient sums for H_n and L_k^(m) live in gcslib.verify,
# which certifies the kernels with them; the tests use the same routines
from gcslib.verify import _hermite_sum as hermite_sum, _laguerre_sum as laguerre_sum  # noqa: F401


def hermite_functions_recurrence(n, omega, y):
    """phi_n(y) by the allocating recurrence kernels.hermite_functions used
    before it was blocked and made in-place; kept verbatim as the bit-for-bit
    reference (valid where exp(-omega y^2 / 2) does not underflow)."""
    arr = np.asarray(y, dtype=np.float64)
    x = arr.reshape(-1)
    p0 = (omega / np.pi) ** 0.25 * np.exp(-0.5 * omega * x * x)
    p1 = np.sqrt(2.0 * omega) * x * p0 if n else p0
    for k in range(1, n):
        p0, p1 = p1, np.sqrt(2.0 * omega / (k + 1.0)) * x * p1 - np.sqrt(k / (k + 1.0)) * p0
    res = p1.reshape(arr.shape)
    return float(res) if arr.ndim == 0 else res


def eigenfunction_mp(n, omega, x, dps=50):
    """phi_n(x) straight from the factorial formula at `dps` decimal digits."""
    import mpmath as mp

    with mp.workdps(dps):
        w = mp.mpf(repr(float(omega)))
        xx = mp.mpf(repr(float(x)))
        val = (
            (w / mp.pi) ** mp.mpf("0.25")
            / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n))
            * mp.exp(-w * xx * xx / 2)
            * mp.hermite(n, mp.sqrt(w) * xx)
        )
        return float(val)


def displacement_dense(alpha, dim):
    """exp(alpha adag - conj(alpha) a) built here from scratch."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return expm(alpha * a.conj().T - np.conjugate(alpha) * a)


def photon_prob(n, alpha, k, dim=220):
    return float(abs(displacement_dense(complex(alpha), dim)[k, n]) ** 2)


def overlap_pair(n, beta, alpha, dim=60):
    """<n, beta | n, alpha> as a dense-column inner product."""
    col_a = displacement_dense(complex(alpha), dim)[:, n]
    col_b = displacement_dense(complex(beta), dim)[:, n]
    return complex(np.vdot(col_b, col_a))


def schrodinger_residual(psi, omega, x_values, t, delta=1e-3):
    """max |i dpsi/dt + psi_xx/2 - omega^2 x^2 psi/2| / max |psi|.

    psi is a callable (x array, t) -> complex array.  Both derivatives use
    4th-order central stencils with step `delta`.
    """
    x = np.asarray(x_values, dtype=np.float64)
    xs = x[None, :] + delta * np.arange(-2.0, 3.0)[:, None]

    dpsi_dt = (
        -psi(x, t + 2 * delta)
        + 8.0 * psi(x, t + delta)
        - 8.0 * psi(x, t - delta)
        + psi(x, t - 2 * delta)
    ) / (12.0 * delta)

    stack = psi(xs.ravel(), t).reshape(5, x.size)
    d2 = (
        -stack[4] + 16.0 * stack[3] - 30.0 * stack[2] + 16.0 * stack[1] - stack[0]
    ) / (12.0 * delta**2)

    core = psi(x, t)
    h_psi = -0.5 * d2 + 0.5 * omega**2 * x**2 * core
    return float(np.max(np.abs(1j * dpsi_dt - h_psi)) / np.max(np.abs(core)))


def _trapz_pieces(pulse, fn, t, points):
    total = 0.0 + 0.0j
    for a, b, f in pulse.pieces:
        hi = min(b, t)
        if hi <= a:
            break
        s = np.linspace(a, hi, points)
        total += np.trapezoid(fn(f(s), s), s)
    return total


def zeta_trapz(pulse, omega, t, points=20001):
    """Richardson-extrapolated trapezoid for -(i/sqrt(2w)) int f e^{iws} ds."""
    fn = lambda fs, s: fs * np.exp(1j * omega * s)
    coarse = _trapz_pieces(pulse, fn, t, points)
    fine = _trapz_pieces(pulse, fn, t, 2 * points - 1)
    return -1j / math.sqrt(2.0 * omega) * (4.0 * fine - coarse) / 3.0


def _beta_grid(pulse, omega, t, points):
    # carry G(s) = int_{t0}^{s} f e^{-iw s'} ds' along, then integrate
    # f(s) Im[e^{iws} G(s)] / (2w); plain trapezoid throughout
    total = 0.0
    g0 = 0.0 + 0.0j
    for a, b, f in pulse.pieces:
        hi = min(b, t)
        if hi <= a:
            break
        s = np.linspace(a, hi, points)
        fs = f(s)
        integrand_g = fs * np.exp(-1j * omega * s)
        h = s[1] - s[0]
        g = g0 + np.concatenate(
            ([0.0], np.cumsum(0.5 * h * (integrand_g[1:] + integrand_g[:-1])))
        )
        total += float(
            np.trapezoid(fs * np.imag(np.exp(1j * omega * s) * g), s) / (2.0 * omega)
        )
        g0 = g[-1]
    return total


def beta_trapz(pulse, omega, t, points=20001):
    coarse = _beta_grid(pulse, omega, t, points)
    fine = _beta_grid(pulse, omega, t, 2 * points - 1)
    return (4.0 * fine - coarse) / 3.0


def zeta_quad(pulse, omega, t):
    """drive.zeta before the Chebyshev sweep: two adaptive `quad` calls per
    piece, kept verbatim as the reference."""
    from gcslib.drive import QuadratureError, _check_omega, _check_time

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


def beta_phase_ode(pulse, omega, t):
    """drive.beta_phase before the Chebyshev sweep: one DOP853 `solve_ivp`
    sweep per piece carrying G(t') = integral of f e^{-i w s} ds and
    d(beta)/dt' = f(t') Im[e^{i w t'} G(t')] / (2 w), kept verbatim as the
    reference."""
    from gcslib.drive import QuadratureError, _check_omega, _check_time

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


def strict_local_minima(values):
    """Indices k with values[k-1] > values[k] < values[k+1]."""
    v = np.asarray(values)
    return [
        k for k in range(1, v.size - 1) if v[k - 1] > v[k] and v[k] < v[k + 1]
    ]


def local_maxima(values, floor=0.0):
    # plateau-tolerant: a two-sample tie at a symmetric peak counts once
    v = np.asarray(values)
    return [
        k
        for k in range(1, v.size - 1)
        if v[k] >= v[k - 1] and v[k] > v[k + 1] and v[k] > floor
    ]


def laguerre_last_row(s, d, z):
    """L_s^{d_i}(z) at the one degree s: kernels.laguerre_table before it
    returned every degree, kept verbatim as the bit-for-bit reference."""
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    L0 = np.ones_like(d)
    if s == 0:
        return L0
    L1 = 1.0 + d - z
    for j in range(1, s):
        L0, L1 = L1, ((2.0 * j + 1.0 + d - z) * L1 - (j + d) * L0) / (j + 1.0)
    return L1


def laguerre_diagonal(n, z):
    """L_k^{n-k}(z) for k = 0..n-1 from one recurrence that drops each entry
    once read: the second kernel the number-basis amplitudes used below n
    before one table replaced both, kept verbatim as the bit-for-bit
    reference."""
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


def propagate_bands_per_step(hamiltonian, block, t0, dt, steps):
    """fock._propagate before it interpolated the step operator in the
    force: one dstevd per midpoint, kept verbatim as the reference."""
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


def propagate_node_run(hamiltonian, block, forces, dt, scale):
    """fock._propagate_run before the run splitter left: one step per force,
    interpolated between the node operators of the whole force range, kept
    as the reference for the node path's bits."""
    from gcslib.fock import _force_nodes

    nodes, weights = _force_nodes(forces, scale)
    dim, ncol = block.shape
    eye = np.eye(dim)
    stack = np.empty((nodes.size, dim, dim), complex)
    for j, f in enumerate(nodes):
        evals, evecs, info = dstevd(hamiltonian.diag, f * hamiltonian.off)
        if info != 0:
            raise np.linalg.LinAlgError(f"dstevd failed with info={info} at force {f!r}")
        u = (evecs * np.exp(-1j * evals * dt)) @ evecs.T
        stack[j] = u + 0.5 * u @ (eye - u.conj().T @ u)
    for w in weights:
        block = (w @ (stack @ block).reshape(nodes.size, -1)).reshape(dim, ncol)
    return block


def tridiagonal_dense(hamiltonian, t):
    """The dense complex matrix of a fock.TridiagonalHamiltonian at time t."""
    f = float(hamiltonian.force(t))
    off = f * hamiltonian.off
    h = np.diag(hamiltonian.diag) + np.diag(off, 1) + np.diag(off, -1)
    return h.astype(complex)


def propagate_dense_per_step(hamiltonian, block, t0, t1, steps):
    """The exponential midpoint rule with one dense Hermitian eigensolve per
    step, for any callable t -> (dim, dim) matrix: fock's propagator before
    it took a TridiagonalHamiltonian only, kept verbatim as the reference."""
    dt = (t1 - t0) / steps
    block = np.asarray(block, complex).copy()
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


def two_mode_oracle_per_term(n, alpha, spec, dim):
    """beamsplitter.two_mode_oracle before it built one amplitude matrix per
    arm: one number_expansion per arm per term and a sum of outer products,
    kept verbatim as the reference."""
    from gcslib import beamsplitter, states

    terms = beamsplitter.split_gcs(n, alpha, spec)
    joint = np.zeros((dim, dim), dtype=complex)
    for term in terms:
        c3 = states.number_expansion(term.arm3.n, term.arm3.alpha, dim - 1)
        c4 = states.number_expansion(term.arm4.n, term.arm4.alpha, dim - 1)
        joint += term.amplitude * np.outer(c3, c4)
    return joint


def pulse_by_masks(pulse, t):
    """drive.DrivePulse.__call__ before it sorted the times: one
    boolean mask over every time per piece, kept verbatim as the reference."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    last = len(pulse.pieces) - 1
    for i, (a, b, f) in enumerate(pulse.pieces):
        sel = (t >= a) & ((t <= b) if i == last else (t < b))
        if np.any(sel):
            out[sel] = f(t[sel])
    return float(out) if t.ndim == 0 else out
