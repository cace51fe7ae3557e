"""Self-contained invariant suites behind the `verify` CLI command.

Each suite returns Check rows (name, residual, tolerance); a residual at or
below its tolerance passes.  Reference values inside a suite are computed by
a different route than the library code under test: explicit coefficient
sums, Simpson quadrature, finite differences, dense-matrix expectations, or
conjugate-pair ODE sweeps.  The suites import scipy.integrate themselves, so
that every gcs command does not load it (and scipy.optimize) at start-up.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import beamsplitter, drive, fock, specfun, states


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self):
        return self.residual <= self.tolerance


def _hermite_sum(n, z):
    # explicit coefficient sum, small n only
    total = 0.0
    for m in range(n // 2 + 1):
        total += (
            (-1.0) ** m
            * math.factorial(n)
            / (math.factorial(m) * math.factorial(n - 2 * m))
            * (2.0 * z) ** (n - 2 * m)
        )
    return total


def _laguerre_sum(k, m, z):
    total = 0.0
    for j in range(k + 1):
        total += (-1.0) ** j * math.comb(k + m, k - j) * z**j / math.factorial(j)
    return total


def suite_specfun():
    from scipy.integrate import simpson

    checks = []

    zs = np.linspace(-3.0, 3.0, 25)
    res = 0.0
    for n in range(13):
        for z in zs:
            ref = _hermite_sum(n, z)
            res = max(res, abs(specfun.hermite(n, z) - ref) / max(1.0, abs(ref)))
    checks.append(Check("hermite recurrence vs explicit sum", res, 1e-12))

    res = 0.0
    for k in range(13):
        for m in range(7):
            for z in (0.0, 0.3, 1.5, 2.9):
                ref = _laguerre_sum(k, m, z)
                res = max(
                    res, abs(specfun.laguerre_assoc(k, m, z) - ref) / max(1.0, abs(ref))
                )
    checks.append(Check("laguerre recurrence vs explicit sum", res, 1e-12))

    for omega in (1.0, 2.5):
        lim = 12.0 / math.sqrt(omega)
        x = np.linspace(-lim, lim, 4097)
        funcs = np.array([specfun.eigenfunction(n, omega, x) for n in range(21)])
        gram = simpson(funcs[:, None, :] * funcs[None, :, :], x=x, axis=-1)
        res = float(np.max(np.abs(gram - np.eye(21))))
        checks.append(
            Check(f"eigenfunction orthonormality (Simpson, omega={omega})", res, 1e-8)
        )

    x = np.linspace(0.0, 6.0, 301)
    res = 0.0
    for n in range(16):
        even = specfun.eigenfunction(n, 1.0, x)
        odd = specfun.eigenfunction(n, 1.0, -x)
        res = max(res, float(np.max(np.abs(odd - (-1.0) ** n * even))))
    checks.append(Check("eigenfunction parity", res, 1e-14))

    return checks


def schrodinger_residual(label, x_values, t, delta=1e-3):
    """Max |i dpsi/dt - H psi| / max |psi| with 4th-order central stencils."""
    x = np.asarray(x_values, dtype=np.float64)

    def psi(xv, tv):
        return states.wavefunction(label, xv, tv)

    dpsi_dt = (
        -psi(x, t + 2 * delta)
        + 8.0 * psi(x, t + delta)
        - 8.0 * psi(x, t - delta)
        + psi(x, t - 2 * delta)
    ) / (12.0 * delta)
    d2psi_dx2 = (
        -psi(x + 2 * delta, t)
        + 16.0 * psi(x + delta, t)
        - 30.0 * psi(x, t)
        + 16.0 * psi(x - delta, t)
        - psi(x - 2 * delta, t)
    ) / (12.0 * delta**2)
    h_psi = -0.5 * d2psi_dx2 + 0.5 * label.omega**2 * x**2 * psi(x, t)
    resid = np.abs(1j * dpsi_dt - h_psi)
    return float(np.max(resid) / np.max(np.abs(psi(x, t))))


def _residual_labels():
    return [
        states.GcsLabel(n, a, 1.0) for n in (0, 1, 2) for a in (0.0, 3.0)
    ]


def suite_gcs():
    from scipy.integrate import simpson

    checks = []

    res = 0.0
    x = np.linspace(-8.0, 8.0, 41)
    for label in _residual_labels():
        for t in (0.1, 0.7, 2.3):
            res = max(res, schrodinger_residual(label, x, t))
    checks.append(Check("wavefunction Schrodinger residual", res, 1e-4))

    res = 0.0
    for label in _residual_labels():
        grid = states.default_grid(label, points=4097)
        dens = np.abs(states.wavefunction(label, grid.values, 0.4)) ** 2
        res = max(res, abs(simpson(dens, x=grid.values) - 1.0))
    checks.append(Check("wavefunction quadrature norm", res, 1e-8))

    res = 0.0
    for n in (0, 1, 2):
        label = states.GcsLabel(n, 3.0, 1.0)
        grid = states.default_grid(label, points=1024)
        for t in (0.0, 1.1):
            moved = states.density_grid(label, grid, t)
            xav = states.position_expectation(label, t)
            still = states.density_grid(
                states.GcsLabel(n, 0.0, 1.0),
                states.SpatialGrid(grid.x_min - xav, grid.x_max - xav, grid.points),
                0.0,
            )
            res = max(res, float(np.max(np.abs(moved - still))))
    checks.append(Check("density shape preservation", res, 1e-12))

    res = 0.0
    for n, alpha in ((0, 1.5), (1, 0.0), (2, 1.5), (3, 2.0 * np.exp(1j * np.pi / 3))):
        coeffs = states.number_expansion(n, alpha, 60)
        dist = states.photon_distribution(n, alpha, 60)
        res = max(res, float(np.max(np.abs(np.abs(coeffs) ** 2 - dist.probs))))
    checks.append(Check("expansion vs distribution consistency", res, 1e-12))

    res = 0.0
    mean_res = 0.0
    for mag in (1.0, 3.0):
        for ph in (1.0, np.exp(1j * np.pi / 4)):
            alpha = mag * ph
            mat = fock.displacement_matrix(alpha, 60)
            for n in range(6):
                dist = states.photon_distribution(n, alpha, 80)
                res = max(
                    res,
                    float(np.max(np.abs(dist.probs[:41] - np.abs(mat[:41, n]) ** 2))),
                )
                target = states.mean_photon(n, alpha)
                mean_res = max(mean_res, abs(dist.mean() - target) / target)
    checks.append(Check("photon probabilities vs displacement oracle", res, 1e-10))
    checks.append(Check("distribution mean identity", mean_res, 1e-9))

    res = 0.0
    pts = [0.5, 1.2 + 0.8j, -1.0 + 1.5j, 2.0]
    mats = {pt: fock.displacement_matrix(pt, 60) for pt in pts}
    for n in range(5):
        for alpha in pts:
            for beta in pts:
                ip = np.vdot(mats[beta][:, n], mats[alpha][:, n])
                res = max(res, abs(states.overlap(n, beta, alpha) - ip))
    checks.append(Check("overlap closed form vs oracle", res, 1e-9))

    res = 0.0
    for n, m in ((2, 2), (1, 3), (0, 1)):
        for alpha in (1.3, 2.0 * np.exp(0.4j)):
            res = max(res, states.orthonormality_check(n, m, alpha))
    checks.append(Check("orthonormality under displacement", res, 1e-10))

    res = 0.0
    for n in range(1, 7):
        for mag in (0.5, 2.0):
            gap = states.photon_variance(n, mag) - states.mean_photon(n, mag)
            res = max(res, abs(gap + n), 0.0 if gap < 0 else 1.0)
    checks.append(Check("sub-Poissonian gap equals -n", res, 1e-12))

    res = 0.0
    for omega in (1.0, 2.0):
        a, adag, _ = fock.ladder_matrices(80)
        for phi in (0.0, 1.1):
            e_mat = (np.exp(1j * phi) * a + np.exp(-1j * phi) * adag) / math.sqrt(
                2.0 * omega
            )
            for n in (0, 1, 3):
                for alpha in (0.0, 2.0j):
                    vec = fock.gcs_vector(n, alpha, 80, omega)
                    m1 = fock.expectation(e_mat, vec).real
                    m2 = fock.expectation(e_mat @ e_mat, vec).real
                    res = max(
                        res, abs(m2 - m1 * m1 - states.field_variance(n, omega))
                    )
    checks.append(Check("field variance vs Fock oracle", res, 1e-8))

    res = 0.0
    a, adag, _ = fock.ladder_matrices(80)
    x_quad = (a + adag) / (2.0 * math.sqrt(2.0))
    y_quad = 1j * (a - adag) / (2.0 * math.sqrt(2.0))
    for n in range(4):
        vx, vy = states.quadrature_variances(n)
        for alpha in (0.0, 2.7):
            vec = fock.gcs_vector(n, alpha, 80)
            for mat, ref in ((x_quad, vx), (y_quad, vy)):
                m1 = fock.expectation(mat, vec).real
                m2 = fock.expectation(mat @ mat, vec).real
                res = max(res, abs(m2 - m1 * m1 - ref))
    checks.append(Check("quadrature variances vs Fock oracle", res, 1e-9))

    res = 0.0
    for alpha in (0.5, 3.0 * np.exp(0.2j)):
        res = max(res, abs(states.g2(0, alpha) - 1.0))
    checks.append(Check("coherent-state g2 equals 1", res, 1e-14))

    res = 0.0
    for z in (1.0, 4.0, 9.0):
        mag = math.sqrt(z)
        nmin = states.g2_argmin_over_n(mag, int(z) + 6)
        if nmin != round(z):
            res = max(res, 1.0)
        res = max(res, abs(states.g2(nmin, mag) - (1.0 - 1.0 / (4.0 * z))))
    checks.append(Check("g2 fixed-alpha minimum location and value", res, 1e-12))

    devs = [abs(states.g2(2, mag) - 1.0) for mag in (5.0, 10.0, 20.0, 40.0)]
    res = max(max(np.diff(devs)), devs[-1] - 1e-3, 0.0)
    checks.append(Check("g2 approaches 1 monotonically in |alpha|", res, 1e-12))

    fracs = [states.fractional_uncertainty(2, mag) for mag in (5.0, 10.0, 20.0, 40.0)]
    res = max(max(np.diff(fracs)), fracs[-1] - 1e-1, 0.0)
    checks.append(Check("fractional uncertainty decays", res, 1e-12))

    defects = [states.completeness_defect(1.0, big_n, 10) for big_n in (20, 40, 60)]
    checks.append(Check("completeness defect at N=60", defects[-1], 1e-6))
    res = max(max(np.diff(defects)), 0.0)
    checks.append(Check("completeness defect monotone in N", res, 1e-12))

    label = states.GcsLabel(2, 3.0 * np.exp(0.7j), 1.0)
    t = math.pi / 3.0
    grid = states.default_grid(label, points=8193)
    x = grid.values
    psi = states.wavefunction(label, x, t)
    dens = np.abs(psi) ** 2
    x_res = abs(simpson(x * dens, x=x) - states.position_expectation(label, t))
    checks.append(Check("position expectation vs quadrature", x_res, 1e-9))

    h = x[1] - x[0]
    dpsi = np.zeros_like(psi)
    dpsi[2:-2] = (-psi[4:] + 8.0 * psi[3:-1] - 8.0 * psi[1:-3] + psi[:-4]) / (12.0 * h)
    integrand = np.conj(psi[2:-2]) * (-1j) * dpsi[2:-2]
    p_res = abs(
        simpson(integrand, x=x[2:-2]).real - states.momentum_expectation(label, t)
    )
    checks.append(Check("momentum expectation vs quadrature", p_res, 1e-8))

    return checks


def suite_beamsplitter():
    checks = []

    res = 0.0
    for spec in (beamsplitter.DEFAULT_SPLITTER, beamsplitter.BeamsplitterSpec(1.0, 0.0)):
        try:
            beamsplitter.validate(spec)
        except ValueError:
            res = 1.0
    try:
        beamsplitter.validate(
            beamsplitter.BeamsplitterSpec(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        )
        res = 1.0
    except ValueError:
        pass
    checks.append(Check("splitter constraint validation", res, 0.0))

    res = 0.0
    specs = (
        beamsplitter.DEFAULT_SPLITTER,
        beamsplitter.BeamsplitterSpec(0.6, 0.8j),
    )
    for spec in specs:
        for n in range(11):
            terms = beamsplitter.split_gcs(n, 1.3 + 0.4j, spec)
            res = max(
                res, abs(sum(abs(t.amplitude) ** 2 for t in terms) - 1.0)
            )
    checks.append(Check("output amplitude norm conservation", res, 1e-12))

    res = 0.0
    for n in (1, 2, 3):
        joint = beamsplitter.two_mode_oracle(n, 0.0, beamsplitter.DEFAULT_SPLITTER, 12)
        anti = np.zeros_like(joint)
        for m in range(n + 1):
            anti[m, n - m] = joint[m, n - m]
        res = max(res, float(np.max(np.abs(joint - anti))))
    checks.append(Check("alpha=0 reduces to number-state splitting", res, 1e-15))

    res = 0.0
    norm_res = 0.0
    mean_res = 0.0
    for spec in specs:
        for n in range(4):
            for alpha in (1.0, 2.0 * np.exp(1j * np.pi / 6.0)):
                dim = 40
                joint = beamsplitter.two_mode_oracle(n, alpha, spec, dim)
                norm_res = max(norm_res, abs(np.sum(np.abs(joint) ** 2) - 1.0))
                d3 = fock.displacement_matrix(spec.R * alpha, dim)
                d4 = fock.displacement_matrix(spec.T * alpha, dim)
                seed = np.zeros((dim, dim), complex)
                for term in beamsplitter.split_gcs(n, 0.0, spec):
                    seed[term.m, n - term.m] = term.amplitude
                direct = d3 @ seed @ d4.T
                res = max(res, float(np.max(np.abs(joint - direct))))
                marg3, _ = beamsplitter.arm_marginals(joint)
                mean_res = max(
                    mean_res,
                    abs(
                        beamsplitter.marginal_mean(marg3)
                        - (abs(spec.R * alpha) ** 2 + n * abs(spec.R) ** 2)
                    ),
                )
    checks.append(Check("joint oracle norm", norm_res, 1e-10))
    checks.append(
        Check("joint oracle vs displacement factorization", res, 1e-9)
    )
    checks.append(Check("arm-3 marginal mean formula", mean_res, 1e-9))

    res = 0.0
    for n in (1, 2, 3):
        terms = beamsplitter.split_gcs(n, 1.2, beamsplitter.DEFAULT_SPLITTER)
        amps = [t.amplitude for t in terms]
        if sum(1 for a in amps if abs(a) > 1e-12) != n + 1:
            res = 1.0
        minor = abs(amps[0] * amps[1])
        if minor <= 1e-12:
            res = 1.0
    checks.append(Check("entangled output: amplitude matrix rank > 1", res, 0.0))

    return checks


def _registry_pulses():
    return (
        drive.gaussian_pulse(0.8, 2.5, 0.5, 0.0, 5.0),
        drive.rectangular_pulse(0.6, 1.0, 3.0, 0.0, 4.0),
        drive.sine_burst_pulse(0.5, 2.0, 0.0, 4.0),
    )


def _beta_conjugate_pair(pulse, omega):
    # independent complex route: carry G, its conjugate-defined partner, and
    # both kappa integrals; beta = (kappa - kappa2)/(4 i omega) must be real
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        fs = float(pulse(np.float64(s)))
        ep = np.exp(1j * omega * s)
        em = np.exp(-1j * omega * s)
        return [fs * em, fs * ep, fs * ep * y[0], fs * em * y[1]]

    state = np.zeros(4, complex)
    for a, b, f in pulse.pieces:
        sol = solve_ivp(
            rhs, (a, b), state, method="DOP853", rtol=1e-12, atol=1e-13
        )
        if not sol.success:
            raise drive.QuadratureError(sol.message)
        state = sol.y[:, -1]
    return (state[2] - state[3]) / (4j * omega)


def suite_drive():
    checks = []
    omega = 1.0

    res = abs(drive.zeta(drive.gaussian_pulse(0.0, 1.0, 0.3, 0.0, 2.0), omega, 2.0))
    checks.append(Check("zeta of zero force", res, 1e-15))

    full = drive.rectangular_pulse(0.7, 0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi)
    res = abs(drive.zeta(full, omega, 2.0 * math.pi))
    checks.append(Check("zeta over one full period of constant force", res, 1e-10))

    g1 = drive.gaussian_pulse(0.8, 2.5, 0.5, 0.0, 5.0)
    g2_pulse = drive.gaussian_pulse(-0.3, 1.0, 0.4, 0.0, 5.0)
    both = drive.DrivePulse(
        "sum", 0.0, 5.0, ((0.0, 5.0, lambda t: g1(t) + g2_pulse(t)),)
    )
    res = abs(
        drive.zeta(both, omega, 5.0)
        - drive.zeta(g1, omega, 5.0)
        - drive.zeta(g2_pulse, omega, 5.0)
    )
    checks.append(Check("zeta linearity in the force", res, 1e-10))

    imag_res = 0.0
    pair_res = 0.0
    for pulse in _registry_pulses():
        val = _beta_conjugate_pair(pulse, omega)
        imag_res = max(imag_res, abs(val.imag))
        pair_res = max(
            pair_res, abs(val.real - drive.beta_phase(pulse, omega, pulse.t1))
        )
    checks.append(Check("beta imaginary residue (conjugate pair)", imag_res, 1e-12))
    checks.append(Check("beta sweep vs conjugate-pair route", pair_res, 1e-9))

    res = abs(drive.beta_phase(g1, omega, 0.0))
    checks.append(Check("beta vanishes at t0", res, 1e-15))

    dim = 60
    pulse = g1
    op = drive.time_development(pulse, omega, dim)
    res = float(np.max(np.abs(op.conj().T @ op - np.eye(dim))))
    checks.append(Check("time development unitarity", res, 1e-10))

    free = drive.rectangular_pulse(0.0, 1.0, 2.0, 0.0, 3.0)
    op = drive.time_development(free, omega, dim)
    ref = np.diag(np.exp(-1j * (np.arange(dim) + 0.5) * omega * 3.0))
    res = float(np.max(np.abs(op - ref)))
    checks.append(Check("zero force gives free evolution", res, 1e-12))

    fid_res = 0.0
    label_res = 0.0
    dim = 120
    for pulse in _registry_pulses():
        h = drive.drive_hamiltonian(pulse, omega, dim)
        block = np.zeros((dim, 3), complex)
        for j, n in enumerate((0, 1, 2)):
            block[n, j] = 1.0
        evolved = fock._propagate(h, block, pulse.t0, pulse.t1, 4000)
        for j, n in enumerate((0, 1, 2)):
            vec, label = drive.drive_number_state(n, pulse, omega, dim)
            fid_res = max(
                fid_res, 1.0 - abs(np.vdot(vec.coeffs, evolved[:, j]))
            )
            pred = states.evolved_expansion(label, pulse.t1, dim - 1)
            label_res = max(label_res, 1.0 - abs(np.vdot(pred, vec.coeffs)))
    checks.append(Check("analytic vs numeric evolution fidelity", fid_res, 1e-6))
    checks.append(Check("driven state matches predicted label", label_res, 1e-8))

    res = 0.0
    deficits = []
    for amp in (1e-3, 1e-6):
        pulse = drive.gaussian_pulse(amp, 2.5, 0.5, 0.0, 5.0)
        vec, _ = drive.drive_number_state(1, pulse, omega, 40)
        free_ref = np.exp(-1j * 1.5 * omega * 5.0)
        deficits.append(1.0 - abs(np.vdot(vec.coeffs[1], free_ref)))
    res = max(deficits[0] - 1e-5, deficits[1] - 1e-11, deficits[1] - deficits[0], 0.0)
    checks.append(Check("pulse-off limit recovers free evolution", res, 0.0))

    return checks


SUITES = {
    "specfun": suite_specfun,
    "gcs": suite_gcs,
    "beamsplitter": suite_beamsplitter,
    "drive": suite_drive,
}


def run_suites(names):
    """Run the named suites; returns (all_passed, rows of (suite, Check))."""
    rows = []
    ok = True
    for name in names:
        for check in SUITES[name]():
            rows.append((name, check))
            ok = ok and check.passed
    return ok, rows
