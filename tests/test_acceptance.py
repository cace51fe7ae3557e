"""Acceptance gate: one test per advertised guarantee, each printing a
single PASS/FAIL line with the governing numbers.

Two guarantees are known not to hold as stated and their tests fail
honestly rather than being weakened: the distribution's variance and
moment-based coherence carry the (2n+1)|alpha|^2 spread for n >= 1.  The
failure messages carry the measured values.
"""

import cmath
import csv
import json
import math
import time

import numpy as np
from scipy.integrate import simpson

from gcslib import beamsplitter as bs
from gcslib import cli, drive, fock, states

import oracles

TAU = 2.0 * math.pi

ALPHAS = [
    mag * phase
    for mag in (0.5, 1.0, 2.0, 3.0)
    for phase in (1.0, cmath.exp(0.25j * math.pi))
]


def _verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def _read_column(path, col):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[col]) for r in rows[1:]])


def test_criterion_1_photon_statistics_oracle():
    start = time.monotonic()
    worst = 0.0
    for alpha in ALPHAS:
        ref = np.abs(oracles.displacement_dense(alpha, 220)) ** 2
        for n in range(6):
            probs = states.photon_distribution(n, alpha, 150).probs
            worst = max(worst, float(np.max(np.abs(probs - ref[:151, n]))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed <= 60.0
    _verdict(
        1,
        "photon statistics match the displacement oracle",
        ok,
        f"worst |P_k - |<k|D|n>|^2| = {worst:.3e} over n<=5, 8 amplitudes, "
        f"k<=150 in {elapsed:.1f}s",
    )


def test_criterion_2_moment_identities():
    worst_mean = 0.0
    worst_var = 0.0
    worst_var_at = None
    for alpha in ALPHAS:
        z = abs(alpha) ** 2
        for n in range(6):
            dist = states.photon_distribution(n, alpha, 200)
            assert abs(dist.tail_deficit) < 1e-12
            mean_err = abs(dist.mean() - states.mean_photon(n, alpha)) / (n + z)
            worst_mean = max(worst_mean, mean_err)
            var_err = abs(dist.variance() - states.photon_variance(n, alpha)) / z
            if var_err > worst_var:
                worst_var, worst_var_at = var_err, (n, abs(alpha))
    ok = worst_mean < 1e-9 and worst_var < 1e-9
    n_bad, mag_bad = worst_var_at
    _verdict(
        2,
        "distribution moment identities",
        ok,
        f"mean identity n+|alpha|^2 holds to {worst_mean:.3e}; variance claim "
        f"|alpha|^2 off by rel {worst_var:.3e} at n={n_bad}, |alpha|={mag_bad:g} "
        f"-- the distribution's spread is (2n+1)|alpha|^2",
    )


def test_criterion_3_coherence_closed_form():
    worst_g2 = 0.0
    worst_at = None
    for alpha in ALPHAS:
        for n in range(6):
            vec = fock.gcs_vector(n, alpha)
            _, _, num = fock.ladder_matrices(vec.dim)
            mean = fock.expectation(num, vec).real
            second = fock.expectation(num * num, vec).real
            measured = (second - mean) / mean**2
            err = abs(states.g2(n, alpha) - measured) / abs(measured)
            if err > worst_g2:
                worst_g2, worst_at = err, (n, abs(alpha))
    minima_ok = True
    worst_min = 0.0
    for z in (1, 4, 9):
        alpha = math.sqrt(z)
        n_star = states.g2_argmin_over_n(alpha, z + 6)
        gap = abs(states.g2(z, alpha) - (1.0 - 1.0 / (4.0 * z)))
        worst_min = max(worst_min, gap)
        minima_ok = minima_ok and n_star == z and gap < 1e-12
    ok = worst_g2 < 1e-9 and minima_ok
    n_bad, mag_bad = worst_at
    _verdict(
        3,
        "coherence closed form and its minimum",
        ok,
        f"minimum clause holds (argmin = |alpha|^2, value gap {worst_min:.1e}); "
        f"closed form vs matrix moments off by rel {worst_g2:.3e} at n={n_bad}, "
        f"|alpha|={mag_bad:g} -- moments carry the (2n+1)|alpha|^2 spread",
    )


def test_criterion_4_schrodinger_residual():
    start = time.monotonic()
    worst_res = 0.0
    worst_norm = 0.0
    for n in (0, 1, 2):
        for alpha in (0.0, 3.0):
            label = states.GcsLabel(n, alpha)
            for t in (0.0, 0.9, 2.4):
                x = np.linspace(-8.0, 8.0, 41) + states.position_expectation(label, t)
                res = oracles.schrodinger_residual(
                    lambda xs, ts: states.wavefunction(label, xs, ts), 1.0, x, t
                )
                worst_res = max(worst_res, res)
            grid = states.default_grid(label, points=4097).values
            dens = np.abs(states.wavefunction(label, grid, 0.9)) ** 2
            worst_norm = max(worst_norm, abs(simpson(dens, x=grid) - 1.0))
    elapsed = time.monotonic() - start
    ok = worst_res < 1e-4 and worst_norm < 1e-8 and elapsed <= 30.0
    _verdict(
        4,
        "wavefunction solves the equation of motion",
        ok,
        f"worst PDE residual {worst_res:.3e}, worst norm defect {worst_norm:.3e} "
        f"over n<=2, alpha in {{0, 3}} in {elapsed:.1f}s",
    )


def test_criterion_5_overlap_closed_form():
    grid = [complex(re, im) for re in (-1.4, 0.0, 1.4) for im in (-1.4, 0.0, 1.4)]
    cols = {val: oracles.displacement_dense(val, 60)[:, :5] for val in grid}
    worst = 0.0
    for alpha in grid:
        for beta in grid:
            for n in range(5):
                ref = complex(np.vdot(cols[beta][:, n], cols[alpha][:, n]))
                worst = max(worst, abs(states.overlap(n, beta, alpha) - ref))
    worst_law = 0.0
    for n in range(5):
        for alpha, beta in [(1.0, 0.5 + 0.5j), (2.0, -1.0), (1.4j, 0.0)]:
            w = abs(alpha - beta) ** 2
            law = math.exp(-0.5 * w) * abs(oracles.laguerre_sum(n, 0, w))
            worst_law = max(worst_law, abs(abs(states.overlap(n, beta, alpha)) - law))
    ok = worst < 1e-9 and worst_law < 1e-12
    _verdict(
        5,
        "overlap closed form matches matrix elements",
        ok,
        f"worst |closed - oracle| = {worst:.3e} over n<=4 on a 9x9 amplitude "
        f"grid; decay-law deviation {worst_law:.1e}",
    )


def test_criterion_6_beamsplitter_decomposition():
    specs = [
        bs.DEFAULT_SPLITTER,
        bs.BeamsplitterSpec(R=0.6j, T=0.8),
        bs.BeamsplitterSpec(
            R=0.8 * cmath.exp(1.0j), T=0.6 * cmath.exp(1.0j + 0.5j * math.pi)
        ),
    ]
    worst_weight = 0.0
    for spec in specs:
        for n in range(11):
            total = sum(abs(t.amplitude) ** 2 for t in bs.split_gcs(n, 1.3 - 0.4j, spec))
            worst_weight = max(worst_weight, abs(total - 1.0))

    worst_joint = 0.0
    dim = 40
    for spec in specs[:2]:
        for alpha in (0.8, 2.0, 1.2 * cmath.exp(0.9j)):
            d3 = oracles.displacement_dense(spec.R * alpha, dim)
            d4 = oracles.displacement_dense(spec.T * alpha, dim)
            for n in range(4):
                seed = np.zeros((dim, dim), dtype=complex)
                for m in range(n + 1):
                    seed[m, n - m] = (
                        math.sqrt(math.comb(n, m)) * spec.R**m * spec.T ** (n - m)
                    )
                direct = d3 @ seed @ d4.T
                joint = bs.two_mode_oracle(n, alpha, spec, dim)
                worst_joint = max(worst_joint, float(np.max(np.abs(joint - direct))))

    spec = bs.DEFAULT_SPLITTER
    lo, hi = bs.split_gcs(1, 1.5, spec)
    term_ok = (
        abs(lo.amplitude - spec.T) < 1e-15
        and abs(hi.amplitude - spec.R) < 1e-15
        and (lo.arm3.n, lo.arm4.n) == (0, 1)
        and (hi.arm3.n, hi.arm4.n) == (1, 0)
        and abs(lo.arm3.alpha - spec.R * 1.5) < 1e-15
        and abs(hi.arm4.alpha - spec.T * 1.5) < 1e-15
    )
    ok = worst_weight < 1e-12 and worst_joint < 1e-9 and term_ok
    _verdict(
        6,
        "beamsplitter decomposition matches the two-mode expansion",
        ok,
        f"worst weight defect {worst_weight:.3e} (n<=10), worst joint-amplitude "
        f"gap {worst_joint:.3e} (n<=3), level-1 terms exact: {term_ok}",
    )


def test_criterion_7_driven_evolution():
    start = time.monotonic()
    dim, steps = 120, 4000
    pulses = [
        drive.gaussian_pulse(a, 2.5, 0.5, 0.0, 5.0) for a in (0.4, 0.8, 1.2)
    ] + [
        drive.rectangular_pulse(a, 1.0, 3.0, 0.0, 4.0) for a in (0.3, 0.6, 0.9)
    ]
    worst_analytic = 1.0
    worst_label = 1.0
    block0 = np.eye(dim, dtype=complex)[:, :3]
    for pulse in pulses:
        op = drive.time_development(pulse, 1.0, dim)
        z1 = drive.zeta(pulse, 1.0, pulse.t1)
        ham = drive.drive_hamiltonian(pulse, 1.0, dim)
        numeric = fock._propagate(ham, block0, pulse.t0, pulse.t1, steps)
        for n in range(3):
            fid = abs(np.vdot(numeric[:, n], op[:, n]))
            worst_analytic = min(worst_analytic, fid)
            predicted = states.evolved_expansion(
                states.GcsLabel(n, z1), pulse.t1, dim - 1
            )
            worst_label = min(worst_label, abs(np.vdot(numeric[:, n], predicted)))
    elapsed = time.monotonic() - start
    ok = worst_analytic >= 1.0 - 1e-6 and worst_label >= 1.0 - 1e-6 and elapsed <= 120.0
    _verdict(
        7,
        "driven evolution matches direct integration",
        ok,
        f"worst fidelities: analytic {worst_analytic:.9f}, label {worst_label:.9f} "
        f"over 6 pulses x n<=2 at {steps} steps, dim {dim} in {elapsed:.1f}s",
    )


def test_criterion_8_completeness():
    defect = states.completeness_defect(1.0, 60, 10)

    # continuum version over |alpha| <= 5 in polar form: a uniform 64-point
    # angular sum kills every off-diagonal exactly, leaving radial integrals
    angles = np.arange(64) * (TAU / 64.0)
    worst_offdiag = 0.0
    for j, k in [(0, 1), (2, 5), (1, 7)]:
        worst_offdiag = max(
            worst_offdiag, abs(np.mean(np.exp(1j * (j - k) * angles)))
        )
    r = np.linspace(0.0, 5.0, 1025)
    worst_radial = 0.0
    for n in (0, 1):
        for j in range(8):
            integrand = 2.0 * r * np.array(
                [states.photon_probability(n, rv, j) for rv in r]
            )
            worst_radial = max(worst_radial, abs(simpson(integrand, x=r) - 1.0))
    ok = defect < 1e-6 and worst_offdiag < 1e-14 and worst_radial < 1e-2
    _verdict(
        8,
        "displaced-basis completeness",
        ok,
        f"finite-sum defect {defect:.3e} (N=60, d=10); continuum quadrature: "
        f"off-diagonals {worst_offdiag:.1e}, worst diagonal defect "
        f"{worst_radial:.3e} over n<=1, 8 levels",
    )


def test_criterion_9_figure_signatures(tmp_path):
    problems = []

    for n in (0, 1, 2):
        out = tmp_path / f"field{n}"
        assert cli.main(
            ["field-density", "--n", str(n), "--alpha", "3", "--out", str(out)]
        ) == 0
        with open(out / "field_nodes.csv", newline="", encoding="utf-8") as fh:
            node_rows = list(csv.reader(fh))[1:]
        branches = {int(float(r[1])) for r in node_rows}
        if len(branches) != n:
            problems.append(f"n={n}: {len(branches)} node curves, expected {n}")
        node_dens = [float(r[3]) for r in node_rows]
        if node_dens and max(node_dens) >= 1e-6:
            problems.append(f"n={n}: density {max(node_dens):.2e} on a node curve")
        dens = _read_column(out / "field_density.csv", 2).reshape(129, 1024)
        counts = {
            len(oracles.local_maxima(row, floor=1e-8 * row.max())) for row in dens
        }
        if counts != {n + 1}:
            problems.append(f"n={n}: band counts {sorted(counts)}, expected {n + 1}")

    for n in (0, 1, 2):
        out = tmp_path / f"dist{n}"
        assert cli.main(
            ["photon-dist", "--n", str(n), "--alpha", "10", "--kmax", "220",
             "--out", str(out)]
        ) == 0
        probs = _read_column(out / "photon_dist.csv", 1)
        minima = oracles.strict_local_minima(probs)
        if len(minima) != n:
            problems.append(f"n={n}: {len(minima)} interior minima, expected {n}")
        # P_k carries the factor L_{min(n,k)}^{|n-k|}(|alpha|^2)^2 (for n = 1
        # it is (k - |alpha|^2)^2), so a dip may touch zero exactly where that
        # factor has a root; anywhere else a zero is lost mass, not a dip.
        z = 100.0  # |alpha|^2 at --alpha 10
        for k in minima:
            lag = oracles.laguerre_sum(min(n, k), abs(n - k), z)
            if lag == 0.0:
                bad = not probs[k] <= 1e-15 * probs.max()
            else:
                bad = not probs[k] > 0.0
            if bad:
                problems.append(
                    f"n={n}: minimum at k={k} has value {probs[k]:g} where the "
                    f"Laguerre factor is {lag:g}"
                )

    out = tmp_path / "flip"
    assert cli.main(
        ["wavefunction", "--n", "0", "--alpha", "3", "--t", f"0:{TAU}:3",
         "--out", str(out)]
    ) == 0
    re = _read_column(out / "wavefunction.csv", 2).reshape(3, -1)
    im = _read_column(out / "wavefunction.csv", 3).reshape(3, -1)
    psi = re + 1j * im
    flip = float(np.max(np.abs(psi[2] + psi[0])))
    if flip >= 1e-10:
        problems.append(f"sign flip after one period off by {flip:.2e}")

    out = tmp_path / "traj"
    assert cli.main(
        ["density", "--n", "0", "--alpha", "3", "--t", f"0:{TAU}:61",
         "--out", str(out)]
    ) == 0
    t = _read_column(out / "trajectory.csv", 0)
    x_mean = _read_column(out / "trajectory.csv", 1)
    gap = float(np.max(np.abs(x_mean - 3.0 * math.sqrt(2.0) * np.cos(t))))
    if gap >= 1e-12:
        problems.append(f"trajectory cosine off by {gap:.2e}")

    ok = not problems
    _verdict(
        9,
        "figure signatures from CLI data",
        ok,
        "node curves, band counts, distribution minima, period sign flip, "
        "trajectory all as drawn" if ok else "; ".join(problems),
    )
