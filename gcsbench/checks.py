"""Output checks for the benchmark, computed without gcslib.

Every expected value here comes from the physics of |n, alpha> worked out
in this file: the rigidly carried density has unit norm, a centre on the
classical trajectory and the number-state spread (n + 1/2)/omega; the
photon-number distribution is |<k|D(alpha)|n>|^2 from scipy's expm of the
truncated generator; the driven-oscillator response comes from composite
Gauss-Legendre quadrature.  Nothing is imported from gcslib, so a fault in
the program cannot cancel out of its own check.

Each check takes parsed outputs and returns a list of failure messages;
an empty list means the output passed.
"""

import math

import numpy as np
from scipy.linalg import expm

# Relative tolerances, about 1e4 above the largest residual seen on correct
# output (norms, moments and P_k to 1e-14, beta to 4e-13); the fidelity
# bound is the one gcs drive records in its manifest.
TOL = 1e-10
FIDELITY_TOL = 1e-6


def _trapezoid(y, x):
    h = np.diff(x)
    return np.sum(0.5 * h * (y[..., 1:] + y[..., :-1]), axis=-1)


def _moment_failures(what, axis, dens, centres, n, omega):
    """Norm 1, mean on `centres`, central second moment (n + 1/2)/omega."""
    norm = _trapezoid(dens, axis)
    mean = _trapezoid(dens * axis, axis) / norm
    spread = _trapezoid(dens * (axis - mean[:, None]) ** 2, axis) / norm
    want_spread = (n + 0.5) / omega
    scale = 1.0 + float(np.max(np.abs(axis)))
    out = []
    bad = np.abs(norm - 1.0)
    if np.max(bad) > TOL:
        i = int(np.argmax(bad))
        out.append(f"{what} row {i}: norm {float(norm[i])!r}, want 1")
    bad = np.abs(mean - centres)
    if np.max(bad) > TOL * scale:
        i = int(np.argmax(bad))
        out.append(f"{what} row {i}: mean {float(mean[i])!r}, want {float(centres[i])!r}")
    bad = np.abs(spread - want_spread)
    if np.max(bad) > TOL * (1.0 + want_spread):
        i = int(np.argmax(bad))
        out.append(f"{what} row {i}: second moment {float(spread[i])!r}, want {want_spread!r}")
    return out


def trajectory(alpha, omega, t):
    """Classical position sqrt(2/omega)|alpha| cos(omega t - theta)."""
    return math.sqrt(2.0 / omega) * abs(alpha) * np.cos(omega * np.asarray(t) - np.angle(alpha))


def density_frames(x, times, dens, n, alpha, omega, what="density"):
    """Each frame dens[i] of |psi|^2 over x at times[i]."""
    return _moment_failures(what, x, dens, trajectory(alpha, omega, times), n, omega)


def field_rows(chi, e, dens, n, alpha, omega, what="field density"):
    """Each row dens[i] of P(E) over e at field phase chi[i]."""
    centres = math.sqrt(2.0 / omega) * abs(alpha) * np.cos(np.asarray(chi) + np.angle(alpha) + 0.5 * np.pi)
    return _moment_failures(what, e, dens, centres, n, omega)


def displaced_column(n, alpha, dim):
    """Column n of expm(alpha a^dag - conj(alpha) a) truncated to dim levels."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return expm(alpha * a.T - np.conj(alpha) * a)[:, n]


def photon_probs(probs, n, alpha):
    """P_k against |<k|D(alpha)|n>|^2 and the mean n + |alpha|^2."""
    probs = np.asarray(probs, float)
    k_max = probs.shape[0] - 1
    # 20 spare levels keep the truncation edge away from levels 0..k_max
    want = np.abs(displaced_column(n, alpha, k_max + 20)[: k_max + 1]) ** 2
    out = []
    bad = np.abs(probs - want)
    if np.max(bad) > TOL * np.max(want):
        k = int(np.argmax(bad))
        out.append(f"photon-dist P_{k} = {float(probs[k])!r}, expm gives {float(want[k])!r}")
    mean = float(np.sum(np.arange(k_max + 1) * probs))
    want_mean = n + abs(alpha) ** 2
    if abs(mean - want_mean) > TOL * want_mean:
        out.append(f"photon-dist mean {mean!r}, want {want_mean!r}")
    return out


def expect_report(report, n, alpha):
    """Oracle mean n + |alpha|^2 and oracle variance (2n + 1)|alpha|^2."""
    z = abs(alpha) ** 2
    out = []
    got = report["mean_photon_oracle"]
    if abs(got - (n + z)) > TOL * (n + z):
        out.append(f"expect mean_photon_oracle {got!r}, want {n + z!r}")
    got = report["photon_variance_oracle"]
    want = (2 * n + 1) * z
    if abs(got - want) > TOL * want:
        out.append(f"expect photon_variance_oracle {got!r}, want {want!r}")
    return out


def beamsplit_report(report, n, alpha, r, t):
    """Unit weights and joint norm; arm means |R alpha|^2 + n|R|^2 and likewise for T."""
    out = []
    for key in ("total_weight", "joint_norm"):
        if abs(report[key] - 1.0) > TOL:
            out.append(f"beamsplit {key} {report[key]!r}, want 1")
    for key, c in (("arm3_mean", r), ("arm4_mean", t)):
        want = abs(c * alpha) ** 2 + n * abs(c) ** 2
        if abs(report[key] - want) > TOL * (1.0 + want):
            out.append(f"beamsplit {key} {report[key]!r}, want {want!r}")
    return out


_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _panels(pieces, width):
    """Gauss-Legendre nodes and weights on panels no wider than `width`."""
    nodes, weights, starts = [], [], []
    for a, b in pieces:
        count = max(1, math.ceil((b - a) / width))
        edges = np.linspace(a, b, count + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (hi - lo) * _GL_X + 0.5 * (hi + lo))
            weights.append(0.5 * (hi - lo) * _GL_W)
            starts.append(lo)
    return np.array(nodes), np.array(weights), np.array(starts)


def drive_response(force, pieces, omega):
    """(zeta, beta) of the force from composite Gauss-Legendre quadrature.

    zeta = -(i/sqrt(2 omega)) int f(s) e^{i omega s} ds and
    beta = (1/(2 omega)) int_{t'' < t'} f(t') f(t'') sin(omega (t' - t'')),
    with `pieces` the (a, b) intervals on which `force` is smooth.
    """
    nodes, weights, starts = _panels(pieces, 0.1)
    g = force(nodes) * np.exp(-1j * omega * nodes)
    # inner integral from t0 to each node: whole earlier panels plus the
    # part of the node's own panel below it, by a second Gauss rule
    whole = np.concatenate([[0.0], np.cumsum(np.sum(weights * g, axis=1))[:-1]])
    half = 0.5 * (nodes - starts[:, None])
    sub = half[..., None] * (_GL_X + 1.0) + starts[:, None, None]
    part = np.sum(half[..., None] * _GL_W * force(sub) * np.exp(-1j * omega * sub), axis=-1)
    inner = whole[:, None] + part
    outer = force(nodes) * np.exp(1j * omega * nodes)
    zeta = -1j / math.sqrt(2.0 * omega) * complex(np.sum(weights * np.conj(g)))
    beta = float(np.sum(weights * (outer * inner).imag)) / (2.0 * omega)
    return zeta, beta


def drive_report(report, zeta, beta):
    """Both fidelities within 1e-6 of 1; zeta and beta on the quadrature values."""
    out = []
    for key in ("fidelity_analytic_vs_numeric", "fidelity_label_vs_numeric"):
        if 1.0 - report[key] > FIDELITY_TOL:
            out.append(f"drive {key} {report[key]!r}, want >= 1 - {FIDELITY_TOL}")
    got = complex(report["zeta"]["re"], report["zeta"]["im"])
    if abs(got - zeta) > TOL:
        out.append(f"drive zeta {got!r}, quadrature gives {zeta!r}")
    if abs(report["beta"] - beta) > TOL:
        out.append(f"drive beta {report['beta']!r}, quadrature gives {beta!r}")
    return out
