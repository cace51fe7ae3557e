"""The four workloads: how their inputs are drawn, one operation, its checks.

Inputs are drawn in rounds.  A round holds every integer level n of the
workload's band once, in a seeded order.  |alpha|, omega and the other
parameters that set the cost are stratified over their bands, with a fixed
pairing of level and slice (see _slots), so each round spreads operation
cost evenly and every seed gives nearly the same cost mix.  A run attempts
whole rounds only.

`run` is the timed operation.  `check` is not timed; it reads the outputs
back and returns failure messages from the independent checks in checks.py.
"""

import contextlib
import filecmp
import io
import json
import math
import os

import numpy as np

import checks
from gcslib import cli, states

TAU = 2.0 * math.pi


class OperationError(Exception):
    """A gcs command returned a nonzero exit code."""


def gcs(*argv):
    """gcs ARGV in-process; the reports it prints to stdout are discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OperationError(f"gcs {' '.join(map(str, argv))} exited {code}")


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _slots(count, r, step):
    """Slice index of position i in round r: (step * i + r) mod count.

    The same for every seed, so every seed pairs the levels with the same
    slices and gives the same cost mix; with `step` prime to `count` each
    round uses every slice once, and successive rounds shift the pairing.
    """
    return [(step * i + r) % count for i in range(count)]


def _strata(rng, slots, lo, hi):
    """Value i at a seeded place in slice slots[i] of [lo, hi], 6 decimals."""
    u = (np.asarray(slots) + rng.random(len(slots))) / len(slots)
    return [round(float(v), 6) for v in lo + (hi - lo) * u]


def _labels(rng, r, levels, mag, omega=(1.0, 1.0)):
    """One label per level, in level order; |alpha| and log omega stratified."""
    count = len(levels)
    mags = _strata(rng, _slots(count, r, 5), *mag)
    omegas = [round(math.exp(v), 6) for v in _strata(rng, _slots(count, r, 7), *np.log(omega))]
    thetas = rng.uniform(0.0, TAU, count)
    ops = []
    for n, a, w, th in zip(levels, mags, omegas, thetas):
        re, im = round(a * math.cos(th), 6), round(a * math.sin(th), 6)
        ops.append({
            "n": n, "alpha": complex(re, im), "omega": w,
            "args": ["--n", n, f"--alpha={re!r},{im!r}", "--omega", repr(w)],
        })
    return ops


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


def _half_width(op):
    """Grid half-width: turning point plus 6 widths beyond the displaced centre."""
    w = op["omega"]
    return math.sqrt(2.0 / w) * abs(op["alpha"]) + (math.sqrt(2 * op["n"] + 1) + 6.0) / math.sqrt(w)


def _k_max(op):
    """Photon cutoff past the classical edge (|alpha| + sqrt(n + 1/2))^2.

    The mean carried beyond it is below 1e-16 of n + |alpha|^2 over both
    bands, so the written P_k hold the whole distribution.
    """
    r = abs(op["alpha"]) + math.sqrt(op["n"] + 0.5)
    return int(r * r + 5.0 * r + 20.0)


def _check_photon_csv(path, op):
    return checks.photon_probs(read_csv(path)[:, 1], op["n"], op["alpha"])


class Figures:
    """The four figure-data commands for one label, written as CSV files."""

    name = "figures"
    tail_pct = 90
    points, frames, wave_frames, chis = 256, 17, 9, 9

    def round(self, rng, r):
        return _shuffled(rng, _labels(rng, r, range(0, 9), (0.5, 4.0), (0.5, 2.0)))

    def run(self, op, out):
        h = _half_width(op)
        grid = f"--grid={-h!r}:{h!r}:{self.points}"
        period = TAU / op["omega"]
        gcs("density", *op["args"], grid, "--t", f"0:{period!r}:{self.frames}",
            "--out", os.path.join(out, "density"))
        gcs("wavefunction", *op["args"], grid, "--t", f"0:{period!r}:{self.wave_frames}",
            "--out", os.path.join(out, "wavefunction"))
        gcs("field-density", *op["args"], f"--grid={-math.pi!r}:{math.pi!r}:{self.chis}",
            "--out", os.path.join(out, "field-density"))
        gcs("photon-dist", *op["args"], "--kmax", _k_max(op),
            "--out", os.path.join(out, "photon-dist"))

    def check(self, op, out, _):
        n, alpha, omega = op["n"], op["alpha"], op["omega"]
        p = self.points
        d = read_csv(os.path.join(out, "density", "density.csv"))
        fails = checks.density_frames(d[:p, 1], d[::p, 0], d[:, 2].reshape(-1, p), n, alpha, omega)
        w = read_csv(os.path.join(out, "wavefunction", "wavefunction.csv"))
        fails += checks.density_frames(
            w[:p, 1], w[::p, 0], (w[:, 2] ** 2 + w[:, 3] ** 2).reshape(-1, p),
            n, alpha, omega, "wavefunction |psi|^2",
        )
        f = read_csv(os.path.join(out, "field-density", "field_density.csv"))
        e_points = f.shape[0] // self.chis
        fails += checks.field_rows(
            f[::e_points, 0], f[:e_points, 1], f[:, 2].reshape(self.chis, e_points), n, alpha, omega
        )
        fails += _check_photon_csv(os.path.join(out, "photon-dist", "photon_dist.csv"), op)
        return fails

    def check_rerun(self, op, out, again):
        """Render the label a second time into `again`; every file must match."""
        self.run(op, again)
        fails = []
        for sub in sorted(os.listdir(out)):
            names = sorted(os.listdir(os.path.join(out, sub)))
            _, mismatch, errors = filecmp.cmpfiles(
                os.path.join(out, sub), os.path.join(again, sub), names, shallow=False
            )
            fails += [f"rerun of {sub}/{name} is not byte-identical" for name in mismatch + errors]
        return fails


class Images:
    """Density frames over a full period and a field-density image, via the API."""

    name = "images"
    tail_pct = 95
    points, frames, chis, e_points = 4096, 64, 128, 2048

    def round(self, rng, r):
        return _shuffled(rng, _labels(rng, r, range(10, 41), (0.5, 4.0), (0.5, 2.0)))

    def _axes(self, op):
        h = _half_width(op)
        times = np.linspace(0.0, TAU / op["omega"], self.frames, endpoint=False)
        return h, times

    def run(self, op, out):
        label = states.GcsLabel(op["n"], op["alpha"], op["omega"])
        h, times = self._axes(op)
        grid = states.SpatialGrid(-h, h, self.points)
        frames = [states.density_grid(label, grid, t) for t in times]
        chi = states.SpatialGrid(-math.pi, math.pi, self.chis, k=1.0)
        field = states.field_density_grid(label, chi, 0.0, np.linspace(-h, h, self.e_points))
        return np.array(frames), field

    def check(self, op, out, result):
        frames, field = result
        h, times = self._axes(op)
        n, alpha, omega = op["n"], op["alpha"], op["omega"]
        return checks.density_frames(
            np.linspace(-h, h, self.points), times, frames, n, alpha, omega
        ) + checks.field_rows(
            np.linspace(-math.pi, math.pi, self.chis), np.linspace(-h, h, self.e_points),
            field, n, alpha, omega,
        )


class Stats:
    """Photon statistics for one label: photon-dist, expect and beamsplit."""

    name = "stats"
    tail_pct = 95

    def round(self, rng, r):
        ops = _labels(rng, r, range(8, 31), (2.0, 6.0))
        # |R|^2 in [1/4, 3/4]: with one arm above ~0.85 of the power the
        # default truncation of gcs beamsplit is too small and it exits 3
        for op, phi in zip(ops, _strata(rng, _slots(len(ops), r, 7), math.pi / 6, math.pi / 3)):
            op["R"], op["T"] = 1j * math.sin(phi), complex(math.cos(phi))
        return _shuffled(rng, ops)

    def run(self, op, out):
        gcs("photon-dist", *op["args"], "--kmax", _k_max(op), "--out", os.path.join(out, "pd"))
        gcs("expect", *op["args"], "--out", os.path.join(out, "expect"))
        gcs("beamsplit", *op["args"], "--R", f"0,{op['R'].imag!r}", "--T", f"{op['T'].real!r},0",
            "--out", os.path.join(out, "beamsplit"))

    def check(self, op, out, _):
        n, alpha = op["n"], op["alpha"]
        return (
            _check_photon_csv(os.path.join(out, "pd", "photon_dist.csv"), op)
            + checks.expect_report(read_json(os.path.join(out, "expect", "expect.json")), n, alpha)
            + checks.beamsplit_report(
                read_json(os.path.join(out, "beamsplit", "beamsplit.json")), n, alpha, op["R"], op["T"]
            )
        )


class Drive:
    """gcs drive for one generated pulse at a fixed truncation and step count."""

    name = "drive"
    tail_pct = 90
    dim, steps, t1 = 48, 500, 5.0

    def round(self, rng, r):
        # every (pulse kind, level) pair once per round
        count = 12
        kinds = ["gaussian", "rectangular", "sine-burst"] * (count // 3)
        levels = [0, 1, 2, 3] * (count // 4)
        omegas = _strata(rng, _slots(count, r, 5), 0.8, 1.25)
        amps = _strata(rng, _slots(count, r, 7), 0.2, 0.6)
        ops = []
        for kind, n, w, amp in zip(kinds, levels, omegas, amps):
            if kind == "gaussian":
                c, s = (round(float(v), 6) for v in (rng.uniform(2.0, 3.0), rng.uniform(0.3, 0.7)))
                params = {"--amplitude": 1.5 * amp, "--center": c, "--width": s}
            elif kind == "rectangular":
                # edges on the step grid: the midpoint rule is first order
                # across a jump inside a step (1 - fidelity ~ 1e-6 at 500 steps)
                on, off = (round(float(v), 2) for v in (rng.uniform(0.5, 1.5), rng.uniform(3.0, 4.5)))
                params = {"--amplitude": amp, "--t-on": on, "--t-off": off}
            else:
                nu, ph = (round(float(v), 6) for v in (rng.uniform(1.0, 3.0), rng.uniform(0.0, math.pi)))
                params = {"--amplitude": amp, "--freq": nu, "--phase": ph}
            args = ["--n", n, "--omega", repr(w), "--pulse", kind, "--t1", repr(self.t1)]
            for key, value in params.items():
                args += [key, repr(value)]
            ops.append({"kind": kind, "n": n, "omega": w, "params": params, "args": args})
        return _shuffled(rng, ops)

    def run(self, op, out):
        gcs("drive", *op["args"], "--dim", self.dim, "--steps", self.steps, "--out", out)

    def force(self, op):
        """The pulse as this benchmark defines it, with its smooth pieces."""
        p, t1 = op["params"], self.t1
        a = p["--amplitude"]
        if op["kind"] == "gaussian":
            c, s = p["--center"], p["--width"]
            return (lambda t: a * np.exp(-0.5 * ((t - c) / s) ** 2)), [(0.0, t1)]
        if op["kind"] == "rectangular":
            on, off = p["--t-on"], p["--t-off"]
            return (lambda t: np.where((t >= on) & (t < off), a, 0.0)), [(0.0, on), (on, off), (off, t1)]
        nu, ph = p["--freq"], p["--phase"]
        return (lambda t: a * np.sin(nu * t + ph)), [(0.0, t1)]

    def check(self, op, out, _):
        force, pieces = self.force(op)
        zeta, beta = checks.drive_response(force, pieces, op["omega"])
        return checks.drive_report(read_json(os.path.join(out, "drive.json")), zeta, beta)


WORKLOADS = {w.name: w for w in (Figures(), Images(), Stats(), Drive())}
