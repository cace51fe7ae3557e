"""Command-line surface: deterministic CSV/JSON emission and verify suites.

Commands default to the standard demonstration parameters (alpha = 3,
omega = 1 for the spatial/field pictures; |alpha| = 10 for the photon
distribution) so bare invocations produce the canonical data sets.  Every
output directory gets exactly one manifest.json; reruns with identical
arguments are byte-identical (no timestamps, fixed float formatting).
"""

import argparse
import csv
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__, beamsplitter, drive, fock, specfun, states, verify

ENV_OUT = "GCS_OUT"
_CONFIG_KEYS = ("dim", "tol", "grid", "out")


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2; values like
    # "-7:7:64" or "-1.5,2" are data, not option names
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[0-9.][0-9.,:eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected RE or RE,IM, got {text!r}")


def _parse_triple(text, count_name):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected MIN:MAX:{count_name}, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def load_config(path):
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (expected key = value): {raw!r}")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} (allowed: {_CONFIG_KEYS})")
            cfg[key] = value
    return cfg


def _resolve(args):
    """Fold config-file and environment defaults into the parsed namespace."""
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    if getattr(args, "dim", None) is None and "dim" in cfg:
        args.dim = int(cfg["dim"])
    if getattr(args, "tol", None) is None and "tol" in cfg:
        args.tol = float(cfg["tol"])
    if getattr(args, "grid", None) is None and "grid" in cfg:
        args.grid = cfg["grid"]
    if getattr(args, "out", None) is None:
        args.out = cfg.get("out") or os.environ.get(ENV_OUT)
    if getattr(args, "tol", None) is None:
        args.tol = 1e-10
    return args


def _label(args, default_alpha):
    if args.alpha is not None and args.alpha_mag is not None:
        raise ValueError("give either --alpha or --alpha-mag/--alpha-phase, not both")
    if args.alpha_mag is not None:
        alpha = args.alpha_mag * np.exp(1j * (args.alpha_phase or 0.0))
    elif args.alpha is not None:
        alpha = _parse_complex(args.alpha)
    else:
        alpha = default_alpha
    return states.GcsLabel(args.n, alpha, args.omega)


def _out_dir(args, command):
    base = args.out if args.out else "gcs-out"
    path = base if args.out else os.path.join(base, command)
    os.makedirs(path, exist_ok=True)
    return path


def _spatial_grid(args, label):
    if args.grid is None:
        return states.default_grid(label)
    lo, hi, points = _parse_triple(args.grid, "POINTS")
    return states.SpatialGrid(lo, hi, points)


def _time_axis(args, label):
    if args.t is None:
        return np.linspace(0.0, 2.0 * math.pi / label.omega, args.default_frames)
    lo, hi, frames = _parse_triple(args.t, "FRAMES")
    if frames < 1:
        raise ValueError(f"need at least one frame, got {frames}")
    return np.linspace(lo, hi, frames)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _manifest(out_dir, command, params, dim=None, tail_mass=None, tolerances=None):
    payload = {
        "command": command,
        "parameters": params,
        "library_version": __version__,
        "backend": "numpy",
        "truncation_dimension": dim,
        "tail_mass": tail_mass,
        "tolerances": tolerances or {},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), payload)


def _complex_pair(z):
    return {"re": z.real, "im": z.imag}


def cmd_density(args):
    label = _label(args, 3.0 + 0.0j)
    grid = _spatial_grid(args, label)
    times = _time_axis(args, label)
    out = _out_dir(args, "density")

    rows = []
    traj = []
    x = grid.values
    for t in times:
        dens = states.density_grid(label, grid, t)
        rows.extend((t, xv, dv) for xv, dv in zip(x, dens))
        traj.append(
            (t, states.position_expectation(label, t), states.momentum_expectation(label, t))
        )
    _write_csv(
        os.path.join(out, "density.csv"),
        ["t [time]", "x [length]", "density [1/length]"],
        rows,
    )
    _write_csv(
        os.path.join(out, "trajectory.csv"),
        ["t [time]", "x_mean [length]", "p_mean [momentum]"],
        traj,
    )
    _manifest(
        out,
        "density",
        {
            "n": label.n,
            "alpha": _complex_pair(label.alpha),
            "omega": label.omega,
            "grid": [grid.x_min, grid.x_max, grid.points],
            "t": [float(times[0]), float(times[-1]), len(times)],
        },
    )
    return 0


def cmd_wavefunction(args):
    label = _label(args, 3.0 + 0.0j)
    grid = _spatial_grid(args, label)
    times = _time_axis(args, label)
    out = _out_dir(args, "wavefunction")

    rows = []
    x = grid.values
    for t in times:
        psi = states.wavefunction(label, x, t)
        rows.extend(
            (t, xv, pv.real, pv.imag) for xv, pv in zip(x, psi)
        )
    _write_csv(
        os.path.join(out, "wavefunction.csv"),
        ["t [time]", "x [length]", "re_psi [1/sqrt(length)]", "im_psi [1/sqrt(length)]"],
        rows,
    )
    _manifest(
        out,
        "wavefunction",
        {
            "n": label.n,
            "alpha": _complex_pair(label.alpha),
            "omega": label.omega,
            "grid": [grid.x_min, grid.x_max, grid.points],
            "t": [float(times[0]), float(times[-1]), len(times)],
        },
    )
    return 0


def cmd_field_density(args):
    label = _label(args, 3.0 + 0.0j)
    if args.grid is None:
        chi = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 129)
    else:
        lo, hi, points = _parse_triple(args.grid, "POINTS")
        chi = np.linspace(lo, hi, points)
    e_axis = states.default_field_axis(label, points=1024)
    out = _out_dir(args, "field-density")

    # chi = kx - omega t is the only variable the distribution depends on;
    # emit it directly (t = 0, unit wavenumber grid)
    grid = states.SpatialGrid(float(chi[0]), float(chi[-1]), len(chi), k=1.0)
    dens = states.field_density_grid(label, grid, 0.0, e_axis)
    rows = []
    for i, c in enumerate(grid.values):
        rows.extend((c, ev, dv) for ev, dv in zip(e_axis, dens[i]))
    _write_csv(
        os.path.join(out, "field_density.csv"),
        ["chi [rad]", "e [field]", "density [1/field]"],
        rows,
    )

    nodes = states.field_node_curves(label, grid, 0.0)
    centers = states.field_center(label, grid.values)
    node_rows = []
    for branch in range(nodes.shape[0]):
        curve = nodes[branch]
        amp = specfun.eigenfunction(label.n, label.omega, curve - centers)
        for i, c in enumerate(grid.values):
            node_rows.append((c, branch, curve[i], amp[i] * amp[i]))
    _write_csv(
        os.path.join(out, "field_nodes.csv"),
        ["chi [rad]", "branch [index]", "e_node [field]", "density [1/field]"],
        node_rows,
    )
    _manifest(
        out,
        "field-density",
        {
            "n": label.n,
            "alpha": _complex_pair(label.alpha),
            "omega": label.omega,
            "chi": [float(chi[0]), float(chi[-1]), len(chi)],
            "e_points": len(e_axis),
        },
    )
    return 0


def cmd_photon_dist(args):
    label = _label(args, 10.0 + 0.0j)
    dist = states.photon_distribution(label.n, label.alpha, args.kmax)
    out = _out_dir(args, "photon-dist")
    _write_csv(
        os.path.join(out, "photon_dist.csv"),
        ["k [photons]", "probability [dimensionless]"],
        list(enumerate(dist.probs)),
    )
    _manifest(
        out,
        "photon-dist",
        {
            "n": label.n,
            "alpha": _complex_pair(label.alpha),
            "k_max": args.kmax,
        },
        tail_mass=dist.tail_deficit,
    )
    return 0


def cmd_expect(args):
    label = _label(args, 3.0 + 0.0j)
    # headroom past the bare tail heuristic keeps the N^2 moment clean
    dim = args.dim or max(fock.min_dim(label.alpha, label.n) + 24, 48)
    g2_value = states.g2(label.n, label.alpha)  # rejects the vacuum up front
    vec = fock.gcs_vector(label.n, label.alpha, dim, label.omega)
    _, _, num = fock.ladder_matrices(dim)
    mean_oracle = fock.expectation(num, vec, args.tol).real
    second = fock.expectation(num @ num, vec, args.tol).real
    var_oracle = second - mean_oracle**2
    mean = states.mean_photon(label.n, label.alpha)
    g2_oracle = (second - mean_oracle) / mean_oracle**2
    vx, vy = states.quadrature_variances(label.n)

    report = {
        "label": {
            "n": label.n,
            "alpha": _complex_pair(label.alpha),
            "omega": label.omega,
        },
        "mean_photon": mean,
        "mean_photon_oracle": mean_oracle,
        "photon_variance": states.photon_variance(label.n, label.alpha),
        "photon_variance_oracle": var_oracle,
        "fractional_uncertainty": states.fractional_uncertainty(label.n, label.alpha),
        "g2": g2_value,
        "g2_oracle": g2_oracle,
        "field_variance": states.field_variance(label.n, label.omega),
        "quadrature_variance_x": vx,
        "quadrature_variance_y": vy,
        "energy_expectation": states.energy_expectation(label),
        "position_expectation_t0": states.position_expectation(label, 0.0),
        "momentum_expectation_t0": states.momentum_expectation(label, 0.0),
    }
    out = _out_dir(args, "expect")
    _write_json(os.path.join(out, "expect.json"), report)
    _manifest(
        out,
        "expect",
        {"n": label.n, "alpha": _complex_pair(label.alpha), "omega": label.omega},
        dim=dim,
        tail_mass=vec.tail_mass(),
        tolerances={"tail": args.tol},
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_beamsplit(args):
    spec = beamsplitter.BeamsplitterSpec(
        _parse_complex(args.reflection), _parse_complex(args.transmission)
    )
    beamsplitter.validate(spec)
    label = _label(args, 1.0 + 0.0j)
    terms = beamsplitter.split_gcs(label.n, label.alpha, spec, label.omega)
    dim = args.dim or max(fock.min_dim(label.alpha, label.n), 24)
    joint = beamsplitter.two_mode_oracle(label.n, label.alpha, spec, dim)
    marg3, marg4 = beamsplitter.arm_marginals(joint)

    report = {
        "input": {"n": label.n, "alpha": _complex_pair(label.alpha)},
        "splitter": {"R": _complex_pair(spec.R), "T": _complex_pair(spec.T)},
        "terms": [
            {
                "m": term.m,
                "amplitude": _complex_pair(term.amplitude),
                "arm3": {"n": term.arm3.n, "alpha": _complex_pair(term.arm3.alpha)},
                "arm4": {"n": term.arm4.n, "alpha": _complex_pair(term.arm4.alpha)},
            }
            for term in terms
        ],
        "total_weight": float(sum(abs(t.amplitude) ** 2 for t in terms)),
        "joint_norm": float(np.sum(np.abs(joint) ** 2)),
        "arm3_mean": beamsplitter.marginal_mean(marg3),
        "arm3_mean_analytic": abs(spec.R * label.alpha) ** 2
        + label.n * abs(spec.R) ** 2,
        "arm4_mean": beamsplitter.marginal_mean(marg4),
        "arm4_mean_analytic": abs(spec.T * label.alpha) ** 2
        + label.n * abs(spec.T) ** 2,
    }
    out = _out_dir(args, "beamsplit")
    _write_json(os.path.join(out, "beamsplit.json"), report)
    _manifest(
        out,
        "beamsplit",
        {
            "n": label.n,
            "alpha": _complex_pair(label.alpha),
            "R": _complex_pair(spec.R),
            "T": _complex_pair(spec.T),
        },
        dim=dim,
        tail_mass=max(0.0, 1.0 - report["joint_norm"]),
        tolerances={"unitarity": 1e-12},
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _build_pulse(args):
    if args.table is not None:
        data = np.loadtxt(args.table, delimiter=",", skiprows=1)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError("pulse table must have two columns: t, f")
        return drive.table_pulse(data[:, 0], data[:, 1])
    if args.pulse == "gaussian":
        return drive.gaussian_pulse(
            args.amplitude, args.center, args.width, args.t0, args.t1
        )
    if args.pulse == "rectangular":
        t_on = args.t_on if args.t_on is not None else args.t0
        t_off = args.t_off if args.t_off is not None else args.t1
        return drive.rectangular_pulse(args.amplitude, t_on, t_off, args.t0, args.t1)
    if args.pulse == "sine-burst":
        return drive.sine_burst_pulse(
            args.amplitude, args.freq, args.t0, args.t1, args.phase
        )
    raise ValueError(f"unknown pulse {args.pulse!r} (registry: {sorted(drive.PULSES)})")


def cmd_drive(args):
    pulse = _build_pulse(args)
    omega = args.omega
    z1 = drive.zeta(pulse, omega, pulse.t1)
    b1 = drive.beta_phase(pulse, omega, pulse.t1)
    dim = args.dim or max(fock.min_dim(z1, args.n), 40)
    vec, label = drive._driven_state(args.n, pulse, omega, dim, z1, b1)

    hamiltonian = drive.drive_hamiltonian(pulse, omega, dim)
    start = fock.number_state(args.n, dim)
    numeric = fock.schrodinger_evolve(hamiltonian, start, pulse.t0, pulse.t1, args.steps)
    fidelity = abs(np.vdot(vec.coeffs, numeric.coeffs))
    predicted = states.evolved_expansion(label, pulse.t1, dim - 1)
    label_fidelity = abs(np.vdot(predicted, numeric.coeffs))

    report = {
        "pulse": {"name": pulse.name, "t0": pulse.t0, "t1": pulse.t1, **pulse.params},
        "omega": omega,
        "n": args.n,
        "zeta": _complex_pair(z1),
        "beta": b1,
        "alpha_pred": _complex_pair(label.alpha),
        "steps": args.steps,
        "fidelity_analytic_vs_numeric": fidelity,
        "fidelity_label_vs_numeric": label_fidelity,
    }
    out = _out_dir(args, "drive")
    _write_json(os.path.join(out, "drive.json"), report)
    _manifest(
        out,
        "drive",
        {"n": args.n, "omega": omega, "pulse": report["pulse"], "steps": args.steps},
        dim=dim,
        tail_mass=vec.tail_mass(),
        tolerances={"zeta_quadrature": 1e-10, "fidelity": 1e-6},
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_verify(args):
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    ok, rows = verify.run_suites(names)
    width = max(len(check.name) for _, check in rows)
    print(f"{'suite':<12} {'check':<{width}} {'residual':>12} {'tolerance':>10} status")
    for suite, check in rows:
        status = "pass" if check.passed else "FAIL"
        print(
            f"{suite:<12} {check.name:<{width}} {check.residual:>12.3e} "
            f"{check.tolerance:>10.1e} {status}"
        )
    total = len(rows)
    failed = sum(0 if check.passed else 1 for _, check in rows)
    print(f"{total - failed}/{total} checks passed")
    return 0 if ok else 2


def build_parser():
    parser = _Parser(prog="gcs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_n, with_grid=True, with_t=False, with_dim=False):
        p.add_argument("--n", type=int, default=default_n, help="level index n")
        p.add_argument("--alpha", help="complex amplitude as RE or RE,IM")
        p.add_argument("--alpha-mag", type=float, dest="alpha_mag")
        p.add_argument(
            "--alpha-phase", type=float, dest="alpha_phase", help="radians"
        )
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./gcs-out)")
        p.add_argument("--config", help="key=value config file (dim, tol, grid, out)")
        p.add_argument("--tol", type=float, help="tail-mass tolerance for oracles")
        if with_grid:
            p.add_argument("--grid", help="MIN:MAX:POINTS")
        if with_t:
            p.add_argument("--t", help="MIN:MAX:FRAMES")
        if with_dim:
            p.add_argument("--dim", type=int, help="Fock truncation dimension")

    p = sub.add_parser("density", help="probability density over (x, t)")
    add_common(p, 0, with_t=True)
    p.set_defaults(func=cmd_density, default_frames=61)

    p = sub.add_parser("wavefunction", help="Re/Im of the wavefunction over (x, t)")
    add_common(p, 0, with_t=True)
    p.set_defaults(func=cmd_wavefunction, default_frames=33)

    p = sub.add_parser("field-density", help="field-value distribution vs phase chi")
    add_common(p, 0)
    p.set_defaults(func=cmd_field_density)

    p = sub.add_parser("photon-dist", help="photon-number distribution")
    add_common(p, 0, with_grid=False)
    p.add_argument("--kmax", type=int, default=220)
    p.set_defaults(func=cmd_photon_dist)

    p = sub.add_parser("expect", help="closed-form and oracle expectation report")
    add_common(p, 1, with_grid=False, with_dim=True)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("beamsplit", help="beamsplitter output decomposition")
    add_common(p, 1, with_grid=False, with_dim=True)
    p.add_argument(
        "--R", dest="reflection", default="0,0.7071067811865476",
        help="reflection coefficient RE,IM",
    )
    p.add_argument(
        "--T", dest="transmission", default="0.7071067811865476,0",
        help="transmission coefficient RE,IM",
    )
    p.set_defaults(func=cmd_beamsplit)

    p = sub.add_parser("drive", help="drive level n with a classical force")
    add_common(p, 0, with_grid=False, with_dim=True)
    p.add_argument("--pulse", default="gaussian", help=f"one of {sorted(drive.PULSES)}")
    p.add_argument("--amplitude", type=float, default=0.8)
    p.add_argument("--center", type=float, default=2.5, help="gaussian center")
    p.add_argument("--width", type=float, default=0.5, help="gaussian width")
    p.add_argument("--t-on", type=float, dest="t_on", help="rectangular turn-on")
    p.add_argument("--t-off", type=float, dest="t_off", help="rectangular turn-off")
    p.add_argument("--freq", type=float, default=2.0, help="sine-burst frequency, rad/time")
    p.add_argument("--phase", type=float, default=0.0, help="sine-burst phase, radians")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--table", help="CSV force table with header and columns t,f")
    p.set_defaults(func=cmd_drive)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument(
        "suite", nargs="?", default="all",
        choices=sorted(verify.SUITES) + ["all"],
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command != "verify":
            _resolve(args)
        return args.func(args)
    except fock.TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except drive.QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
