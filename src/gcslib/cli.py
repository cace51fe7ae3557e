"""Command-line surface: deterministic CSV/JSON emission and verify suites.

Commands default to the standard demonstration parameters (alpha = 3,
omega = 1 for the spatial/field pictures; |alpha| = 10 for the photon
distribution) so bare invocations produce the canonical data sets.  Every
output directory gets exactly one manifest.json; reruns with identical
arguments are byte-identical (no timestamps, fixed float formatting).

Each subcommand is a `Command` in COMMANDS.  One runner, `_run`, builds its
label, grid and time axis, calls its compute function and writes the
`Output` that returns: CSV tables, a JSON report and the manifest.
"""

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, beamsplitter, drive, fock, specfun, states, verify

ENV_OUT = "GCS_OUT"
_CONFIG_KEYS = ("dim", "grid", "out")


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


def _parse_complex(text):
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"expected RE or RE,IM, got {text!r}")
    return complex(*map(float, parts))


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
    cfg = load_config(args.config) if args.config else {}
    for key, cast in (("dim", int), ("grid", str)):
        if getattr(args, key, None) is None and key in cfg:
            setattr(args, key, cast(cfg[key]))
    if args.out is None:
        args.out = cfg.get("out") or os.environ.get(ENV_OUT)


def _label(args, default_alpha):
    if args.alpha is not None and (args.alpha_mag is not None or args.alpha_phase is not None):
        raise ValueError("give either --alpha or --alpha-mag/--alpha-phase, not both")
    if args.alpha_phase is not None and args.alpha_mag is None:
        raise ValueError("give either --alpha or --alpha-mag/--alpha-phase, not --alpha-phase alone")
    if args.alpha_mag is not None:
        alpha = args.alpha_mag * np.exp(1j * (args.alpha_phase or 0.0))
    elif args.alpha is not None:
        alpha = _parse_complex(args.alpha)
    else:
        alpha = default_alpha
    return states.GcsLabel(args.n, alpha, args.omega)


def _time_axis(args, label, default_frames):
    if args.t is None:
        return np.linspace(0.0, 2.0 * math.pi / label.omega, default_frames)
    lo, hi, frames = _parse_triple(args.t, "FRAMES")
    if frames < 1:
        raise ValueError(f"need at least one frame, got {frames}")
    return np.linspace(lo, hi, frames)


def _cells(values):
    """CSV cells of an array: floats at 17 significant digits, integers by str."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return [f"{v:.17g}" for v in values.tolist()]
    return [str(v) for v in values.tolist()]


def _write_table(path, header, blocks):
    """Write a CSV table of header and blocks, as csv.writer would.

    A block is a tuple of columns.  A column is an array (one cell per row),
    a list of cells from _cells (a column many blocks share, formatted once)
    or a scalar, repeated on every row of the block.  No header or cell holds
    a comma, quote or line break, so csv.writer's default dialect would quote
    nothing: its lines are the cells joined by "," and ended by "\\r\\n".
    """
    lines = [",".join(header)]
    for block in blocks:
        cols = [_cells(c) if isinstance(c, np.ndarray) else c for c in block]
        rows = max((len(c) for c in cols if isinstance(c, list)), default=1)
        cols = [c if isinstance(c, list) else _cells([c]) * rows for c in cols]
        lines.extend(map(",".join, zip(*cols, strict=True)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _write_json(path, payload):
    """Write payload as indented, key-sorted JSON and a newline; return the
    JSON text, so a caller that also prints it encodes it once (with indent
    set, json.dumps runs the pure-Python encoder)."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    return text


def _complex_pair(z):
    return {"re": z.real, "im": z.imag}


def _level(n, alpha, **extra):
    return {"n": n, "alpha": _complex_pair(alpha), **extra}


@dataclass
class Output:
    """What a command computed: its tables, report and manifest fields."""

    parameters: dict
    tables: dict = None  # CSV file name -> (header, blocks)
    report: dict = None  # saved as <command>.json and printed
    dim: int = None
    tail_mass: float = None
    tolerances: dict = None
    margins: dict = None  # measured values next to their tolerances


def _frames(label, grid, times, name, header, columns):
    """One table with a block per frame t: t, the x grid, then columns(t)."""
    x = _cells(grid.values)
    blocks = [(t, x, *columns(t)) for t in times]
    span = [float(times[0]), float(times[-1]), len(times)]
    params = _level(label.n, label.alpha, omega=label.omega, t=span,
                    grid=[grid.x_min, grid.x_max, grid.points])
    return Output(params, {name: (["t [time]", "x [length]", *header], blocks)})


def _density(args, label, grid, times):
    result = _frames(label, grid, times, "density.csv", ["density [1/length]"],
                     lambda t: (states.density_grid(label, grid, t),))
    means = [np.array([f(label, t) for t in times])
             for f in (states.position_expectation, states.momentum_expectation)]
    result.tables["trajectory.csv"] = (
        ["t [time]", "x_mean [length]", "p_mean [momentum]"], [(times, *means)])
    return result


def _wavefunction(args, label, grid, times):
    def columns(t):
        psi = states.wavefunction(label, grid.values, t)
        return psi.real, psi.imag

    header = ["re_psi [1/sqrt(length)]", "im_psi [1/sqrt(length)]"]
    return _frames(label, grid, times, "wavefunction.csv", header, columns)


def _field_density(args, label, grid, times):
    e_axis = states.default_field_axis(label, points=1024)
    dens = states.field_density_grid(label, grid, 0.0, e_axis)
    chi, e_cells = _cells(grid.values), _cells(e_axis)
    centers = states.field_center(label, grid.values)
    curves = states.field_node_curves(label, grid, 0.0)
    amp = specfun.eigenfunction(label.n, label.omega, curves - centers)
    nodes = [(chi, branch, curve, a * a) for branch, (curve, a) in enumerate(zip(curves, amp))]
    params = _level(label.n, label.alpha, omega=label.omega, e_points=len(e_axis),
                    chi=[grid.x_min, grid.x_max, grid.points])
    return Output(params, {
        "field_density.csv": (["chi [rad]", "e [field]", "density [1/field]"],
                              [(c, e_cells, row) for c, row in zip(grid.values, dens)]),
        "field_nodes.csv": (
            ["chi [rad]", "branch [index]", "e_node [field]", "density [1/field]"], nodes),
    })


def _photon_dist(args, label, grid, times):
    dist = states.photon_distribution(label.n, label.alpha, args.kmax)
    table = (["k [photons]", "probability [dimensionless]"],
             [(np.arange(dist.probs.shape[0]), dist.probs)])
    return Output(_level(label.n, label.alpha, k_max=args.kmax),
                  {"photon_dist.csv": table}, tail_mass=dist.tail_deficit)


def _expect(args, label, grid, times):
    g2_value = states.g2(label.n, label.alpha)  # rejects the vacuum up front
    # the oracle accepts a dim only once its top levels are empty; without
    # --dim it picks its own
    vec = fock.gcs_vector(label.n, label.alpha, args.dim or None, label.omega)
    # N is diagonal in the number basis: its moments are sums over |c_k|^2 k^j
    c, k = vec.coeffs, np.arange(float(vec.dim))
    norm = np.vdot(c, c)
    mean_oracle = complex(np.vdot(c, k * c) / norm).real
    second = complex(np.vdot(c, k * k * c) / norm).real
    vx, vy = states.quadrature_variances(label.n)
    params = _level(label.n, label.alpha, omega=label.omega)
    report = {
        "label": params,
        "mean_photon": states.mean_photon(label.n, label.alpha),
        "mean_photon_oracle": mean_oracle,
        "photon_variance": states.photon_variance(label.n, label.alpha),
        "photon_variance_oracle": second - mean_oracle**2,
        "fractional_uncertainty": states.fractional_uncertainty(label.n, label.alpha),
        "g2": g2_value,
        "g2_oracle": (second - mean_oracle) / mean_oracle**2,
        "field_variance": states.field_variance(label.n, label.omega),
        "quadrature_variance_x": vx,
        "quadrature_variance_y": vy,
        "energy_expectation": states.energy_expectation(label),
        "position_expectation_t0": states.position_expectation(label, 0.0),
        "momentum_expectation_t0": states.momentum_expectation(label, 0.0),
    }
    return Output(params, report=report, dim=vec.dim, tail_mass=vec.tail_mass(),
                  tolerances={"top_mass": fock.TOP_MASS})


def _beamsplit(args, label, grid, times):
    spec = beamsplitter.BeamsplitterSpec(_parse_complex(args.reflection),
                                         _parse_complex(args.transmission))
    beamsplitter.validate(spec)
    terms = beamsplitter.split_gcs(label.n, label.alpha, spec, label.omega)
    reach = max(abs(spec.R), abs(spec.T)) * abs(label.alpha)
    dim = args.dim or fock.start_dim(reach, label.n)
    joint = beamsplitter.two_mode_oracle(label.n, label.alpha, spec, dim)
    marg3, marg4 = beamsplitter.arm_marginals(joint)
    splitter = {"R": _complex_pair(spec.R), "T": _complex_pair(spec.T)}
    report = {
        "input": _level(label.n, label.alpha),
        "splitter": splitter,
        "terms": [
            {"m": t.m, "amplitude": _complex_pair(t.amplitude),
             "arm3": _level(t.arm3.n, t.arm3.alpha), "arm4": _level(t.arm4.n, t.arm4.alpha)}
            for t in terms
        ],
        "total_weight": float(sum(abs(t.amplitude) ** 2 for t in terms)),
        "joint_norm": float(np.sum(np.abs(joint) ** 2)),
        "arm3_mean": beamsplitter.marginal_mean(marg3),
        "arm3_mean_analytic": abs(spec.R * label.alpha) ** 2 + label.n * abs(spec.R) ** 2,
        "arm4_mean": beamsplitter.marginal_mean(marg4),
        "arm4_mean_analytic": abs(spec.T * label.alpha) ** 2 + label.n * abs(spec.T) ** 2,
    }
    return Output(_level(label.n, label.alpha, **splitter), report=report, dim=dim,
                  tail_mass=max(0.0, 1.0 - report["joint_norm"]),
                  tolerances={"unitarity": 1e-12})


def _build_pulse(args):
    if args.table is not None:
        data = np.loadtxt(args.table, delimiter=",", skiprows=1)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError("pulse table must have two columns: t, f")
        return drive.table_pulse(data[:, 0], data[:, 1])
    if args.pulse == "gaussian":
        return drive.gaussian_pulse(args.amplitude, args.center, args.width, args.t0, args.t1)
    if args.pulse == "rectangular":
        t_on = args.t_on if args.t_on is not None else args.t0
        t_off = args.t_off if args.t_off is not None else args.t1
        return drive.rectangular_pulse(args.amplitude, t_on, t_off, args.t0, args.t1)
    if args.pulse == "sine-burst":
        return drive.sine_burst_pulse(args.amplitude, args.freq, args.t0, args.t1, args.phase)
    raise ValueError(f"unknown pulse {args.pulse!r} (registry: {sorted(drive.PULSES)})")


def _drive(args, label, grid, times):
    pulse, n, omega = _build_pulse(args), args.n, args.omega
    z1, b1, tail, reach = drive.response(pulse, omega, pulse.t1)
    dim = args.dim or fock.start_dim(reach, n)
    vec, label = drive._driven_state(n, pulse, omega, dim, z1, b1)
    hamiltonian = drive.drive_hamiltonian(pulse, omega, dim)
    numeric = fock.schrodinger_evolve(
        hamiltonian, fock.number_state(n, dim), pulse.t0, pulse.t1, args.steps)
    predicted = states.evolved_expansion(label, pulse.t1, dim - 1)
    params = {"n": n, "omega": omega, "steps": args.steps,
              "pulse": {"name": pulse.name, "t0": pulse.t0, "t1": pulse.t1, **pulse.params}}
    report = {
        **params,
        "zeta": _complex_pair(z1),
        "beta": b1,
        "alpha_pred": _complex_pair(label.alpha),
        "fidelity_analytic_vs_numeric": abs(np.vdot(vec.coeffs, numeric.coeffs)),
        "fidelity_label_vs_numeric": abs(np.vdot(predicted, numeric.coeffs)),
    }
    return Output(params, report=report, dim=dim, tail_mass=vec.tail_mass(),
                  tolerances={"zeta_quadrature": drive.RESPONSE_TOL, "fidelity": 1e-6},
                  margins={"zeta_beta_tail": tail})


def _verify(args):
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    ok, rows = verify.run_suites(names)
    width = max(len(check.name) for _, check in rows)
    print(f"{'suite':<12} {'check':<{width}} {'residual':>12} {'tolerance':>10} status")
    for suite, check in rows:
        print(f"{suite:<12} {check.name:<{width}} {check.residual:>12.3e} "
              f"{check.tolerance:>10.1e} {'pass' if check.passed else 'FAIL'}")
    passed = sum(check.passed for _, check in rows)
    print(f"{passed}/{len(rows)} checks passed")
    return 0 if ok else 2


@dataclass(frozen=True)
class Command:
    """One subcommand: defaults, the flags it adds and its compute function.

    compute(args, label, grid, times) returns an Output.  A command that does
    not emit (verify) gets none of the common flags, and compute(args)
    returns its exit code.
    """

    name: str
    help: str
    compute: object
    n: int = 0
    alpha: complex = None  # default amplitude; None: no label is built
    grid: object = None  # label -> default SpatialGrid; adds --grid
    frames: int = None  # default frame count over one period; adds --t
    dim: bool = False  # adds --dim
    flags: tuple = ()  # (name, add_argument keywords)
    emits: bool = True


COMMANDS = (
    Command("density", "probability density over (x, t)", _density,
            alpha=3.0 + 0.0j, grid=states.default_grid, frames=61),
    Command("wavefunction", "Re/Im of the wavefunction over (x, t)", _wavefunction,
            alpha=3.0 + 0.0j, grid=states.default_grid, frames=33),
    # chi = kx - omega t is the only variable the field distribution depends
    # on; emit it directly (t = 0, unit wavenumber grid)
    Command("field-density", "field-value distribution vs phase chi", _field_density,
            alpha=3.0 + 0.0j,
            grid=lambda label: states.SpatialGrid(-2.0 * math.pi, 2.0 * math.pi, 129, k=1.0)),
    Command("photon-dist", "photon-number distribution", _photon_dist,
            alpha=10.0 + 0.0j, flags=(("--kmax", dict(type=int, default=220)),)),
    Command("expect", "closed-form and oracle expectation report", _expect,
            n=1, alpha=3.0 + 0.0j, dim=True),
    Command("beamsplit", "beamsplitter output decomposition", _beamsplit,
            n=1, alpha=1.0 + 0.0j, dim=True, flags=(
                ("--R", dict(dest="reflection", default="0,0.7071067811865476",
                             help="reflection coefficient RE,IM")),
                ("--T", dict(dest="transmission", default="0.7071067811865476,0",
                             help="transmission coefficient RE,IM")),
            )),
    Command("drive", "drive level n with a classical force", _drive, dim=True, flags=(
        ("--pulse", dict(default="gaussian", help=f"one of {sorted(drive.PULSES)}")),
        ("--amplitude", dict(type=float, default=0.8)),
        ("--center", dict(type=float, default=2.5, help="gaussian center")),
        ("--width", dict(type=float, default=0.5, help="gaussian width")),
        ("--t-on", dict(type=float, dest="t_on", help="rectangular turn-on")),
        ("--t-off", dict(type=float, dest="t_off", help="rectangular turn-off")),
        ("--freq", dict(type=float, default=2.0, help="sine-burst frequency, rad/time")),
        ("--phase", dict(type=float, default=0.0, help="sine-burst phase, radians")),
        ("--t0", dict(type=float, default=0.0)),
        ("--t1", dict(type=float, default=5.0)),
        ("--steps", dict(type=int, default=4000)),
        ("--table", dict(help="CSV force table with header and columns t,f")),
    )),
    Command("verify", "run invariant suites", _verify, emits=False, flags=(
        ("suite", dict(nargs="?", default="all", choices=sorted(verify.SUITES) + ["all"])),
    )),
)


def _run(command, args):
    """Label, grid and time axis from the flags; compute; write and report."""
    if not command.emits:
        return command.compute(args)
    _resolve(args)
    label = grid = times = None
    if command.alpha is not None:
        label = _label(args, command.alpha)
    if command.grid is not None:
        grid = command.grid(label)
        if args.grid is not None:  # --grid MIN:MAX:POINTS, same wavenumber tag
            grid = states.SpatialGrid(*_parse_triple(args.grid, "POINTS"), grid.k)
    if command.frames is not None:
        times = _time_axis(args, label, command.frames)
    result = command.compute(args, label, grid, times)

    out = args.out or os.path.join("gcs-out", command.name)
    os.makedirs(out, exist_ok=True)
    for name, (header, blocks) in (result.tables or {}).items():
        _write_table(os.path.join(out, name), header, blocks)
    report = None
    if result.report is not None:
        report = _write_json(os.path.join(out, f"{command.name}.json"), result.report)
    _write_json(os.path.join(out, "manifest.json"), {
        "command": command.name,
        "parameters": result.parameters,
        "library_version": __version__,
        "backend": "numpy",
        "truncation_dimension": result.dim,
        "tail_mass": result.tail_mass,
        "tolerances": result.tolerances or {},
        **({"margins": result.margins} if result.margins else {}),
    })
    if report is not None:
        print(report)
    return 0


@functools.cache
def build_parser():
    """The gcs parser, built once per process: parse_args does not change it."""
    parser = _Parser(prog="gcs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        if command.emits:
            p.add_argument("--n", type=int, default=command.n, help="level index n")
        if command.alpha is not None:  # drive takes its label from the pulse
            p.add_argument("--alpha", help="complex amplitude as RE or RE,IM")
            p.add_argument("--alpha-mag", type=float, dest="alpha_mag")
            p.add_argument("--alpha-phase", type=float, dest="alpha_phase", help="radians")
        if command.emits:
            p.add_argument("--omega", type=float, default=1.0)
            p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./gcs-out)")
            p.add_argument("--config", help="key=value config file (dim, grid, out)")
        if command.grid is not None:
            p.add_argument("--grid", help="MIN:MAX:POINTS")
        if command.frames is not None:
            p.add_argument("--t", help="MIN:MAX:FRAMES")
        if command.dim:
            p.add_argument("--dim", type=int, help="Fock truncation dimension")
        for name, kwargs in command.flags:
            p.add_argument(name, **kwargs)
        p.set_defaults(spec=command)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _run(args.spec, args)
    except (fock.TruncationError, drive.QuadratureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (ValueError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())
