"""End-to-end CLI runs: artifacts, headers, exit codes, config and env
handling.  Everything goes through cli.main() in-process."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gcslib import cli, drive, fock, states

TAU = 2.0 * math.pi


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_density_artifacts(tmp_path):
    out = tmp_path / "d"
    code = cli.main(
        ["density", "--n", "0", "--alpha", "3", "--grid", "-7:7:16",
         "--t", f"0:{TAU}:5", "--out", str(out)]
    )
    assert code == 0
    header, rows = _read_csv(out / "density.csv")
    assert header == ["t [time]", "x [length]", "density [1/length]"]
    assert len(rows) == 5 * 16
    header, traj = _read_csv(out / "trajectory.csv")
    assert header == ["t [time]", "x_mean [length]", "p_mean [momentum]"]
    for t, x_mean, p_mean in traj:
        assert_allclose(x_mean, 3.0 * math.sqrt(2.0) * math.cos(t), atol=1e-12)
        assert_allclose(p_mean, -3.0 * math.sqrt(2.0) * math.sin(t), atol=1e-12)
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "density"
    assert manifest["parameters"]["grid"] == [-7.0, 7.0, 16]
    assert manifest["backend"] == "numpy"


def test_density_stationary_without_displacement(tmp_path):
    out = tmp_path / "d0"
    assert cli.main(
        ["density", "--n", "2", "--alpha", "0", "--grid", "-5:5:32",
         "--t", "0:3:4", "--out", str(out)]
    ) == 0
    _, rows = _read_csv(out / "density.csv")
    frames = np.array([r[2] for r in rows]).reshape(4, 32)
    for frame in frames[1:]:
        assert np.max(np.abs(frame - frames[0])) < 1e-12


def test_wavefunction_artifacts(tmp_path):
    out = tmp_path / "w"
    assert cli.main(
        ["wavefunction", "--n", "1", "--alpha", "0", "--grid", "-5:5:11",
         "--t", "0:1:1", "--out", str(out)]
    ) == 0
    header, rows = _read_csv(out / "wavefunction.csv")
    assert header == [
        "t [time]", "x [length]", "re_psi [1/sqrt(length)]", "im_psi [1/sqrt(length)]"
    ]
    assert len(rows) == 11
    re = [r[2] for r in rows]
    im = [r[3] for r in rows]
    # first excited level at rest and t = 0: real and odd
    assert max(abs(v) for v in im) < 1e-14
    for i in range(11):
        assert abs(re[i] + re[10 - i]) < 1e-12


def test_field_density_artifacts(tmp_path):
    out = tmp_path / "f"
    assert cli.main(
        ["field-density", "--n", "1", "--alpha", "0", "--grid", "-3:3:5",
         "--out", str(out)]
    ) == 0
    header, rows = _read_csv(out / "field_density.csv")
    assert header == ["chi [rad]", "e [field]", "density [1/field]"]
    manifest = _read_json(out / "manifest.json")
    assert manifest["parameters"]["e_points"] == 1024
    dens = np.array([r[2] for r in rows]).reshape(5, 1024)
    # no displacement: the distribution cannot depend on the phase
    for row in dens[1:]:
        assert np.array_equal(row, dens[0])
    header, node_rows = _read_csv(out / "field_nodes.csv")
    assert header == ["chi [rad]", "branch [index]", "e_node [field]", "density [1/field]"]
    assert len(node_rows) == 5  # one branch for n = 1
    assert all(r[3] < 1e-20 for r in node_rows)


def test_photon_dist_artifacts(tmp_path):
    out = tmp_path / "p"
    assert cli.main(["photon-dist", "--n", "2", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "photon_dist.csv")
    assert header == ["k [photons]", "probability [dimensionless]"]
    assert len(rows) == 221  # default --kmax 220, default |alpha| = 10
    total = sum(r[1] for r in rows)
    assert total > 1.0 - 1e-10
    manifest = _read_json(out / "manifest.json")
    assert abs(manifest["tail_mass"]) < 1e-10
    assert manifest["parameters"]["alpha"] == {"re": 10.0, "im": 0.0}


def test_photon_dist_polar_alpha(tmp_path):
    out = tmp_path / "pp"
    assert cli.main(
        ["photon-dist", "--n", "0", "--alpha-mag", "2", "--alpha-phase", "0.9",
         "--kmax", "40", "--out", str(out)]
    ) == 0
    manifest = _read_json(out / "manifest.json")
    got = complex(manifest["parameters"]["alpha"]["re"], manifest["parameters"]["alpha"]["im"])
    assert abs(got - 2.0 * np.exp(0.9j)) < 1e-12
    _, rows = _read_csv(out / "photon_dist.csv")
    # phase cannot change the distribution
    assert_allclose(rows[3][1], states.photon_probability(0, 2.0, 3), rtol=1e-12)


def test_expect_report(tmp_path, capsys):
    out = tmp_path / "e"
    assert cli.main(["expect", "--n", "1", "--alpha", "3", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    stored = _read_json(out / "expect.json")
    assert printed == stored
    rep = stored
    assert rep["label"] == {"n": 1, "alpha": {"re": 3.0, "im": 0.0}, "omega": 1.0}
    assert_allclose(rep["mean_photon"], 10.0)
    assert_allclose(rep["mean_photon_oracle"], 10.0, rtol=1e-9)
    assert_allclose(rep["photon_variance"], 9.0)
    # the matrix-element route reports the distribution's own spread
    assert_allclose(rep["photon_variance_oracle"], 3 * 9.0, rtol=1e-6)
    assert_allclose(rep["g2"], 0.99)
    assert_allclose(rep["g2_oracle"], 1.0 + (3 * 9.0 - 1.0 - 9.0) / 100.0, rtol=1e-6)
    assert_allclose(rep["field_variance"], 1.5)
    assert_allclose(rep["quadrature_variance_x"], 0.375)
    assert_allclose(rep["energy_expectation"], 10.5)
    assert_allclose(rep["position_expectation_t0"], 3.0 * math.sqrt(2.0))
    manifest = _read_json(out / "manifest.json")
    assert manifest["truncation_dimension"] == fock.start_dim(3.0, 1) == 53
    assert manifest["tolerances"] == {"top_mass": fock.TOP_MASS}


@pytest.mark.parametrize("n,alpha,dim", [(50, 10, 369), (100, 15, 860)])
def test_expect_grows_dim_past_the_starting_size(tmp_path, capsys, monkeypatch, n, alpha, dim):
    # started at 295 and 550, the oracle keeps 1.2e-2 and 2.4e-3 of the mass
    # in its last level and grows by 1.25x until its top five levels hold
    # <= 1e-14
    start = {50: 295, 100: 550}[n]
    monkeypatch.setattr(fock, "start_dim", lambda alpha, n=0: start)
    out = tmp_path / "e"
    assert cli.main(["expect", "--n", str(n), "--alpha", str(alpha), "--out", str(out)]) == 0
    rep = _read_json(out / "expect.json")
    z = alpha * alpha
    assert_allclose(rep["mean_photon_oracle"], n + z, rtol=1e-12)
    assert_allclose(rep["photon_variance_oracle"], (2 * n + 1) * z, rtol=1e-12)
    assert _read_json(out / "manifest.json")["truncation_dimension"] == dim


@pytest.mark.parametrize("n,alpha,dim", [(50, 10, 389), (100, 15, 764)])
def test_expect_starts_at_a_dim_that_holds(tmp_path, capsys, monkeypatch, n, alpha, dim):
    # start_dim is never short: one eigensolve, at the dim the manifest names
    dims = []
    real = fock.dstevd

    def counted(d, e, *args):
        dims.append(d.shape[0])
        return real(d, e, *args)

    monkeypatch.setattr(fock, "dstevd", counted)
    out = tmp_path / "e"
    assert cli.main(["expect", "--n", str(n), "--alpha", str(alpha), "--out", str(out)]) == 0
    rep = _read_json(out / "expect.json")
    z = alpha * alpha
    assert_allclose(rep["mean_photon_oracle"], n + z, rtol=1e-12)
    assert_allclose(rep["photon_variance_oracle"], (2 * n + 1) * z, rtol=1e-12)
    assert _read_json(out / "manifest.json")["truncation_dimension"] == dim
    assert dims == [dim]


def test_expect_oracle_at_a_grown_dim_is_clean(tmp_path, capsys, monkeypatch):
    # started at 147, (20, 6) keeps 4.5e-13 in its top five levels; it grows
    # to 184, where the variance is within 1e-14 relative (2.6e-14 at 147)
    monkeypatch.setattr(fock, "start_dim", lambda alpha, n=0: 147)
    out = tmp_path / "e"
    assert cli.main(["expect", "--n", "20", "--alpha", "6", "--out", str(out)]) == 0
    rep = _read_json(out / "expect.json")
    assert abs(rep["mean_photon_oracle"] - 56.0) <= 1e-12
    assert abs(rep["photon_variance_oracle"] - 41 * 36.0) <= 1e-14 * 41 * 36.0
    assert _read_json(out / "manifest.json")["truncation_dimension"] == 184


def test_expect_with_dim_does_not_grow(tmp_path, capsys):
    code = cli.main(["expect", "--n", "50", "--alpha", "10", "--dim", "295",
                     "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "top 5 levels of column n=50 hold 4.059e-02 at dim=295, over TOP_MASS=1e-14" in err


def test_expect_above_the_dim_cap_exits_3(tmp_path, capsys, monkeypatch):
    # |alpha| = 200 puts the classical edge at ~40,500 (two 13 GB arrays)
    def no_eigensolve(*args):
        raise AssertionError("dstevd must not run")

    monkeypatch.setattr(fock, "dstevd", no_eigensolve)
    code = cli.main(["expect", "--alpha", "200", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "classical edge 40491.4 is above MAX_DIM=8192" in capsys.readouterr().err


def test_expect_rejects_vacuum(tmp_path, capsys):
    assert cli.main(["expect", "--n", "0", "--alpha", "0", "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_conflicting_alpha_forms(tmp_path, capsys):
    code = cli.main(
        ["expect", "--alpha", "1", "--alpha-mag", "1", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_alpha_phase_with_alpha_exits_one(tmp_path, capsys):
    code = cli.main(
        ["expect", "--alpha", "3", "--alpha-phase", "1.0", "--out", str(tmp_path)]
    )
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_alpha_phase_alone_exits_one(tmp_path, capsys):
    # a phase without a magnitude once fell back to the default alpha = 3
    code = cli.main(["expect", "--alpha-phase", "1.0", "--out", str(tmp_path)])
    assert code == 1
    assert "--alpha-phase alone" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_import_leaves_out_scipy_integrate():
    # every gcs process imports cli; scipy.integrate (and scipy.optimize,
    # which it pulls in) load only inside the verify suites that use them
    probe = "import sys, gcslib.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_only_eigensolving_commands_load_scipy(tmp_path):
    # density, wavefunction, field-density, photon-dist and beamsplit need no
    # scipy; expect binds fock.dstevd on its first eigensolve, which loads
    # scipy.linalg and not scipy.fft
    free = ["density", "wavefunction", "field-density", "photon-dist", "beamsplit"]
    runs = [[c, *SMALL_RUNS[c], "--out", str(tmp_path / c)] for c in [*free, "expect"]]
    probe = (
        "import contextlib, io, json, sys\n"
        "from gcslib import cli, fock\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"runs = {runs!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in runs[:-1]]\n"
        "    free = loaded()\n"
        "    codes.append(cli.main(runs[-1]))\n"
        "seen = {'codes': codes, 'free': free, 'linalg': 'scipy.linalg' in sys.modules,\n"
        "        'fft': 'scipy.fft' in sys.modules}\n"
        "import scipy.linalg.lapack\n"
        "seen['bound'] = fock.dstevd is scipy.linalg.lapack.dstevd\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"codes": [0] * 6, "free": [], "linalg": True, "fft": False, "bound": True}


def test_amplitude_overflow_prints_only_the_error(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["photon-dist", "--n", "300", "--alpha", "30", "--kmax", "2497",
                         "--out", str(tmp_path)])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: amplitude of k=2357 is not finite for n=300, |alpha|=30: "
        "the Laguerre recurrence overflows"
    ]


def test_truncation_exit_code(tmp_path, capsys):
    code = cli.main(
        ["expect", "--n", "3", "--alpha", "9", "--dim", "40", "--out", str(tmp_path)]
    )
    assert code == 3
    assert "dim=40" in capsys.readouterr().err


def test_beamsplit_report(tmp_path, capsys):
    out = tmp_path / "b"
    assert cli.main(["beamsplit", "--n", "1", "--alpha", "1.5", "--out", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["terms"]) == 2
    assert_allclose(rep["total_weight"], 1.0, atol=1e-12)
    assert_allclose(rep["joint_norm"], 1.0, atol=1e-10)
    assert_allclose(rep["arm3_mean"], rep["arm3_mean_analytic"], atol=1e-9)
    assert_allclose(rep["arm4_mean"], rep["arm4_mean_analytic"], atol=1e-9)
    half = 0.5 * 1.5**2 + 0.5
    assert_allclose(rep["arm3_mean_analytic"], half)


def test_beamsplit_sizes_from_the_brighter_arm(tmp_path, capsys):
    # |R| = 0.949 carries |R alpha| = 5.69: start_dim(5.69, 30) = 189, where
    # the closed form captures every arm row
    out = tmp_path / "b"
    argv = ["beamsplit", "--n", "30", "--alpha", "6", "--R", "0,0.9486832980505138",
            "--T", "0.31622776601683794,0", "--out", str(out)]
    assert cli.main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["joint_norm"] - 1.0) <= 1e-12
    assert_allclose(rep["arm3_mean"], rep["arm3_mean_analytic"], rtol=1e-12)
    assert _read_json(out / "manifest.json")["truncation_dimension"] == 189


def test_beamsplit_rejects_non_unitary(tmp_path, capsys):
    code = cli.main(
        ["beamsplit", "--R", "0.70710678,0", "--T", "0.70710678,0",
         "--out", str(tmp_path)]
    )
    assert code == 1
    assert "unitary" in capsys.readouterr().err


def test_drive_report(tmp_path, capsys):
    out = tmp_path / "dr"
    code = cli.main(
        ["drive", "--n", "1", "--steps", "200", "--t1", "2.0",
         "--center", "1.0", "--width", "0.3", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pulse"]["name"] == "gaussian"
    assert rep["fidelity_analytic_vs_numeric"] > 1.0 - 1e-6
    assert rep["fidelity_label_vs_numeric"] > 1.0 - 1e-6
    pred = complex(rep["alpha_pred"]["re"], rep["alpha_pred"]["im"])
    z1 = complex(rep["zeta"]["re"], rep["zeta"]["im"])
    assert abs(pred - z1) < 1e-12
    manifest = _read_json(out / "manifest.json")
    assert manifest["tolerances"]["fidelity"] == 1e-6


def test_drive_dim_guard_counts_the_level(tmp_path, capsys):
    # the default pulse gives |zeta| = 0.626: level 0 holds from dim 18 and
    # level 3 from dim 22, so 21 exits 3 for level 3; without --dim, level 3
    # starts at start_dim(reach, 3) = 27
    base = ["drive", "--n", "3", "--steps", "50", "--out", str(tmp_path / "o")]
    assert cli.main([*base, "--dim", "21"]) == 3
    assert "column n=3 hold 2.692e-13 at dim=21, over TOP_MASS" in capsys.readouterr().err
    assert cli.main([*base, "--dim", "22"]) == 0
    assert _read_json(tmp_path / "o" / "manifest.json")["truncation_dimension"] == 22
    assert cli.main(["drive", "--n", "0", "--steps", "50", "--dim", "18",
                     "--out", str(tmp_path / "o")]) == 0
    assert cli.main(base) == 0
    assert _read_json(tmp_path / "o" / "manifest.json")["truncation_dimension"] == 27


def test_there_and_back_drive_is_sized_by_its_reach(tmp_path, capsys):
    # one sine period: zeta(t1) ~ 1e-15, but |zeta| peaks at 6.6 mid-pulse, so
    # the numeric oracle needs the dim of the reach (107), not of zeta(t1)
    out = tmp_path / "d"
    argv = ["drive", "--pulse", "sine-burst", "--freq", "2", "--t1", "6.283185307179586",
            "--amplitude", "6", "--n", "2", "--steps", "300", "--out", str(out)]
    assert cli.main(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(complex(rep["zeta"]["re"], rep["zeta"]["im"])) <= 1e-14
    assert rep["fidelity_analytic_vs_numeric"] >= 1.0 - 1e-6
    assert rep["fidelity_label_vs_numeric"] >= 1.0 - 1e-6
    assert _read_json(out / "manifest.json")["truncation_dimension"] == 107


def test_drive_table_pulse(tmp_path, capsys):
    table = tmp_path / "force.csv"
    ts = np.linspace(0.0, 2.0, 21)
    fs = 0.4 * np.sin(1.5 * ts)
    table.write_text(
        "t,f\n" + "".join(f"{t},{f}\n" for t, f in zip(ts, fs)), encoding="utf-8"
    )
    out = tmp_path / "dt"
    code = cli.main(
        ["drive", "--table", str(table), "--steps", "150", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pulse"]["name"] == "table"
    assert rep["pulse"]["samples"] == 21
    assert rep["fidelity_analytic_vs_numeric"] > 1.0 - 1e-6


@pytest.mark.parametrize("extra", [[], ["--dim", "40"]])
def test_drive_table_rejects_non_finite_force(tmp_path, capsys, extra):
    table = tmp_path / "force.csv"
    table.write_text("t,f\n0,0\n1,0.5\n2,nan\n3,0.1\n4,0\n", encoding="utf-8")
    code = cli.main(
        ["drive", "--table", str(table), "--steps", "50", "--out", str(tmp_path / "o"), *extra]
    )
    assert code == 1
    assert "sample 2 is not finite" in capsys.readouterr().err


def test_drive_computes_zeta_and_beta_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = drive.response

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(drive, "response", counted)
    code = cli.main(
        ["drive", "--n", "1", "--steps", "100", "--t1", "2.0",
         "--center", "1.0", "--width", "0.3", "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert len(calls) == 1
    rep = json.loads(capsys.readouterr().out)
    pulse = drive.gaussian_pulse(0.8, 1.0, 0.3, 0.0, 2.0)
    got = real(pulse, 1.0, 2.0)
    assert rep["beta"] == got.beta
    margins = _read_json(tmp_path / "o" / "manifest.json")["margins"]
    assert margins == {"zeta_beta_tail": got.tail}
    assert 0.0 <= got.tail <= drive.RESPONSE_TOL


@pytest.mark.parametrize("omega", ["0", "-1", "nan", "inf"])
def test_drive_rejects_bad_omega(tmp_path, capsys, omega):
    code = cli.main(["drive", "--steps", "20", f"--omega={omega}", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "omega must be finite and positive" in capsys.readouterr().err


def test_drive_rejects_label_flags(tmp_path, capsys):
    # drive's label comes from its pulse, so an amplitude flag is a usage error
    for flag in ("--alpha", "--alpha-mag", "--alpha-phase"):
        assert cli.main(["drive", "--steps", "20", flag, "5", "--out", str(tmp_path / "o")]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_photon_dist_non_finite_amplitudes_exit_one(tmp_path, capsys):
    code = cli.main(["photon-dist", "--n", "300", "--alpha", "30", "--kmax", "2497",
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "k=2357 is not finite" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["verify", "nope"]) == 1
    assert cli.main(["density", "--grid", "oops"]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "density" in capsys.readouterr().out


# every emitting command, on small grids
SMALL_RUNS = {
    "density": ["--grid", "-4:4:8", "--t", "0:1:3"],
    "wavefunction": ["--n", "1", "--alpha", "1,0.5", "--grid", "-4:4:8", "--t", "0:1:2"],
    "field-density": ["--n", "2", "--alpha", "1,0.5", "--grid", "-1:1:3"],
    "photon-dist": ["--n", "1", "--alpha", "2", "--kmax", "30"],
    "expect": ["--n", "2", "--alpha", "1.5"],
    "beamsplit": ["--n", "1", "--alpha", "0.8"],
    "drive": ["--n", "1", "--steps", "100", "--t1", "2.0", "--center", "1.0", "--width", "0.3"],
}


def test_outputs_are_deterministic(tmp_path, capsys):
    for command, argv in SMALL_RUNS.items():
        a, b = tmp_path / command / "a", tmp_path / command / "b"
        printed = []
        for out in (a, b):
            assert cli.main([command, *argv, "--out", str(out)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1], command
        if command in ("expect", "beamsplit", "drive"):
            # stdout is the report, byte for byte as <command>.json holds it
            assert printed[0].encode() == (a / f"{command}.json").read_bytes(), command
        names = sorted(p.name for p in a.iterdir())
        assert "manifest.json" in names
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"{command}/{name}"


def _reference_write_csv(path, header, rows):
    # the row writer the CLI used before columnar emission, kept as the oracle
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)
                 for v in row]
            )


def test_write_table_matches_csv_writer(tmp_path):
    special = np.array([-0.0, 5e-324, 1e308, 1e-300, -1.5, 1.0 / 3.0, math.pi * 1e17, 1e16])
    ints = np.arange(-3, special.size - 3)
    reversed_cells = cli._cells(special[::-1])  # a column formatted once, as shared
    header = ["a [x]", "b [y]", "c [z]"]
    blocks = [
        (np.float64(0.25), special, ints),
        (7, reversed_cells, -special),
        (np.int64(-3), np.array([1e-300]), 2.5),  # a one-row block
        (-0.0, 5e-324, 1e308),  # scalars only: one row
    ]
    rows = (
        [(np.float64(0.25), v, i) for v, i in zip(special, ints)]
        + [(7, v, w) for v, w in zip(special[::-1], -special)]
        + [(np.int64(-3), 1e-300, 2.5), (-0.0, 5e-324, 1e308)]
    )
    for name, blk, ref in (("table", blocks, rows), ("empty", [], [])):
        cli._write_table(tmp_path / f"{name}.csv", header, blk)
        _reference_write_csv(tmp_path / f"{name}-ref.csv", header, ref)
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}-ref.csv").read_bytes()
    assert got == b"a [x],b [y],c [z]\r\n"


@pytest.mark.parametrize("command", ["density", "field-density"])
def test_grid_needs_two_points(tmp_path, capsys, command):
    assert cli.main([command, "--grid=-3:3:0", "--out", str(tmp_path / "o")]) == 1
    assert "points must be an integer >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["photon-dist", "--alpha", "nan", "--kmax", "20"],
    ["wavefunction", "--alpha", "inf", "--grid", "-3:3:8", "--t", "0:1:1"],
    ["beamsplit", "--alpha", "inf"],
    ["density", "--alpha", "nan", "--t", "0:1:1"],
], ids=["photon-dist", "wavefunction", "beamsplit", "density"])
def test_non_finite_label_exits_one(tmp_path, capsys, argv):
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [c.name for c in cli.COMMANDS if c.alpha is not None])
def test_alpha_whose_square_overflows_exits_one(tmp_path, capsys, command):
    # |alpha|^2 = 1e400 used to escape as OverflowError (expect, photon-dist,
    # beamsplit) or to write zero-filled tables (the grid commands)
    assert cli.main([command, "--alpha", "1e200", "--out", str(tmp_path / "o")]) == 1
    assert "error: alpha, |alpha|^2 and omega must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [c.name for c in cli.COMMANDS if c.emits])
def test_no_command_takes_tol(tmp_path, capsys, command):
    # every column the oracle accepts holds <= TOP_MASS in its top levels,
    # so a tail tolerance could only fail a run
    argv = [command, *SMALL_RUNS[command], "--tol", "0.5", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_tol_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-6\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["expect", "--alpha", "2", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown config key 'tol'" in capsys.readouterr().err


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sizing\ndim = 64\nout = " + str(tmp_path / "cfg-out") + "\n",
        encoding="utf-8",
    )
    assert cli.main(["expect", "--alpha", "2", "--config", str(cfg)]) == 0
    capsys.readouterr()
    manifest = _read_json(tmp_path / "cfg-out" / "manifest.json")
    assert manifest["truncation_dimension"] == 64


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("spin = up\n", encoding="utf-8")
    assert cli.main(["expect", "--alpha", "2", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_out_env_variable(tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("GCS_OUT", str(target))
    assert cli.main(["photon-dist", "--kmax", "30", "--alpha", "1"]) == 0
    assert (target / "photon_dist.csv").exists()


def test_default_out_tree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GCS_OUT", raising=False)
    assert cli.main(["photon-dist", "--kmax", "30", "--alpha", "1"]) == 0
    assert (tmp_path / "gcs-out" / "photon-dist" / "photon_dist.csv").exists()


def test_verify_subcommand(capsys):
    assert cli.main(["verify", "specfun"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_flags_broken_library(monkeypatch, capsys):
    monkeypatch.setattr(
        states, "g2", lambda n, alpha: 1.0 + n / (n + abs(complex(alpha)) ** 2) ** 2
    )
    assert cli.main(["verify", "gcs"]) == 2
    assert "FAIL" in capsys.readouterr().out
