"""Show that the output checks catch wrong output.

    python3 gcsbench/bite.py

Runs one real operation per case, confirms that its output passes, then
corrupts it the way a plausible fault would and confirms that the check
fails: a density frame shifted by one grid step, P_k scaled by 1 + 1e-6,
and a drive fidelity set to 0.99.  Exits 0 when every case behaves so.
"""

import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def first_op(name, out):
    wl = workloads.WORKLOADS[name]
    op = wl.round(np.random.default_rng(0), 0)[0]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    return op, wl.run(op, out)


def density_case(out):
    op, _ = first_op("figures", out)
    p = workloads.Figures.points
    d = workloads.read_csv(os.path.join(out, "density", "density.csv"))
    frames = d[:, 2].reshape(-1, p)
    args = (d[:p, 1], d[::p, 0])
    label = (op["n"], op["alpha"], op["omega"])
    return (checks.density_frames(*args, frames, *label),
            checks.density_frames(*args, np.roll(frames, 1, axis=1), *label))


def image_case(out):
    op, (frames, field) = first_op("images", out)
    wl = workloads.WORKLOADS["images"]
    return (wl.check(op, out, (frames, field)),
            wl.check(op, out, (np.roll(frames, 1, axis=1), field)))


def photon_case(out):
    op, _ = first_op("stats", out)
    probs = workloads.read_csv(os.path.join(out, "pd", "photon_dist.csv"))[:, 1]
    return (checks.photon_probs(probs, op["n"], op["alpha"]),
            checks.photon_probs(probs * (1.0 + 1e-6), op["n"], op["alpha"]))


def fidelity_case(out):
    op, _ = first_op("drive", out)
    wl = workloads.WORKLOADS["drive"]
    good = wl.check(op, out, None)
    path = os.path.join(out, "drive.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["fidelity_analytic_vs_numeric"] = 0.99
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return good, wl.check(op, out, None)


CASES = {
    "density shifted by one grid step (figures)": density_case,
    "density shifted by one grid step (images)": image_case,
    "P_k scaled by 1 + 1e-6 (stats)": photon_case,
    "fidelity set to 0.99 (drive)": fidelity_case,
}


def main():
    out = os.path.join(ROOT, ".gcsbench-out", f"bite-{os.getpid()}")
    ok = True
    try:
        for name, case in CASES.items():
            good, bad = case(out)
            caught = not good and bool(bad)
            ok &= caught
            verdict = "caught" if caught else "NOT CAUGHT"
            print(f"{verdict:<10} {name}: clean output {good or 'passes'}; corrupted: {bad[:1]}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
