"""Time dense-algebra calls with the default BLAS threads and with one.

    python3 gcsbench/blas_threads.py

Each setting runs in a fresh interpreter, since the thread count is read
when NumPy loads.  Prints p50 and p90 of 40 calls of
fock.displacement_matrix(3.0, 120), and the median of 5 in-process
`gcs expect --n 8 --alpha 4` runs.  README.md ("BLAS threads") records the
figures this machine gave.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = r"""
import contextlib, io, statistics, sys, tempfile, time
import numpy as np
from gcslib import cli, fock

fock.displacement_matrix(3.0, 120)
lat = []
for _ in range(40):
    t = time.perf_counter()
    fock.displacement_matrix(3.0, 120)
    lat.append(1e3 * (time.perf_counter() - t))
runs = []
with tempfile.TemporaryDirectory(dir=sys.argv[1]) as out:
    for _ in range(5):
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["expect", "--n", "8", "--alpha", "4", "--out", out])
        runs.append(1e3 * (time.perf_counter() - t))
print(f"displacement_matrix(3.0, 120): p50 {np.percentile(lat, 50):.1f} ms, "
      f"p90 {np.percentile(lat, 90):.1f} ms; gcs expect: median "
      f"{statistics.median(runs):.1f} ms (range {min(runs):.1f}-{max(runs):.1f} ms)")
"""


def main():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in names}
    base["PYTHONPATH"] = os.path.join(ROOT, "src")
    for label, extra in (("default threads", {}), ("one thread", dict.fromkeys(names, "1"))):
        result = subprocess.run([sys.executable, "-c", PROBE, ROOT], env={**base, **extra},
                                capture_output=True, text=True, check=True)
        print(f"{label:<16} {result.stdout.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
