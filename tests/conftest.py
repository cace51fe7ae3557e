"""Test-session setup shared by every test module.

One BLAS/OpenMP thread, fixed before NumPy loads (pytest imports this file
before any test module): with the default thread count on a few shared cores
the dense-algebra calls stall at random while another process is busy, and
one small CLI test then takes seconds instead of a tenth of one.  The
benchmark's gcsbench/run.py pins the same three variables.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
