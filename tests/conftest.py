"""Test-session set-up: BLAS runs one thread, as in CI and the benchmark.

It is fixed here, before numpy loads.  A multi-threaded BLAS splits a
product's columns among its threads and rounds each split's last few by
another kernel, so one column can round differently in products of
different shapes.  The tests that hold a blocked computation to the whole
one bit for bit hold at one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
