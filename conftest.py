"""Test-session set-up shared by ``tests`` and ``perfbench/tests``.

BLAS is pinned to one thread, unless the environment already sets it, before
numpy loads: at contrast 1e8 the local modes move by about 1e-4 between one
and two BLAS threads, so an unpinned run would test a different computation
from the benchmark's.  The warning filters are declared here rather than in
``pyproject.toml`` because pytest imports a filter's category, and with it
scipy and numpy, before it loads any conftest.  Neither pytest nor the
hypothesis plugin imports numpy before this file runs.
"""
import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def pytest_configure(config):
    # a sparse Gram path that densifies or assigns into CSR should fail, not warn;
    # an ill-conditioned dense solve should fail unless a test expects it;
    # an overflow, a division by zero or an invalid operation in numpy should fail
    for line in ("error::scipy.sparse.SparseEfficiencyWarning",
                 "error::scipy.linalg.LinAlgWarning",
                 "error::RuntimeWarning"):
        config.addinivalue_line("filterwarnings", line)
