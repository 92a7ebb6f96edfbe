"""Property tests on small drawn configurations.

Each example is one run of ``msgfem.cli.main``, or one pair of local stages,
on a mesh of at most 16 cells a side, so a derandomized sweep of them takes
seconds.
"""
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgfem.cli import build_problem, main
from msgfem.config import RunConfig
from msgfem.local_problems import compute_local_data

COEFFICIENTS = ["constant:1", "checkerboard:100:2", "log_uniform:1e-2:1e2", "channels:1e4:2"]

configs = st.fixed_dictionaries({
    "mesh_n": st.sampled_from([8, 12, 16]),
    "oversampling_layers": st.integers(1, 2),
    # down to five decades below the coercive range of the default 10
    "gamma0_sq": st.floats(-5.0, 2.0).map(lambda e: 10.0 ** e),
    "coefficient": st.sampled_from(COEFFICIENTS),
    "seed": st.integers(0, 3),
})

# the channels need a mesh size divisible by four
nested_pairs = st.fixed_dictionaries({
    "mesh_n": st.sampled_from([12, 16]),
    "overlap_layers": st.integers(2, 3),
    "oversampling_layers": st.integers(1, 3),
    "coefficient": st.sampled_from(COEFFICIENTS),
    "seed": st.integers(0, 3),
})


def _run(keys: dict, out: Path, threads: int = 1) -> int:
    cfg = out.with_suffix(".cfg")
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**keys, "threads": threads}.items())
                   + "grid_m = 2\ncoarse_n_sweep = 1,2,3\nchecks = off\n")
    return main(["--config", str(cfg), "--out", str(out)])


# near the coercivity limit an ill-conditioned dense solve is an expected
# outcome of a run, not a test failure
expected_warnings = pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")


@expected_warnings
@settings(derandomize=True, deadline=None, max_examples=20)
@given(configs)
def test_small_runs_exit_cleanly_with_finite_errors(keys):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = _run(keys, out)
        assert code in (0, 1, 2)
        if code == 0:
            with open(out / "errors.csv") as fh:
                header = fh.readline().strip().split(",")
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
            assert len(rows) == 3
            for column in ("relBplusErr", "relL2Err"):
                assert np.all(np.isfinite(rows[:, header.index(column)])), column


@expected_warnings
@settings(derandomize=True, deadline=None, max_examples=8)
@given(configs)
def test_thread_count_changes_no_artifact(keys):
    with tempfile.TemporaryDirectory() as tmp:
        one, two = Path(tmp) / "one", Path(tmp) / "two"
        assert _run(keys, one, threads=1) == _run(keys, two, threads=2)
        for name in ("eigenvalues.csv", "errors.csv"):
            assert (one / name).exists() == (two / name).exists(), name
            if (one / name).exists():
                assert (one / name).read_bytes() == (two / name).read_bytes(), name


def _local_spectra(keys: dict, oversampling: int):
    problem = build_problem(RunConfig(**{**keys, "grid_m": 2,
                                         "oversampling_layers": oversampling}))
    data = compute_local_data(problem.mesh, problem.forms, problem.decomp, problem.pou,
                              [("fixed", 0)])
    return problem.decomp, [d.eigenvalues for d in data]


@settings(derandomize=True, deadline=None, max_examples=12)
@given(nested_pairs)
def test_local_spectrum_is_monotone_in_oversampling(keys):
    """One more oversampling layer around the same omega lowers every eigenvalue.

    An omega*'-harmonic function is omega*-harmonic on the smaller set, whose
    ``Bplus`` energy is no larger, and the left form reads omega alone; by
    Courant-Fischer lambda_k(omega*') <= lambda_k(omega*), kernel modes included.
    """
    l = keys["oversampling_layers"]
    decomp, spectra = _local_spectra(keys, l)
    wider, wider_spectra = _local_spectra(keys, l + 1)
    for j, (lam, lam_wide) in enumerate(zip(spectra, wider_spectra)):
        assert np.array_equal(decomp.omega(j), wider.omega(j))
        k = min(lam.size, lam_wide.size)
        scale = np.max(lam[np.isfinite(lam)], initial=0.0)
        assert np.all(lam_wide[:k] <= lam[:k] + 1e-8 * scale), j
