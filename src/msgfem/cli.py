"""Experiment driver: property suite, local spectra, error sweeps, artifacts.

Exit codes: 0 on success, 1 when an enabled check fails or a solve breaks
down, 2 on configuration errors.  Artifacts are shortest-round-trip plain
text, and BLAS runs on one thread unless the environment sets its thread
count or numpy was imported before this module, so identical configs
reproduce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# before numpy loads or not at all, as set after it they would pin scipy's BLAS
# alone; the ``threads`` key is then the run's only parallelism
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from .config import RunConfig, parse_config, serialize_config
from .decomposition import Decomposition, build_decomposition
from .dg_forms import DGAssembler, GlobalForms
from .errors import ConfigError, SolverError
from .gfem import error_report, solve_msgfem
from .local_problems import check_fixed_counts, compute_local_data
from .mesh import build_structured_mesh, coefficient_field
from .space_ops import build_pou
from .verification import decay_fit, fine_solve, run_property_suite

__all__ = ["Problem", "build_problem", "run", "main", "source_function"]


def source_function(spec: str):
    """Source terms: ``constant:c``, with ``c`` zero or ``|c|`` in [1e-150, 1e150]."""
    parts = spec.strip().split(":")
    if parts[0] == "constant":
        if len(parts) != 2:
            raise ConfigError("source constant:c needs one value")
        c = float(parts[1])
        if not np.isfinite(c):
            raise ConfigError(f"source value must be finite, got {parts[1]}")
        # outside it the load vector and the error norms overflow or underflow
        if c != 0 and not 1e-150 <= abs(c) <= 1e150:
            raise ConfigError(f"source {spec} is outside [1e-150, 1e150] in magnitude")
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), c)
    raise ConfigError(f"unknown source spec {spec!r}")


@dataclass(frozen=True)
class Problem:
    """What a run builds before its first solve; mesh, coefficient and source are in ``forms``."""

    config: RunConfig
    decomp: Decomposition
    pou: list             # per subdomain: its weight at every dof of omega_j
    forms: GlobalForms


def build_problem(config: RunConfig) -> Problem:
    """Mesh, coefficient, source, decomposition, partition of unity and forms.

    A spec these cannot be built from is a configuration error.
    """
    try:
        mesh = build_structured_mesh(config.mesh_n)
        coef = coefficient_field(mesh, config.coefficient, seed=config.seed)
        f = source_function(config.source)
        decomp = build_decomposition(mesh, config.grid_m, config.overlap_layers,
                                     config.oversampling_layers)
        pou = build_pou(mesh, decomp)
        asm = DGAssembler(mesh, coef, config.gamma0)
    except ValueError as exc:   # a ConfigError too: every message is kept as it is
        raise ConfigError(str(exc)) from exc
    return Problem(config=config, decomp=decomp, pou=pou, forms=GlobalForms(asm, f))


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


_EIGENVALUE_COLUMNS = ("j", "k", "lambda", "is_infinite")
_ERROR_COLUMNS = ("m", "l", "lstar", "n_j", "gamma0", "contrast", "n_total",
                  "relBplusErr", "relL2Err", "maxSqrtLambdaNext",
                  "fitSlope", "fitR2")


def run(config: RunConfig, out_dir) -> int:
    """Execute one configuration; writes artifacts and returns the exit code.

    The problem is built, and its fixed mode counts checked unless only the
    property suite runs, before anything is written, so a configuration
    error leaves no output behind.  Then the artifacts an earlier run left
    in ``out_dir`` are removed, so the directory never mixes the files of
    two runs.
    """
    problem = build_problem(config)
    if config.checks != "only":
        check_fixed_counts(problem.forms.asm.mesh, problem.decomp, config.sweep_values())
    out = Path(out_dir)
    paths = [out / n for n in ("config.txt", "checks.json", "eigenvalues.csv", "errors.csv")]
    try:
        out.mkdir(parents=True, exist_ok=True)
        # every name is checked before any file goes, so a failed clear removes nothing
        for path in paths:
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path in paths:
            path.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create or clear the output directory: {exc}") from exc
    (out / "config.txt").write_text(serialize_config(config))

    stage = "property suite"
    try:
        if config.checks != "off":
            report = run_property_suite(problem)
            (out / "checks.json").write_text(
                json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
            sys.stdout.write(report.to_text())
            if not report.ok:
                failed = next(c for c in report.checks if c.status == "fail")
                sys.stderr.write(f"property suite failure: {failed.name} {failed.witness}\n")
                return 1
        if config.checks == "only":
            return 0
        stage = "pipeline"
        return _pipeline(problem, out)
    except SolverError as exc:
        # artifacts produced so far stay on disk
        sys.stderr.write(f"{stage} failure: {exc}\n")
        return 1


def _pipeline(problem: Problem, out: Path) -> int:
    t0 = time.time()
    config, forms = problem.config, problem.forms
    locals_ = compute_local_data(forms.asm.mesh, forms, problem.decomp, problem.pou,
                                 config.sweep_values(), threads=config.threads)
    # every mode of every subdomain, kernel modes as inf
    _write_csv(out / "eigenvalues.csv", _EIGENVALUE_COLUMNS,
               ([j, k, lam, int(np.isinf(lam))] for j, data in enumerate(locals_)
                for k, lam in enumerate(data.eigenvalues.tolist())))
    u_fine = fine_solve(forms)

    rows = []
    for sol in solve_msgfem(forms, locals_):
        # a point is labelled by its largest per-subdomain count, a fixed rule's n
        rows.append([config.grid_m, config.overlap_layers, config.oversampling_layers,
                     int(sol.n_j.max(initial=0)), config.gamma0,
                     forms.asm.coefficient.contrast, sol.n_total,
                     *error_report(forms, sol.u_G, u_fine), sol.max_sqrt_lambda_next])

    sweep = np.array(rows, dtype=float)
    slope, _, r2 = decay_fit(sweep[:, _ERROR_COLUMNS.index("n_j")],
                             sweep[:, _ERROR_COLUMNS.index("relBplusErr")])
    _write_csv(out / "errors.csv", _ERROR_COLUMNS, (row + [slope, r2] for row in rows))
    sys.stdout.write(
        f"pipeline: {len(rows)} sweep row(s), coarse fit slope {slope!r}, "
        f"r2 {r2!r}, elapsed {time.time() - t0:.1f}s\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msgfem",
        description="Multiscale spectral GFEM experiments on DG discretizations")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value config file (defaults when omitted)")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: out)")
    args = parser.parse_args(argv)

    try:
        # utf-8-sig strips the byte-order mark some editors write at the start
        config = parse_config(args.config.read_text(encoding="utf-8-sig") if args.config else "")
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    try:
        return run(config, args.out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
