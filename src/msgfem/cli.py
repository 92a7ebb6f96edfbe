"""Experiment driver: property suite, local spectra, error sweeps, artifacts.

Exit codes: 0 on success, 1 when an enabled check or sweep assertion fails,
2 on configuration errors.  All artifact files are plain text with
shortest-round-trip float formatting, so identical configs reproduce
byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config, serialize_config
from .decomposition import Decomposition, build_decomposition
from .dg_forms import DGAssembler
from .errors import CoercivityError, ConfigError, SolverError
from .gfem import GlobalForms, error_report, solve_msgfem
from .local_problems import compute_local_data
from .mesh import Coefficient, TriMesh, build_structured_mesh, coefficient_field
from .space_ops import PartitionOfUnity, build_pou
from .verification import decay_fit, fine_solve, run_property_suite

__all__ = ["Problem", "build_problem", "run", "main", "source_function"]


def source_function(spec: str):
    """Source terms: ``constant:c`` or ``sine`` (the separable sine load)."""
    parts = spec.strip().split(":")
    if parts[0] == "constant":
        if len(parts) != 2:
            raise ConfigError("source constant:c needs one value")
        c = float(parts[1])
        if not np.isfinite(c):
            raise ConfigError(f"source value must be finite, got {parts[1]}")
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), c)
    if parts[0] == "sine" and len(parts) == 1:
        return lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    raise ConfigError(f"unknown source spec {spec!r}")


@dataclass(frozen=True)
class Problem:
    """Everything one run builds before its first solve, built once."""

    config: RunConfig
    mesh: TriMesh
    coefficient: Coefficient
    f: object
    decomp: Decomposition
    pou: PartitionOfUnity
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
    except ValueError as exc:   # a ConfigError too: every message is kept as it is
        raise ConfigError(str(exc)) from exc
    return Problem(config=config, mesh=mesh, coefficient=coef, f=f, decomp=decomp,
                   pou=pou, forms=GlobalForms(DGAssembler(mesh, coef, config.gamma0), f))


def _fmt(x) -> str:
    # float() first: numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


_EIGENVALUE_COLUMNS = ("j", "k", "lambda", "is_infinite")
_ERROR_COLUMNS = ("m", "l", "lstar", "n_j", "gamma0", "contrast", "n_total",
                  "relBplusErr", "relL2Err", "maxSqrtLambdaNext",
                  "fitSlope", "fitR2")


def run(config: RunConfig, out_dir=None, checks_only: bool = False) -> int:
    """Execute one configuration; writes artifacts and returns the exit code."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(serialize_config(config))
    problem = build_problem(config)

    if config.checks or checks_only:
        report = run_property_suite(problem)
        (out / "checks.json").write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
        sys.stdout.write(report.to_text())
        if not report.ok:
            return 1
    if checks_only:
        return 0

    t0 = time.time()
    try:
        return _pipeline(problem, out, t0)
    except (SolverError, CoercivityError) as exc:
        # artifacts produced so far stay on disk
        sys.stderr.write(f"pipeline failure: {exc}\n")
        return 1


def _pipeline(problem: Problem, out: Path, t0: float) -> int:
    config, mesh, decomp, pou = problem.config, problem.mesh, problem.decomp, problem.pou
    forms = problem.forms
    rules = config.sweep_values()
    locals_ = compute_local_data(mesh, forms.asm, problem.f, decomp, pou, rules,
                                 threads=config.threads)
    # every mode of every subdomain, kernel modes as inf
    _write_csv(out / "eigenvalues.csv", _EIGENVALUE_COLUMNS,
               ([data.j, k, lam, int(np.isinf(lam))]
                for data in locals_ for k, lam in enumerate(data.eigenvalues)))
    u_fine = fine_solve(forms)

    rows = []
    for sol in solve_msgfem(mesh, decomp, pou, locals_, forms, rules):
        rep = error_report(forms, sol.u_G, u_fine)
        # a point is labelled by its largest per-subdomain count, a fixed rule's n
        rows.append([config.grid_m, config.overlap_layers, config.oversampling_layers,
                     int(sol.coarse.n_j.max(initial=0)), config.gamma0,
                     problem.coefficient.contrast, sol.coarse.n_total, rep.rel_bplus_error,
                     rep.rel_l2_error, sol.max_sqrt_lambda_next])

    # the fit uses the sweep points with a positive finite error, if five or more
    sweep = np.array(rows, dtype=float)
    ns = sweep[:, _ERROR_COLUMNS.index("n_j")]
    rel_errors = sweep[:, _ERROR_COLUMNS.index("relBplusErr")]
    good = np.isfinite(rel_errors) & (rel_errors > 0)
    slope = r2 = float("nan")
    if good.sum() >= 5:
        slope, _, r2 = decay_fit(ns[good], rel_errors[good], 0.5)
    _write_csv(out / "errors.csv", _ERROR_COLUMNS, (row + [slope, r2] for row in rows))
    sys.stdout.write(
        f"pipeline: {len(rows)} sweep row(s), coarse fit slope {_fmt(slope)}, "
        f"r2 {_fmt(r2)}, elapsed {time.time() - t0:.1f}s\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msgfem",
        description="Multiscale spectral GFEM experiments on DG discretizations")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value config file (defaults when omitted)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (overrides the config)")
    parser.add_argument("--checks-only", action="store_true",
                        help="run only the property suite")
    parser.add_argument("--seed", default=None,
                        help="override the config seed")
    parser.add_argument("--threads", default=None,
                        help="override the config worker-thread count")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text() if args.config else ""
        # an override is value text, parsed and validated like the key itself
        config = parse_config(text, **{key: getattr(args, key) for key in ("seed", "threads")
                                       if getattr(args, key) is not None})
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    try:
        return run(config, out_dir=args.out, checks_only=args.checks_only)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
