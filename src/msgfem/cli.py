"""Experiment driver: property suite, local spectra, error sweeps, artifacts.

Exit codes: 0 on success, 1 when an enabled check fails or a solve breaks
down, 2 on configuration errors.  All artifact files are plain text with
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
from .errors import ConfigError, SolverError
from .gfem import GlobalForms, error_report, solve_msgfem
from .local_problems import compute_local_data, select_coarse
from .mesh import Coefficient, TriMesh, build_structured_mesh, coefficient_field
from .space_ops import PartitionOfUnity, build_pou, h0_dofs
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
    """Everything one run builds before its first solve, built once."""

    config: RunConfig
    mesh: TriMesh
    coefficient: Coefficient
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
        asm = DGAssembler(mesh, coef, config.gamma0)
    except ValueError as exc:   # a ConfigError too: every message is kept as it is
        raise ConfigError(str(exc)) from exc
    return Problem(config=config, mesh=mesh, coefficient=coef, decomp=decomp, pou=pou,
                   forms=GlobalForms(asm, f))


def _check_mode_counts(problem: Problem) -> None:
    """Reject a fixed coarse count above a subdomain's mode count before any output.

    A subdomain has one mode per layer dof of its oversampling domain, which
    the geometry alone gives, so the error :func:`select_coarse` raises once
    the spectra are computed is raised here, for the same subdomain and rule.
    """
    fixed = [rule for rule in problem.config.sweep_values() if rule[0] == "fixed"]
    if not fixed:
        return
    for j in range(problem.decomp.n_subdomains):
        omega_star = problem.decomp.omega_star(j)
        n_modes = 3 * omega_star.size - h0_dofs(problem.mesh, omega_star).size
        for rule in fixed:
            select_coarse(np.empty(n_modes), rule, j)


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


def run(config: RunConfig, out_dir) -> int:
    """Execute one configuration; writes artifacts and returns the exit code.

    The problem is built, and the fixed mode counts checked against every
    subdomain unless only the property suite runs, before anything is
    written, so a configuration error leaves no output behind.
    """
    problem = build_problem(config)
    if config.checks != "only":
        _check_mode_counts(problem)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory: {exc}") from exc
    (out / "config.txt").write_text(serialize_config(config))

    stage = "property suite"
    try:
        if config.checks != "off":
            report = run_property_suite(problem)
            (out / "checks.json").write_text(
                json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
            sys.stdout.write(report.to_text())
            if not report.ok:
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
    config, mesh, decomp, pou = problem.config, problem.mesh, problem.decomp, problem.pou
    forms = problem.forms
    rules = config.sweep_values()
    locals_ = compute_local_data(mesh, forms, decomp, pou, rules, threads=config.threads)
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

    sweep = np.array(rows, dtype=float)
    slope, _, r2 = decay_fit(sweep[:, _ERROR_COLUMNS.index("n_j")],
                             sweep[:, _ERROR_COLUMNS.index("relBplusErr")])
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
