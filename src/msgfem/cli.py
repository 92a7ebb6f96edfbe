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
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config, serialize_config
from .decomposition import build_decomposition
from .dg_forms import DGAssembler
from .errors import CoercivityError, ConfigError, SolverError
from .gfem import GlobalForms, error_report, solve_msgfem
from .local_problems import compute_local_data, export_eigenvalues
from .mesh import build_structured_mesh, coefficient_field
from .space_ops import build_pou
from .verification import fine_solve, run_property_suite

__all__ = ["run", "main", "source_function"]


def source_function(spec: str):
    """Source terms: ``constant:c`` or ``sine`` (the separable sine load)."""
    parts = spec.strip().split(":")
    if parts[0] == "constant":
        if len(parts) != 2:
            raise ConfigError("source constant:c needs one value")
        c = float(parts[1])
        return lambda x, y: np.full_like(np.asarray(x, dtype=float), c)
    if parts[0] == "sine" and len(parts) == 1:
        return lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    raise ConfigError(f"unknown source spec {spec!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


_ERROR_COLUMNS = ("m", "l", "lstar", "n_j", "gamma0", "contrast", "n_total",
                  "relBplusErr", "relL2Err", "maxSqrtLambdaNext",
                  "fitSlope", "fitR2")


def _fit_log_vs_power(ns, values, exponent):
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    good = values > 0
    if good.sum() < 5:
        return float("nan"), float("nan")
    x = ns[good] ** exponent
    y = np.log(values[good])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coeffs
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float(resid @ resid)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coeffs[0]), float(r2)


def run(config: RunConfig, out_dir=None, checks_only: bool = False) -> int:
    """Execute one configuration; writes artifacts and returns the exit code."""
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(serialize_config(config))

    if config.checks or checks_only:
        report = run_property_suite(config)
        (out / "checks.json").write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
        sys.stdout.write(report.to_text())
        if not report.ok:
            return 1
    if checks_only:
        return 0

    t0 = time.time()
    try:
        return _pipeline(config, out, t0)
    except (SolverError, CoercivityError) as exc:
        # artifacts produced so far stay on disk
        sys.stderr.write(f"pipeline failure: {exc}\n")
        return 1


def _pipeline(config: RunConfig, out: Path, t0: float) -> int:
    mesh = build_structured_mesh(config.mesh_n)
    coef = coefficient_field(mesh, config.coefficient, seed=config.seed)
    f = source_function(config.source)
    decomp = build_decomposition(mesh, config.grid_m, config.overlap_layers,
                                 config.oversampling_layers)
    pou = build_pou(mesh, decomp)
    locals_ = compute_local_data(mesh, coef, f, decomp, pou, config.gamma0,
                                 threads=config.threads)
    (out / "eigenvalues.csv").write_text(export_eigenvalues(locals_))

    forms = GlobalForms(DGAssembler(mesh, coef, config.gamma0), f)
    u_fine = fine_solve(mesh, coef, f, config.gamma0, asm=forms.asm)

    rows = []
    rel_errors = []
    sweep_ns = []
    rules = config.sweep_values()
    for rule, sol in zip(rules, solve_msgfem(mesh, decomp, pou, locals_, forms, rules)):
        rep = error_report(forms, sol.u_G, u_fine, sol.max_sqrt_lambda_next)
        coarse = sol.coarse
        n_label = rule[1] if rule[0] == "fixed" else int(coarse.n_j.max(initial=0))
        rows.append([config.grid_m, config.overlap_layers,
                     config.oversampling_layers, n_label, config.gamma0,
                     coef.contrast, coarse.n_total, rep.rel_bplus_error,
                     rep.rel_l2_error, rep.max_sqrt_lambda_next])
        rel_errors.append(rep.rel_bplus_error)
        sweep_ns.append(n_label)

    slope, r2 = _fit_log_vs_power(sweep_ns, rel_errors, 0.5)
    lines = [",".join(_ERROR_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row + [slope, r2]))
    (out / "errors.csv").write_text("\n".join(lines) + "\n")
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
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="override the config worker-thread count")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text() if args.config else ""
        config = parse_config(text)
        if args.seed is not None:
            config.seed = args.seed
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError("threads must be >= 1")
            config.threads = args.threads
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
