"""The names ``perfbench/tracer.py`` wraps and reads still feed its metrics.

The tracer wraps entry points by name and reads fields of their parameters
and results; a renamed function or field reads 0 there without any error.
One small traced sweep must give every metric below from the run's own
calls, and the entry points the code no longer defines are exactly the
known ones.  ``perfbench/tracer.py`` is only read, and ``msgfem.cli`` is imported
first, as the tracer lists the loaded msgfem modules before it wraps them.
"""
import csv
import importlib
import importlib.util
import sys
from pathlib import Path

import msgfem.cli  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_traced_sweep_feeds_every_layer_metric(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh_n = 16\ngrid_m = 2\noversampling_layers = 2\n"
                   "coarse_n_sweep = 1,2,3\nchecks = on\n")
    out = tmp_path / "out"
    code, run_s, trace = tracer.run_traced(["--config", str(cfg), "--out", str(out)])
    assert code == 0
    metrics = tracer.layer_metrics(trace, run_s, out)

    with open(out / "errors.csv") as fh:
        kept_total = max(int(row["n_total"]) for row in csv.DictReader(fh))
    # four subdomains keep the three modes of the largest sweep point
    assert kept_total == 12
    assert metrics["gfem.coarse_cols"] == kept_total
    assert metrics["gfem.dropped_cols"] == 0
    # local_problems.harmonic_busy_s is left out: the tracer wraps a function
    # the local stage no longer has, so it reads 0
    for name in ("gfem.assemble_busy_s", "gfem.solve_busy_s", "gfem.error_busy_s",
                 "local_problems.particular_busy_s", "local_problems.eigen_busy_s",
                 "local_problems.layer_dofs_sum", "dg_forms.matrix_calls",
                 "verification.suite_checks"):
        assert metrics[name] > 0, name


def test_only_the_known_entry_points_are_missing():
    # the tracer skips an entry point the code no longer defines, so a renamed
    # or removed one would silently lose its spans
    missing = set()
    for layer, names in tracer.ENTRY_POINTS.items():
        module = importlib.import_module(f"msgfem.{layer}")
        for entry in names:
            owner_name, _, attr = entry.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if attr not in vars(owner):
                missing.add(f"{layer}.{entry}")
    assert missing == {"decomposition.d_plus", "space_ops.interpolate_product",
                       "space_ops.pou_blend", "local_problems.harmonic_basis",
                       "local_problems.export_eigenvalues",
                       "verification.caccioppoli_ratios"}
