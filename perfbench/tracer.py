"""Outside-in tracer for the msgfem pipeline.

The tracer wraps the public entry points of every msgfem module by replacing
the module attributes that callers look up (and the methods on the classes
they use), so the program itself is not changed.  Each wrapped call records a
span: name, parent span, thread, start and end time, and ``ru_maxrss`` before
and after.  Stacks are kept per thread; a span opened on a worker thread with
an empty stack hangs off the span that is open on the main thread, which is
the ``compute_local_data`` call that owns the pool.

Run as a script it executes one traced CLI invocation in this process and
writes the per-layer metrics as JSON:

    python3 perfbench/tracer.py --metrics metrics.json -- --config run.cfg --out out
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Public entry points per module.  "Class.method" wraps a method on the class.
ENTRY_POINTS = {
    "mesh": ["build_structured_mesh", "coefficient_field"],
    "decomposition": ["build_decomposition", "grow", "d_plus", "d_minus"],
    "dg_forms": ["DGAssembler.__init__", "DGAssembler.matrix", "DGAssembler.load"],
    "space_ops": ["build_pou", "pou_blend", "interpolate_product", "h0_dofs"],
    "local_problems": ["compute_local_data", "particular_solution", "harmonic_basis",
                       "eigenproblem", "export_eigenvalues"],
    "gfem": ["assemble_coarse", "solve_coarse", "error_report", "max_sqrt_lambda_next"],
    "verification": ["run_property_suite", "fine_solve", "caccioppoli_ratios"],
}
LAYERS = tuple(ENTRY_POINTS)

# The per-subdomain stages of the local layer; their spans carry the subdomain.
_SUBDOMAIN_STAGES = ("local_problems.particular_solution",
                     "local_problems.harmonic_basis", "local_problems.eigenproblem")

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "mesh.busy_s": ("s", "lower"),
    "decomposition.busy_s": ("s", "lower"),
    "space_ops.pou_busy_s": ("s", "lower"),
    "dg_forms.matrix_busy_s": ("s", "lower"),
    "dg_forms.matrix_calls": ("count", "lower"),
    "local_problems.particular_busy_s": ("s", "lower"),
    "local_problems.harmonic_busy_s": ("s", "lower"),
    "local_problems.eigen_busy_s": ("s", "lower"),
    "local_problems.wall_s": ("s", "lower"),
    "local_problems.subdomain_p50_s": ("s", "lower"),
    "local_problems.subdomain_max_s": ("s", "lower"),
    "local_problems.parallelism": ("ratio", "higher"),
    "local_problems.parallel_efficiency": ("ratio", "higher"),
    "local_problems.factorizations": ("count", "lower"),
    "local_problems.lu_solves": ("count", "lower"),
    "local_problems.layer_dofs_max": ("count", "lower"),
    "local_problems.layer_dofs_sum": ("count", "lower"),
    "local_problems.modes_computed": ("count", "lower"),
    "local_problems.modes_used": ("count", "lower"),
    "local_problems.mode_use_ratio": ("ratio", "higher"),
    "local_problems.retained_mb": ("MB", "lower"),
    "gfem.assemble_busy_s": ("s", "lower"),
    "gfem.solve_busy_s": ("s", "lower"),
    "gfem.error_busy_s": ("s", "lower"),
    "gfem.coarse_cols": ("count", "lower"),
    "gfem.dropped_cols": ("count", "lower"),
    "verification.suite_busy_s": ("s", "lower"),
    "verification.suite_checks": ("count", "higher"),
    "verification.fine_solve_busy_s": ("s", "lower"),
    **{f"{layer}.rss_growth_mb": ("MB", "lower")
       for layer in ("space_ops", "local_problems", "gfem", "verification")},
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "cli.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    rss0_kb: int
    end: float = 0.0
    rss1_kb: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store with per-thread stacks; created on the thread that runs the CLI."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {"local_problems.lu_solves": 0}
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def wrap(self, name: str, fn, annotate=None):
        """Return ``fn`` recording a span per call; ``annotate`` fills its attrs."""
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            span = Span(sid, name, parent, threading.get_ident(),
                        time.perf_counter(), _maxrss_kb())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                span.rss1_kb = _maxrss_kb()
                with self._lock:
                    self.spans.append(span)
            if annotate:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                annotate(span, bound.arguments, result)
            return result

        return traced


class _CountingLU:
    """Forwards to a SuperLU object and counts its ``solve`` calls."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("local_problems.lu_solves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _ModuleProxy:
    """Stands in for a module object; attributes not overridden are forwarded."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


# ---- annotations: facts a span needs for the reduction, read from its call

def _note_subdomain(span, arguments, result):
    span.attrs["subdomain"] = np.asarray(arguments["omega_star"], dtype=np.int64).tobytes()


def _note_local_data(span, arguments, result):
    span.attrs["mesh"] = arguments["mesh"]
    span.attrs["decomp"] = arguments["decomp"]
    span.attrs["threads"] = int(arguments.get("threads") or 1)
    span.attrs["n_modes"] = [len(d.eigenvalues) for d in result]
    span.attrs["retained_bytes"] = sum(
        v.nbytes for d in result for v in vars(d).values() if isinstance(v, np.ndarray))


def _note_coarse(span, arguments, result):
    coarse = result[0]
    span.attrs["n_j"] = [int(n) for n in coarse.n_j]
    span.attrs["n_total"] = int(coarse.n_total)
    span.attrs["dropped"] = len(coarse.dropped)


def _note_suite(span, arguments, result):
    span.attrs["checks"] = len(result.checks)


_ANNOTATE = {
    **{name: _note_subdomain for name in _SUBDOMAIN_STAGES},
    "local_problems.compute_local_data": _note_local_data,
    "gfem.assemble_coarse": _note_coarse,
    "verification.run_property_suite": _note_suite,
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every entry point for the duration of the block, then restore."""
    import msgfem  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "msgfem" or n.startswith("msgfem."))]
    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"msgfem.{layer}")
            for entry in names:
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__.get(attr)
                if original is None:   # an entry point the code no longer has
                    continue
                span_name = f"{layer}.{attr}"
                wrapped = tracer.wrap(span_name, original, _ANNOTATE.get(span_name))
                if owner_name:
                    replace(owner, attr, wrapped)
                    continue
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            replace(m, name, wrapped)

        local = importlib.import_module("msgfem.local_problems")
        spla = local.spla
        factorize = tracer.wrap("local_problems.splu",
                                lambda *a, **k: _CountingLU(spla.splu(*a, **k), tracer))
        replace(local, "spla", _ModuleProxy(spla, splu=factorize))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ---- reduction of spans to per-layer metrics

def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, [])]
        out[s.id] = s.duration - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def _busy(spans, names) -> float:
    """Time inside calls of ``names``, counting a call nested in another once."""
    by_id = {s.id: s for s in spans}

    def nested(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name in names:
                return True
            p = by_id.get(p.parent)
        return False

    return sum(s.duration for s in spans if s.name in names and not nested(s))


def layer_metrics(tracer: Tracer, run_s: float, out_dir: Path) -> dict:
    """Every per-layer metric except ``trace.overhead_s`` (needs the untraced run)."""
    from msgfem.space_ops import h0_dofs

    spans = tracer.spans
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def busy(*names):
        return _busy(spans, set(names))

    m = {
        "mesh.busy_s": busy("mesh.build_structured_mesh", "mesh.coefficient_field"),
        "decomposition.busy_s": busy(*(f"decomposition.{n}"
                                       for n in ENTRY_POINTS["decomposition"])),
        "space_ops.pou_busy_s": busy("space_ops.build_pou"),
        "dg_forms.matrix_busy_s": busy("dg_forms.matrix"),
        "dg_forms.matrix_calls": len(named.get("dg_forms.matrix", [])),
        "local_problems.particular_busy_s": busy("local_problems.particular_solution"),
        "local_problems.harmonic_busy_s": busy("local_problems.harmonic_basis"),
        "local_problems.eigen_busy_s": busy("local_problems.eigenproblem"),
        "local_problems.factorizations": len(named.get("local_problems.splu", [])),
        "local_problems.lu_solves": tracer.counts["local_problems.lu_solves"],
        "gfem.assemble_busy_s": busy("gfem.assemble_coarse"),
        "gfem.solve_busy_s": busy("gfem.solve_coarse"),
        "gfem.error_busy_s": busy("gfem.error_report", "gfem.max_sqrt_lambda_next"),
        "verification.suite_busy_s": busy("verification.run_property_suite"),
        "verification.fine_solve_busy_s": busy("verification.fine_solve"),
        "verification.suite_checks": sum(s.attrs["checks"] for s in
                                         named.get("verification.run_property_suite", [])),
    }

    # local stage: the last compute_local_data call is the pipeline's
    local_calls = named.get("local_problems.compute_local_data", [])
    per_subdomain: dict = {}
    modes_computed, modes_used, retained, wall, threads = 0, 0, 0, 0.0, 1
    layer_dofs = [0]
    if local_calls:
        cld = local_calls[-1]
        wall, threads = cld.duration, cld.attrs["threads"]
        mesh, decomp = cld.attrs["mesh"], cld.attrs["decomp"]
        layer_dofs = [3 * decomp.omega_star(j).size - h0_dofs(mesh, decomp.omega_star(j)).size
                      for j in range(decomp.n_subdomains)]
        for s in spans:
            if s.parent == cld.id and s.name in _SUBDOMAIN_STAGES:
                key = s.attrs["subdomain"]
                per_subdomain[key] = per_subdomain.get(key, 0.0) + s.duration
        n_modes = cld.attrs["n_modes"]
        modes_computed = sum(n_modes)
        retained = cld.attrs["retained_bytes"]
        largest = [0] * len(n_modes)
        for s in named.get("gfem.assemble_coarse", []):
            if len(s.attrs["n_j"]) == len(n_modes):
                largest = [max(a, b) for a, b in zip(largest, s.attrs["n_j"])]
        modes_used = sum(min(n + 1, k) for n, k in zip(largest, n_modes))
    subdomain_s = sorted(per_subdomain.values()) or [0.0]
    parallelism = sum(subdomain_s) / wall if wall > 0 else 0.0
    m.update({
        "local_problems.wall_s": wall,
        "local_problems.subdomain_p50_s": statistics.median(subdomain_s),
        "local_problems.subdomain_max_s": subdomain_s[-1],
        "local_problems.parallelism": parallelism,
        "local_problems.parallel_efficiency": parallelism / threads,
        "local_problems.layer_dofs_max": max(layer_dofs),
        "local_problems.layer_dofs_sum": sum(layer_dofs),
        "local_problems.modes_computed": modes_computed,
        "local_problems.modes_used": modes_used,
        "local_problems.mode_use_ratio": modes_used / modes_computed if modes_computed else 0.0,
        "local_problems.retained_mb": retained / 2 ** 20,
    })

    coarse = named.get("gfem.assemble_coarse", [])
    m["gfem.coarse_cols"] = sum(s.attrs["n_total"] for s in coarse)
    m["gfem.dropped_cols"] = sum(s.attrs["dropped"] for s in coarse)

    roots = [s for s in spans if s.parent is None]
    for layer in ("space_ops", "local_problems", "gfem", "verification"):
        m[f"{layer}.rss_growth_mb"] = sum(
            s.rss1_kb - s.rss0_kb for s in roots if s.layer == layer) / 1024
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)
    m["cli.self_s"] = run_s - _union_length([(s.start, s.end) for s in roots])
    m["cli.artifact_bytes"] = sum(p.stat().st_size for p in Path(out_dir).iterdir()
                                  if p.is_file())
    return m


def run_traced(cli_args: list) -> tuple:
    """Run ``msgfem.cli.main(cli_args)`` under the tracer.

    Returns ``(exit_code, run_s, tracer)``; ``run_s`` is the in-process wall
    time of ``main`` alone.
    """
    import msgfem.cli

    tracer = Tracer()
    with installed(tracer):
        t0 = time.perf_counter()
        code = msgfem.cli.main(cli_args)
        run_s = time.perf_counter() - t0
    return code, run_s, tracer


def _out_dir(cli_args: list) -> Path:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--out", type=Path)
    known, _ = parser.parse_known_args(cli_args)
    return known.out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--metrics", type=Path, required=True,
                        help="JSON file for the per-layer metrics")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for msgfem after --; must include --out")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    code, run_s, tracer = run_traced(cli_args)
    metrics = layer_metrics(tracer, run_s, _out_dir(cli_args)) if code == 0 else {}
    args.metrics.write_text(json.dumps({"exit_code": code, "run_s": run_s,
                                        "metrics": metrics}, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
