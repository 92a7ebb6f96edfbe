"""Benchmark runner for the msgfem CLI.

Each run drives ``msgfem --config ... --out ...`` as a user would: one fresh
process per run, in a closed loop with a single client (a run starts only
after the previous one exits), with BLAS pinned to one thread so that the
config's ``threads`` key is the only source of parallelism.  Every run's
artifacts pass a correctness gate and must be byte-identical to the first
run's.  The workload seed reaches the program only as the config's ``seed``.

    python3 perfbench/run.py --workload local-40x4 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all                   # every workload, as a table
    python3 perfbench/run.py --record-fingerprint    # rewrite the seed-0 fingerprints

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see ``tracer.py``) next to an untraced run of the same config.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
FINGERPRINTS = BENCH / "fingerprints"

ARTIFACTS = ("config.txt", "checks.json", "eigenvalues.csv", "errors.csv")
ERROR_COLUMNS = ("m", "l", "lstar", "n_j", "gamma0", "contrast", "n_total",
                 "relBplusErr", "relL2Err", "maxSqrtLambdaNext", "fitSlope", "fitR2")
EXACT_COLUMNS = {"m", "l", "lstar", "n_j", "n_total"}
FIT_COLUMNS = {"fitSlope", "fitR2"}
FINGERPRINT_SEED = 0
FINGERPRINT_RTOL = 1e-8
SETUP_SAMPLES = 9
# Idle pause before every timed process.  On a shared virtual machine,
# processes started back to back all run at whatever speed the vCPU had when
# the first one started; after a short idle pause each one draws its speed
# afresh, so the median over a run samples the machine instead of one moment.
IDLE_GAP_S = 0.3
MIN_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREADS = 1

# Reported beside the end-to-end metrics but not bounded: on the log_uniform
# workload the error follows the seed's coefficient field, not the code.
REPORT_ONLY = ("rel_bplus_err",)

SETUP_CODE = ("import sys, msgfem.cli; from msgfem import parse_config; "
              "parse_config(open(sys.argv[1]).read())")


@dataclass(frozen=True)
class Workload:
    name: str
    keys: dict           # config keys; the seed line is added per run
    max_rel_err: float   # gate on the last errors.csv row's relBplusErr

    @property
    def checks(self) -> bool:
        return self.keys["checks"] == "on"

    def sweep(self) -> list:
        text = self.keys.get("coarse_n_sweep", "")
        return [int(t) for t in text.split(",")] if text else []

    def config_text(self, seed: int) -> str:
        keys = {"overlap_layers": 2, "gamma0_sq": 10, "source": "constant:1",
                **self.keys, "seed": seed}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


def _sweep(first: int, last: int, step: int = 1) -> str:
    return ",".join(str(n) for n in range(first, last + 1, step))


WORKLOADS = {w.name: w for w in (
    Workload("local-40x4",
             {"mesh_n": 40, "grid_m": 4, "oversampling_layers": 4,
              "coefficient": "constant:1", "coarse_n_sweep": _sweep(1, 12),
              "checks": "on", "threads": 1},
             1e-2),
    Workload("coarse-32x8",
             {"mesh_n": 32, "grid_m": 8, "oversampling_layers": 2,
              "coefficient": "constant:1", "coarse_n_sweep": _sweep(4, 16, 4),
              "checks": "on", "threads": 1},
             1e-2),
    Workload("contrast-60x6-2t",
             {"mesh_n": 60, "grid_m": 6, "oversampling_layers": 4,
              "coefficient": "log_uniform:1e-3:1e3", "coarse_rule": "threshold:0.1",
              "checks": "off", "threads": 2},
             2e-2),
)}


# ---- processes

def _child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=str(BLAS_THREADS), OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    log: Path


def spawn(argv: list, log: Path, deadline: float) -> Proc:
    """Run one process to exit; wall time from spawn to exit, ``ru_maxrss`` via wait4."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, log)


# ---- correctness gate

def _read_errors(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != ERROR_COLUMNS:
        raise ValueError("errors.csv header differs from the documented columns")
    return rows[1:]


def _read_eigenvalues(path: Path) -> dict:
    """Subdomain -> its eigenvalues as written, in mode order."""
    per = {}
    with open(path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            per.setdefault(row[0], []).append(row[2])
    return per


def _leading_counts(workload: Workload, eigen: dict) -> dict:
    """Modes the coarse space reads per subdomain: the largest n used, plus one."""
    if workload.sweep():
        return {j: max(workload.sweep()) + 1 for j in eigen}
    tau = float(workload.keys["coarse_rule"].split(":")[1])
    out = {}
    for j, values in eigen.items():
        lam = [float(v) for v in values]
        out[j] = sum(1 for v in lam if math.isinf(v) or math.sqrt(max(v, 0.0)) >= tau) + 1
    return out


def make_fingerprint(workload: Workload, out: Path) -> dict:
    eigen = _read_eigenvalues(out / "eigenvalues.csv")
    counts = _leading_counts(workload, eigen)
    return {"workload": workload.name, "seed": FINGERPRINT_SEED,
            "errors": _read_errors(out / "errors.csv"),
            "eigenvalues": {j: v[:counts[j]] for j, v in eigen.items()}}


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y) or y == 0.0:
        return x == y
    return abs(x - y) <= FINGERPRINT_RTOL * abs(y)


def _fingerprint_problems(workload: Workload, out: Path) -> list:
    stored = json.loads((FINGERPRINTS / f"{workload.name}.json").read_text())
    problems = []
    rows = _read_errors(out / "errors.csv")
    if len(rows) != len(stored["errors"]):
        return [f"errors.csv has {len(rows)} rows, fingerprint {len(stored['errors'])}"]
    for i, (row, ref) in enumerate(zip(rows, stored["errors"])):
        for col, a, b in zip(ERROR_COLUMNS, row, ref):
            same = a == b if col in EXACT_COLUMNS else _close(a, b)
            if not same:
                problems.append(f"errors.csv row {i + 1} {col}: {a} vs fingerprint {b}")
    eigen = _read_eigenvalues(out / "eigenvalues.csv")
    for j, ref in stored["eigenvalues"].items():
        got = eigen.get(j, [])[:len(ref)]
        if len(got) < len(ref) or not all(_close(a, b) for a, b in zip(got, ref)):
            problems.append(f"leading eigenvalues of subdomain {j} differ from the fingerprint")
    return problems


def gate(workload: Workload, seed: int, proc: Proc, out: Path) -> list:
    """Reasons this run fails the correctness gate; empty when it passes."""
    if proc.code != 0:
        tail = proc.log.read_text(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {proc.code}: {' '.join(tail)}"]
    expected = [a for a in ARTIFACTS if workload.checks or a != "checks.json"]
    missing = [a for a in expected if not (out / a).is_file()]
    if missing:
        return [f"missing artifact(s) {', '.join(missing)}"]
    try:
        rows = _read_errors(out / "errors.csv")
        values = [[float(v) for v in row] for row in rows]
    except ValueError as exc:
        return [f"errors.csv: {exc}"]
    problems = []
    if len(rows) != max(len(workload.sweep()), 1):
        problems.append(f"errors.csv has {len(rows)} rows")
    for i, row in enumerate(values):
        bad = [c for c, v in zip(ERROR_COLUMNS, row) if c not in FIT_COLUMNS
               and not math.isfinite(v)]
        if bad:
            problems.append(f"errors.csv row {i + 1}: non-finite {', '.join(bad)}")
    last = values[-1][ERROR_COLUMNS.index("relBplusErr")] if values else math.nan
    if not last <= workload.max_rel_err:
        problems.append(f"relBplusErr {last} above {workload.max_rel_err}")
    if seed == FINGERPRINT_SEED and not problems:
        problems += _fingerprint_problems(workload, out)
    return problems


def differing_artifacts(a: Path, b: Path) -> list:
    return [n for n in ARTIFACTS if (a / n).is_file() != (b / n).is_file()
            or ((a / n).is_file() and (a / n).read_bytes() != (b / n).read_bytes())]


def last_rel_bplus_err(out: Path):
    try:
        return float(_read_errors(out / "errors.csv")[-1][ERROR_COLUMNS.index("relBplusErr")])
    except (OSError, ValueError, IndexError):
        return None


# ---- runs

def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "note": "thread scaling is observable only up to nproc threads; "
                "local_problems.parallel_efficiency is parallelism / threads",
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


class Run:
    """One benchmark run of one workload: a fresh work directory and a deadline."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = WORK / f"{workload.name}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg = self.dir / "run.cfg"
        self.cfg.write_text(workload.config_text(seed))
        self.runs: list = []
        self.setup: list = []
        self.failures: list = []
        self.reference: Path | None = None

    def spawn_cli(self, tag: str, argv_prefix=None) -> tuple:
        out = self.dir / f"out_{tag}"
        argv = (argv_prefix or [sys.executable, "-m", "msgfem.cli"]) + [
            "--config", str(self.cfg), "--out", str(out)]
        return spawn(argv, self.dir / f"log_{tag}.txt", self.deadline), out

    def cli(self, tag: str, argv_prefix=None) -> tuple:
        """One gated CLI run; returns ``(Proc, out_dir)``."""
        proc, out = self.spawn_cli(tag, argv_prefix)
        problems = gate(self.workload, self.seed, proc, out)
        if self.reference is None:
            self.reference = out
        elif not problems:
            differ = differing_artifacts(self.reference, out)
            if differ:
                problems.append(f"artifacts differ from {self.reference.name}: {differ}")
        self.runs.append({"tag": tag, "wall_s": proc.wall_s, "cpu_s": proc.cpu_s,
                          "maxrss_kb": proc.maxrss_kb,
                          "exit_code": proc.code, "problems": problems})
        self.failures += [f"run {tag}: {p}" for p in problems]
        return proc, out

    def setup_times(self) -> list:
        """Wall times of fresh processes that import the CLI and parse the config."""
        argv = [sys.executable, "-c", SETUP_CODE, str(self.cfg)]
        times = []
        for i in range(SETUP_SAMPLES + 1):   # the first fills the bytecode cache
            time.sleep(IDLE_GAP_S)
            proc = spawn(argv, self.dir / "log_setup.txt", self.deadline)
            if proc.code != 0:
                raise RuntimeError("importing msgfem.cli and parsing the config failed: "
                                   + proc.log.read_text(errors="replace"))
            if i:
                times.append(proc.wall_s)
        return times

    def time_left(self, expected: float) -> bool:
        return time.monotonic() + expected < self.deadline

    def end_to_end(self) -> dict:
        self.setup = setup = self.setup_times()
        procs, errs = [], []
        t0 = time.monotonic()
        while (len(procs) < MIN_SAMPLES or time.monotonic() - t0 < self.seconds) \
                and self.time_left(procs[-1].wall_s if procs else 0.0):
            time.sleep(IDLE_GAP_S)
            proc, out = self.cli(str(len(procs)))
            procs.append(proc)
            errs.append(last_rel_bplus_err(out))
        metrics = {
            "run_s": (_median(p.wall_s for p in procs), "s", len(procs)),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (_median(p.maxrss_kb / 1024 for p in procs), "MB", len(procs)),
            "rel_bplus_err": (_median(errs), "ratio", sum(e is not None for e in errs)),
        }
        return metrics

    def per_layer(self) -> dict:
        from tracer import PER_LAYER

        samples = []
        t0 = time.monotonic()
        while not samples or (time.monotonic() - t0 + pair_s <= self.seconds
                              and self.time_left(pair_s)):
            tag = str(len(samples))
            plain, _ = self.cli(f"u{tag}")
            metrics_file = self.dir / f"layers_{tag}.json"
            traced, _ = self.cli(f"t{tag}", [sys.executable, str(BENCH / "tracer.py"),
                                             "--metrics", str(metrics_file), "--"])
            pair_s = plain.wall_s + traced.wall_s
            layers = (json.loads(metrics_file.read_text())["metrics"]
                      if metrics_file.is_file() else {})
            layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
            samples.append(layers)
        return {name: (_median(s.get(name) for s in samples), unit, len(samples))
                for name, (unit, _) in PER_LAYER.items()}

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.failures, "attempted": len(self.runs),
                "failed": sum(bool(r["problems"]) for r in self.runs),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                            if k not in REPORT_ONLY}}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple:
    run = Run(workload, seed, seconds, trace)
    metrics = run.per_layer() if trace else run.end_to_end()
    result = run.result(metrics)
    record = {"workload": workload.name, "trace": trace, "environment": environment(seed),
              "config": workload.config_text(seed), "failures": run.failures,
              "samples": {k: n for k, (_, _, n) in metrics.items()}, "runs": run.runs,
              "setup_s": run.setup, **result}
    (run.dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, metrics, run.failures


def _describe(name: str, value, unit: str, n: int) -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    return f"  {name:40s} {shown:>14s} {unit:6s} (median of {n})"


def report(workload: Workload, seed: int, trace: bool, result: dict, metrics: dict,
           failures: list) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload.name} seed {seed} {'traced' if trace else 'untraced'}")
    for name, (value, unit, n) in metrics.items():
        print(_describe(name, value, unit, n))
    print(f"  {'fail_ratio':40s} {failed / attempted:>14.6g} {'ratio':6s} "
          f"({failed} of {attempted} runs)")
    for failure in failures:
        print(f"  FAIL {failure}")


def record_fingerprints(names: list) -> int:
    FINGERPRINTS.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        run = Run(workload, FINGERPRINT_SEED, 0.0, False)
        proc, out = run.spawn_cli("fingerprint")
        if proc.code != 0:
            print(f"{name}: exit code {proc.code}", file=sys.stderr)
            return 1
        path = FINGERPRINTS / f"{name}.json"
        path.write_text(json.dumps(make_fingerprint(workload, out), indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the msgfem CLI.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced; print a table")
    parser.add_argument("--record-fingerprint", action="store_true",
                        help=f"rewrite the seed-{FINGERPRINT_SEED} fingerprint(s)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "msgfem" / "__init__.py").is_file():
        print(f"no msgfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.record_fingerprint:
        return record_fingerprints(names)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if not (args.all or args.workload):
        parser.error("--workload is required unless --all or --record-fingerprint is given")
    traces = (False, True) if args.all else (bool(args.trace),)
    print(json.dumps({"environment": environment(args.seed)}))
    correct = True
    try:
        for name in names:
            for trace in traces:
                result, metrics, failures = run_workload(WORKLOADS[name], args.seed,
                                                         seconds, trace)
                report(WORKLOADS[name], args.seed, trace, result, metrics, failures)
                correct = correct and result["correct"]
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.all:
        return 0 if correct else 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
