"""The benchmark's seed-0 fingerprints, met by every workload through the CLI.

Each workload's config runs in a fresh process, as the benchmark runs it, and
must pass the benchmark's own correctness gate: exit code, artifacts, finite
rows and the seed-0 eigenvalue and error fingerprints at their tolerance.  A
change that perturbs the local numerics fails here, not only in a benchmark
run.  ``perfbench/run.py`` is only read.
"""
import importlib.util
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_meets_its_seed_zero_fingerprint(name, tmp_path):
    workload = bench.WORKLOADS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(workload.config_text(bench.FINGERPRINT_SEED))
    out = tmp_path / "out"
    proc = bench.spawn([sys.executable, "-m", "msgfem.cli", "--config", str(cfg),
                        "--out", str(out)],
                       tmp_path / "log.txt", time.monotonic() + bench.DEADLINE_S)
    assert bench.gate(workload, bench.FINGERPRINT_SEED, proc, out) == []
