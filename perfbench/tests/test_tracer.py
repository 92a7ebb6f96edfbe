"""Smoke tests of the outside-in tracer on a tiny config."""
import threading

import pytest

import msgfem.cli
import msgfem.space_ops
from run import differing_artifacts
from tracer import LAYERS, PER_LAYER, layer_metrics, run_traced

TINY = "mesh_n = 8\ngrid_m = 2\noversampling_layers = 1\ncoarse_n_sweep = 1,2,3\nthreads = {threads}\n"


def traced(tmp_path, threads):
    cfg = tmp_path / f"tiny{threads}.cfg"
    cfg.write_text(TINY.format(threads=threads))
    out = tmp_path / f"traced{threads}"
    code, run_s, tracer = run_traced(["--config", str(cfg), "--out", str(out)])
    assert code == 0
    return tracer, run_s, cfg, out


def test_spans_nest_and_self_times_sum_to_run(tmp_path):
    tracer, run_s, _, out = traced(tmp_path, 1)
    by_id = {s.id: s for s in tracer.spans}
    assert {s.layer for s in tracer.spans} == set(LAYERS)
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    metrics = layer_metrics(tracer, run_s, out)
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) + metrics["cli.self_s"]
    assert total == pytest.approx(run_s, rel=1e-9, abs=1e-9)


def test_worker_spans_hang_off_compute_local_data(tmp_path):
    tracer, _, _, _ = traced(tmp_path, 2)
    main = threading.get_ident()
    by_id = {s.id: s for s in tracer.spans}
    workers = [s for s in tracer.spans if s.thread != main]
    assert {s.name for s in workers} >= {"local_problems.particular_solution",
                                         "local_problems.eigenproblem"}
    for s in workers:
        owner = by_id[s.parent]
        while owner.thread != main:
            owner = by_id[owner.parent]
        assert owner.name == "local_problems.compute_local_data"
        assert owner.start <= s.start and s.end <= owner.end


def test_every_per_layer_metric_is_reported(tmp_path):
    tracer, run_s, _, out = traced(tmp_path, 2)
    metrics = layer_metrics(tracer, run_s, out)
    # the overhead needs the untraced run, which the runner adds
    assert set(PER_LAYER) - set(metrics) == {"trace.overhead_s"}
    assert metrics["local_problems.factorizations"] > 0
    assert metrics["local_problems.lu_solves"] >= metrics["local_problems.factorizations"]
    assert metrics["verification.suite_checks"] > 0
    assert 0 < metrics["local_problems.modes_used"] <= metrics["local_problems.modes_computed"]


def test_traced_run_writes_the_same_bytes_and_unwraps(tmp_path):
    _, _, cfg, traced_out = traced(tmp_path, 2)
    assert not hasattr(msgfem.cli.build_pou, "__wrapped__")
    assert msgfem.cli.build_pou is msgfem.space_ops.build_pou
    plain_out = tmp_path / "plain"
    assert msgfem.cli.main(["--config", str(cfg), "--out", str(plain_out)]) == 0
    assert differing_artifacts(plain_out, traced_out) == []
