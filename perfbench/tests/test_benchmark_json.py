"""BENCHMARK.json declares what the runner and the tracer report."""
import json

from run import REPORT_ONLY, ROOT, WORKLOADS
from tracer import PER_LAYER

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()]


def test_end_to_end_metrics_match_the_runner():
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert names == ["run_s", "setup_s", "peak_rss_mb"]
    assert not set(names) & set(REPORT_ONLY)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
