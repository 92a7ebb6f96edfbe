"""The correctness gate on the artifacts of a tiny run."""
import json
import shutil

import pytest

import msgfem.cli
import run
from run import Proc, Workload, differing_artifacts, gate, make_fingerprint

TINY = Workload("tiny", {"mesh_n": 8, "grid_m": 2, "oversampling_layers": 1,
                         "coefficient": "constant:1", "coarse_n_sweep": "1,2,3",
                         "checks": "on", "threads": 1}, 1.0)


@pytest.fixture(scope="module")
def tiny_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "run.cfg"
    cfg.write_text(TINY.config_text(run.FINGERPRINT_SEED))
    out = root / "out"
    assert msgfem.cli.main(["--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture
def out(tiny_out, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(tiny_out, copy)
    return copy


@pytest.fixture
def fingerprint(out, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "FINGERPRINTS", tmp_path)
    (tmp_path / "tiny.json").write_text(json.dumps(make_fingerprint(TINY, out)))


def ok_proc(tmp_path):
    log = tmp_path / "log.txt"
    log.write_text("")
    return Proc(1.0, 1.0, 1, 0, log)


def edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def errors_rows(out):
    return [line.split(",") for line in (out / "errors.csv").read_text().splitlines()]


def test_clean_run_passes(out, fingerprint, tmp_path):
    assert gate(TINY, run.FINGERPRINT_SEED, ok_proc(tmp_path), out) == []


def test_exit_code_and_missing_artifact_fail(out, tmp_path):
    proc = ok_proc(tmp_path)
    proc.log.write_text("pipeline failure: boom\n")
    proc.code = 1
    assert "boom" in gate(TINY, 1, proc, out)[0]
    (out / "checks.json").unlink()
    assert "checks.json" in gate(TINY, 1, ok_proc(tmp_path), out)[0]


def test_non_finite_value_and_accuracy_limit_fail(out, tmp_path):
    rows = errors_rows(out)
    edit(out / "errors.csv", rows[1][8], "nan")
    assert any("relL2Err" in p for p in gate(TINY, 1, ok_proc(tmp_path), out))
    strict = Workload("tiny", TINY.keys, 1e-12)
    assert any("relBplusErr" in p for p in gate(strict, 1, ok_proc(tmp_path), out))


@pytest.mark.parametrize("factor, passes", [(1 + 1e-10, True), (1 + 1e-7, False)])
def test_fingerprint_tolerance_on_eigenvalues(out, fingerprint, tmp_path, factor, passes):
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    j, k, lam, inf = next(l.split(",") for l in lines[1:] if l.endswith(",0"))
    edit(out / "eigenvalues.csv", f"{j},{k},{lam},0", f"{j},{k},{float(lam) * factor!r},0")
    assert (gate(TINY, run.FINGERPRINT_SEED, ok_proc(tmp_path), out) == []) is passes


def test_fingerprint_requires_equal_n_total(out, fingerprint, tmp_path):
    row = errors_rows(out)[-1]
    edit(out / "errors.csv", ",".join(row), ",".join(row[:6] + [str(int(row[6]) + 1)] + row[7:]))
    problems = gate(TINY, run.FINGERPRINT_SEED, ok_proc(tmp_path), out)
    assert any("n_total" in p for p in problems)


def test_artifact_bytes_are_compared(out, tiny_out):
    assert differing_artifacts(tiny_out, out) == []
    edit(out / "config.txt", "mesh_n = 8", "mesh_n = 8 ")
    assert differing_artifacts(tiny_out, out) == ["config.txt"]
