from collections import Counter

import numpy as np
import pytest

import msgfem.cli
import msgfem.verification
from msgfem.cli import main, run, source_function
from msgfem.config import RunConfig, parse_config, serialize_config
from msgfem.dg_forms import DGAssembler
from msgfem.errors import ConfigError

SMALL = """
mesh_n = 16
grid_m = 2
overlap_layers = 2
oversampling_layers = 2
coefficient = checkerboard:100:2
source = constant:1
coarse_rule = fixed:3
"""


def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.mesh_n == 64 and cfg.grid_m == 4
    assert cfg.overlap_layers == 2 and cfg.oversampling_layers == 4
    assert cfg.gamma0_sq == 10.0
    assert cfg.gamma0 == pytest.approx(np.sqrt(10.0))
    assert cfg.coarse_rule == ("fixed", 4)
    assert cfg.checks is True


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nmesh_n = 8  # trailing\n")
    assert cfg.mesh_n == 8


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("\n\nbogus_key = 1\n")


def test_repeated_key_names_both_lines(tmp_path, capsys):
    text = "mesh_n = 8\n# a comment\nmesh_n = 16\n"
    with pytest.raises(ConfigError, match="line 3: key 'mesh_n' repeats line 1"):
        parse_config(text)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "repeats line 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_mesh_precondition_cited():
    with pytest.raises(ConfigError, match="mesh_n must be >= 1"):
        parse_config("mesh_n = 0\n")


@pytest.mark.parametrize("text", [
    "overlap_layers = 1\n",
    "gamma0_sq = -1\n",
    "coarse_rule = fancy:3\n",
    "coarse_n_sweep = 1,two\n",
    "checks = maybe\n",
    "mesh_n\n",
])
def test_malformed_configs_rejected(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_serialize_round_trip():
    cfg = parse_config(SMALL + "coarse_n_sweep = 1,2,5\ngamma0_sq = 12.5\n")
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


def test_source_functions():
    f = source_function("constant:2.5")
    assert np.all(f(np.zeros(3), np.zeros(3)) == 2.5)
    g = source_function("sine")
    x = np.array([0.25])
    assert g(x, x) == pytest.approx(2 * np.pi ** 2 * np.sin(np.pi / 4) ** 2)
    with pytest.raises(ConfigError):
        source_function("ramp:1")


def test_run_produces_all_artifacts(tmp_path):
    cfg = parse_config(SMALL)
    code = run(cfg, out_dir=tmp_path / "out")
    assert code == 0
    for name in ("checks.json", "eigenvalues.csv", "errors.csv", "config.txt"):
        assert (tmp_path / "out" / name).exists()
    header = (tmp_path / "out" / "errors.csv").read_text().splitlines()[0]
    assert header == ("m,l,lstar,n_j,gamma0,contrast,n_total,relBplusErr,"
                      "relL2Err,maxSqrtLambdaNext,fitSlope,fitR2")
    saved = parse_config((tmp_path / "out" / "config.txt").read_text())
    assert saved == cfg


def test_sweep_row_count(tmp_path):
    cfg = parse_config(SMALL + "coarse_n_sweep = 2,3,4,5,6,7,8,9,10,11,12\n"
                               "checks = off\n")
    assert run(cfg, out_dir=tmp_path) == 0
    lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 11
    first = lines[1].split(",")
    assert first[0] == "2" and first[3] == "2"
    # the sweep fit columns are shared across rows and parse as floats
    assert float(first[10]) < 0.0
    assert 0.0 <= float(first[11]) <= 1.0


def test_repeated_runs_byte_identical(tmp_path):
    cfg = parse_config(SMALL + "coarse_n_sweep = 1,2,3,4,5\n")
    run(cfg, out_dir=tmp_path / "a")
    run(cfg, out_dir=tmp_path / "b")
    for name in ("eigenvalues.csv", "errors.csv", "checks.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_true_default_config_smoke(tmp_path):
    # the all-defaults reference run: suite plus pipeline, three artifacts
    assert run(parse_config(""), out_dir=tmp_path) == 0
    for name in ("checks.json", "eigenvalues.csv", "errors.csv"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_checks_only_writes_only_report(tmp_path):
    cfg = parse_config(SMALL)
    assert run(cfg, out_dir=tmp_path, checks_only=True) == 0
    assert (tmp_path / "checks.json").exists()
    assert not (tmp_path / "errors.csv").exists()


def test_failing_checks_exit_one_and_flush(tmp_path):
    cfg = parse_config(SMALL + "gamma0_sq = 1e-4\n")
    assert run(cfg, out_dir=tmp_path) == 1
    assert (tmp_path / "checks.json").exists()
    assert not (tmp_path / "errors.csv").exists()


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mesh_n = 0\n")
    assert main(["--config", str(bad)]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    good = tmp_path / "good.cfg"
    good.write_text(SMALL)
    assert main(["--config", str(good), "--out", str(tmp_path / "o"),
                 "--checks-only"]) == 0


def test_main_seed_and_thread_overrides(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(SMALL.replace("checkerboard:100:2", "log_uniform:1:100")
                    + "checks = off\n")
    assert main(["--config", str(good), "--out", str(tmp_path / "s1"),
                 "--seed", "5", "--threads", "2"]) == 0
    assert main(["--config", str(good), "--out", str(tmp_path / "s2"),
                 "--seed", "5"]) == 0
    assert main(["--config", str(good), "--out", str(tmp_path / "s3"),
                 "--seed", "6"]) == 0
    a = (tmp_path / "s1" / "eigenvalues.csv").read_bytes()
    b = (tmp_path / "s2" / "eigenvalues.csv").read_bytes()
    c = (tmp_path / "s3" / "eigenvalues.csv").read_bytes()
    assert a == b
    assert a != c


def test_sweep_beyond_available_modes_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(SMALL + "coarse_n_sweep = 2,5000\nchecks = off\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: requested 5000 coarse modes" in err
    assert "subdomain 0 has only" in err
    assert not (tmp_path / "o" / "errors.csv").exists()


def test_high_contrast_coarse_solve_meets_the_scaled_contract(tmp_path):
    # relative to the right-hand side alone this coarse residual is 2.6e-9
    cfg = parse_config("mesh_n = 32\ngrid_m = 4\ncoefficient = channels:1e8:4\n"
                       "coarse_n_sweep = 2,4,6,8\nchecks = off\n")
    assert run(cfg, out_dir=tmp_path) == 0
    assert len((tmp_path / "errors.csv").read_text().strip().splitlines()) == 1 + 4


def test_threshold_rule_single_row(tmp_path):
    cfg = parse_config(SMALL.replace("coarse_rule = fixed:3",
                                     "coarse_rule = threshold:0.1")
                       + "checks = off\n")
    assert run(cfg, out_dir=tmp_path) == 0
    lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert int(row[3]) >= 1          # largest per-subdomain count
    assert int(row[6]) >= int(row[3])


def test_runs_do_not_interfere(tmp_path):
    cfg1 = parse_config(SMALL + "checks = off\n")
    cfg2 = parse_config(SMALL.replace("checkerboard:100:2", "constant:1")
                        + "checks = off\n")
    run(cfg1, out_dir=tmp_path / "x")
    run(cfg2, out_dir=tmp_path / "y")
    run(cfg1, out_dir=tmp_path / "x2")
    assert (tmp_path / "x" / "errors.csv").read_bytes() == \
        (tmp_path / "x2" / "errors.csv").read_bytes()
    assert (tmp_path / "x" / "errors.csv").read_bytes() != \
        (tmp_path / "y" / "errors.csv").read_bytes()


@pytest.mark.parametrize("text", [
    "coefficient = bogus:1\n",
    "mesh_n = 8\ngrid_m = 9\n",
    "mesh_n = 8\ngrid_m = 4\ncoefficient = checkerboard:10:3\n",
    "mesh_n = 4\ngrid_m = 2\n",
    "coarse_rule = threshold:nan\n",
    "gamma0_sq = nan\n",
    "coefficient = constant:inf\n",
    "coefficient = checkerboard:inf:2\n",
    "coefficient = log_uniform:1e-3:inf\n",
    "source = constant:nan\n",
])
def test_unbuildable_problem_is_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "o" / "checks.json").exists()


def test_checked_run_builds_mesh_decomposition_and_pou_once(tmp_path, monkeypatch):
    calls = Counter()
    for name in ("build_structured_mesh", "build_decomposition", "build_pou"):
        for module in (msgfem.cli, msgfem.verification):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    init = DGAssembler.__init__

    def counted_init(self, *args, **kwargs):
        calls["DGAssembler"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(DGAssembler, "__init__", counted_init)
    # at mesh_n <= 12 the suite's coercivity probe runs on the problem's own mesh
    cfg = parse_config(SMALL.replace("mesh_n = 16", "mesh_n = 12"))
    assert cfg.checks
    assert run(cfg, out_dir=tmp_path) == 0
    assert calls == {"build_structured_mesh": 1, "build_decomposition": 1,
                     "build_pou": 1, "DGAssembler": 1}
