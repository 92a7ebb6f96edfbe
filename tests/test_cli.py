import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
from scipy.linalg import LinAlgWarning

import msgfem.cli
import msgfem.verification
from msgfem.cli import build_problem, main, run, source_function
from msgfem.config import RunConfig, parse_config, serialize_config
from msgfem.dg_forms import DGAssembler, subdomain_dofs
from msgfem.errors import ConfigError
from msgfem.local_problems import compute_local_data, select_coarse
from msgfem.space_ops import pou_blend
from msgfem.verification import fine_solve

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
    assert cfg.checks == "on"


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


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config(block) == RunConfig()


def test_serialize_round_trip():
    cfg = parse_config(SMALL + "coarse_n_sweep = 1,2,5\ngamma0_sq = 12.5\n")
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert parse_config(serialize_config(RunConfig())) == RunConfig()


def test_source_functions():
    f = source_function("constant:2.5")
    assert np.all(f(np.zeros(3), np.zeros(3)) == 2.5)
    # zero has the exact zero solution; the range's ends are admitted
    for c in (0.0, 1e150, -1e150, 1e-150, -1e-150):
        assert np.all(source_function(f"constant:{c!r}")(np.zeros(3), np.zeros(3)) == c)
    with pytest.raises(ConfigError):
        source_function("ramp:1")


@pytest.mark.parametrize("c", ["1e300", "-1e300", "1e160", "1e-160", "1e-200", "1e-300"])
def test_source_outside_the_double_range_is_config_error(tmp_path, capsys, c):
    # unchecked, these either overflowed in a local solve or an error norm, or
    # underflowed to error rows of exactly 0.0 that claimed an exact solution
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"mesh_n = 8\ngrid_m = 2\noversampling_layers = 1\n"
                   f"coarse_n_sweep = 1,2,3,4,5\nchecks = off\nsource = constant:{c}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: source constant:{c} is outside "
                                       f"[1e-150, 1e150] in magnitude\n")
    assert not (tmp_path / "o").exists()


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
    cfg = parse_config(SMALL + "checks = only\n")
    assert run(cfg, out_dir=tmp_path) == 0
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
    good.write_text(SMALL + "checks = only\n")
    assert main(["--config", str(good), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--threads", "2"], ["--checks-only"]],
                         ids=["seed", "threads", "checks-only"])
def test_run_values_are_config_keys_not_flags(tmp_path, capsys, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--out", str(tmp_path / "o")] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_output_directory_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + f"out_dir = {tmp_path / 'k'}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'out_dir'" in capsys.readouterr().err
    assert not (tmp_path / "k").exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize("below", [False, True], ids=["existing-file", "below-a-file"])
def test_uncreatable_output_directory_is_config_error(tmp_path, capsys, below):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "o" if below else blocker
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: cannot create the output directory: ")
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.cfg"]


@pytest.mark.parametrize("text", [
    SMALL + "checks = only\n",
    SMALL + "coarse_n_sweep = 1,2,3\nchecks = off\n",
    SMALL.replace("checkerboard:100:2", "log_uniform:1:100") + "seed = 5\nthreads = 2\n",
], ids=["checks-only", "sweep", "log-uniform-seed-threads"])
def test_run_reproduces_from_its_config_txt(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["--config", str(cfg), "--out", str(first)]) == 0
    assert main(["--config", str(first / "config.txt"), "--out", str(again)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_kernel_gram_breakdown_is_a_pipeline_failure(tmp_path, capsys):
    # far below the coercive penalty the kernel Gram of a subdomain's pencil is
    # singular, and its LAPACK factor breaks down inside the checked solve
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("mesh_n = 16\ngrid_m = 2\noversampling_layers = 2\n"
                   "gamma0_sq = 0.0001\ncoefficient = constant:1\n"
                   "coarse_n_sweep = 1,2,3\nchecks = off\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "pipeline failure: kernel Gram broke down: " in capsys.readouterr().err
    assert not (tmp_path / "o" / "errors.csv").exists()


def test_solve_breakdown_in_the_suite_is_one_stderr_line(tmp_path, capsys, monkeypatch):
    # a factorization that fails leaves the masked system of the suite's
    # harmonicity sample singular
    def singular(A):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(msgfem.local_problems.spla, "splu", singular)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("mesh_n = 8\ngrid_m = 2\noversampling_layers = 1\nchecks = only\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "property suite failure: local system is singular" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "checks.json").exists()


@pytest.mark.parametrize("keys", [
    "coefficient = constant:1e200\nchecks = only\n",
    "coefficient = log_uniform:1:1e200\nchecks = off\n",
    "gamma0_sq = 1e307\nchecks = off\n",
    "coefficient = constant:1e-200\ncoarse_n_sweep = 1,2,3,4,5\n",
    "coefficient = constant:1e-160\ncoarse_n_sweep = 1,2,3,4,5\n",
], ids=["huge", "huge-spread", "huge-penalty", "tiny", "tiny-subnormal"])
def test_face_weight_out_of_range_is_config_error(tmp_path, capsys, keys):
    # the penalty's 2 nu_1 nu_2 overflows, or underflows, or gamma0_sq leaves
    # no headroom for the row sums
    cfg = tmp_path / "range.cfg"
    cfg.write_text("mesh_n = 8\ngrid_m = 2\noversampling_layers = 1\n" + keys)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "face weight" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_repeated_sweep_value_leaves_no_fit(tmp_path):
    # five rows at one n give the fit a constant abscissa
    cfg = parse_config("mesh_n = 16\ngrid_m = 2\noversampling_layers = 2\n"
                       "coarse_n_sweep = 4,4,4,4,4\nchecks = off\n")
    assert run(cfg, out_dir=tmp_path) == 0
    rows = (tmp_path / "errors.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 5
    assert all(row.endswith(",nan,nan") for row in rows)


def test_eigenvalue_export_format(tmp_path):
    cfg = parse_config("mesh_n = 24\ngrid_m = 3\noversampling_layers = 2\n"
                       "coarse_rule = fixed:2\nchecks = off\n")
    assert run(cfg, out_dir=tmp_path) == 0
    lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "j,k,lambda,is_infinite"
    rows = [line.split(",") for line in lines[1:]]
    # one row per eigenvalue of every subdomain, in (j, k) order
    problem = build_problem(cfg)
    locals_ = compute_local_data(problem.mesh, problem.forms, problem.decomp, problem.pou,
                                 cfg.sweep_values())
    assert len(rows) == sum(d.eigenvalues.size for d in locals_)
    assert [(int(j), int(k), float(lam)) for j, k, lam, _ in rows] == \
        [(d.j, k, lam) for d in locals_ for k, lam in enumerate(d.eigenvalues)]
    for _, _, lam, is_inf in rows:
        # shortest round trip of a plain float, never numpy's repr
        assert is_inf == ("1" if lam == "inf" else "0")
        assert lam == "inf" or repr(float(lam)) == lam
    # only the centre subdomain of the 3x3 grid has no boundary face: one kernel mode
    assert [(int(j), int(k)) for j, k, lam, _ in rows if lam == "inf"] == [(4, 0)]


def test_sweep_beyond_available_modes_is_config_error(tmp_path, capsys):
    # a subdomain's mode count follows from its geometry, so the error comes
    # before the output directory, the suite's checks.json included; at one
    # subdomain the oversampling domain is the mesh and has no mode at all
    cases = [(SMALL + "coarse_n_sweep = 2,5000\n", 5000, 138),
             ("mesh_n = 8\ngrid_m = 1\ncoarse_n_sweep = 1\n", 1, 0)]
    for k, (text, n, available) in enumerate(cases):
        for checks in ("on", "off"):
            cfg = tmp_path / f"big-{k}-{checks}.cfg"
            cfg.write_text(text + f"checks = {checks}\n")
            out = tmp_path / f"o-{k}-{checks}"
            assert main(["--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: requested {n} coarse modes, but subdomain 0 has only "
                f"{available}\n")
            assert not out.exists()


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"mesh_n = 8\n\xff\xfegrid_m = 1\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "can't decode byte 0xff" in err
    assert not (tmp_path / "o").exists()


def test_config_with_a_byte_order_mark_reads_as_without_it(tmp_path):
    text = b"mesh_n = 8\ngrid_m = 1\nchecks = only\n"
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text)
    (tmp_path / "plain.cfg").write_bytes(text)
    for name in ("bom", "plain"):
        assert main(["--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "bom" / "config.txt").read_bytes()
            == (tmp_path / "plain" / "config.txt").read_bytes())


HIGH_CONTRAST = ("mesh_n = 32\ngrid_m = 4\ncoefficient = channels:1e8:4\n"
                 "coarse_n_sweep = 2,4,6,8\nchecks = off\n")


def test_high_contrast_coarse_solve_meets_the_scaled_contract(tmp_path):
    # with H-orthonormal subdomain columns the diagonally scaled coarse Gram
    # has condition at most 46 here, and the coarse residual relative to the
    # right-hand side alone is at most 6e-16
    cfg = parse_config(HIGH_CONTRAST)
    # the kernel Gram of the dense pencil is near-singular at this contrast
    with pytest.warns(LinAlgWarning):
        assert run(cfg, out_dir=tmp_path) == 0
    assert len((tmp_path / "errors.csv").read_text().strip().splitlines()) == 1 + 4


def test_ill_conditioned_kernel_gram_raised_as_an_error_is_a_pipeline_failure(tmp_path,
                                                                             capsys):
    # the test session raises LinAlgWarning, as PYTHONWARNINGS=error::RuntimeWarning
    # does for the CLI: the kernel Gram's rcond here is about 1.8e-18
    assert run(parse_config(HIGH_CONTRAST), out_dir=tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("pipeline failure: kernel Gram broke down: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "errors.csv").exists()


def test_high_contrast_rows_match_the_b_best_approximation(tmp_path):
    """At contrast 1e8 every sweep row is within 1% of the B-best approximation.

    The B-best approximation from a row's blended modes solves the least
    squares problem ``Lᵀ V y ≈ Lᵀ (u_fine - u_p)`` by QR, with ``B = L Lᵀ``
    factored densely (0.3 GB).  Some modes here keep only about 1e-7 of
    their H norm outside the span of the modes before them, so a Galerkin
    solve on their raw Gram matrix misses this by percents.  The CLI runs in
    its own process with BLAS on one thread, as the benchmark runs it.
    """
    (tmp_path / "run.cfg").write_text(HIGH_CONTRAST)
    src = str(Path(msgfem.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "msgfem.cli", "--config",
                           str(tmp_path / "run.cfg"), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "o" / "errors.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)

    cfg = parse_config(HIGH_CONTRAST)
    problem = build_problem(cfg)
    mesh, decomp, pou, forms = problem.mesh, problem.decomp, problem.pou, problem.forms
    rules = cfg.sweep_values()
    with pytest.warns(LinAlgWarning):
        locals_ = compute_local_data(mesh, forms, decomp, pou, rules)
    u_fine = fine_solve(forms)
    e = u_fine - pou_blend(mesh, decomp, pou, [d.particular for d in locals_])
    L = la.cholesky(forms.B.toarray(order="F"), lower=True, overwrite_a=True)
    Lt_e = L.T @ e
    Bp = forms.Bplus
    assert len(rows) == len(rules)
    for rule, row in zip(rules, rows):
        assert row[header.index("n_j")] == rule[1]
        blocks = []
        for data in locals_:
            omega = decomp.omega(data.j)
            block = np.zeros((e.size, select_coarse(data.eigenvalues, rule, data.j)))
            block[subdomain_dofs(omega)] = (pou.dof_weights(mesh, data.j, omega)[:, None]
                                            * data.modes[:, :block.shape[1]])
            blocks.append(block)
        V = np.hstack(blocks)
        Q, R = la.qr(L.T @ V, mode="economic")
        r = e - V @ la.solve_triangular(R, Q.T @ Lt_e)
        best = np.sqrt(r @ (Bp @ r)) / np.sqrt(u_fine @ (Bp @ u_fine))
        got = row[header.index("relBplusErr")]
        assert abs(got / best - 1.0) <= 0.01, (rule, got, best)


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


def test_sweep_row_is_the_run_of_its_own_rule(tmp_path):
    # every column but the two fit columns, byte for byte: the kept modes of
    # row n are the leading n modes of the sweep's largest selection
    base = ("mesh_n = 16\ngrid_m = 2\noversampling_layers = 2\n"
            "coefficient = log_uniform:1e-2:1e2\nseed = 3\nchecks = off\n")
    rows = {}
    for name, keys in (("sweep", "coarse_n_sweep = 1,2,3,4,5,6\n"),
                       ("single", "coarse_rule = fixed:3\n")):
        assert run(parse_config(base + keys), out_dir=tmp_path / name) == 0
        rows[name] = (tmp_path / name / "errors.csv").read_text().splitlines()[1:]
    assert len(rows["sweep"]) == 6 and len(rows["single"]) == 1
    assert rows["sweep"][2].split(",")[:-2] == rows["single"][0].split(",")[:-2]


def test_zero_source_writes_rows_of_exactly_zero_error(tmp_path):
    cfg = parse_config("mesh_n = 16\ngrid_m = 2\noversampling_layers = 2\n"
                       "source = constant:0\ncoarse_n_sweep = 0,1,2,3,4,5\n")
    assert run(cfg, out_dir=tmp_path) == 0
    with open(tmp_path / "errors.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    assert len(rows) == 6
    column = {name: rows[:, header.index(name)] for name in header}
    assert np.all(column["relBplusErr"] == 0.0) and np.all(column["relL2Err"] == 0.0)
    assert np.all(np.isfinite(column["maxSqrtLambdaNext"]))
    assert np.all(np.isnan(column["fitSlope"])) and np.all(np.isnan(column["fitR2"]))


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


@pytest.mark.parametrize("checks", ["on", "only"])
@pytest.mark.parametrize("text", [
    "coefficient = bogus:1\n",
    "mesh_n = 16\ngrid_m = 2\ncoefficient = checkerboard:10:3\n",
])
def test_config_error_found_while_building_writes_nothing(tmp_path, text, checks):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + f"checks = {checks}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_one_subdomain_suite_skips_harmonicity(tmp_path):
    # the whole mesh is the one oversampling domain, so it has no layer to extend
    cfg = tmp_path / "one.cfg"
    cfg.write_text("mesh_n = 8\ngrid_m = 1\nchecks = only\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "checks.json").read_text())
    assert report["all_pass"] is True
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["local.harmonicity"] == "skip"
    assert [name for name, st in status.items() if st != "pass"] == ["local.harmonicity"]


def test_checked_run_builds_mesh_decomposition_and_pou_once(tmp_path, monkeypatch):
    calls = Counter()
    for name in ("build_structured_mesh", "coefficient_field", "build_decomposition",
                 "build_pou"):
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
    cfg = parse_config(SMALL)
    assert cfg.checks == "on" and cfg.mesh_n == 16
    assert run(cfg, out_dir=tmp_path) == 0
    assert calls == {"build_structured_mesh": 1, "coefficient_field": 1,
                     "build_decomposition": 1, "build_pou": 1, "DGAssembler": 1}
