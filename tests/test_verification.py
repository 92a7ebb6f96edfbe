import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as la

import msgfem.local_problems as local_problems
import msgfem.verification as verification
from manufactured import manufactured_convergence
from msgfem.cli import build_problem
from msgfem.config import RunConfig, parse_config
from msgfem.decomposition import d_minus, square_block
from msgfem.dg_forms import DGAssembler
from msgfem.errors import ConfigError, SolverError
from msgfem.gfem import GlobalForms
from msgfem.mesh import build_structured_mesh, coefficient_field
from msgfem.verification import (annulus_distance, caccioppoli_ratios,
                                 decay_fit, fine_solve, run_property_suite)

G0 = np.sqrt(10.0)


def test_zero_source_zero_solution():
    mesh = build_structured_mesh(4)
    coef = coefficient_field(mesh, "constant:1")
    u = fine_solve(GlobalForms(DGAssembler(mesh, coef, G0), lambda x, y: 0.0))
    assert np.all(u == 0.0)


def test_manufactured_rates_reach_theory():
    h, l2_rates, energy_rates = manufactured_convergence([8, 16, 32], G0)
    assert l2_rates[-1] >= 1.8
    assert energy_rates[-1] >= 0.9
    assert all(np.diff(h) < 0)


def test_global_residual_contract_unit_contrast():
    mesh = build_structured_mesh(16)
    coef = coefficient_field(mesh, "constant:1")
    asm = DGAssembler(mesh, coef, G0)
    u = fine_solve(GlobalForms(asm, lambda x, y: np.ones_like(x)))
    B = asm.matrix(None, "B")
    F = asm.load(lambda x, y: 1.0)
    assert np.linalg.norm(B @ u - F) <= 1e-10 * np.linalg.norm(F)


def test_solver_error_type_names_the_penalty(monkeypatch):
    # a factor that breaks down is reported with the penalty hint (the
    # coercivity probe in the property suite is what detects tiny penalties)
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(verification.spla, "splu", singular)
    mesh = build_structured_mesh(4)
    forms = GlobalForms(DGAssembler(mesh, coefficient_field(mesh, "constant:1"), G0),
                        lambda x, y: np.ones_like(x))
    with pytest.raises(SolverError, match="global solve broke down .*Factor is exactly "
                       "singular.*penalty parameter may be below the coercive range"):
        fine_solve(forms)


def test_decay_fit_exact_exponential():
    n = np.arange(1, 21)
    slope, intercept, r2 = decay_fit(n, np.exp(-np.sqrt(n)), 0.5)
    assert slope == pytest.approx(-1.0, abs=1e-10)
    assert intercept == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)


def test_decay_fit_constant_sequence():
    slope, _, r2 = decay_fit(np.arange(1, 9), np.full(8, 2.5), 0.5)
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_decay_fit_input_validation():
    with pytest.raises(ValueError):
        decay_fit(np.arange(1, 5), [1.0, 0.5, 0.25, 0.125], 0.5)
    with pytest.raises(ValueError):
        decay_fit(np.arange(1, 6), [1.0, 0.5, 0.0, 0.1, 0.2], 0.5)


def test_caccioppoli_ratios_finite_and_guarded():
    mesh = build_structured_mesh(32)
    coef = coefficient_field(mesh, "constant:1")
    om = square_block(mesh, 13, 19, 13, 19)
    oms = square_block(mesh, 8, 24, 8, 24)
    asm = DGAssembler(mesh, coef, G0)
    ratios, delta = caccioppoli_ratios(asm, om, oms, 10, 0)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    assert delta == pytest.approx(5 / 32)
    with pytest.raises(ValueError, match="separation"):
        caccioppoli_ratios(asm, square_block(mesh, 9, 23, 9, 23), oms, 5, 0)


def test_annulus_distance_block_geometry():
    mesh = build_structured_mesh(16)
    om = square_block(mesh, 6, 10, 6, 10)
    oms = square_block(mesh, 3, 13, 3, 13)
    assert annulus_distance(mesh, om, oms) == pytest.approx(3 / 16)
    everything = np.arange(mesh.n_elements)
    assert annulus_distance(mesh, om, everything) == np.inf


def small_config(**overrides):
    cfg = RunConfig(mesh_n=16, grid_m=2, overlap_layers=2,
                    oversampling_layers=2, coefficient="checkerboard:100:2")
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def test_property_suite_passes_on_healthy_config():
    report = run_property_suite(build_problem(small_config()))
    assert report.ok, report.to_text()
    names = [c.name for c in report.checks]
    for expected in ("mesh.euler_formula", "decomposition.shrunk_cover",
                     "space_ops.extension_isometry", "space_ops.locality_identity",
                     "dg_forms.kernel_characterization", "space_ops.pou_sum_to_one",
                     "local.harmonicity", "dg_forms.bplus_psd",
                     "dg_forms.coercivity"):
        assert expected in names
    payload = json.dumps(report.to_json_dict(), sort_keys=True)
    assert json.loads(payload)["all_pass"] is True
    assert "all checks passed" in report.to_text()


def test_property_suite_flags_tiny_penalty():
    report = run_property_suite(build_problem(small_config(gamma0_sq=1e-4)))
    assert not report.ok
    failing = [c.name for c in report.checks if c.status == "fail"]
    assert "dg_forms.coercivity" in failing


@pytest.mark.parametrize("text, status, origin", [
    # a block of 8 does not divide 12 cells: only the run's own mesh carries this spec
    ("mesh_n = 16\ngrid_m = 2\noversampling_layers = 2\ncoefficient = checkerboard:100:8\n",
     "pass", (0, 0)),
    ("mesh_n = 32\ngrid_m = 4\ncoefficient = channels:1e8:4\n", "pass", (0, 0)),
    ("coefficient = checkerboard:1e8:8\n", "pass", (0, 0)),
    ("gamma0_sq = 1\n", "fail", (0, 0)),
    # the corner lies in one checkerboard cell; bottom-edge block 21 is the first to
    # reach column 32
    ("coefficient = checkerboard:10000:32\n", "pass", (21, 0)),
    # the corner lies in one 16-cell stripe; left-edge block 5 is the first to reach row 16
    ("coefficient = channels:100:2\n", "pass", (0, 5)),
], ids=["checkerboard-100-8", "channels-1e8", "checkerboard-1e8", "gamma0_sq-1",
        "checkerboard-1e4-32", "channels-100-2"])
def test_coercivity_probe_reads_the_runs_own_corner_block(text, status, origin):
    """The probe reads the edge block with the largest coefficient jump, the corner on ties."""
    problem = build_problem(parse_config(text))
    probe = next(c for c in run_property_suite(problem).checks
                 if c.name == "dg_forms.coercivity")
    x, y = origin
    block = square_block(problem.mesh, x, x + 12, y, y + 12)
    values = problem.coefficient.values[block]
    assert values.max() / values.min() == problem.coefficient.contrast
    B = problem.forms.asm.matrix(block, "B").toarray()
    assert probe.status == status
    assert probe.witness == {"min_eig": float(la.eigvalsh(0.5 * (B + B.T))[0]),
                             "probe_cells": 12}


def test_zero_overlap_rejected_at_parse_time():
    with pytest.raises(ConfigError, match="overlap_layers"):
        parse_config("overlap_layers = 0\n")


def test_suite_runs_interior_energy_bound_on_larger_meshes():
    report = run_property_suite(build_problem(small_config(
        mesh_n=32, grid_m=2, coefficient="constant:1")))
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["local.interior_energy_bound"].status == "pass"
    assert by_name["local.interior_energy_bound"].witness["max_ratio"] > 0.0


SUITE_CHECKS = [
    "mesh.euler_formula", "mesh.face_identity", "mesh.unit_area",
    "decomposition.hulls", "decomposition.nesting", "decomposition.shrunk_cover",
    "space_ops.extension_isometry", "space_ops.restrict_extend_identity",
    "space_ops.restriction_nonexpansive", "space_ops.locality_identity",
    "dg_forms.kernel_characterization", "space_ops.pou_sum_to_one",
    "space_ops.blend_reproduction", "space_ops.pou_support", "space_ops.pou_range",
    "local.harmonicity", "local.interior_energy_bound", "dg_forms.bplus_psd",
    "dg_forms.h_positive", "dg_forms.coercivity",
]


@pytest.mark.parametrize("text", [
    "",   # the default config, (64, 4)
    "mesh_n = 40\ngrid_m = 4\noversampling_layers = 4\n",
    "mesh_n = 32\ngrid_m = 8\n",
    "mesh_n = 60\ngrid_m = 6\noversampling_layers = 4\n"
    "coefficient = log_uniform:1e-3:1e3\n",
], ids=["default", "local-40x4", "coarse-32x8", "contrast-60x6-2t"])
def test_suite_passes_every_check_on_the_benchmark_configs(text):
    report = run_property_suite(build_problem(parse_config(text)))
    assert [(c.name, c.status) for c in report.checks] == \
        [(name, "pass") for name in SUITE_CHECKS]


@pytest.mark.parametrize("overrides", [{}, {"mesh_n": 32, "grid_m": 2,
                                            "coefficient": "constant:1"}])
def test_suite_solves_no_block_wider_than_its_samples(monkeypatch, overrides):
    widths = []
    solve_checked = local_problems.solve_checked

    def recording(solve, A, b, name):
        widths.append(1 if b.ndim == 1 else b.shape[1])
        return solve_checked(solve, A, b, name)

    monkeypatch.setattr(local_problems, "solve_checked", recording)
    report = run_property_suite(build_problem(small_config(**overrides)))
    assert report.ok
    assert widths and max(widths) <= 20


def test_per_subdomain_checks_name_their_first_failing_subdomain():
    problem = build_problem(small_config())
    mesh, decomp, pou = problem.mesh, problem.decomp, problem.pou
    subdomains = list(decomp.subdomains)
    for j in (1, 3):   # omega_j no longer nests in omega*_j
        omega, omega_star = subdomains[j]
        subdomains[j] = (omega, np.setdiff1d(omega_star, omega[-1:]))
    values = pou.values.copy()   # weight 3 leaks outside its shrunk subdomain
    outside = np.setdiff1d(np.arange(mesh.n_elements), d_minus(mesh, decomp.omega(3)))
    values[3, mesh.elements[outside[0], 0]] = 0.5
    doctored = dataclasses.replace(
        problem, decomp=dataclasses.replace(decomp, subdomains=subdomains),
        pou=dataclasses.replace(pou, values=values))
    by_name = {c.name: (c.status, c.witness) for c in run_property_suite(doctored).checks}
    assert by_name["decomposition.nesting"] == ("fail", {"subdomain": 1})
    # the cover is taken over every subdomain, not only up to the first misnested one
    assert by_name["decomposition.shrunk_cover"] == ("pass", {"uncovered": 0})
    assert by_name["space_ops.pou_support"] == ("fail", {"subdomain": 3})
    assert by_name["dg_forms.kernel_characterization"] == ("pass", {})
