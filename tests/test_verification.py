import dataclasses
import json
import types

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

import msgfem.local_problems as local_problems
import msgfem.verification as verification
from caccioppoli import annulus_distance, caccioppoli_ratios
from manufactured import manufactured_convergence
from msgfem.cli import build_problem
from msgfem.config import RunConfig, parse_config
from msgfem.decomposition import d_minus, square_block
from msgfem.dg_forms import DGAssembler, GlobalForms
from msgfem.errors import ConfigError, SolverError
from msgfem.gfem import error_report, solve_msgfem
from msgfem.local_problems import MaskedSystem, compute_local_data
from msgfem.mesh import build_structured_mesh, coefficient_field
from msgfem.verification import (decay_fit, fine_solve, harmonicity_defect,
                                 run_property_suite)

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
    # an exactly singular factor fails the certificate, so it is reported as a
    # form that is not positive definite, naming the penalty
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(verification.spla, "splu", singular)
    mesh = build_structured_mesh(4)
    forms = GlobalForms(DGAssembler(mesh, coefficient_field(mesh, "constant:1"), G0),
                        lambda x, y: np.ones_like(x))
    with pytest.raises(SolverError,
                       match="^global form is not positive definite at gamma0_sq = 10;"):
        fine_solve(forms)


def test_spd_factor_rejects_an_exactly_singular_matrix():
    assert verification._spd_factor(sp.diags([1.0, 0.0]).tocsc()) is None
    assert verification._spd_factor(sp.diags([1.0, 2.0]).tocsc()) is not None


def test_failed_residual_on_a_certified_factor_gives_no_penalty_hint(monkeypatch):
    # B certifies, so a solve that misses its residual contract is the solve's own
    # failure and says nothing of the penalty
    spd_factor = verification._spd_factor

    def drifting(A):
        lu = spd_factor(A)
        return types.SimpleNamespace(solve=lambda b: lu.solve(b) * (1 + 1e-6))

    monkeypatch.setattr(verification, "_spd_factor", drifting)
    mesh = build_structured_mesh(4)
    forms = GlobalForms(DGAssembler(mesh, coefficient_field(mesh, "constant:1"), G0),
                        lambda x, y: np.ones_like(x))
    with pytest.raises(SolverError, match=r"^global residual \S+ exceeds tolerance$"):
        fine_solve(forms)


def test_decay_fit_exact_exponential():
    n = np.arange(1, 21)
    slope, intercept, r2 = decay_fit(n, np.exp(-np.sqrt(n)))
    assert slope == pytest.approx(-1.0, abs=1e-10)
    assert intercept == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)


def test_decay_fit_constant_sequence():
    slope, _, r2 = decay_fit(np.arange(1, 9), np.full(8, 2.5))
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_decay_fit_input_validation():
    # fewer than five points, or five with one not positive, leave no fit
    assert np.isnan(decay_fit(np.arange(1, 5), [1.0, 0.5, 0.25, 0.125])).all()
    assert np.isnan(decay_fit(np.arange(1, 6), [1.0, 0.5, 0.0, 0.1, 0.2])).all()


def test_decay_fit_needs_five_distinct_points():
    # a repeated n gives lstsq a constant abscissa, which it would split arbitrarily
    assert np.isnan(decay_fit(np.full(5, 4), np.full(5, 0.0026))).all()
    n = np.arange(1, 7)
    values = np.exp(-2.0 * np.sqrt(n))
    values[2] = np.nan
    slope, intercept, r2 = decay_fit(n, values)
    assert slope == pytest.approx(-2.0, abs=1e-10)
    assert intercept == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)


def _fitted_rate(spec: str, oversampling: int) -> float:
    """The errors.csv ``fitSlope`` of a 1..12 sweep at (32, 4) with overlap 2."""
    problem = build_problem(RunConfig(mesh_n=32, grid_m=4, oversampling_layers=oversampling,
                                      coefficient=spec, coarse_n_sweep=list(range(1, 13))))
    decomp, pou, forms = problem.decomp, problem.pou, problem.forms
    mesh = forms.asm.mesh
    rules = problem.config.sweep_values()
    locals_ = compute_local_data(mesh, forms, decomp, pou, rules)
    u_fine = fine_solve(forms)
    errors = [error_report(forms, sol.u_G, u_fine)[0]
              for sol in solve_msgfem(forms, locals_)]
    return decay_fit(range(1, 13), errors)[0]


@pytest.mark.parametrize("spec", ["constant:1", "checkerboard:10000:8"])
def test_decay_rate_grows_with_oversampling(spec):
    # the rate depends on the oversampling ratio; R^2 does not tell exponents
    # apart, so the claim tested is the strictly monotone slope (measured:
    # -1.86, -2.18, -2.46 and -3.13, -3.41, -3.61)
    slopes = [_fitted_rate(spec, layers) for layers in (1, 2, 3)]
    assert slopes[0] > slopes[1] > slopes[2], slopes


def test_caccioppoli_ratios_finite_and_guarded():
    mesh = build_structured_mesh(32)
    coef = coefficient_field(mesh, "constant:1")
    om = square_block(mesh, 13, 19, 13, 19)
    oms = square_block(mesh, 8, 24, 8, 24)
    forms = GlobalForms(DGAssembler(mesh, coef, G0), lambda x, y: np.ones_like(x))
    ratios, delta = caccioppoli_ratios(forms, om, oms, 10, 0)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    assert delta == pytest.approx(5 / 32)
    with pytest.raises(ValueError, match="separation"):
        caccioppoli_ratios(forms, square_block(mesh, 9, 23, 9, 23), oms, 5, 0)


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


@pytest.mark.parametrize("gamma0_sq", [2.0, 2.8, 2.9, 2.95, 3.0, 10.0])
@pytest.mark.parametrize("spec", ["constant:1", "checkerboard:1e4:8"])
def test_coercivity_certificate_reads_the_sign_of_B(spec, gamma0_sq):
    """The suite's check and the fine solve each pass exactly when ``B`` is positive definite.

    The sign flips between 2.95 and 3 for ``constant:1`` and between 2.9 and
    2.95 for the checkerboard, so both sides of each limit are sampled.
    """
    problem = build_problem(RunConfig(mesh_n=16, grid_m=4, oversampling_layers=2,
                                      coefficient=spec, gamma0_sq=gamma0_sq))
    B = problem.forms.B.toarray()
    definite = bool(la.eigvalsh(0.5 * (B + B.T))[0] > 0.0)
    check = next(c for c in run_property_suite(problem).checks
                 if c.name == "dg_forms.coercivity")
    # a failure names the first subdomain whose masked block is not positive definite
    assert (check.status, set(check.witness)) == \
        (("pass", set()) if definite else ("fail", {"subdomain"}))
    try:
        fine_solve(problem.forms)
        solved = True
    except SolverError as exc:
        assert f"gamma0_sq = {gamma0_sq:g};" in str(exc)
        solved = False
    assert solved == definite


@pytest.mark.parametrize("mesh_n, spec", [(64, "checkerboard:1e6:8"), (64, "channels:1e6:4"),
                                           (32, "checkerboard:1e8:8"), (32, "channels:1e8:4")])
def test_high_contrast_forms_certify(mesh_n, spec):
    # the smallest pivot ratio of the suite's blocks is about 1e-7 at (64, 4) and
    # contrast 1e6, and 1.4e-9 at (32, 4) and 1e8; each block and the global B certify
    problem = build_problem(RunConfig(mesh_n=mesh_n, coefficient=spec))
    check = next(c for c in run_property_suite(problem).checks
                 if c.name == "dg_forms.coercivity")
    assert check.status == "pass"
    assert np.isfinite(fine_solve(problem.forms)).all()


def test_zero_overlap_rejected_at_parse_time():
    with pytest.raises(ConfigError, match="overlap_layers"):
        parse_config("overlap_layers = 0\n")


SUITE_CHECKS = [
    "mesh.euler_formula", "mesh.face_identity", "mesh.unit_area",
    "decomposition.hulls", "decomposition.nesting", "decomposition.shrunk_cover",
    "space_ops.extension_isometry", "space_ops.restrict_extend_identity",
    "space_ops.restriction_nonexpansive", "space_ops.locality_identity",
    "dg_forms.kernel_characterization", "space_ops.pou_sum_to_one",
    "space_ops.blend_reproduction", "space_ops.pou_support", "space_ops.pou_range",
    "local.harmonicity", "dg_forms.bplus_psd", "dg_forms.h_positive",
    "dg_forms.coercivity",
]


@pytest.mark.parametrize("text", [
    "",   # the default config, (64, 4)
    "mesh_n = 40\ngrid_m = 4\noversampling_layers = 4\n",
    "mesh_n = 32\ngrid_m = 8\n",
    "mesh_n = 60\ngrid_m = 6\noversampling_layers = 4\n"
    "coefficient = log_uniform:1e-3:1e3\n",
    # the default size at the highest contrast the run supports
    "coefficient = checkerboard:1e8:8\n",
    "coefficient = channels:1e8:4\n",
    # a random field of contrast 1e8, whose corner block is the tightest tried
    # inside that contrast: its eigenvalue ratio reaches 1.3e-8
    "coefficient = log_uniform:1e-4:1e4\n",
    "coefficient = log_uniform:1e-4:1e4\nseed = 3\n",
], ids=["default", "local-40x4", "coarse-32x8", "contrast-60x6-2t", "checkerboard-1e8-8",
        "channels-1e8-4", "log-uniform-1e8", "log-uniform-1e8-seed-3"])
def test_suite_passes_every_check_on_the_benchmark_configs(text):
    report = run_property_suite(build_problem(parse_config(text)))
    assert [(c.name, c.status) for c in report.checks] == \
        [(name, "pass") for name in SUITE_CHECKS]


@pytest.mark.parametrize("spec", ["constant:1", "checkerboard:10000:32",
                                  "checkerboard:1e8:8", "channels:1e8:4"])
def test_harmonicity_defect_holds_the_solve_contract_and_rejects_planted_defects(spec):
    """Extensions pass at any contrast; a masked or a coupled layer value moved by 1e-8 fails."""
    problem = build_problem(parse_config(f"coefficient = {spec}\n"))
    asm = problem.forms.asm
    D = problem.decomp.omega_star(problem.decomp.n_subdomains // 2)
    system = MaskedSystem(problem.forms, D)
    U = system.harmonic_extension()
    assert harmonicity_defect(asm, D, U)[0]
    # the masked dof with the stiffest row, and the layer dof that couples most
    # strongly to the masked dofs (the first layer dof couples to none)
    masked = system.free[np.argmax(asm.matrix(D, "B").diagonal()[system.free])]
    layer = system.layer[np.argmax(abs(system.Afl).sum(axis=0))]
    for dof in (masked, layer):
        planted = U[:, :1].copy()
        planted[dof] += 1e-8 * np.abs(planted).max()
        assert not harmonicity_defect(asm, D, planted)[0], dof


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
    mesh, decomp, pou = problem.forms.asm.mesh, problem.decomp, problem.pou
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


def test_indefinite_corner_block_fails_both_definiteness_checks(monkeypatch):
    problem = build_problem(small_config())
    asm = problem.forms.asm
    n = asm.mesh.structured_n
    corner = square_block(asm.mesh, 0, min(n, 4), 0, min(n, 4))
    matrix = asm.matrix

    def negated(D=None, kind="B"):
        A = matrix(D, kind)
        return -A if D is not None and np.array_equal(D, corner) else A

    monkeypatch.setattr(asm, "matrix", negated)
    by_name = {c.name: (c.status, c.witness) for c in run_property_suite(problem).checks}
    assert by_name["dg_forms.bplus_psd"] == ("fail", {})
    assert by_name["dg_forms.h_positive"] == ("fail", {})
    assert by_name["dg_forms.coercivity"] == ("pass", {})
