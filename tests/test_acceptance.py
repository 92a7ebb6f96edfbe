"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The reference configuration is a 64x64 mesh with a 4x4 subdomain grid,
overlap 2, oversampling 4 and squared penalty parameter 10, run once with a
unit coefficient and once with a contrast-1e4 quadrant checkerboard.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from caccioppoli import caccioppoli_ratios, centred_blocks
from manufactured import manufactured_convergence
from msgfem.cli import run as cli_run
from msgfem.config import parse_config
from msgfem.decomposition import build_decomposition, grow, square_block
from msgfem.dg_forms import DGAssembler, GlobalForms
from msgfem.gfem import error_report, solve_msgfem
from msgfem.local_problems import MaskedSystem, compute_local_data
from msgfem.mesh import build_structured_mesh, coefficient_field
from msgfem.space_ops import build_pou
from msgfem.verification import (blend_deviation, decay_fit, fine_solve,
                                 harmonicity_defect, kernel_dichotomy,
                                 operator_identities)

G0 = np.sqrt(10.0)
REF = dict(n=64, m=4, overlap=2, oversampling=4)
CHECKER = "checkerboard:10000:32"
SWEEP = [("fixed", n) for n in range(1, 13)]


def source_one(x, y):
    return np.ones_like(x)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def reference():
    """Mesh, decomposition, weights and local spectra for both coefficients."""
    mesh = build_structured_mesh(REF["n"])
    decomp = build_decomposition(mesh, REF["m"], REF["overlap"], REF["oversampling"])
    pou = build_pou(mesh, decomp)
    out = {"mesh": mesh, "decomp": decomp, "pou": pou, "locals": {}, "coef": {},
           "seconds": {}}
    for label, spec in (("constant", "constant:1"), ("checker", CHECKER)):
        coef = coefficient_field(mesh, spec)
        t0 = time.time()
        out["locals"][label] = compute_local_data(
            mesh, GlobalForms(DGAssembler(mesh, coef, G0), source_one), decomp, pou, SWEEP)
        out["seconds"][label] = time.time() - t0
        out["coef"][label] = coef
    return out


def test_criterion_1_discretization_validity():
    t0 = time.time()
    _, l2_rates, energy_rates = manufactured_convergence([8, 16, 32, 64], G0)
    elapsed = time.time() - t0
    l2, en = l2_rates[-1], energy_rates[-1]
    ok = l2 >= 1.8 and en >= 0.9 and elapsed < 60.0
    report(1, ok, f"L2 rate {l2:.3f} >= 1.8, energy rate {en:.3f} >= 0.9, "
                  f"runtime {elapsed:.1f}s < 60s")


def test_criterion_2_framework_identities():
    mesh = build_structured_mesh(16)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    asm = DGAssembler(mesh, coef, G0)
    pairs = [
        (square_block(mesh, 4, 9, 4, 9), grow(mesh, square_block(mesh, 4, 9, 4, 9), 3)),
        (square_block(mesh, 0, 6, 0, 6), square_block(mesh, 0, 9, 0, 9)),
        (square_block(mesh, 3, 7, 0, 5), grow(mesh, square_block(mesh, 3, 7, 0, 5), 3)),
    ]
    rng = np.random.Generator(np.random.PCG64(42))
    iso, exact, nonexpansive, loc = zip(*(operator_identities(asm, D, D_star, rng, 34)
                                          for D, D_star in pairs))
    count = 34 * len(pairs)
    worst_iso, worst_loc = max(iso), max(loc)
    ok = (count >= 100 and worst_iso <= 1e-12 and worst_loc <= 1e-12
          and all(exact) and all(nonexpansive))
    report(2, ok, f"{count} vectors: isometry dev {worst_iso:.2e} <= 1e-12, "
                  f"locality dev {worst_loc:.2e} <= 1e-12, restriction "
                  "non-expansive, restrict-after-extend exact")


def test_criterion_3_kernel_characterization(reference):
    mesh = reference["mesh"]
    decomp = reference["decomp"]
    coef = reference["coef"]["constant"]
    asm = DGAssembler(mesh, coef, G0)
    holds, defects = zip(*(kernel_dichotomy(asm, D) for j in range(decomp.n_subdomains)
                           for D in (decomp.omega(j), decomp.omega_star(j))))
    interior = [d for d in defects if d is not None]
    n_interior = len(interior)
    worst = max(interior, default=0.0)
    ok = n_interior > 0 and worst <= 1e-12 and all(holds)
    report(3, ok, f"{n_interior} interior subdomains with |B+ 1|_inf "
                  f"{worst:.2e} <= 1e-12; all boundary subdomains strictly "
                  "positive at the constant vector")


def _sharp_stability_constant(n):
    mesh = build_structured_mesh(n)
    coef = coefficient_field(mesh, "constant:1")
    decomp = build_decomposition(mesh, 2, 2, 4)
    pou = build_pou(mesh, decomp)
    om = decomp.omega(0)
    H = DGAssembler(mesh, coef, G0).matrix(om, "H").tocsc()
    P = sp.diags(pou.dof_weights(mesh, 0, om))
    A = (P @ H @ P).tocsc()
    lam = spla.eigsh(A, k=1, M=H, which="LA", return_eigenvectors=False,
                     tol=1e-9)[0]
    grad = np.einsum("ei,eid->ed", pou.values[0][mesh.elements], mesh.grads)
    grad_inf = float(np.linalg.norm(grad, axis=1).max())
    return float(np.sqrt(lam) / np.sqrt(1.0 + grad_inf ** 2))


def test_criterion_4_partition_of_unity(reference):
    mesh = reference["mesh"]
    decomp = reference["decomp"]
    pou = reference["pou"]
    sum_dev = float(np.abs(pou.values.sum(axis=0) - 1.0).max())
    blend_dev = blend_deviation(mesh, decomp, pou, np.random.Generator(np.random.PCG64(7)), 5)
    c32 = _sharp_stability_constant(32)
    c64 = _sharp_stability_constant(64)
    factor = max(c32 / c64, c64 / c32)
    ok = sum_dev <= 1e-14 and blend_dev <= 1e-12 and factor <= 2.0
    report(4, ok, f"weight sums deviate {sum_dev:.2e} <= 1e-14, blend "
                  f"reproduces to {blend_dev:.2e} <= 1e-12, stability "
                  f"constant {c32:.3f} vs {c64:.3f} (factor {factor:.2f} <= 2)")


def test_criterion_5_harmonicity(reference):
    mesh = reference["mesh"]
    decomp = reference["decomp"]
    all_harmonic = True
    worst_resid = 0.0
    worst_const = 0.0
    n_interior = 0
    for label in ("constant", "checker"):
        coef = reference["coef"][label]
        forms = GlobalForms(DGAssembler(mesh, coef, G0), source_one)
        asm = forms.asm
        for j in range(decomp.n_subdomains):
            D = decomp.omega_star(j)
            basis = MaskedSystem(forms, D).harmonic_extension()
            ok, defect = harmonicity_defect(asm, D, basis)
            all_harmonic = all_harmonic and ok
            worst_resid = max(worst_resid, defect)
            if not np.any(np.isin(mesh.bface_elem, D)):
                n_interior += 1
                # layer rows pin the coefficients, so span membership of the
                # constant reduces to the all-ones layer data extending to it
                misfit = basis @ np.ones(basis.shape[1]) - 1.0
                worst_const = max(worst_const, float(
                    np.linalg.norm(misfit) / np.sqrt(basis.shape[0])))
    ok = all_harmonic and worst_const <= 1e-10 and n_interior > 0
    report(5, ok, f"max scaled harmonicity residual {worst_resid:.2e} <= 1e-10 over "
                  f"all columns/subdomains/coefficients; constant lies in the "
                  f"span of {n_interior} interior bases to {worst_const:.2e}")


def test_criterion_6_eigenvalue_decay(reference):
    elapsed = sum(reference["seconds"].values())
    worst_r2 = 1.0
    worst_slope = -np.inf
    for label in ("constant", "checker"):
        for data in reference["locals"][label]:
            lam = data.eigenvalues[np.isfinite(data.eigenvalues)][:20]
            slope, _, r2 = decay_fit(np.arange(1, lam.size + 1), np.sqrt(lam))
            worst_r2 = min(worst_r2, r2)
            worst_slope = max(worst_slope, slope)
    ok = worst_slope < 0.0 and worst_r2 >= 0.9 and elapsed < 300.0
    report(6, ok, f"every subdomain fits log sqrt(lambda_n) ~ n^(1/2) with "
                  f"slope <= {worst_slope:.2f} < 0 and R2 >= {worst_r2:.3f} "
                  f">= 0.9 for both coefficients; runtime {elapsed:.0f}s < 300s")


def test_criterion_7_global_error_decay(reference):
    mesh = reference["mesh"]
    decomp = reference["decomp"]
    details = []
    ok = True
    for label in ("constant", "checker"):
        coef = reference["coef"][label]
        locals_ = reference["locals"][label]
        forms = GlobalForms(DGAssembler(mesh, coef, G0), source_one)
        u_fine = fine_solve(forms)
        errs, lams = [], []
        for sol in solve_msgfem(forms, locals_):
            errs.append(error_report(forms, sol.u_G, u_fine)[0])
            lams.append(sol.max_sqrt_lambda_next)
        errs = np.array(errs)
        slope, _, r2 = decay_fit(np.arange(1, errs.size + 1), errs)
        ratio = max(e / l for e, l in zip(errs, lams) if np.isfinite(l))
        strict = errs[9] < errs[1]
        ok = ok and strict and r2 >= 0.85 and ratio <= 1.0
        details.append(f"{label}: err(2)={errs[1]:.2e} > err(10)={errs[9]:.2e}, "
                       f"fit R2 {r2:.3f} >= 0.85, error/spectrum ratio {ratio:.2f} <= 1")
    report(7, ok, "; ".join(details))


def test_criterion_8_interior_energy_bound():
    maxima = {}
    for n, spec in ((32, "constant:1"), (64, "constant:1"), (32, "checkerboard:10000:8"),
                    (32, "channels:100:2"), (32, "log_uniform:1e-3:1e3"),
                    (32, "checkerboard:1e8:8")):
        mesh = build_structured_mesh(n)
        coef = coefficient_field(mesh, spec)
        om, oms = centred_blocks(mesh)
        ratios, delta = caccioppoli_ratios(GlobalForms(DGAssembler(mesh, coef, G0), source_one),
                                           om, oms, 50, 2024)
        maxima[n, spec] = float(ratios.max())
    c32, c64 = maxima[32, "constant:1"], maxima[64, "constant:1"]
    factor = max(c32 / c64, c64 / c32)
    worst = max(maxima.values())
    ok = factor <= 3.0 and worst <= 1.0
    report(8, ok, f"50 harmonic samples per mesh and coefficient, max scaled ratio "
                  f"{worst:.3f} <= 1; unit coefficient {c32:.3f} (n=32) vs "
                  f"{c64:.3f} (n=64), factor {factor:.2f} <= 3")


def test_criterion_9_single_subdomain_exactness():
    mesh = build_structured_mesh(32)
    coef = coefficient_field(mesh, "checkerboard:100:4")
    decomp = build_decomposition(mesh, 1, 2, 4)
    pou = build_pou(mesh, decomp)
    forms = GlobalForms(DGAssembler(mesh, coef, G0), source_one)
    locals_ = compute_local_data(mesh, forms, decomp, pou, [("fixed", 0)])
    [sol] = solve_msgfem(forms, locals_)
    u_G = sol.u_G
    u_fine = fine_solve(forms)
    H = forms.H
    diff = u_G - u_fine
    rel = float(np.sqrt(diff @ (H @ diff)) / np.sqrt(u_fine @ (H @ u_fine)))
    ok = rel <= 1e-10
    report(9, ok, f"single-subdomain solution matches the fine solve to "
                  f"{rel:.2e} <= 1e-10 in the global inner-product norm")


def test_criterion_10_determinism(tmp_path):
    cfg = parse_config(
        "mesh_n = 16\ngrid_m = 2\noverlap_layers = 2\noversampling_layers = 2\n"
        "coefficient = log_uniform:1:1000\nseed = 3\ncoarse_n_sweep = 1,2,3,4,5\n")
    cli_run(cfg, out_dir=tmp_path / "a")
    cli_run(cfg, out_dir=tmp_path / "b")
    same = all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in ("eigenvalues.csv", "errors.csv", "checks.json"))
    report(10, same, "repeated runs of one config produce byte-identical "
                     "eigenvalue, error and check artifacts")
