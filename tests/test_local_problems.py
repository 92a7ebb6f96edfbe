import re
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

import msgfem.local_problems as local_problems
from msgfem.cli import main
from msgfem.decomposition import build_decomposition, d_minus
from msgfem.dg_forms import (_LOAD_POINTS, _LOAD_WEIGHTS, DGAssembler, GlobalForms,
                             nested_dofs, subdomain_dofs)
from msgfem.errors import ConfigError, SolverError
from msgfem.gfem import assemble_coarse, solve_coarse, solve_msgfem
from msgfem.local_problems import (LocalSpectralData, MaskedSystem, check_fixed_counts,
                                   compute_local_data, eigenproblem, particular_solution,
                                   scaled_residual, select_coarse, solve_checked)
from msgfem.mesh import Coefficient, build_structured_mesh, coefficient_field
from msgfem.space_ops import build_pou, h0_dofs
from msgfem.verification import decay_fit, fine_solve

G0 = np.sqrt(10.0)
FIXED = [("fixed", 4)]


@pytest.fixture(scope="module")
def interior():
    """A 4 x 4 grid whose subdomain 5 has an oversampling domain off the boundary."""
    mesh = build_structured_mesh(32)
    decomp = build_decomposition(mesh, 4, 2, 4)
    return mesh, decomp, build_pou(mesh, decomp)


@pytest.fixture(scope="module")
def setting():
    mesh = build_structured_mesh(16)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    decomp = build_decomposition(mesh, 2, 2, 3)
    pou = build_pou(mesh, decomp)
    return mesh, coef, decomp, pou


def source_one(x, y):
    return np.ones_like(x)


def forms_of(mesh, coef, f=source_one):
    """Fresh global forms of the coefficient, with the penalty parameter of this module."""
    return GlobalForms(DGAssembler(mesh, coef, G0), f)


def harmonic_basis(forms, omega_star):
    """The harmonic basis of an oversampling domain."""
    return MaskedSystem(forms, omega_star).harmonic_extension()


def eigen(mesh, coef, pou, j, omega, omega_star):
    """The spectral problem of one subdomain on its own masked system."""
    forms = forms_of(mesh, coef)
    return eigenproblem(pou[j], omega, omega_star, MaskedSystem(forms, omega_star), FIXED)


# -- oracles: the separate source solve and harmonic basis this module replaced

def _oracle_solve(lu, b):
    """The solve contract: one LU solve, zeros for a zero right-hand side."""
    return np.zeros_like(b) if np.linalg.norm(b) == 0.0 else lu.solve(b)


def _oracle_load(asm, f, D):
    """The load assembled on the element set ``D`` alone, by the library's rule."""
    mesh = asm.mesh
    pts = np.einsum("qa,ead->eqd", _LOAD_POINTS, mesh.vertices[mesh.elements[D]])
    fv = np.broadcast_to(np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float),
                         pts.shape[:2])
    vals = np.einsum("eq,q,qi->ei", fv, _LOAD_WEIGHTS, _LOAD_POINTS) * mesh.areas[D][:, None]
    return vals.ravel()


def _oracle_particular(asm, f, omega, omega_star):
    A = asm.matrix(omega_star, "B")
    b = _oracle_load(asm, f, omega_star)
    free = h0_dofs(asm.mesh, omega_star)
    Aff = A[np.ix_(free, free)].tocsc()
    x = np.zeros(A.shape[0])
    x[free] = _oracle_solve(spla.splu(Aff), b[free])
    return x[nested_dofs(omega, omega_star)]


def _oracle_harmonic_basis(asm, omega_star):
    ndof = 3 * omega_star.size
    free = h0_dofs(asm.mesh, omega_star)
    layer = np.setdiff1d(np.arange(ndof), free, assume_unique=True)
    basis = np.zeros((ndof, layer.size))
    A = asm.matrix(omega_star, "B").tocsc()
    Aff = A[np.ix_(free, free)].tocsc()
    basis[layer, np.arange(layer.size)] = 1.0
    basis[free, :] = _oracle_solve(spla.splu(Aff), -A[np.ix_(free, layer)].toarray())
    return basis


def _oracle_deflated_pencil(A, M):
    """The deflated pencil with every temporary kept and ``eigh`` on copies: the lean path's oracle."""
    n = A.shape[0]
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    s, Q = la.eigh(M)
    scale = max(float(s[-1]), 0.0)
    kern = s <= 1e-10 * scale if scale > 0 else np.ones_like(s, dtype=bool)
    K = Q[:, kern]
    P = Q[:, ~kern]
    n_inf = K.shape[1]
    if P.shape[1] == 0:
        return np.full(n_inf, np.inf), K
    if n_inf:
        AK = A @ K
        G = K.T @ AK
        W = P - K @ la.solve(G, AK.T @ P, assume_a="pos")
    else:
        W = P
    Ar = W.T @ A @ W
    Ar = 0.5 * (Ar + Ar.T)
    Mr = W.T @ M @ W
    Mr = 0.5 * (Mr + Mr.T)
    lam, Y = la.eigh(Ar, Mr)
    values = np.concatenate([np.full(n_inf, np.inf), lam[::-1]])
    return values, np.concatenate([K, (W @ Y)[:, ::-1]], axis=1)


def _oracle_eigenproblem(asm, pou, j, omega, omega_star, basis):
    idx = nested_dofs(omega, omega_star)
    W = basis[idx, :] * pou[j][:, None]
    A = W.T @ (asm.matrix(omega, "Bplus") @ W)
    A = 0.5 * (A + A.T)
    M = basis.T @ (asm.matrix(omega_star, "Bplus") @ basis)
    M = 0.5 * (M + M.T)
    values, vectors = _oracle_deflated_pencil(A, M)
    return np.maximum(values, 0.0), vectors


def _modes(asm, pou, j, omega, omega_star, basis, n):
    """The first ``n`` oracle modes on ``omega``, one matrix-vector product each."""
    _, vectors = _oracle_eigenproblem(asm, pou, j, omega, omega_star, basis)
    idx = nested_dofs(omega, omega_star)
    return [(basis @ vectors[:, k])[idx] for k in range(n)]


def _assert_matches_oracles(forms, decomp):
    for j in range(decomp.n_subdomains):
        om, oms = decomp.omega(j), decomp.omega_star(j)
        system = MaskedSystem(forms, oms)
        up = particular_solution(om, oms, system)
        assert np.array_equal(up, _oracle_particular(forms.asm, source_one, om, oms))
        assert np.array_equal(system.harmonic_extension(),
                              _oracle_harmonic_basis(forms.asm, oms))


def test_one_factorization_matches_separate_solves_bit_for_bit(setting):
    mesh, coef, decomp, pou = setting
    _assert_matches_oracles(forms_of(mesh, coef), decomp)
    rough = coefficient_field(mesh, "log_uniform:1e-3:1e3", seed=0)
    forms = forms_of(mesh, rough)
    asm = forms.asm
    _assert_matches_oracles(forms, decomp)
    threaded = compute_local_data(mesh, forms, decomp, pou, FIXED, threads=2)
    for j, d in enumerate(threaded):
        om, oms = decomp.omega(j), decomp.omega_star(j)
        # the local stage hands over both weighted by chi_j
        w = pou[j]
        assert np.array_equal(d.particular,
                              w * _oracle_particular(asm, source_one, om, oms))
        oracle = _modes(asm, pou, j, om, oms, _oracle_harmonic_basis(asm, oms), 4)
        assert np.array_equal(d.modes, w[:, None] * np.stack(oracle, axis=1))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("rules, largest", [
    ([("fixed", 1), ("fixed", 3), ("fixed", 2)], ("fixed", 3)),
    ([("threshold", 0.05)], ("threshold", 0.05)),
])
def test_local_stage_hands_over_the_selected_modes_alone(setting, rules, largest,
                                                         threads):
    mesh, coef, decomp, pou = setting
    forms = forms_of(mesh, coef)
    asm = forms.asm
    locals_ = compute_local_data(mesh, forms, decomp, pou, rules, threads=threads)
    kept = []
    for j, d in enumerate(locals_):
        om, oms = decomp.omega(j), decomp.omega_star(j)
        n_layer = 3 * oms.size - h0_dofs(mesh, oms).size
        n = select_coarse(d.eigenvalues, largest)
        kept.append(n)
        arrays = {k: v for k, v in vars(d).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"dofs", "particular", "eigenvalues", "modes"}
        assert d.dofs.shape == d.particular.shape == (3 * om.size,)
        assert d.modes.shape == (3 * om.size, n)
        # one eigenvalue per layer dof, for eigenvalues.csv; nothing else that large
        assert d.eigenvalues.shape == (n_layer,)
        assert n_layer not in d.modes.shape + d.particular.shape
        w = pou[j]
        system = MaskedSystem(forms, oms)
        up = particular_solution(om, oms, system)
        values, _, _ = eigenproblem(w, om, oms, system, rules)
        assert np.array_equal(d.particular, w * up)
        assert np.array_equal(d.eigenvalues, values)
        basis = harmonic_basis(forms, oms)
        for k, mode in enumerate(_modes(asm, pou, j, om, oms, basis, n)):
            assert np.array_equal(d.modes[:, k], w * mode)
    assert min(kept) >= 1


def test_sweep_beyond_the_kept_modes_raises(setting):
    mesh, coef, decomp, pou = setting
    forms = forms_of(mesh, coef)
    locals_ = compute_local_data(mesh, forms, decomp, pou, [("fixed", 2)])
    coarse, _ = assemble_coarse(forms, locals_)
    for j in range(decomp.n_subdomains):
        n_j = coarse.n_j.copy()
        n_j[j] += 1
        with pytest.raises(ValueError, match="exceeds the assembled modes"):
            solve_coarse(coarse, n_j)


def test_compute_local_data_rejects_an_assembler_on_another_mesh(setting):
    mesh, coef, decomp, pou = setting
    other = build_structured_mesh(mesh.structured_n)
    with pytest.raises(ValueError, match="another mesh"):
        compute_local_data(mesh, forms_of(other, coef), decomp, pou, FIXED)


def test_compute_local_data_factors_once_per_subdomain(setting, monkeypatch):
    mesh, coef, decomp, pou = setting
    calls = []
    splu = local_problems.spla.splu

    def counting(A):
        calls.append(A.shape)
        return splu(A)

    monkeypatch.setattr(local_problems.spla, "splu", counting)
    compute_local_data(mesh, forms_of(mesh, coef), decomp, pou, FIXED)
    assert len(calls) == decomp.n_subdomains


class _CountingLU:
    """Forwards to a SuperLU factor and records the width of each solve."""

    def __init__(self, lu, widths):
        self._lu = lu
        self._widths = widths

    def solve(self, b):
        self._widths.append(1 if b.ndim == 1 else b.shape[1])
        return self._lu.solve(b)


def test_compute_local_data_solves_once_per_right_hand_side(setting, monkeypatch):
    # one source solve and one basis solve per subdomain, a zero source included
    mesh, coef, decomp, pou = setting
    widths = []
    splu = local_problems.spla.splu
    monkeypatch.setattr(local_problems.spla, "splu",
                        lambda A: _CountingLU(splu(A), widths))
    rough = coefficient_field(mesh, "log_uniform:1e-3:1e3", seed=0)
    for forms in (forms_of(mesh, coef), forms_of(mesh, rough),
                  forms_of(mesh, coef, lambda x, y: 0.0)):
        widths.clear()
        compute_local_data(mesh, forms, decomp, pou, FIXED)
        assert len(widths) == 2 * decomp.n_subdomains
        assert widths.count(1) == decomp.n_subdomains


class _DoctoredLU:
    """Solves vectors exactly but offsets every matrix right-hand side."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        x = self._lu.solve(b)
        return x + 1.0 if x.ndim == 2 else x


def test_basis_solve_residual_is_checked(setting, monkeypatch):
    mesh, coef, decomp, pou = setting
    splu = local_problems.spla.splu
    monkeypatch.setattr(local_problems.spla, "splu", lambda A: _DoctoredLU(splu(A)))
    with pytest.raises(SolverError, match="local harmonic basis residual"):
        eigen(mesh, coef, pou, 0, decomp.omega(0), decomp.omega_star(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_solution_fails_the_checked_solve(bad):
    A = np.eye(2)
    with pytest.raises(SolverError, match="residual inf exceeds"):
        solve_checked(lambda b: np.array([bad, 1.0]), A, np.ones(2), "probe")
    assert scaled_residual(A, np.array([bad, 1.0]), np.array([bad, 1.0])) == np.inf


def test_zero_right_hand_side_is_solved_and_checked():
    calls = []

    def broken(b):
        calls.append(b)
        return np.full_like(b, np.nan)

    with pytest.raises(SolverError, match="probe residual inf exceeds"):
        solve_checked(broken, np.eye(2), np.zeros(2), "probe")
    assert len(calls) == 1


def test_zero_source_gives_zero_solution(setting):
    mesh, coef, decomp, _ = setting
    oms = decomp.omega_star(0)
    up = particular_solution(decomp.omega(0), oms,
                             MaskedSystem(forms_of(mesh, coef, lambda x, y: 0.0), oms))
    assert np.all(up == 0.0)


def test_single_subdomain_particular_equals_fine_solve():
    mesh = build_structured_mesh(8)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    decomp = build_decomposition(mesh, 1, 2, 2)
    forms = forms_of(mesh, coef)
    oms = decomp.omega_star(0)
    up = particular_solution(decomp.omega(0), oms, MaskedSystem(forms, oms))
    u = fine_solve(forms)
    assert np.abs(up - u).max() <= 1e-12 * np.abs(u).max()


def test_masked_system_residual_contract(setting):
    # residual relative to the right-hand side, at unit contrast
    mesh = build_structured_mesh(16)
    coef = coefficient_field(mesh, "constant:1")
    decomp = build_decomposition(mesh, 2, 2, 3)
    om, oms = decomp.omega(0), decomp.omega_star(0)
    forms = forms_of(mesh, coef)
    A = forms.asm.matrix(oms, "B")
    b = forms.F[subdomain_dofs(oms)]
    free = h0_dofs(mesh, oms)
    psi = np.zeros(3 * oms.size)
    psi[nested_dofs(om, oms)] = particular_solution(om, oms, MaskedSystem(forms, oms))
    # reconstruct the full masked solution for the residual check
    Aff = A[np.ix_(free, free)].tocsc()
    x = spla.splu(Aff).solve(b[free])
    assert np.linalg.norm(Aff @ x - b[free]) <= 1e-10 * np.linalg.norm(b[free])


def test_harmonic_basis_dimension_oracle(setting):
    mesh, coef, decomp, _ = setting
    oms = decomp.omega_star(0)
    basis = harmonic_basis(forms_of(mesh, coef), oms)
    layer_elems = np.setdiff1d(oms, d_minus(mesh, oms))
    assert basis.shape == (3 * oms.size, 3 * layer_elems.size)
    # columns are independent: unit block at the layer rows
    sv = np.linalg.svd(basis, compute_uv=False)
    assert sv[-1] >= 1.0 - 1e-12


def test_harmonic_columns_pass_residual_invariant(setting):
    mesh, coef, decomp, _ = setting
    forms = forms_of(mesh, coef)
    asm = forms.asm
    for j in range(decomp.n_subdomains):
        oms = decomp.omega_star(j)
        basis = harmonic_basis(forms, oms)
        A = asm.matrix(oms, "B")
        H = asm.matrix(oms, "H")
        free = h0_dofs(mesh, oms)
        resid = np.abs((A @ basis)[free, :]).max(axis=0)
        norms = np.sqrt(np.einsum("if,if->f", basis, H @ basis))
        assert np.all(resid <= 1e-10 * norms)


@pytest.mark.parametrize("grid_m, layers", [(1, 2), (2, 3)])
def test_harmonic_extension_of_chosen_columns_is_those_columns_of_the_basis(grid_m, layers):
    # at (8, 2) with 3 overlap and 3 oversampling layers the corner oversampling
    # domains cover the mesh and the others have 15 layer dofs; at grid_m = 1 the
    # one oversampling domain is the mesh, so it has no layer dofs
    mesh = build_structured_mesh(8)
    decomp = build_decomposition(mesh, grid_m, layers, layers)
    forms = forms_of(mesh, coefficient_field(mesh, "checkerboard:100:2"))
    sizes = set()
    for j in range(decomp.n_subdomains):
        system = MaskedSystem(forms, decomp.omega_star(j))
        basis = system.harmonic_extension()
        n_layer = system.layer.size
        sizes.add(n_layer)
        assert basis.shape == (3 * decomp.omega_star(j).size, n_layer)
        chosen = [np.arange(n_layer), np.arange(n_layer)[::-1], np.arange(0)]
        if n_layer:
            # the property suite's spread repeats dofs on a layer of fewer than 20
            chosen.append(np.linspace(0, n_layer - 1, 20).astype(np.int64))
            chosen.append([n_layer - 1, 0, n_layer - 1])
        for columns in chosen:
            U = system.harmonic_extension(columns)
            assert U.tobytes() == np.ascontiguousarray(basis[:, columns]).tobytes()
    assert sizes == ({0} if grid_m == 1 else {0, 15})


def test_constant_in_span_iff_interior():
    mesh = build_structured_mesh(32)
    coef = coefficient_field(mesh, "checkerboard:100:4")
    decomp = build_decomposition(mesh, 4, 2, 4)
    forms = forms_of(mesh, coef)
    for j, interior in ((5, True), (0, False)):
        oms = decomp.omega_star(j)
        assert bool(np.any(np.isin(mesh.bface_elem, oms))) != interior
        basis = harmonic_basis(forms, oms)
        # the layer rows pin the coefficients, so the constant lies in the
        # span exactly when the all-ones layer data extends to the constant
        misfit = np.linalg.norm(basis @ np.ones(basis.shape[1]) - 1.0)
        misfit /= np.sqrt(basis.shape[0])
        if interior:
            assert misfit <= 1e-10
        else:
            assert misfit > 1e-3


def test_harmonic_decomposition_of_random_vectors(setting):
    mesh, coef, decomp, _ = setting
    oms = decomp.omega_star(1)
    asm = DGAssembler(mesh, coef, G0)
    A = asm.matrix(oms, "B")
    free = h0_dofs(mesh, oms)
    Aff = A[np.ix_(free, free)].tocsc()
    lu = spla.splu(Aff)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.standard_normal(3 * oms.size)
        u0 = np.zeros_like(u)
        u0[free] = lu.solve((A @ u)[free])
        uh = u - u0
        assert np.abs(u0 + uh - u).max() <= 1e-10 * np.abs(u).max()
        scale = np.abs(A).max() * np.abs(uh).max()
        assert np.abs((A @ uh)[free]).max() <= 1e-10 * scale


def test_eigenproblem_kernel_modes_and_positivity():
    mesh = build_structured_mesh(32)
    coef = coefficient_field(mesh, "constant:1")
    decomp = build_decomposition(mesh, 4, 2, 4)
    pou = build_pou(mesh, decomp)
    j = 5  # interior subdomain
    values, modes, _ = eigen(mesh, coef, pou, j, decomp.omega(j), decomp.omega_star(j))
    assert np.isinf(values[0]) and not np.any(np.isinf(values[1:]))
    finite = values[np.isfinite(values)]
    assert np.all(finite >= 0.0)
    assert np.all(np.diff(finite) <= 1e-12)
    # the kernel mode is the constant on omega
    kvec = modes[:, 0]
    assert np.abs(kvec - kvec[0]).max() <= 1e-8 * abs(kvec[0])
    basis = harmonic_basis(forms_of(mesh, coef), decomp.omega_star(j))
    # the oversampled energy annihilates the constant's coefficient vector
    Bp = DGAssembler(mesh, coef, G0).matrix(decomp.omega_star(j), "Bplus")
    M = basis.T @ (Bp @ basis)
    assert np.abs(M @ np.ones(M.shape[0])).max() <= 1e-10


def test_kernel_gram_solve_residual_is_checked(interior, monkeypatch):
    mesh, decomp, pou = interior
    j = 5   # interior: the constants are the right form's kernel
    om, oms = decomp.omega(j), decomp.omega_star(j)
    forms = forms_of(mesh, coefficient_field(mesh, "constant:1"))
    system = MaskedSystem(forms, oms)
    values, _, _ = eigenproblem(pou[j], om, oms, system, FIXED)
    assert np.isinf(values[0]) and np.all(np.isfinite(values[1:]))

    solve = la.solve

    def doctored(G, b, **kwargs):
        return solve(G, b, **kwargs) + 1.0

    monkeypatch.setattr(local_problems.la, "solve", doctored)
    with pytest.raises(SolverError, match="kernel Gram residual"):
        eigenproblem(pou[j], om, oms, system, FIXED)


def test_negative_eigenvalue_beyond_tolerance_aborts(monkeypatch):
    # subdomain 0 touches the boundary, so its right form has no kernel and the
    # kernel Gram solve cannot fail first; a negated left form has no positive spectrum
    mesh = build_structured_mesh(16)
    decomp = build_decomposition(mesh, 2, 2, 2)
    pou = build_pou(mesh, decomp)
    forms = forms_of(mesh, coefficient_field(mesh, "checkerboard:100:2"))
    j = 0
    om, oms = decomp.omega(j), decomp.omega_star(j)
    system = MaskedSystem(forms, oms)
    w = pou[j]
    values, _, _ = eigenproblem(w, om, oms, system, FIXED)
    assert np.all(np.isfinite(values)) and values[0] > 0.0
    # the right form is the first symmetric part of the eigenproblem, the left form the second
    symmetric_part, parts = local_problems.symmetric_part, []

    def negating_the_second(X):
        parts.append(X)
        S = symmetric_part(X)
        return -S if len(parts) == 2 else S

    monkeypatch.setattr(local_problems, "symmetric_part", negating_the_second)
    with pytest.raises(SolverError, match="^negative eigenvalue beyond tolerance; assembly bug$"):
        eigenproblem(w, om, oms, system, FIXED)
    # the one negated is the left form on omega's own assembly, bit for bit
    W = system.harmonic_extension()[nested_dofs(om, oms), :] * w[:, None]
    assert np.array_equal(parts[1], W.T @ (forms.asm.matrix(om, "Bplus") @ W))


@pytest.mark.parametrize("spec", ["constant:1", "log_uniform:1e-3:1e3"])
def test_lean_local_stage_is_bit_identical(interior, spec):
    # the harmonic basis against the identity's extension, the eigenvalues
    # and every mode against the copy-everything pencil, byte for byte
    mesh, decomp, pou = interior
    forms = forms_of(mesh, coefficient_field(mesh, spec, seed=0))
    asm = forms.asm
    for j in (0, 5):    # on the boundary, and interior with a kernel mode
        om, oms = decomp.omega(j), decomp.omega_star(j)
        system = MaskedSystem(forms, oms)
        basis = system.harmonic_extension()
        assert basis.tobytes() == _oracle_harmonic_basis(asm, oms).tobytes()
        n_layer = system.layer.size
        values, modes, _ = eigenproblem(pou[j], om, oms, system, [("fixed", n_layer)])
        oracle_values, oracle_vectors = _oracle_eigenproblem(asm, pou, j, om, oms, basis)
        assert np.isinf(values[0]) == (j == 5)
        assert values.tobytes() == oracle_values.tobytes()
        idx = nested_dofs(om, oms)
        assert modes.shape == (idx.size, n_layer)
        for k in range(n_layer):
            assert modes[:, k].tobytes() == (basis @ oracle_vectors[:, k])[idx].tobytes()


def test_local_stage_holds_one_dense_block_beside_the_basis():
    """Traced allocation peaks of one interior subdomain, per byte of its basis.

    At (40, 4) subdomain 5 the basis is 2688 x 438 (8.98 MiB).  The
    eigenproblem builds it and then solves the pencil on it, so one peak
    covers both.  Building it holds the right-hand side and the solution
    (each 84% of the basis) and then the solution and the basis; the pencil
    holds the basis and its product with the right form, then the weighted
    restriction and its product (each 43%), with the small pencil matrices
    beside them.  A right-hand side formed as a product and then copied, or
    a pencil that keeps every temporary, shows here.  tracemalloc sees
    numpy's arrays but not SuperLU's internal work array (n_free x n_layer
    during the basis solve) or BLAS buffers, so the peak resident set is
    larger than these.
    """
    mesh = build_structured_mesh(40)
    decomp = build_decomposition(mesh, 4, 2, 4)
    pou = build_pou(mesh, decomp)
    forms = forms_of(mesh, coefficient_field(mesh, "constant:1"))
    j = 5
    om, oms = decomp.omega(j), decomp.omega_star(j)
    system = MaskedSystem(forms, oms)
    particular_solution(om, oms, system)   # builds the block tables, B and F
    shape = (3 * oms.size, system.layer.size)   # the basis
    tracemalloc.start()
    try:
        eigenproblem(pou[j], om, oms, system, FIXED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shape == (2688, 438)
    assert peak <= 2.3 * 8 * shape[0] * shape[1]


def test_eigenproblem_boundary_subdomain_all_finite(setting):
    mesh, coef, decomp, pou = setting
    values, _, _ = eigen(mesh, coef, pou, 0, decomp.omega(0), decomp.omega_star(0))
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0.0)


def test_eigenvalues_invariant_under_coefficient_scaling(setting):
    mesh, coef, decomp, pou = setting
    om, oms = decomp.omega(0), decomp.omega_star(0)
    lam1, _, _ = eigen(mesh, coef, pou, 0, om, oms)
    coef3 = Coefficient(3.0 * coef.values)
    lam3, _, _ = eigen(mesh, coef3, pou, 0, om, oms)
    f1 = lam1[np.isfinite(lam1)]
    f3 = lam3[np.isfinite(lam3)]
    # compare above the eigensolver's resolution floor
    mask = f1 >= 1e-6 * f1[0]
    assert np.all(np.abs(f1[mask] - f3[mask]) <= 1e-10 * f1[mask])


def test_trivial_same_domain_eigenproblem_is_psd_symmetric(setting):
    # with the subdomain equal to its oversampling set and a unit weight the
    # interpolated restriction leaves the masked subspace, so only symmetry
    # and positive semidefiniteness are claimed
    mesh, coef, decomp, _ = setting
    oms = decomp.omega_star(0)
    forms = forms_of(mesh, coef)
    basis = harmonic_basis(forms, oms)
    Bp = forms.asm.matrix(oms, "Bplus")
    A = basis.T @ (Bp @ basis)
    M = A.copy()
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert w[0] >= -1e-10 * max(w[-1], 1.0)


def test_pencil_residuals_within_tolerance(setting):
    mesh, coef, decomp, pou = setting
    j = 1
    om, oms = decomp.omega(j), decomp.omega_star(j)
    forms = forms_of(mesh, coef)
    asm = forms.asm
    basis = harmonic_basis(forms, oms)
    idx = nested_dofs(om, oms)
    W = basis[idx, :] * pou[j][:, None]
    A = W.T @ (asm.matrix(om, "Bplus") @ W)
    M = basis.T @ (asm.matrix(oms, "Bplus") @ basis)
    A = 0.5 * (A + A.T)
    M = 0.5 * (M + M.T)
    values, vectors = _oracle_eigenproblem(asm, pou, j, om, oms, basis)
    nrm = np.linalg.norm(A, 2)
    for k in np.flatnonzero(np.isfinite(values)):
        c = vectors[:, k]
        r = np.linalg.norm(A @ c - values[k] * (M @ c))
        assert r <= 1e-10 * nrm * np.linalg.norm(c)


def test_eigenvalue_decay_fits_per_subdomain():
    mesh = build_structured_mesh(32)
    coef = coefficient_field(mesh, "constant:1")
    decomp = build_decomposition(mesh, 4, 2, 4)
    pou = build_pou(mesh, decomp)
    locals_ = compute_local_data(mesh, forms_of(mesh, coef), decomp, pou, FIXED)
    for data in locals_:
        lam = data.eigenvalues[np.isfinite(data.eigenvalues)][:20]
        slope, _, r2 = decay_fit(np.arange(1, lam.size + 1), np.sqrt(lam))
        assert slope < 0.0
        assert r2 >= 0.9


def test_threaded_results_match_serial(setting):
    mesh, coef, decomp, pou = setting
    serial = compute_local_data(mesh, forms_of(mesh, coef), decomp, pou, FIXED, threads=1)
    # the workers share fresh forms and switch often, so a lazy build they reached would race
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = compute_local_data(mesh, forms_of(mesh, coef), decomp, pou, FIXED,
                                      threads=4)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.particular, b.particular)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.modes, b.modes)


REUSE_RULES = [("fixed", 4), ("threshold", 0.3)]


def _problem_bytes(forms, decomp, pou, j):
    """The bytes of every array subdomain ``j``'s solves read, one entry per array."""
    om, oms = decomp.omega(j), decomp.omega_star(j)
    system = MaskedSystem(forms, oms)
    arrays = [system.free, nested_dofs(om, oms), pou[j], system.load]
    for A in (system.Aff, system.Afl, system.Bplus):
        arrays += [A.data, A.indices, A.indptr]
    return tuple(a.tobytes() for a in arrays)


def _solved_alone(forms, decomp, pou, j, rules):
    """Subdomain ``j``'s record from its own source solve and eigenproblem."""
    om, oms = decomp.omega(j), decomp.omega_star(j)
    w = pou[j]
    system = MaskedSystem(forms, oms)
    up = particular_solution(om, oms, system)
    values, modes, counts = eigenproblem(w, om, oms, system, rules)
    return LocalSpectralData(dofs=subdomain_dofs(om), particular=w * up, eigenvalues=values,
                             modes=w[:, None] * modes, counts=counts)


def _assert_same_record(a, b):
    for name in ("dofs", "particular", "eigenvalues", "modes"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert a.counts == b.counts


@pytest.fixture(scope="module")
def dyadic():
    """The coarse-32x8 geometry at constant:1, with every subdomain solved on its own."""
    mesh = build_structured_mesh(32)
    decomp = build_decomposition(mesh, 8, 2, 2)
    pou = build_pou(mesh, decomp)
    forms = forms_of(mesh, coefficient_field(mesh, "constant:1"))
    n = decomp.n_subdomains
    alone = [_solved_alone(forms, decomp, pou, j, REUSE_RULES) for j in range(n)]
    problems = [_problem_bytes(forms, decomp, pou, j) for j in range(n)]
    return mesh, decomp, pou, forms, alone, problems


def _largest_group(problems):
    """The subdomains posing the most frequent local problem."""
    largest = Counter(problems).most_common(1)[0][0]
    return [j for j, problem in enumerate(problems) if problem == largest]


@pytest.fixture(scope="module")
def nondyadic():
    """The local-40x4 geometry (1/40 is not dyadic) at constant:1, every subdomain
    solved on its own."""
    mesh = build_structured_mesh(40)
    decomp = build_decomposition(mesh, 4, 2, 4)
    pou = build_pou(mesh, decomp)
    forms = forms_of(mesh, coefficient_field(mesh, "constant:1"))
    n = decomp.n_subdomains
    alone = [_solved_alone(forms, decomp, pou, j, REUSE_RULES) for j in range(n)]
    problems = [_problem_bytes(forms, decomp, pou, j) for j in range(n)]
    return mesh, decomp, pou, forms, alone, problems


def _factored_records(mesh, forms, decomp, pou, threads, monkeypatch):
    """``compute_local_data``'s records and the shapes it hands to ``splu``."""
    calls = []
    splu = local_problems.spla.splu
    monkeypatch.setattr(local_problems.spla, "splu", lambda A: calls.append(A.shape) or splu(A))
    # more workers than cores, switching often: a digest published twice solves twice
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        box = _within(120, lambda: compute_local_data(mesh, forms, decomp, pou, REUSE_RULES,
                                                      threads=threads))
    finally:
        sys.setswitchinterval(interval)
    return box["value"], calls


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_each_distinct_local_problem_is_solved_once(dyadic, threads, monkeypatch):
    # translated subdomains pose byte-identical problems: one group of 16 interior
    # ones, eight of 4 and 16 alone; each group is factored once and every record
    # is, bit for bit, its subdomain's own solve
    mesh, decomp, pou, forms, alone, problems = dyadic
    assert sorted(Counter(problems).values()) == [1] * 16 + [4] * 8 + [16]
    locals_, calls = _factored_records(mesh, forms, decomp, pou, threads, monkeypatch)
    assert len(calls) == len(set(problems)) == 25
    for record, own in zip(locals_, alone, strict=True):
        _assert_same_record(record, own)


@pytest.mark.parametrize("threads", [1, 2])
def test_translates_share_their_solve_on_a_non_dyadic_mesh(nondyadic, threads, monkeypatch):
    # the geometry is exact on the lattice, so at n = 40 the translates pose one
    # problem too: 4 corners alone, 4 pairs of edge subdomains and the 4 interior ones
    mesh, decomp, pou, forms, alone, problems = nondyadic
    assert sorted(Counter(problems).values()) == [1] * 4 + [2] * 4 + [4]
    locals_, calls = _factored_records(mesh, forms, decomp, pou, threads, monkeypatch)
    assert len(calls) == len(set(problems)) == 9
    for record, own in zip(locals_, alone, strict=True):
        _assert_same_record(record, own)


def test_a_non_dyadic_periodic_coefficient_shares_its_translates():
    mesh = build_structured_mesh(48)
    decomp = build_decomposition(mesh, 6, 2, 2)
    pou = build_pou(mesh, decomp)
    forms = forms_of(mesh, coefficient_field(mesh, "checkerboard:1e4:8"))
    problems = [_problem_bytes(forms, decomp, pou, j) for j in range(decomp.n_subdomains)]
    assert (len(set(problems)), len(problems)) == (14, 36)


def test_a_one_ulp_change_in_the_contact_layer_splits_its_group(dyadic, monkeypatch):
    mesh, decomp, pou, forms, alone, before = dyadic
    n = decomp.n_subdomains
    j = _largest_group(before)[0]
    # a contact-layer element of omega*_j without a face on a masked element, so
    # that its coefficient enters omega*_j's right form alone
    oms = decomp.omega_star(j)
    masked = d_minus(mesh, oms)
    faces = mesh.iface_elems
    e = next(e for e in np.setdiff1d(oms, masked)
             if not np.isin(faces[(faces == e).any(axis=1)], masked).any())
    values = forms.asm.coefficient.values.copy()
    values[e] = np.nextafter(values[e], np.inf)
    nudged = forms_of(mesh, Coefficient(values))
    after = [_problem_bytes(nudged, decomp, pou, k) for k in range(n)]
    assert after[j][:-3] == before[j][:-3]    # Bplus's data, indices and index pointers
    assert after[j][-3] != before[j][-3] and after[j][-2:] == before[j][-2:]
    assert after.count(after[j]) == 1
    calls = []
    splu = local_problems.spla.splu
    monkeypatch.setattr(local_problems.spla, "splu", lambda A: calls.append(A.shape) or splu(A))
    locals_ = compute_local_data(mesh, nudged, decomp, pou, REUSE_RULES, threads=2)
    assert len(calls) == len(set(after)) > len(set(before))
    monkeypatch.undo()
    moved = [k for k in range(n) if after[k] != before[k]]
    assert j in moved
    for k, record in enumerate(locals_):
        own = (_solved_alone(nudged, decomp, pou, k, REUSE_RULES) if k in moved
               else alone[k])
        _assert_same_record(record, own)
    # the group's shared bits would have been wrong for j
    assert locals_[j].eigenvalues.tobytes() != alone[j].eigenvalues.tobytes()


def _within(seconds, fn):
    """``fn()`` on a daemon thread: ``{"value": ...}`` or ``{"error": ...}``; fails on a hang."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    return box


def _fail_the_shared_solve(monkeypatch, decomp, group):
    """Make the source solve of the subdomains ``group``, which pose one problem, fail.

    It fails once a duplicate waits on its future, and the error each waiter
    of an unfinished future receives is recorded in the returned list.
    """
    received, published = [], {}

    class Watched(Future):
        def __init__(self):
            super().__init__()
            self.waited = threading.Event()
            published[threading.get_ident()] = self    # by the worker that solves

        def result(self, timeout=None):
            if self.done():
                return super().result(timeout)
            self.waited.set()
            try:
                return super().result(timeout)
            except SolverError as exc:
                received.append(exc)
                raise

    particular = local_problems.particular_solution
    stars = {decomp.omega_star(j).tobytes() for j in group}

    def failing(omega, omega_star, system):
        if omega_star.tobytes() in stars:
            published[threading.get_ident()].waited.wait(10)
            raise SolverError("local source broke down: injected")
        return particular(omega, omega_star, system)

    monkeypatch.setattr(local_problems, "Future", Watched)
    monkeypatch.setattr(local_problems, "particular_solution", failing)
    return received


def test_a_failed_shared_solve_reaches_its_waiters_and_the_caller(dyadic, monkeypatch):
    mesh, decomp, pou, forms, _, problems = dyadic
    received = _fail_the_shared_solve(monkeypatch, decomp, _largest_group(problems))
    box = _within(60, lambda: compute_local_data(mesh, forms, decomp, pou, REUSE_RULES,
                                                 threads=2))
    assert isinstance(box.get("error"), SolverError)
    assert str(box["error"]) == "local source broke down: injected"
    assert received and all(exc is box["error"] for exc in received)


def test_a_failed_shared_solve_is_one_stderr_line(dyadic, tmp_path, capsys, monkeypatch):
    _, decomp, _, _, _, problems = dyadic
    received = _fail_the_shared_solve(monkeypatch, decomp, _largest_group(problems))
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("mesh_n = 32\ngrid_m = 8\noverlap_layers = 2\noversampling_layers = 2\n"
                   "gamma0_sq = 10\ncoarse_n_sweep = 4\nthreads = 2\nchecks = off\n")
    box = _within(60, lambda: main(["--config", str(cfg), "--out", str(tmp_path / "o")]))
    assert box == {"value": 1}
    assert capsys.readouterr().err.splitlines() == [
        "pipeline failure: local source broke down: injected"]
    assert received
    assert not (tmp_path / "o" / "eigenvalues.csv").exists()


@pytest.mark.parametrize("n, m, layers, spec", [
    (32, 8, 2, "constant:1"),             # the coarse-32x8 geometry
    (40, 4, 4, "constant:1"),             # the local-40x4 geometry
    (32, 4, 4, "channels:1e8:4"),
    (32, 4, 4, "checkerboard:1e8:8"),
])
def test_masked_blocks_are_rows_of_the_global_system(n, m, layers, spec):
    # every face of a masked element lies in the oversampling domain, so the
    # masked rows of the local form and load are those of the global ones
    mesh = build_structured_mesh(n)
    decomp = build_decomposition(mesh, m, 2, layers)

    def f(x, y):
        return 3.7 + x * y

    forms = forms_of(mesh, coefficient_field(mesh, spec), f)
    asm = forms.asm
    for j in range(decomp.n_subdomains):
        oms = decomp.omega_star(j)
        system = MaskedSystem(forms, oms)
        masked = asm.matrix(oms, "B")[system.free]
        for sliced, local in ((system.Aff, masked[:, system.free].tocsc()),
                              (system.Afl, masked[:, system.layer])):
            assert sliced.format == local.format
            for name in ("indptr", "indices", "data"):
                assert getattr(sliced, name).tobytes() == getattr(local, name).tobytes()
        local_load = _oracle_load(asm, f, oms)[system.free]
        assert forms.F[system.rows].tobytes() == local_load.tobytes()


def test_local_stage_assembles_the_global_system_once(setting, monkeypatch):
    mesh, coef, decomp, pou = setting
    calls = []
    matrix, load = DGAssembler.matrix, DGAssembler.load

    def counting(self, D=None, kind="B"):
        calls.append(("mesh" if D is None else "subset", kind))
        return matrix(self, D, kind)

    def counting_load(self, f):
        calls.append(("mesh", "load"))
        return load(self, f)

    monkeypatch.setattr(DGAssembler, "matrix", counting)
    monkeypatch.setattr(DGAssembler, "load", counting_load)
    forms = forms_of(mesh, coef)
    # one global assembly of B and of the load, when the forms are built
    assert calls == [("mesh", "B"), ("mesh", "load")]
    calls.clear()
    locals_ = compute_local_data(mesh, forms, decomp, pou, FIXED, threads=2)
    solve_msgfem(forms, locals_)
    fine_solve(forms)
    # and none after it, on the mesh or on a subdomain
    assert [kind for _, kind in calls if kind in ("B", "load")] == []


@pytest.mark.parametrize("n, m, overlap, layers, spec", [
    (16, 2, 2, 3, "checkerboard:100:2"),
    (32, 4, 2, 1, "checkerboard:1e8:8"),
    (32, 8, 2, 1, "channels:1e8:4"),
    (24, 3, 3, 2, "log_uniform:1e-3:1e3"),
])
def test_left_form_assemblies_differ_only_where_the_weight_is_zero(n, m, overlap, layers,
                                                                   spec):
    # Bplus on omega drops the faces leaving omega, which the omega block of Bplus
    # on omega_star keeps; the weight vanishes on their elements, so the weighted
    # left form is the same on either matrix
    mesh = build_structured_mesh(n)
    decomp = build_decomposition(mesh, m, overlap, layers)
    pou = build_pou(mesh, decomp)
    asm = DGAssembler(mesh, coefficient_field(mesh, spec, seed=0), G0)
    differing = 0
    for j in range(decomp.n_subdomains):
        om, oms = decomp.omega(j), decomp.omega_star(j)
        idx = nested_dofs(om, oms)
        diff = (asm.matrix(om, "Bplus") - asm.matrix(oms, "Bplus")[idx][:, idx]).tocoo()
        nonzero = diff.data != 0.0
        w = pou[j]
        assert np.all(w[diff.row[nonzero]] == 0.0)
        assert np.all(w[diff.col[nonzero]] == 0.0)
        differing += int(nonzero.sum())
    assert differing > 0    # the assemblies do differ, at zero weight


@pytest.mark.parametrize("grid_m, threads", [(2, 1), (2, 2), (1, 1)])
def test_local_stage_assembles_bplus_once_per_subdomain_on_omega_star(grid_m, threads,
                                                                       monkeypatch):
    # one form per eigenproblem: the left form is a block of the right form's matrix;
    # one subdomain has no layer, hence an empty pencil and no assembly
    mesh = build_structured_mesh(16)
    decomp = build_decomposition(mesh, grid_m, 2, 3)
    pou = build_pou(mesh, decomp)
    forms = forms_of(mesh, coefficient_field(mesh, "checkerboard:100:2"))
    calls = []
    matrix = DGAssembler.matrix

    def counting(self, D=None, kind="B"):
        calls.append((np.asarray(D).tobytes(), kind))
        return matrix(self, D, kind)

    monkeypatch.setattr(DGAssembler, "matrix", counting)
    rules = FIXED if grid_m > 1 else [("fixed", 0)]
    compute_local_data(mesh, forms, decomp, pou, rules, threads=threads)
    expected = [(decomp.omega_star(j).tobytes(), "Bplus") for j in range(decomp.n_subdomains)
                if grid_m > 1]
    assert sorted(calls) == sorted(expected)


def test_select_coarse_rules():
    vals = np.array([np.inf, 0.25, 0.04, 0.01])
    assert select_coarse(vals, ("fixed", 1)) == 1
    assert select_coarse(vals, ("threshold", 0.0)) == 4
    # threshold on the root: kernel plus the two modes with sqrt >= 0.2
    assert select_coarse(vals, ("threshold", 0.2)) == 3
    assert select_coarse(vals, ("threshold", 0.45)) == 2
    with pytest.raises(ValueError, match="^unknown coarse selection rule 'bogus'$"):
        select_coarse(vals, ("bogus", 1))


@pytest.mark.parametrize("grid_m, rules, message", [
    (2, [("fixed", 1), ("fixed", 123)], None),
    (2, [("fixed", 124)], "requested 124 coarse modes, but subdomain 1 has only 123"),
    (2, [("fixed", 160), ("fixed", 2), ("fixed", 200)],
     "requested 200 coarse modes, but subdomain 0 has only 150"),
    (2, [("fixed", 4), ("fixed", -1)], "fixed mode count must be >= 0, got -1"),
    (1, [("fixed", 0)], None),
    (1, [("fixed", 1)], "requested 1 coarse modes, but subdomain 0 has only 0"),
    (2, [("threshold", 0.0), ("threshold", 1e9)], None),
], ids=["equal-to-smallest", "one-above-smallest", "largest-of-several-named", "negative",
        "one-subdomain-zero", "one-subdomain-one", "threshold-only"])
def test_fixed_counts_are_checked_against_every_mode_count(grid_m, rules, message,
                                                           monkeypatch):
    # the mode counts of (16, 2, 2, 3) are 150, 123, 123, 150: one per layer dof
    # of the oversampling domain; at one subdomain that domain is the mesh, with none
    mesh = build_structured_mesh(16 if grid_m == 2 else 8)
    decomp = build_decomposition(mesh, grid_m, 2, 3 if grid_m == 2 else 1)
    calls = []
    h0 = local_problems.h0_dofs
    monkeypatch.setattr(local_problems, "h0_dofs", lambda *a: calls.append(a) or h0(*a))
    if message is None:
        check_fixed_counts(mesh, decomp, rules)
    else:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            check_fixed_counts(mesh, decomp, rules)
    if rules[0][0] == "threshold":
        assert calls == []   # no fixed count, no geometry
