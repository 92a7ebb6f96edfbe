import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse.linalg as spla

import msgfem.local_problems as local_problems
from msgfem.decomposition import build_decomposition, d_minus
from msgfem.dg_forms import DGAssembler, nested_dofs
from msgfem.errors import SolverError
from msgfem.gfem import GlobalForms, solve_msgfem
from msgfem.local_problems import (LocalSpectralData, MaskedSystem, compute_local_data,
                                   eigenproblem, particular_solution, select_coarse)
from msgfem.mesh import Coefficient, build_structured_mesh, coefficient_field
from msgfem.space_ops import PartitionOfUnity, build_pou, h0_dofs, restrict
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


def harmonic_basis(asm, omega_star):
    """The harmonic basis of an oversampling domain."""
    return MaskedSystem(asm, omega_star).harmonic_extension()


def eigen(mesh, coef, pou, j, omega, omega_star):
    """The spectral problem of one subdomain on its own harmonic basis."""
    asm = DGAssembler(mesh, coef, G0)
    return eigenproblem(asm, pou, j, omega, omega_star, harmonic_basis(asm, omega_star))


# -- oracles: the separate source solve and harmonic basis this module replaced

def _oracle_solve(lu, b):
    """The solve contract: one LU solve, zeros for a zero right-hand side."""
    return np.zeros_like(b) if np.linalg.norm(b) == 0.0 else lu.solve(b)


def _oracle_particular(asm, f, omega, omega_star):
    A = asm.matrix(omega_star, "B")
    b = asm.load(f, omega_star)
    free = h0_dofs(asm.mesh, omega_star)
    Aff = A[np.ix_(free, free)].tocsc()
    x = np.zeros(A.shape[0])
    x[free] = _oracle_solve(spla.splu(Aff), b[free])
    return restrict(x, omega_star, omega)


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
    W = basis[idx, :] * pou.dof_weights(asm.mesh, j, omega)[:, None]
    A = W.T @ (asm.matrix(omega, "Bplus") @ W)
    A = 0.5 * (A + A.T)
    M = basis.T @ (asm.matrix(omega_star, "Bplus") @ basis)
    M = 0.5 * (M + M.T)
    values, vectors = _oracle_deflated_pencil(A, M)
    return np.maximum(values, 0.0), vectors


def _modes(asm, pou, j, omega, omega_star, basis, n):
    """The first ``n`` modes on ``omega``, one matrix-vector product each."""
    _, vectors = eigenproblem(asm, pou, j, omega, omega_star, basis)
    return [restrict(basis @ vectors[:, k], omega_star, omega) for k in range(n)]


def _assert_matches_oracles(asm, decomp):
    for j in range(decomp.n_subdomains):
        om, oms = decomp.omega(j), decomp.omega_star(j)
        up, basis = particular_solution(asm, source_one, om, oms)
        assert np.array_equal(up, _oracle_particular(asm, source_one, om, oms))
        assert np.array_equal(basis, _oracle_harmonic_basis(asm, oms))


def test_one_factorization_matches_separate_solves_bit_for_bit(setting):
    mesh, coef, decomp, pou = setting
    _assert_matches_oracles(DGAssembler(mesh, coef, G0), decomp)
    rough = coefficient_field(mesh, "log_uniform:1e-3:1e3", seed=0)
    asm = DGAssembler(mesh, rough, G0)
    _assert_matches_oracles(asm, decomp)
    threaded = compute_local_data(mesh, asm, source_one, decomp, pou, FIXED, threads=2)
    for d in threaded:
        om, oms = decomp.omega(d.j), decomp.omega_star(d.j)
        assert np.array_equal(d.particular, _oracle_particular(asm, source_one, om, oms))
        oracle = _modes(asm, pou, d.j, om, oms, _oracle_harmonic_basis(asm, oms), 4)
        assert np.array_equal(d.modes, np.stack(oracle, axis=1))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("rules, largest", [
    ([("fixed", 1), ("fixed", 3), ("fixed", 2)], ("fixed", 3)),
    ([("threshold", 0.05)], ("threshold", 0.05)),
])
def test_local_stage_hands_over_the_selected_modes_alone(setting, rules, largest,
                                                         threads):
    mesh, coef, decomp, pou = setting
    asm = DGAssembler(mesh, coef, G0)
    locals_ = compute_local_data(mesh, asm, source_one, decomp, pou, rules, threads=threads)
    kept = []
    for d in locals_:
        om, oms = decomp.omega(d.j), decomp.omega_star(d.j)
        n_layer = 3 * oms.size - h0_dofs(mesh, oms).size
        n = select_coarse(d, largest)
        kept.append(n)
        arrays = {k: v for k, v in vars(d).items() if isinstance(v, np.ndarray)}
        assert set(arrays) == {"particular", "eigenvalues", "modes"}
        assert d.particular.shape == (3 * om.size,)
        assert d.modes.shape == (3 * om.size, n)
        # one eigenvalue per layer dof, for eigenvalues.csv; nothing else that large
        assert d.eigenvalues.shape == (n_layer,)
        assert n_layer not in d.modes.shape + d.particular.shape
        up, basis = particular_solution(asm, source_one, om, oms)
        values, _ = eigenproblem(asm, pou, d.j, om, oms, basis)
        assert np.array_equal(d.particular, up)
        assert np.array_equal(d.eigenvalues, values)
        for k, mode in enumerate(_modes(asm, pou, d.j, om, oms, basis, n)):
            assert np.array_equal(d.modes[:, k], mode)
    assert min(kept) >= 1


def test_sweep_beyond_the_kept_modes_raises(setting):
    mesh, coef, decomp, pou = setting
    asm = DGAssembler(mesh, coef, G0)
    locals_ = compute_local_data(mesh, asm, source_one, decomp, pou, [("fixed", 2)])
    forms = GlobalForms(asm, source_one)
    for rule in (("fixed", 3), ("threshold", 0.0)):
        with pytest.raises(ValueError, match="exceeds the assembled modes"):
            solve_msgfem(mesh, decomp, pou, locals_, forms, [rule])


def test_compute_local_data_rejects_an_assembler_on_another_mesh(setting):
    mesh, coef, decomp, pou = setting
    other = build_structured_mesh(mesh.structured_n)
    with pytest.raises(ValueError, match="another mesh"):
        compute_local_data(mesh, DGAssembler(other, coef, G0), source_one, decomp, pou, FIXED)


def test_compute_local_data_factors_once_per_subdomain(setting, monkeypatch):
    mesh, coef, decomp, pou = setting
    calls = []
    splu = local_problems.spla.splu

    def counting(A):
        calls.append(A.shape)
        return splu(A)

    monkeypatch.setattr(local_problems.spla, "splu", counting)
    compute_local_data(mesh, DGAssembler(mesh, coef, G0), source_one, decomp, pou, FIXED)
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
    # every subdomain has a nonzero source block and a nonzero basis block
    mesh, coef, decomp, pou = setting
    widths = []
    splu = local_problems.spla.splu
    monkeypatch.setattr(local_problems.spla, "splu",
                        lambda A: _CountingLU(splu(A), widths))
    rough = coefficient_field(mesh, "log_uniform:1e-3:1e3", seed=0)
    for c in (coef, rough):
        widths.clear()
        compute_local_data(mesh, DGAssembler(mesh, c, G0), source_one, decomp, pou, FIXED)
        assert len(widths) == 2 * decomp.n_subdomains
        assert widths.count(1) == decomp.n_subdomains
    # a zero source is not solved at all
    widths.clear()
    compute_local_data(mesh, DGAssembler(mesh, coef, G0), lambda x, y: 0.0, decomp, pou,
                       FIXED)
    assert len(widths) == decomp.n_subdomains and 1 not in widths


class _DoctoredLU:
    """Solves vectors exactly but offsets every matrix right-hand side."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        x = self._lu.solve(b)
        return x + 1.0 if x.ndim == 2 else x


def test_basis_solve_residual_is_checked(setting, monkeypatch):
    mesh, coef, decomp, _ = setting
    splu = local_problems.spla.splu
    monkeypatch.setattr(local_problems.spla, "splu", lambda A: _DoctoredLU(splu(A)))
    with pytest.raises(SolverError, match="local harmonic basis residual"):
        particular_solution(DGAssembler(mesh, coef, G0), source_one,
                            decomp.omega(0), decomp.omega_star(0))


def test_zero_source_gives_zero_solution(setting):
    mesh, coef, decomp, _ = setting
    up, _ = particular_solution(DGAssembler(mesh, coef, G0), lambda x, y: 0.0,
                                decomp.omega(0), decomp.omega_star(0))
    assert np.all(up == 0.0)


def test_single_subdomain_particular_equals_fine_solve():
    mesh = build_structured_mesh(8)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    decomp = build_decomposition(mesh, 1, 2, 2)
    forms = GlobalForms(DGAssembler(mesh, coef, G0), source_one)
    up, _ = particular_solution(forms.asm, source_one, decomp.omega(0),
                                decomp.omega_star(0))
    u = fine_solve(forms)
    assert np.abs(up - u).max() <= 1e-12 * np.abs(u).max()


def test_masked_system_residual_contract(setting):
    # residual relative to the right-hand side, at unit contrast
    mesh = build_structured_mesh(16)
    coef = coefficient_field(mesh, "constant:1")
    decomp = build_decomposition(mesh, 2, 2, 3)
    om, oms = decomp.omega(0), decomp.omega_star(0)
    asm = DGAssembler(mesh, coef, G0)
    A = asm.matrix(oms, "B")
    b = asm.load(source_one, oms)
    free = h0_dofs(mesh, oms)
    psi = np.zeros(3 * oms.size)
    psi[nested_dofs(om, oms)] = particular_solution(asm, source_one, om, oms)[0]
    # reconstruct the full masked solution for the residual check
    Aff = A[np.ix_(free, free)].tocsc()
    x = spla.splu(Aff).solve(b[free])
    assert np.linalg.norm(Aff @ x - b[free]) <= 1e-10 * np.linalg.norm(b[free])


def test_harmonic_basis_dimension_oracle(setting):
    mesh, coef, decomp, _ = setting
    oms = decomp.omega_star(0)
    basis = harmonic_basis(DGAssembler(mesh, coef, G0), oms)
    layer_elems = np.setdiff1d(oms, d_minus(mesh, oms))
    assert basis.shape == (3 * oms.size, 3 * layer_elems.size)
    # columns are independent: unit block at the layer rows
    sv = np.linalg.svd(basis, compute_uv=False)
    assert sv[-1] >= 1.0 - 1e-12


def test_harmonic_columns_pass_residual_invariant(setting):
    mesh, coef, decomp, _ = setting
    asm = DGAssembler(mesh, coef, G0)
    for j in range(decomp.n_subdomains):
        oms = decomp.omega_star(j)
        basis = harmonic_basis(asm, oms)
        A = asm.matrix(oms, "B")
        H = asm.matrix(oms, "H")
        free = h0_dofs(mesh, oms)
        resid = np.abs((A @ basis)[free, :]).max(axis=0)
        norms = np.sqrt(np.einsum("if,if->f", basis, H @ basis))
        assert np.all(resid <= 1e-10 * norms)


def test_harmonic_extension_is_the_basis_applied_to_layer_data(setting):
    mesh, coef, decomp, _ = setting
    asm = DGAssembler(mesh, coef, G0)
    oms = decomp.omega_star(1)
    system = MaskedSystem(asm, oms)
    data = np.random.default_rng(0).standard_normal((system.layer.size, 5))
    U = system.harmonic_extension(data)
    assert np.abs(U - harmonic_basis(asm, oms) @ data).max() <= 1e-12 * np.abs(U).max()


def test_constant_in_span_iff_interior():
    mesh = build_structured_mesh(32)
    coef = coefficient_field(mesh, "checkerboard:100:4")
    decomp = build_decomposition(mesh, 4, 2, 4)
    for j, interior in ((5, True), (0, False)):
        oms = decomp.omega_star(j)
        assert bool(np.any(np.isin(mesh.bface_elem, oms))) != interior
        basis = harmonic_basis(DGAssembler(mesh, coef, G0), oms)
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
    values, vectors = eigen(mesh, coef, pou, j, decomp.omega(j), decomp.omega_star(j))
    assert np.isinf(values[0]) and not np.any(np.isinf(values[1:]))
    finite = values[np.isfinite(values)]
    assert np.all(finite >= 0.0)
    assert np.all(np.diff(finite) <= 1e-12)
    # kernel coefficient vector reproduces the constant through the basis
    basis = harmonic_basis(DGAssembler(mesh, coef, G0), decomp.omega_star(j))
    kvec = basis @ vectors[:, 0]
    assert np.abs(kvec - kvec[0]).max() <= 1e-8 * abs(kvec[0])
    # the oversampled energy annihilates the constant's coefficient vector
    Bp = DGAssembler(mesh, coef, G0).matrix(decomp.omega_star(j), "Bplus")
    M = basis.T @ (Bp @ basis)
    assert np.abs(M @ np.ones(M.shape[0])).max() <= 1e-10


def test_kernel_gram_solve_residual_is_checked(interior, monkeypatch):
    mesh, decomp, pou = interior
    j = 5   # interior: the constants are the right form's kernel
    om, oms = decomp.omega(j), decomp.omega_star(j)
    asm = DGAssembler(mesh, coefficient_field(mesh, "constant:1"), G0)
    basis = harmonic_basis(asm, oms)
    values, _ = eigenproblem(asm, pou, j, om, oms, basis)
    assert np.isinf(values[0]) and np.all(np.isfinite(values[1:]))

    solve = la.solve

    def doctored(G, b, **kwargs):
        return solve(G, b, **kwargs) + 1.0

    monkeypatch.setattr(local_problems.la, "solve", doctored)
    with pytest.raises(SolverError, match="kernel Gram residual"):
        eigenproblem(asm, pou, j, om, oms, basis)


@pytest.mark.parametrize("spec", ["constant:1", "log_uniform:1e-3:1e3"])
def test_lean_local_stage_is_bit_identical(interior, spec):
    # the harmonic basis against the identity's extension, the eigenpairs
    # against the copy-everything pencil, byte for byte
    mesh, decomp, pou = interior
    asm = DGAssembler(mesh, coefficient_field(mesh, spec, seed=0), G0)
    for j in (0, 5):    # on the boundary, and interior with a kernel mode
        om, oms = decomp.omega(j), decomp.omega_star(j)
        system = MaskedSystem(asm, oms)
        basis = system.harmonic_extension()
        assert basis.tobytes() == system.harmonic_extension(np.eye(system.layer.size)).tobytes()
        assert particular_solution(asm, source_one, om, oms)[1].tobytes() == basis.tobytes()
        values, vectors = eigenproblem(asm, pou, j, om, oms, basis)
        oracle_values, oracle_vectors = _oracle_eigenproblem(asm, pou, j, om, oms, basis)
        assert np.isinf(values[0]) == (j == 5)
        assert values.tobytes() == oracle_values.tobytes()
        assert vectors.tobytes() == oracle_vectors.tobytes()


def test_local_stage_holds_one_dense_block_beside_the_basis():
    """Traced allocation peaks of one interior subdomain, per byte of its basis.

    At (40, 4) subdomain 5 the basis is 2688 x 438 (8.98 MiB).  Building it
    holds the right-hand side and the solution (each 84% of the basis) and
    then the solution and the basis; the eigenproblem holds the basis and its
    product with the right form, then the weighted restriction and its
    product (each 43%), with the small pencil matrices beside them.  A
    right-hand side formed as a product and then copied, or a pencil that
    keeps every temporary, shows here.  tracemalloc sees numpy's arrays but
    not SuperLU's internal work array (n_free x n_layer during the basis
    solve) or BLAS buffers, so the peak resident set is larger than these.
    """
    mesh = build_structured_mesh(40)
    decomp = build_decomposition(mesh, 4, 2, 4)
    pou = build_pou(mesh, decomp)
    asm = DGAssembler(mesh, coefficient_field(mesh, "constant:1"), G0)
    j = 5
    om, oms = decomp.omega(j), decomp.omega_star(j)
    asm.matrix(om, "B")     # the block tables are built once per assembler
    tracemalloc.start()
    try:
        _, basis = particular_solution(asm, source_one, om, oms)
        particular_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        eigenproblem(asm, pou, j, om, oms, basis)
        eigen_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.shape == (2688, 438)
    assert particular_peak <= 2.3 * basis.nbytes
    assert eigen_peak <= 2.3 * basis.nbytes


def test_eigenproblem_boundary_subdomain_all_finite(setting):
    mesh, coef, decomp, pou = setting
    values, _ = eigen(mesh, coef, pou, 0, decomp.omega(0), decomp.omega_star(0))
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0.0)


def test_eigenvalues_invariant_under_coefficient_scaling(setting):
    mesh, coef, decomp, pou = setting
    om, oms = decomp.omega(0), decomp.omega_star(0)
    lam1, _ = eigen(mesh, coef, pou, 0, om, oms)
    coef3 = Coefficient(3.0 * coef.values)
    lam3, _ = eigen(mesh, coef3, pou, 0, om, oms)
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
    ones_pou = PartitionOfUnity(values=np.ones((1, mesh.n_vertices)))
    asm = DGAssembler(mesh, coef, G0)
    basis = harmonic_basis(asm, oms)
    Bp = asm.matrix(oms, "Bplus")
    A = basis.T @ (Bp @ basis)
    M = A.copy()
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    assert w[0] >= -1e-10 * max(w[-1], 1.0)


def test_pencil_residuals_within_tolerance(setting):
    mesh, coef, decomp, pou = setting
    j = 1
    om, oms = decomp.omega(j), decomp.omega_star(j)
    asm = DGAssembler(mesh, coef, G0)
    basis = harmonic_basis(asm, oms)
    idx = nested_dofs(om, oms)
    W = basis[idx, :] * pou.dof_weights(mesh, j, om)[:, None]
    A = W.T @ (asm.matrix(om, "Bplus") @ W)
    M = basis.T @ (asm.matrix(oms, "Bplus") @ basis)
    A = 0.5 * (A + A.T)
    M = 0.5 * (M + M.T)
    values, vectors = eigenproblem(asm, pou, j, om, oms, basis)
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
    locals_ = compute_local_data(mesh, DGAssembler(mesh, coef, G0), source_one, decomp, pou, FIXED)
    for data in locals_:
        lam = data.eigenvalues[np.isfinite(data.eigenvalues)][:20]
        slope, _, r2 = decay_fit(np.arange(1, lam.size + 1), np.sqrt(lam), 0.5)
        assert slope < 0.0
        assert r2 >= 0.9


def test_threaded_results_match_serial(setting):
    mesh, coef, decomp, pou = setting
    serial = compute_local_data(mesh, DGAssembler(mesh, coef, G0), source_one, decomp, pou,
                                FIXED, threads=1)
    # the workers share a fresh assembler, so they race to build its block tables
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = compute_local_data(mesh, DGAssembler(mesh, coef, G0), source_one, decomp,
                                      pou, FIXED, threads=4)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.particular, b.particular)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.modes, b.modes)


def test_select_coarse_rules():
    vals = np.array([np.inf, 0.25, 0.04, 0.01])
    data = LocalSpectralData(j=0, particular=np.zeros(1), eigenvalues=vals,
                             modes=np.zeros((1, 0)))
    assert select_coarse(data, ("fixed", 1)) == 1
    assert select_coarse(data, ("threshold", 0.0)) == 4
    # threshold on the root: kernel plus the two modes with sqrt >= 0.2
    assert select_coarse(data, ("threshold", 0.2)) == 3
    assert select_coarse(data, ("threshold", 0.45)) == 2
    with pytest.raises(ValueError):
        select_coarse(data, ("fixed", 5))
    with pytest.raises(ValueError):
        select_coarse(data, ("bogus", 1))
