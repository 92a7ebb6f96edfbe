import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from manufactured import QUAD5_POINTS, QUAD5_WEIGHTS, jump_seminorm_sq, quadrature_points
from msgfem.decomposition import build_decomposition, square_block
from msgfem.dg_forms import DGAssembler, subdomain_dofs
from msgfem.mesh import Coefficient, build_structured_mesh, coefficient_field

G0 = np.sqrt(10.0)
MASS3 = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


# -- scalar oracles of the per-face data the assembler vectorizes ---------------

def gamma_sq(nu_1, nu_2, h_F, gamma0):
    """Weighted penalty coefficient ``(gamma0^2/h_F) * 2 nu_1 nu_2 / (nu_1 + nu_2)``."""
    if nu_1 <= 0 or nu_2 <= 0 or h_F <= 0 or gamma0 <= 0:
        raise ValueError("penalty inputs must be positive")
    return (gamma0 * gamma0 / h_F) * 2.0 * nu_1 * nu_2 / (nu_1 + nu_2)


def weighted_avg_weights(nu_1, nu_2):
    """Coefficient-weighted average weights ``(2 nu_2, 2 nu_1) / (nu_1 + nu_2)``."""
    if nu_1 <= 0 or nu_2 <= 0:
        raise ValueError("coefficient values must be positive")
    s = nu_1 + nu_2
    return 2.0 * nu_2 / s, 2.0 * nu_1 / s


def face_data(mesh, coefficient, kind, k):
    """Per-face ``(nu_1, nu_2, h_F, normal)``; side 1 is the smaller element.

    Boundary faces repeat their single element's coefficient value.
    """
    if kind == "interior":
        e1, e2 = mesh.iface_elems[k]
        return (float(coefficient.values[e1]), float(coefficient.values[e2]),
                float(mesh.iface_h[k]), mesh.iface_normal[k].copy())
    e = mesh.bface_elem[k]
    nu = float(coefficient.values[e])
    return nu, nu, float(mesh.bface_h[k]), mesh.bface_normal[k].copy()


def quad(M, u, v=None):
    """Form value ``v^T M u`` (``v`` defaults to ``u``)."""
    return float((u if v is None else v) @ (M @ u))


def norm(M, u):
    val = quad(M, u)
    assert val >= -1e-10
    return float(np.sqrt(max(val, 0.0)))


def test_gamma_sq_values_and_symmetry():
    assert gamma_sq(2.0, 2.0, 0.25, 1.0) == pytest.approx(2.0 / 0.25)
    assert gamma_sq(1.0, 3.0, 0.5, 1.0) == pytest.approx(3.0)
    assert gamma_sq(1.0, 3.0, 0.5, 1.0) == gamma_sq(3.0, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        gamma_sq(0.0, 1.0, 0.5, 1.0)


def test_weighted_avg_weights():
    assert weighted_avg_weights(5.0, 5.0) == (1.0, 1.0)
    assert weighted_avg_weights(1.0, 3.0) == (1.5, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.uniform(0.1, 100, size=2)
        w1, w2 = weighted_avg_weights(a, b)
        assert w1 + w2 == pytest.approx(2.0, abs=1e-14)


def test_constant_energy_equals_boundary_penalty_sum():
    mesh = build_structured_mesh(2)
    coef = coefficient_field(mesh, "constant:1")
    B = DGAssembler(mesh, coef, G0).matrix(None, "B")
    ones = np.ones(B.shape[0])
    oracle = 0.0
    for k in range(mesh.n_boundary_faces):
        nu1, nu2, hF, _ = face_data(mesh, coef, "boundary", k)
        oracle += 2.0 * gamma_sq(nu1, nu2, hF, G0) * hF
    assert quad(B, ones) == pytest.approx(oracle, rel=1e-13)
    assert quad(B, ones) == pytest.approx(16.0 * G0 ** 2, rel=1e-13)


def test_assembled_matrix_is_symmetric():
    mesh = build_structured_mesh(4)
    coef = coefficient_field(mesh, "checkerboard:100:1")
    for kind in ("B", "Bplus", "H", "mass"):
        M = DGAssembler(mesh, coef, G0).matrix(None, kind)
        assert np.abs((M - M.T)).max() <= 1e-13 * np.abs(M).max()


def test_coefficient_scaling_is_exact_for_powers_of_two():
    mesh = build_structured_mesh(4)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    D = square_block(mesh, 0, 3, 1, 4)

    def form(values):
        return DGAssembler(mesh, Coefficient(values), G0).matrix(D, "B")

    B1 = form(coef.values)
    B2 = form(2.0 * coef.values)
    assert np.abs((B2 - 2.0 * B1)).max() == 0.0
    B3 = form(3.0 * coef.values)
    assert np.abs((B3 - 3.0 * B1)).max() <= 1e-14 * np.abs(B3).max()


def test_bplus_kernel_dichotomy():
    mesh = build_structured_mesh(8)
    coef = coefficient_field(mesh, "checkerboard:10000:2")
    asm = DGAssembler(mesh, coef, G0)
    interior = square_block(mesh, 2, 6, 2, 6)
    Bp = asm.matrix(interior, "Bplus")
    ones = np.ones(Bp.shape[0])
    assert np.abs(Bp @ ones).max() <= 1e-12 * coef.nu_max
    boundary = square_block(mesh, 0, 4, 0, 4)
    Bpb = asm.matrix(boundary, "Bplus")
    assert quad(Bpb, np.ones(Bpb.shape[0])) > 0.0


def test_bplus_positive_semidefinite_dense():
    mesh = build_structured_mesh(6)
    coef = coefficient_field(mesh, "checkerboard:100:3")
    rng = np.random.default_rng(1)
    for _ in range(3):
        picks = np.unique(rng.integers(0, mesh.n_elements, size=30))
        Bp = DGAssembler(mesh, coef, G0).matrix(picks, "Bplus").toarray()
        assert la.eigvalsh(0.5 * (Bp + Bp.T))[0] >= -1e-12 * coef.nu_max


def test_h_is_bplus_plus_mass_and_positive():
    mesh = build_structured_mesh(8)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    D = square_block(mesh, 2, 6, 2, 6)
    asm = DGAssembler(mesh, coef, G0)
    H = asm.matrix(D, "H")
    Bp = asm.matrix(D, "Bplus")
    Mv = asm.matrix(D, "mass")
    assert np.abs((H - Bp - Mv)).max() <= 1e-12 * np.abs(H).max()
    assert la.eigvalsh(H.toarray())[0] > 0.0
    # constants only see the volume term on interior sets
    ones = np.ones(H.shape[0])
    area = mesh.areas[D].sum()
    assert ones @ (H @ ones) == pytest.approx(area, rel=1e-12)


def test_energy_norm_identities():
    mesh = build_structured_mesh(8)
    coef = coefficient_field(mesh, "constant:2")
    D = square_block(mesh, 2, 6, 2, 6)
    asm = DGAssembler(mesh, coef, G0)
    Bp, H, mass = (asm.matrix(D, kind) for kind in ("Bplus", "H", "mass"))
    nd = 3 * D.size
    assert norm(Bp, np.zeros(nd)) == 0.0
    c = 3.0 * np.ones(nd)
    area = mesh.areas[D].sum()
    assert norm(Bp, c) <= 1e-6
    assert norm(mass, c) == pytest.approx(3.0 * np.sqrt(area))
    rng = np.random.default_rng(2)
    u = rng.standard_normal(nd)
    nb = norm(Bp, u)
    nl = norm(mass, u)
    nh = norm(H, u)
    assert nh ** 2 == pytest.approx(nb ** 2 + nl ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        asm.matrix(D, "bogus")


def test_load_trivial_and_moments():
    mesh = build_structured_mesh(4)
    D = square_block(mesh, 1, 3, 1, 3)
    asm = DGAssembler(mesh, coefficient_field(mesh, "constant:1"), G0)
    dofs = subdomain_dofs(D)
    assert np.all(asm.load(lambda x, y: 0.0)[dofs] == 0.0)
    F = asm.load(lambda x, y: 1.0)[dofs]
    assert F.sum() == pytest.approx(mesh.areas[D].sum(), rel=1e-13)
    # closed-form moments of f = x on the reference triangle, element 0 of the
    # one-cell mesh: against the vertex functions at (0,0), (1,0), (1,1)
    ref = build_structured_mesh(1)
    ref_asm = DGAssembler(ref, coefficient_field(ref, "constant:1"), G0)
    Fx = ref_asm.load(lambda x, y: x)[subdomain_dofs([0])]
    assert Fx == pytest.approx([1 / 12, 1 / 8, 1 / 8], rel=1e-13)


def face_block_oracle(mesh, coef, gamma0, kind):
    """Independent scalar-loop assembly: volume plus per-face blocks, reversed order."""
    nd = 3 * mesh.n_elements
    M = np.zeros((nd, nd))
    for e in range(mesh.n_elements):
        dofs = np.arange(3 * e, 3 * e + 3)
        K = coef.values[e] * mesh.areas[e] * (mesh.grads[e] @ mesh.grads[e].T)
        M[np.ix_(dofs, dofs)] += K
    for k in reversed(range(mesh.n_interior_faces)):
        e1, e2 = mesh.iface_elems[k]
        nu1, nu2, hF, n = face_data(mesh, coef, "interior", k)
        g2 = gamma_sq(nu1, nu2, hF, gamma0)
        w1, w2 = weighted_avg_weights(nu1, nu2)
        dofs = np.concatenate([np.arange(3 * e1, 3 * e1 + 3),
                               np.arange(3 * e2, 3 * e2 + 3)])
        Sp = np.zeros(6)
        Sq = np.zeros(6)
        (ia1, ib1), (ia2, ib2) = mesh.iface_local[k]
        Sp[ia1], Sp[3 + ia2] = 1.0, -1.0
        Sq[ib1], Sq[3 + ib2] = 1.0, -1.0
        pen = g2 * hF / 6.0 * (2 * np.outer(Sp, Sp) + np.outer(Sp, Sq)
                               + np.outer(Sq, Sp) + 2 * np.outer(Sq, Sq))
        blk = pen
        if kind == "B":
            gvec = np.concatenate([w1 * nu1 * (mesh.grads[e1] @ n),
                                   w2 * nu2 * (mesh.grads[e2] @ n)])
            cons = 0.25 * hF * np.outer(Sp + Sq, gvec)
            blk = pen - cons - cons.T
        M[np.ix_(dofs, dofs)] += blk
    for k in reversed(range(mesh.n_boundary_faces)):
        e = mesh.bface_elem[k]
        nu1, nu2, hF, n = face_data(mesh, coef, "boundary", k)
        g2 = gamma_sq(nu1, nu2, hF, gamma0)
        dofs = np.arange(3 * e, 3 * e + 3)
        ia, ib = mesh.bface_local[k]
        Tp = np.zeros(3)
        Tq = np.zeros(3)
        Tp[ia], Tq[ib] = 1.0, 1.0
        mf = hF / 6.0 * (2 * np.outer(Tp, Tp) + np.outer(Tp, Tq)
                         + np.outer(Tq, Tp) + 2 * np.outer(Tq, Tq))
        if kind == "B":
            gvec = nu1 * (mesh.grads[e] @ n)
            cons = 0.5 * hF * np.outer(Tp + Tq, gvec)
            blk = 2.0 * g2 * mf - cons - cons.T
        else:
            blk = g2 * mf
        M[np.ix_(dofs, dofs)] += blk
    return M


@pytest.mark.parametrize("kind", ["B", "Bplus"])
def test_face_sum_consistency_against_scalar_oracle(kind):
    mesh = build_structured_mesh(4)
    coef = coefficient_field(mesh, "checkerboard:1000:1")
    fast = DGAssembler(mesh, coef, G0).matrix(None, kind).toarray()
    slow = face_block_oracle(mesh, coef, G0, kind)
    assert np.abs(fast - slow).max() <= 1e-13 * np.abs(slow).max()


def test_spectral_interval_insensitive_to_contrast():
    # generalized eigenvalues of the full form against its positive part
    mesh = build_structured_mesh(8)

    def interval(spec):
        coef = coefficient_field(mesh, spec)
        asm = DGAssembler(mesh, coef, G0)
        B = asm.matrix(None, "B").toarray()
        Bp = asm.matrix(None, "Bplus").toarray()
        w = la.eigh(0.5 * (B + B.T), 0.5 * (Bp + Bp.T), eigvals_only=True)
        return w[0], w[-1]

    lo1, hi1 = interval("constant:1")
    lo2, hi2 = interval("checkerboard:10000:2")
    assert abs(lo2 - lo1) <= 0.1 * lo1
    assert abs(hi2 - hi1) <= 0.1 * hi1
    assert lo1 > 0.0


def elementwise_l2_projection(mesh, g):
    pts = quadrature_points(mesh)
    gv = g(pts[..., 0], pts[..., 1])
    b = np.einsum("eq,q,qi->ei", gv, QUAD5_WEIGHTS, QUAD5_POINTS)
    M0 = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
    return np.einsum("ij,ej->ei", np.linalg.inv(M0), b).ravel()


def test_jump_seminorm_of_elementwise_approximations():
    # the vertex interpolant of a smooth function is continuous, so its jump
    # seminorm vanishes; the discontinuous elementwise projection loses O(h)
    g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    vals = []
    for n in (8, 16, 32):
        mesh = build_structured_mesh(n)
        coef = coefficient_field(mesh, "constant:1")
        asm = DGAssembler(mesh, coef, G0)
        nodal = g(mesh.vertices[mesh.elements][..., 0],
                  mesh.vertices[mesh.elements][..., 1]).ravel()
        assert abs(jump_seminorm_sq(asm, nodal)) <= 1e-10
        proj = elementwise_l2_projection(mesh, g)
        vals.append(np.sqrt(jump_seminorm_sq(asm, proj)))
    rates = [np.log(vals[i] / vals[i + 1]) / np.log(2.0) for i in range(2)]
    assert min(rates) >= 0.9


def test_empty_subdomain_rejected():
    mesh = build_structured_mesh(2)
    coef = coefficient_field(mesh, "constant:1")
    with pytest.raises(ValueError):
        DGAssembler(mesh, coef, G0).matrix(np.array([], dtype=np.int64), "B")
    with pytest.raises(ValueError):
        DGAssembler(mesh, coef, G0).matrix(None, "bogus")


@pytest.mark.parametrize("gamma0, coef_n, message", [
    (0.0, 2, "gamma0 must be positive"),
    (G0, 4, "coefficient does not match the mesh"),
], ids=["gamma0-zero", "coefficient-of-another-mesh"])
def test_assembler_rejects_invalid_inputs(gamma0, coef_n, message):
    mesh = build_structured_mesh(2)
    coef = coefficient_field(build_structured_mesh(coef_n), "constant:1")
    with pytest.raises(ValueError, match=f"^{message}$"):
        DGAssembler(mesh, coef, gamma0)


def test_dofmap_and_subdomain_dofs():
    mesh = build_structured_mesh(2)
    # element e owns the global dofs 3e, 3e+1, 3e+2
    assert subdomain_dofs(np.arange(mesh.n_elements)).size == 3 * mesh.n_elements
    assert np.array_equal(subdomain_dofs([3]), [9, 10, 11])
    assert np.array_equal(subdomain_dofs([1, 4]), [3, 4, 5, 12, 13, 14])


# -- the per-call assembly the block tables replace ------------------------------

def per_call_matrix(mesh, coef, gamma0, D, kind):
    """Every block recomputed from the per-face data on each call, as before the tables."""
    nu_all = coef.values
    e1, e2 = mesh.iface_elems[:, 0], mesh.iface_elems[:, 1]
    nu1, nu2 = nu_all[e1], nu_all[e2]
    int_gamma2 = (gamma0 * gamma0 / mesh.iface_h) * 2.0 * nu1 * nu2 / (nu1 + nu2)
    int_coef1 = 2.0 * nu2 / (nu1 + nu2) * nu1
    int_coef2 = 2.0 * nu1 / (nu1 + nu2) * nu2
    bnd_gamma2 = (gamma0 * gamma0 / mesh.bface_h) * nu_all[mesh.bface_elem]
    nfi, nfb = mesh.n_interior_faces, mesh.n_boundary_faces
    Sp_all, Sq_all = np.zeros((nfi, 6)), np.zeros((nfi, 6))
    r = np.arange(nfi)
    Sp_all[r, mesh.iface_local[:, 0, 0]] = 1.0
    Sp_all[r, 3 + mesh.iface_local[:, 1, 0]] = -1.0
    Sq_all[r, mesh.iface_local[:, 0, 1]] = 1.0
    Sq_all[r, 3 + mesh.iface_local[:, 1, 1]] = -1.0
    dn1 = np.einsum("fid,fd->fi", mesh.grads[e1], mesh.iface_normal)
    dn2 = np.einsum("fid,fd->fi", mesh.grads[e2], mesh.iface_normal)
    Tp_all, Tq_all = np.zeros((nfb, 3)), np.zeros((nfb, 3))
    r = np.arange(nfb)
    Tp_all[r, mesh.bface_local[:, 0]] = 1.0
    Tq_all[r, mesh.bface_local[:, 1]] = 1.0
    dnb = np.einsum("fid,fd->fi", mesh.grads[mesh.bface_elem], mesh.bface_normal)

    D = np.arange(mesh.n_elements) if D is None else np.asarray(D, dtype=np.int64)
    blocks, rows_all, cols_all = [], [], []

    def add(block, elems_rows, elems_cols):
        rows_all.append(np.broadcast_to(elems_rows[:, :, None], block.shape).ravel())
        cols_all.append(np.broadcast_to(elems_cols[:, None, :], block.shape).ravel())
        blocks.append(block.ravel())

    def outer(a, b):
        return np.einsum("fi,fj->fij", a, b)

    nu, areas = nu_all[D], mesh.areas[D]
    eldofs = 3 * np.searchsorted(D, D)[:, None] + np.arange(3)
    if kind == "mass":
        vol = areas[:, None, None] * MASS3[None, :, :]
    else:
        stiff = np.einsum("eid,ejd->eij", mesh.grads[D], mesh.grads[D])
        vol = (nu * areas)[:, None, None] * stiff
        if kind == "H":
            vol = vol + areas[:, None, None] * MASS3[None, :, :]
    add(vol, eldofs, eldofs)
    if kind != "mass":
        both = np.isin(mesh.iface_elems, D)
        k = np.flatnonzero(both[:, 0] & both[:, 1])
        if k.size:
            hF, g2, Sp, Sq = mesh.iface_h[k], int_gamma2[k], Sp_all[k], Sq_all[k]
            pen = (g2 * hF / 6.0)[:, None, None] * (
                2.0 * outer(Sp, Sp) + outer(Sp, Sq) + outer(Sq, Sp) + 2.0 * outer(Sq, Sq))
            blk = pen
            if kind == "B":
                gvec = np.concatenate([int_coef1[k, None] * dn1[k],
                                       int_coef2[k, None] * dn2[k]], axis=1)
                cons = (0.25 * hF)[:, None, None] * outer(Sp + Sq, gvec)
                blk = pen - cons - np.swapaxes(cons, 1, 2)
            s1 = np.searchsorted(D, mesh.iface_elems[k, 0])
            s2 = np.searchsorted(D, mesh.iface_elems[k, 1])
            fd = np.concatenate([3 * s1[:, None] + np.arange(3),
                                 3 * s2[:, None] + np.arange(3)], axis=1)
            add(blk, fd, fd)
        k = np.flatnonzero(np.isin(mesh.bface_elem, D))
        if k.size:
            hF, g2, Tp, Tq = mesh.bface_h[k], bnd_gamma2[k], Tp_all[k], Tq_all[k]
            mf = (hF / 6.0)[:, None, None] * (
                2.0 * outer(Tp, Tp) + outer(Tp, Tq) + outer(Tq, Tp) + 2.0 * outer(Tq, Tq))
            if kind == "B":
                gvec = nu_all[mesh.bface_elem[k], None] * dnb[k]
                cons = (0.5 * hF)[:, None, None] * outer(Tp + Tq, gvec)
                blk = 2.0 * g2[:, None, None] * mf - cons - np.swapaxes(cons, 1, 2)
            else:
                blk = g2[:, None, None] * mf
            fd = 3 * np.searchsorted(D, mesh.bface_elem[k])[:, None] + np.arange(3)
            add(blk, fd, fd)
    mat = sp.coo_matrix((np.concatenate(blocks),
                         (np.concatenate(rows_all), np.concatenate(cols_all))),
                        shape=(3 * D.size, 3 * D.size)).tocsr()
    mat.sum_duplicates()
    return mat


def _face_free_set(mesh):
    """Elements no two of which share a face, picked greedily in index order."""
    taken = np.zeros(mesh.n_elements, dtype=bool)
    for e in range(mesh.n_elements):
        pair = mesh.iface_elems[(mesh.iface_elems == e).any(axis=1)]
        taken[e] = not taken[pair.ravel()].any()
    return np.flatnonzero(taken)


@pytest.mark.parametrize("spec", ["constant:1", "checkerboard:1e6:4", "log_uniform:1e-3:1e3"])
def test_block_tables_match_the_per_call_assembly_bit_for_bit(spec):
    mesh = build_structured_mesh(24)
    coef = coefficient_field(mesh, spec, seed=3)
    decomp = build_decomposition(mesh, 4, 2, 2)
    interior = decomp.omega_star(5)
    boundary = decomp.omega_star(0)
    assert not np.isin(mesh.bface_elem, interior).any()
    assert np.isin(mesh.bface_elem, boundary).any()
    free = _face_free_set(mesh)
    assert free.size > 1 and not np.isin(mesh.iface_elems, free).all(axis=1).any()
    asm = DGAssembler(mesh, coef, G0)
    for D in (None, interior, boundary, np.array([37]), free):
        for kind in ("B", "Bplus", "H", "mass"):
            got = asm.matrix(D, kind)
            want = per_call_matrix(mesh, coef, G0, D, kind)
            assert got.shape == want.shape
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), (kind, attr)
