import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from msgfem.decomposition import (Decomposition, build_decomposition, d_minus,
                                  grow, square_block)
from msgfem.dg_forms import DGAssembler, subdomain_dofs
from msgfem.mesh import build_structured_mesh, coefficient_field
from msgfem.space_ops import (build_pou, extend_by_zero, h0_dofs,
                              interpolate_product, pou_blend, restrict)

G0 = np.sqrt(10.0)


@pytest.fixture(scope="module")
def setting():
    mesh = build_structured_mesh(16)
    coef = coefficient_field(mesh, "checkerboard:100:2")
    D = square_block(mesh, 4, 9, 4, 9)
    D_star = grow(mesh, D, 3)
    return mesh, coef, D, D_star


def locality_check(asm, u_star, v, D, D_star):
    """``(B_D(u|_D, v), B_{D*}(u, E v))`` through two separate assemblies."""
    a = float(v @ (asm.matrix(D, "B") @ restrict(u_star, D_star, D)))
    ev = extend_by_zero(asm.mesh, v, D, D_star)
    return a, float(ev @ (asm.matrix(D_star, "B") @ u_star))


def random_h0_vector(mesh, D, rng):
    v = np.zeros(3 * D.size)
    free = h0_dofs(mesh, D)
    v[free] = rng.standard_normal(free.size)
    return v


def test_h0_mask_is_the_shrunk_hull(setting):
    mesh, _, D, _ = setting
    free = h0_dofs(mesh, D)
    inner = d_minus(mesh, D)
    oracle = np.flatnonzero(np.isin(np.repeat(D, 3), inner))
    assert np.array_equal(free, oracle)


def test_restrict_identity_and_off_support(setting):
    mesh, _, D, D_star = setting
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3 * D_star.size)
    assert np.array_equal(restrict(u, D_star, D_star), u)
    outside_only = u.copy()
    outside_only[np.flatnonzero(np.isin(np.repeat(D_star, 3), D))] = 0.0
    assert np.all(restrict(outside_only, D_star, D) == 0.0)
    with pytest.raises(ValueError):
        restrict(u, D, D_star)


def test_restriction_nonexpansive_independent_assemblies(setting):
    mesh, coef, D, D_star = setting
    asm = DGAssembler(mesh, coef, G0)
    H_D = asm.matrix(D, "H")
    H_Ds = asm.matrix(D_star, "H")
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.standard_normal(3 * D_star.size)
        ur = restrict(u, D_star, D)
        assert ur @ (H_D @ ur) <= (u @ (H_Ds @ u)) * (1 + 1e-12)


def test_extension_isometry_hundred_vectors(setting):
    mesh, coef, D, D_star = setting
    asm = DGAssembler(mesh, coef, G0)
    H_D = asm.matrix(D, "H")
    H_Ds = asm.matrix(D_star, "H")
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = random_h0_vector(mesh, D, rng)
        ev = extend_by_zero(mesh, v, D, D_star)
        n1 = v @ (H_D @ v)
        n2 = ev @ (H_Ds @ ev)
        assert abs(n1 - n2) <= 1e-12 * n1
        assert np.array_equal(restrict(ev, D_star, D), v)
    assert np.all(extend_by_zero(mesh, np.zeros(3 * D.size), D, D_star) == 0.0)


def test_extension_on_equal_sets_is_identity(setting):
    mesh, _, D, _ = setting
    rng = np.random.default_rng(3)
    v = random_h0_vector(mesh, D, rng)
    assert np.array_equal(extend_by_zero(mesh, v, D, D), v)


def test_extension_rejects_contact_layer_values(setting):
    mesh, _, D, D_star = setting
    v = np.ones(3 * D.size)
    with pytest.raises(ValueError, match="contact layer"):
        extend_by_zero(mesh, v, D, D_star)


def test_locality_identity(setting):
    mesh, coef, D, D_star = setting
    rng = np.random.default_rng(4)
    asm = DGAssembler(mesh, coef, G0)
    H_D = asm.matrix(D, "H")
    H_Ds = asm.matrix(D_star, "H")
    zero = np.zeros(3 * D.size)
    u = rng.standard_normal(3 * D_star.size)
    assert locality_check(asm, u, zero, D, D_star) == (0.0, 0.0)
    for _ in range(100):
        v = random_h0_vector(mesh, D, rng)
        u = rng.standard_normal(3 * D_star.size)
        a, b = locality_check(asm, u, v, D, D_star)
        scale = max(abs(a), abs(b),
                    np.sqrt(float(u @ (H_Ds @ u)) * float(v @ (H_D @ v))))
        assert abs(a - b) <= 1e-12 * scale


def test_locality_constant_on_interior_set(setting):
    mesh, coef, D, D_star = setting
    rng = np.random.default_rng(5)
    v = random_h0_vector(mesh, D, rng)
    u = np.ones(3 * D_star.size)
    a, b = locality_check(DGAssembler(mesh, coef, G0), u, v, D, D_star)
    # constants are in the kernel on interior sets, so both numbers vanish
    assert abs(a) <= 1e-10 and abs(b) <= 1e-10


def test_pou_single_subdomain_is_one():
    mesh = build_structured_mesh(8)
    decomp = build_decomposition(mesh, 1, 2, 2)
    pou = build_pou(mesh, decomp)
    assert np.all(pou.values == 1.0)


def test_pou_invariants_and_plateau():
    mesh = build_structured_mesh(16)
    decomp = build_decomposition(mesh, 2, 2, 4)
    pou = build_pou(mesh, decomp)
    sums = pou.values.sum(axis=0)
    assert np.abs(sums - 1.0).max() <= 1e-14
    assert pou.values.min() >= 0.0 and pou.values.max() <= 1.0
    # far corner vertex lies deep inside subdomain 0 only
    corner = 0
    assert pou.values[0][corner] == 1.0
    assert np.all(pou.values[1:, corner] == 0.0)
    # support: zero on vertices of every element outside the shrunk subdomain
    for j in range(decomp.n_subdomains):
        inner = d_minus(mesh, decomp.omega(j))
        outside = np.setdiff1d(np.arange(mesh.n_elements), inner)
        verts = np.unique(mesh.elements[outside])
        assert np.all(pou.values[j][verts] == 0.0)


def test_pou_uncovered_vertex_reported():
    mesh = build_structured_mesh(8)
    tiny = square_block(mesh, 0, 2, 0, 2)
    decomp = Decomposition(subdomains=[(tiny, tiny)])
    with pytest.raises(ValueError, match="vertex"):
        build_pou(mesh, decomp)


def test_interpolate_product_reproductions(setting):
    mesh, _, D, _ = setting
    rng = np.random.default_rng(6)
    u = rng.standard_normal(3 * D.size)
    ones_chi = np.ones(mesh.n_vertices)
    assert np.array_equal(interpolate_product(mesh, ones_chi, u, D), u)
    chi = rng.uniform(0.0, 1.0, size=mesh.n_vertices)
    out = interpolate_product(mesh, chi, np.ones(3 * D.size), D)
    assert np.array_equal(out, chi[mesh.elements[D]].ravel())


def test_interpolated_product_lands_in_masked_subspace():
    mesh = build_structured_mesh(16)
    decomp = build_decomposition(mesh, 2, 2, 4)
    pou = build_pou(mesh, decomp)
    rng = np.random.default_rng(7)
    for j in range(decomp.n_subdomains):
        om = decomp.omega(j)
        u = rng.standard_normal(3 * om.size)
        out = interpolate_product(mesh, pou.values[j], u, om)
        free = h0_dofs(mesh, om)
        layer = np.setdiff1d(np.arange(3 * om.size), free)
        assert np.all(out[layer] == 0.0)


def test_interpolation_stability_constant_reported():
    mesh = build_structured_mesh(16)
    coef = coefficient_field(mesh, "constant:1")
    decomp = build_decomposition(mesh, 2, 2, 4)
    pou = build_pou(mesh, decomp)
    om = decomp.omega(0)
    H = DGAssembler(mesh, coef, G0).matrix(om, "H")
    rng = np.random.default_rng(8)
    grad = np.einsum("ei,eid->ed", pou.values[0][mesh.elements], mesh.grads)
    denom = np.sqrt(1.0 + np.linalg.norm(grad, axis=1).max() ** 2)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(3 * om.size)
        pu = interpolate_product(mesh, pou.values[0], u, om)
        ratio = np.sqrt(pu @ (H @ pu)) / (denom * np.sqrt(u @ (H @ u)))
        worst = max(worst, ratio)
    # the weight is bounded by one, so the weighted energy cannot blow up
    assert 0.0 < worst < 10.0


def test_pou_blend_reproduces_global_vectors():
    mesh = build_structured_mesh(16)
    decomp = build_decomposition(mesh, 2, 2, 4)
    pou = build_pou(mesh, decomp)
    zero = pou_blend(mesh, decomp, pou,
                     [np.zeros(3 * decomp.omega(j).size) for j in range(4)])
    assert np.all(zero == 0.0)
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = rng.standard_normal(3 * mesh.n_elements)
        locs = [u[subdomain_dofs(decomp.omega(j))] for j in range(4)]
        w = pou_blend(mesh, decomp, pou, locs)
        assert np.abs(w - u).max() <= 1e-12 * np.abs(u).max()


def test_pou_blend_single_subdomain_identity():
    mesh = build_structured_mesh(8)
    decomp = build_decomposition(mesh, 1, 2, 2)
    pou = build_pou(mesh, decomp)
    rng = np.random.default_rng(10)
    u = rng.standard_normal(3 * mesh.n_elements)
    assert np.array_equal(pou_blend(mesh, decomp, pou, [u]), u)


def test_contact_band_faces_vanish_from_both_norms(setting):
    # vectors living only on the shrunk-hull elements that touch the contact
    # layer exercise exactly the faces one form has and the other does not
    mesh, coef, D, D_star = setting
    asm = DGAssembler(mesh, coef, G0)
    H_D = asm.matrix(D, "H")
    H_Ds = asm.matrix(D_star, "H")
    inner = d_minus(mesh, D)
    band = np.setdiff1d(inner, d_minus(mesh, inner), assume_unique=True)
    assert band.size > 0
    rng = np.random.default_rng(12)
    band_dofs = np.flatnonzero(np.isin(np.repeat(D, 3), band))
    for _ in range(20):
        v = np.zeros(3 * D.size)
        v[band_dofs] = rng.standard_normal(band_dofs.size)
        ev = extend_by_zero(mesh, v, D, D_star)
        n1 = float(v @ (H_D @ v))
        n2 = float(ev @ (H_Ds @ ev))
        assert abs(n1 - n2) <= 1e-12 * n1


def vertex_graph_distance(mesh, sources):
    """Oracle: breadth-first search over vertex fronts through incident elements."""
    v2e = [[] for _ in range(mesh.n_vertices)]
    for e, tri in enumerate(mesh.elements):
        for v in tri:
            v2e[v].append(e)
    dist = np.full(mesh.n_vertices, np.inf)
    dist[sources] = 0.0
    frontier = sources
    level = 0
    while frontier.size:
        level += 1
        elems = np.unique(np.concatenate([v2e[v] for v in frontier]))
        cand = np.unique(mesh.elements[elems].ravel())
        new = cand[np.isinf(dist[cand])]
        dist[new] = level
        frontier = new
    return dist


def pou_by_search(mesh, decomp):
    """Oracle: the distance-graded weights, distances by breadth-first search."""
    raw = np.zeros((decomp.n_subdomains, mesh.n_vertices))
    for j in range(decomp.n_subdomains):
        inner = d_minus(mesh, decomp.omega(j))
        outside = np.setdiff1d(np.arange(mesh.n_elements), inner)
        if outside.size == 0:
            raw[j] = 1.0
            continue
        dist = vertex_graph_distance(mesh, np.unique(mesh.elements[outside]))
        core = d_minus(mesh, inner)
        cap = max(float(dist[np.unique(mesh.elements[core])].min()), 1.0) if core.size else 1.0
        raw[j] = np.minimum(dist, cap) / cap
    return raw / raw.sum(axis=0)


@pytest.mark.parametrize("n,m,ls", [(40, 4, 4), (32, 8, 2), (60, 6, 4),
                                    (8, 1, 2), (8, 2, 2), (16, 2, 4)])
def test_pou_distances_match_breadth_first_search(n, m, ls):
    mesh = build_structured_mesh(n)
    decomp = build_decomposition(mesh, m, 2, ls)
    adjacency = (mesh.incidence.T @ mesh.incidence).tocsr()
    for j in range(decomp.n_subdomains):
        inner = d_minus(mesh, decomp.omega(j))
        outside = np.setdiff1d(np.arange(mesh.n_elements), inner)
        if outside.size == 0:
            continue
        forbidden = np.unique(mesh.elements[outside])
        fast = dijkstra(adjacency, indices=forbidden, unweighted=True, min_only=True)
        slow = vertex_graph_distance(mesh, forbidden)
        assert fast.dtype == slow.dtype
        assert np.array_equal(fast, slow)
    pou = build_pou(mesh, decomp)
    want = pou_by_search(mesh, decomp)
    assert pou.values.dtype == want.dtype
    assert np.array_equal(pou.values, want)
