import numpy as np
import pytest

from msgfem.decomposition import build_decomposition, d_minus, grow, square_block
from msgfem.mesh import build_structured_mesh

# (mesh_n, grid_m, oversampling_layers) of the benchmark workloads
WORKLOAD_GEOMETRIES = [(40, 4, 4), (32, 8, 2), (60, 6, 4)]


def vertex_elements(mesh):
    """Per-vertex lists of incident elements, by a scan of the element table."""
    v2e = [[] for _ in range(mesh.n_vertices)]
    for e, tri in enumerate(mesh.elements):
        for v in tri:
            v2e[v].append(e)
    return [np.array(es, dtype=np.int64) for es in v2e]


def grow_loop(mesh, v2e, members, layers):
    """Oracle: rings of vertex neighbours, one incidence slice per vertex."""
    cur = np.asarray(members, dtype=np.int64)
    for _ in range(layers):
        if cur.size == 0 or cur.size == mesh.n_elements:
            break
        verts = np.unique(mesh.elements[cur].ravel())
        cur = np.unique(np.concatenate([v2e[v] for v in verts]))
    return cur


def d_minus_loop(mesh, v2e, members):
    """Oracle: the members minus one vertex-contact ring of the complement."""
    members = np.asarray(members, dtype=np.int64)
    complement = np.setdiff1d(np.arange(mesh.n_elements, dtype=np.int64), members,
                              assume_unique=True)
    return np.setdiff1d(members, grow_loop(mesh, v2e, complement, 1),
                        assume_unique=True)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def vertex_neighbors_brute(mesh, members):
    """Oracle: elements sharing at least one vertex with the set, by full scan."""
    verts = set(mesh.elements[members].ravel().tolist()) if len(members) else set()
    out = []
    for e in range(mesh.n_elements):
        if e in set(np.asarray(members).tolist()):
            out.append(e)
        elif verts and any(v in verts for v in mesh.elements[e]):
            out.append(e)
    return np.array(sorted(out), dtype=np.int64)


def d_minus_brute(mesh, members):
    """Oracle: keep elements whose every vertex-sharing neighbor is a member."""
    member_set = set(np.asarray(members).tolist())
    v2e = vertex_elements(mesh)
    out = []
    for e in np.asarray(members):
        ok = True
        for v in mesh.elements[e]:
            for other in v2e[v]:
                if int(other) not in member_set:
                    ok = False
        if ok:
            out.append(int(e))
    return np.array(sorted(out), dtype=np.int64)


def test_one_ring_grow_trivial_cases():
    mesh = build_structured_mesh(4)
    everything = np.arange(mesh.n_elements)
    assert np.array_equal(grow(mesh, everything, 1), everything)
    assert grow(mesh, np.array([], dtype=np.int64), 1).size == 0


def test_one_ring_grow_single_interior_element_vs_brute_force():
    mesh = build_structured_mesh(4)
    D = np.array([2 * (1 * 4 + 1)], dtype=np.int64)  # lower triangle of cell (1, 1)
    assert np.array_equal(grow(mesh, D, 1), vertex_neighbors_brute(mesh, D))
    assert grow(mesh, D, 1).size > D.size


def test_d_minus_trivial_cases():
    mesh = build_structured_mesh(4)
    everything = np.arange(mesh.n_elements)
    assert np.array_equal(d_minus(mesh, everything), everything)
    interior_single = np.array([2 * (4 + 1)], dtype=np.int64)
    assert d_minus(mesh, interior_single).size == 0


def test_d_minus_three_by_three_block_leaves_center_square():
    mesh = build_structured_mesh(8)
    block = square_block(mesh, 2, 5, 2, 5)
    assert block.size == 18
    inner = d_minus(mesh, block)
    assert np.array_equal(inner, square_block(mesh, 3, 4, 3, 4))
    assert inner.size == 2
    assert np.array_equal(inner, d_minus_brute(mesh, block))


@pytest.mark.parametrize("box", [(0, 3, 0, 3), (1, 5, 2, 6), (3, 8, 0, 4)])
def test_hull_sandwich_and_composition(box):
    mesh = build_structured_mesh(8)
    D = square_block(mesh, *box)
    dm = d_minus(mesh, D)
    dp = grow(mesh, D, 1)
    assert np.all(np.isin(dm, D)) and np.all(np.isin(D, dp))
    assert np.array_equal(dm, d_minus_brute(mesh, D))
    assert np.array_equal(dp, vertex_neighbors_brute(mesh, D))
    assert np.all(np.isin(dm, d_minus(mesh, dp)))


def test_single_subdomain_is_everything():
    mesh = build_structured_mesh(8)
    decomp = build_decomposition(mesh, 1, 2, 4)
    assert decomp.n_subdomains == 1
    assert decomp.omega(0).size == mesh.n_elements
    assert np.array_equal(decomp.omega(0), decomp.omega_star(0))


def grow_brute(mesh, members, layers):
    cur = np.asarray(members)
    for _ in range(layers):
        cur = vertex_neighbors_brute(mesh, cur)
    return cur


def test_m2_decomposition_against_bfs_oracle():
    mesh = build_structured_mesh(16)
    decomp = build_decomposition(mesh, 2, 2, 4)
    assert decomp.n_subdomains == 4
    cells = {0: (0, 8, 0, 8), 1: (8, 16, 0, 8), 2: (0, 8, 8, 16), 3: (8, 16, 8, 16)}
    union = []
    for j, box in cells.items():
        cell = square_block(mesh, *box)
        assert np.array_equal(decomp.omega(j), grow_brute(mesh, cell, 2))
        assert np.array_equal(decomp.omega_star(j), grow_brute(mesh, cell, 6))
        union.append(decomp.omega(j))
    assert np.unique(np.concatenate(union)).size == 512


def test_coloring_constant_four_quadrants():
    mesh = build_structured_mesh(16)
    decomp = build_decomposition(mesh, 2, 2, 4)
    # the largest number of subdomains holding any one element
    count = np.zeros(mesh.n_elements, dtype=np.int64)
    for j in range(4):
        count[decomp.omega(j)] += 1
    assert count.max() == 4


def test_shrunk_subdomains_still_cover():
    mesh = build_structured_mesh(16)
    decomp = build_decomposition(mesh, 4, 2, 2)
    covered = np.zeros(mesh.n_elements, dtype=bool)
    for j in range(decomp.n_subdomains):
        covered[d_minus(mesh, decomp.omega(j))] = True
    assert covered.all()


def test_boundary_subdomains_truncated_not_removed():
    mesh = build_structured_mesh(8)
    decomp = build_decomposition(mesh, 2, 2, 2)
    corner = square_block(mesh, 0, 1, 0, 1)
    assert np.all(np.isin(corner, decomp.omega(0)))
    assert np.all(np.isin(decomp.omega(0), decomp.omega_star(0)))


@pytest.mark.parametrize("m,l,ls", [(0, 2, 1), (2, 1, 1), (2, 2, 0)])
def test_parameter_validation(m, l, ls):
    mesh = build_structured_mesh(8)
    with pytest.raises(ValueError):
        build_decomposition(mesh, m, l, ls)


def test_overlap_swallowing_mesh_rejected():
    mesh = build_structured_mesh(4)
    with pytest.raises(ValueError, match="swallow"):
        build_decomposition(mesh, 2, 6, 1)


def test_grow_is_monotone_and_idempotent_at_full_cover():
    mesh = build_structured_mesh(8)
    D = square_block(mesh, 3, 5, 3, 5)
    g1 = grow(mesh, D, 1)
    g2 = grow(mesh, D, 2)
    assert np.all(np.isin(g1, g2))
    assert grow(mesh, np.arange(mesh.n_elements), 3).size == mesh.n_elements


@pytest.mark.parametrize("n,m,ls", WORKLOAD_GEOMETRIES + [(8, 2, 2), (16, 2, 4), (16, 4, 2)])
def test_hulls_match_per_vertex_loop_on_every_subdomain(n, m, ls):
    mesh = build_structured_mesh(n)
    v2e = vertex_elements(mesh)
    decomp = build_decomposition(mesh, m, 2, ls)
    cuts = np.rint(np.arange(m + 1) * n / m).astype(np.int64)
    for j in range(decomp.n_subdomains):
        gy, gx = divmod(j, m)
        cell = square_block(mesh, cuts[gx], cuts[gx + 1], cuts[gy], cuts[gy + 1])
        omega, omega_star = decomp.omega(j), decomp.omega_star(j)
        assert_same_array(omega, grow_loop(mesh, v2e, cell, 2))
        assert_same_array(omega_star, grow_loop(mesh, v2e, omega, ls))
        for D in (cell, omega, omega_star):
            assert_same_array(grow(mesh, D, 1), grow_loop(mesh, v2e, D, 1))
            inner = d_minus(mesh, D)
            assert_same_array(inner, d_minus_loop(mesh, v2e, D))
            assert_same_array(d_minus(mesh, inner), d_minus_loop(mesh, v2e, inner))
