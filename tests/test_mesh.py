import numpy as np
import pytest

from msgfem.mesh import Coefficient, TriMesh, build_structured_mesh, coefficient_field


def euler_characteristic(mesh):
    """Independent oracle: V - E + F for the planar graph, faces = elements + outer."""
    E = mesh.n_interior_faces + mesh.n_boundary_faces
    return mesh.n_vertices - E + (mesh.n_elements + 1)


def test_smallest_mesh_counts_by_hand():
    mesh = build_structured_mesh(1)
    assert mesh.n_elements == 2
    assert mesh.n_vertices == 4
    assert mesh.n_interior_faces == 1
    assert mesh.n_boundary_faces == 4


@pytest.mark.parametrize("n,elems,verts,ifaces,bfaces", [
    (2, 8, 9, 8, 8),
    (4, 32, 25, 40, 16),
])
def test_structured_counts_against_euler_oracle(n, elems, verts, ifaces, bfaces):
    mesh = build_structured_mesh(n)
    assert (mesh.n_elements, mesh.n_vertices) == (elems, verts)
    assert (mesh.n_interior_faces, mesh.n_boundary_faces) == (ifaces, bfaces)
    assert euler_characteristic(mesh) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_face_count_identity_and_area(n):
    mesh = build_structured_mesh(n)
    assert 2 * mesh.n_interior_faces + mesh.n_boundary_faces == 3 * mesh.n_elements
    assert abs(mesh.areas.sum() - 1.0) <= 1e-12
    assert euler_characteristic(mesh) == 2


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


def test_adjacency_symmetry_brute_force():
    mesh = build_structured_mesh(4)
    for (e1, e2), (p, q) in zip(mesh.iface_elems, mesh.iface_verts):
        for e in (e1, e2):
            assert p in mesh.elements[e] and q in mesh.elements[e]
        assert e1 < e2
    for e, (p, q) in zip(mesh.bface_elem, mesh.bface_verts):
        assert p in mesh.elements[e] and q in mesh.elements[e]


def test_shape_regularity_of_family():
    for n in (2, 8, 32):
        mesh = build_structured_mesh(n)
        assert mesh.h_T.max() / mesh.h_T.min() <= 2.0


def test_gradients_sum_to_zero_and_reproduce_linears():
    mesh = build_structured_mesh(3)
    assert np.abs(mesh.grads.sum(axis=1)).max() <= 1e-12
    # nodal values of x reproduce gradient (1, 0) elementwise
    xvals = mesh.vertices[mesh.elements][:, :, 0]
    g = np.einsum("ei,eid->ed", xvals, mesh.grads)
    assert np.allclose(g, [1.0, 0.0], atol=1e-12)


def test_constant_coefficient():
    mesh = build_structured_mesh(4)
    coef = coefficient_field(mesh, "constant:1")
    assert np.all(coef.values == 1.0)
    assert coef.nu_min == coef.nu_max == 1.0


def test_coefficient_extremes_follow_its_values():
    values = np.array([3.0, 0.5, 7.0, 2.0])
    coef = Coefficient(values=values)
    assert coef.nu_min == values.min() and coef.nu_max == values.max()
    assert coef.contrast == 14.0


def test_checkerboard_parity_oracle():
    mesh = build_structured_mesh(4)
    coef = coefficient_field(mesh, "checkerboard:10000:1")
    for e in range(mesh.n_elements):
        sq = e // 2
        sx, sy = sq % 4, sq // 4
        want = 10000.0 if (sx + sy) % 2 == 1 else 1.0
        assert coef.values[e] == want
    assert set(np.unique(coef.values)) == {1.0, 10000.0}


def test_channels_stripes():
    mesh = build_structured_mesh(8)
    coef = coefficient_field(mesh, "channels:100:2")
    sy = (np.arange(mesh.n_elements) // 2) // 8
    stripe = (sy * 4) // 8
    assert np.array_equal(coef.values, np.where(stripe % 2 == 1, 100.0, 1.0))


def test_log_uniform_deterministic_and_bounded():
    mesh = build_structured_mesh(4)
    a = coefficient_field(mesh, "log_uniform:1:1000", seed=7)
    b = coefficient_field(mesh, "log_uniform:1:1000", seed=7)
    assert np.array_equal(a.values, b.values)
    assert a.values.min() >= 1.0 and a.values.max() <= 1000.0
    c = coefficient_field(mesh, "log_uniform:1:1000", seed=8)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("spec", [
    "constant:0", "constant:-2", "checkerboard:0.5:1", "checkerboard:10:3",
    "channels:10:3", "log_uniform:0:1", "nonsense:1",
])
def test_invalid_coefficient_specs_rejected(spec):
    mesh = build_structured_mesh(4)
    with pytest.raises(ValueError):
        coefficient_field(mesh, spec)


@pytest.mark.parametrize("spec", ["checkerboard:10:1", "channels:10:1"])
def test_structured_coefficients_reject_an_unstructured_mesh(spec):
    mesh = TriMesh.from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="require a structured mesh"):
        coefficient_field(mesh, spec)


def test_coefficient_type_rejects_nonpositive():
    with pytest.raises(ValueError):
        Coefficient(np.array([1.0, -1.0]))


@pytest.mark.parametrize("values", [[], np.ones((2, 2))])
def test_coefficient_type_rejects_empty_and_nonflat(values):
    with pytest.raises(ValueError, match="nonempty flat"):
        Coefficient(values)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_coefficient_type_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        Coefficient([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        Coefficient(values=np.array([1.0, bad]))


def test_coefficient_type_converts_to_float():
    coef = Coefficient([1, 2])
    assert coef.values.dtype == np.float64 and coef.values.tolist() == [1.0, 2.0]


def test_face_data_conventions():
    mesh = build_structured_mesh(2)
    vals = np.full(mesh.n_elements, 3.0)
    vals[mesh.iface_elems[0, 1]] = 4.0
    coef = Coefficient(vals)
    # side 1 of an interior face is its smaller element, carrying the normal
    e1, e2 = mesh.iface_elems[0]
    assert e1 < e2
    assert (coef.values[e1], coef.values[e2]) == (3.0, 4.0)
    nrm = mesh.iface_normal[0]
    assert abs(np.linalg.norm(nrm) - 1.0) <= 1e-14
    # normal points from element 1 towards element 2
    c1 = mesh.vertices[mesh.elements[e1]].mean(axis=0)
    c2 = mesh.vertices[mesh.elements[e2]].mean(axis=0)
    assert nrm @ (c2 - c1) > 0
    bnrm = mesh.bface_normal[0]
    assert abs(np.linalg.norm(bnrm) - 1.0) <= 1e-14


def test_every_normal_is_unit():
    mesh = build_structured_mesh(5)
    assert np.abs(np.linalg.norm(mesh.iface_normal, axis=1) - 1).max() <= 1e-14
    assert np.abs(np.linalg.norm(mesh.bface_normal, axis=1) - 1).max() <= 1e-14


def test_boundary_normals_point_out_of_square():
    mesh = build_structured_mesh(3)
    mids = 0.5 * (mesh.vertices[mesh.bface_verts[:, 0]]
                  + mesh.vertices[mesh.bface_verts[:, 1]])
    outward = mids + 1e-3 * mesh.bface_normal
    inside = ((outward >= 0) & (outward <= 1)).all(axis=1)
    assert not inside.any()


def test_from_arrays_reference_triangle():
    mesh = TriMesh.from_arrays([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert mesh.n_elements == 1
    assert mesh.n_boundary_faces == 3
    assert mesh.n_interior_faces == 0
    assert abs(mesh.areas[0] - 0.5) <= 1e-15


def test_from_arrays_rejects_clockwise():
    with pytest.raises(ValueError):
        TriMesh.from_arrays([[0, 0], [0, 1], [1, 0]], [[0, 1, 2]])
