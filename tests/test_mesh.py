import re

import numpy as np
import pytest

from manufactured import element_diameters
from msgfem.mesh import Coefficient, build_structured_mesh, coefficient_field


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
    # each face's vertex pair, read from its elements through the local positions
    mesh = build_structured_mesh(4)
    pairs = []
    for k, (e1, e2) in enumerate(mesh.iface_elems):
        p1 = mesh.elements[e1, mesh.iface_local[k, 0]]
        p2 = mesh.elements[e2, mesh.iface_local[k, 1]]
        assert np.array_equal(p1, p2) and p1[0] < p1[1]
        assert e1 < e2
        pairs.append(tuple(p1))
    for e, loc in zip(mesh.bface_elem, mesh.bface_local):
        p = mesh.elements[e, loc]
        assert p[0] < p[1]
        pairs.append(tuple(p))
    # every element edge is exactly one face
    edges = {tuple(sorted(mesh.elements[e, [a, b]])) for e in range(mesh.n_elements)
             for a, b in ((0, 1), (1, 2), (2, 0))}
    assert len(pairs) == len(set(pairs)) and set(pairs) == edges


def test_shape_regularity_of_family():
    for n in (2, 8, 32):
        mesh = build_structured_mesh(n)
        h = element_diameters(mesh)
        assert h.max() / h.min() <= 2.0


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
    assert coef.nu_max == coef.contrast == 1.0


def test_coefficient_extremes_follow_its_values():
    values = np.array([3.0, 0.5, 7.0, 2.0])
    coef = Coefficient(values=values)
    assert coef.nu_max == values.max()
    assert coef.contrast == values.max() / values.min() == 14.0


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


_INVALID_SPECS = {
    "constant:0": "coefficient value must be positive and finite, got 0",
    "constant:-2": "coefficient value must be positive and finite, got -2",
    "checkerboard:0.5:1": "contrast must be >= 1",
    "checkerboard:10:3": "block size 3 must divide the mesh size 4",
    "channels:10:3": "2*count must divide the mesh size 4",
    "log_uniform:0:1": "lower bound must be positive and finite, got 0",
    "nonsense:1": "unknown coefficient kind 'nonsense'",
    "constant:1:2": "constant coefficient takes one value: constant:c",
    "checkerboard:10": "usage: checkerboard:contrast:block",
    "channels:10": "usage: channels:contrast:count",
    "log_uniform:1": "usage: log_uniform:min:max",
    "channels:0.5:2": "contrast must be >= 1",
    "log_uniform:5:1": "upper bound below lower bound",
}


@pytest.mark.parametrize("spec", list(_INVALID_SPECS))
def test_invalid_coefficient_specs_rejected(spec):
    mesh = build_structured_mesh(4)
    with pytest.raises(ValueError, match=f"^{re.escape(_INVALID_SPECS[spec])}$"):
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
    ends = mesh.elements[mesh.bface_elem[:, None], mesh.bface_local]
    mids = mesh.vertices[ends].mean(axis=1)
    outward = mids + 1e-3 * mesh.bface_normal
    inside = ((outward >= 0) & (outward <= 1)).all(axis=1)
    assert not inside.any()


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_normals_point_out_of_their_element(n):
    mesh = build_structured_mesh(n)
    verts = mesh.vertices[mesh.elements]
    e1, e2 = mesh.iface_elems[:, 0], mesh.iface_elems[:, 1]
    mid = mesh.vertices[mesh.elements[e1[:, None], mesh.iface_local[:, 0]]].mean(axis=1)
    nrm = mesh.iface_normal
    assert (np.einsum("fd,fd->f", nrm, mid - verts[e1].mean(axis=1)) > 0).all()
    assert (np.einsum("fd,fd->f", nrm, mid - verts[e2].mean(axis=1)) < 0).all()
    bmid = mesh.vertices[mesh.elements[mesh.bface_elem[:, None], mesh.bface_local]].mean(axis=1)
    # the side of the square a boundary face lies on: x = 0, x = 1, y = 0, y = 1
    side = np.select([bmid[:, 0] == 0, bmid[:, 0] == 1, bmid[:, 1] == 0, bmid[:, 1] == 1],
                     [0, 1, 2, 3], -1)
    assert (side >= 0).all()
    axes = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    assert np.array_equal(mesh.bface_normal, axes[side])


def test_reference_triangle():
    # element 0 of the one-cell mesh: vertices (0,0), (1,0), (1,1) below the diagonal
    mesh = build_structured_mesh(1)
    assert mesh.vertices[mesh.elements[0]].tolist() == [[0, 0], [1, 0], [1, 1]]
    assert abs(mesh.areas[0] - 0.5) <= 1e-15
    assert mesh.iface_elems.tolist() == [[0, 1]]
    assert np.sum(mesh.bface_elem == 0) == 2
    # the vertex functions 1 - x, x - y and y
    assert np.abs(mesh.grads[0] - [[-1, 0], [1, -1], [0, 1]]).max() <= 1e-15
