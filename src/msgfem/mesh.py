"""The structured triangular mesh of the unit square and per-element coefficient fields.

The mesh is the single geometric data structure of the package: every other
module addresses it through element indices, face tables and the per-element
linear shape-function gradients that are precomputed here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "TriMesh",
    "Coefficient",
    "build_structured_mesh",
    "coefficient_field",
]


@dataclass(frozen=True)
class TriMesh:
    """The structured triangulation of the unit square, with full face connectivity.

    :func:`build_structured_mesh` is its one constructor; ``structured_n`` is
    its number of cells per side.  Elements are triples of vertex indices in
    counterclockwise order.  Interior faces store their two adjacent elements
    with the smaller element index first ("element 1" of the face); the
    stored unit normal points out of element 1.  Boundary faces store their
    single adjacent element and its outward unit normal.

    ``iface_local[k, s]`` gives, for face ``k`` and side ``s`` (0 = element 1,
    1 = element 2), the positions of the two face vertices inside that
    element's vertex triple, smaller vertex index first, so both sides name
    the same vertex pair in the same order; ``bface_local`` does the same
    for the boundary faces.

    ``incidence`` is the boolean element x vertex matrix; every vertex-contact
    relation (hulls, vertex graph distances) is a product with it.

    The geometry (``areas``, ``grads``, face lengths and unit normals) is
    computed on the integer lattice of the vertices and then scaled by the
    cell width ``1/structured_n``, so every element of one orientation, and
    every face of one direction, carries bit-identical values.
    """

    vertices: np.ndarray       # (nv, 2) float
    elements: np.ndarray       # (ne, 3) int, CCW
    areas: np.ndarray          # (ne,)
    grads: np.ndarray          # (ne, 3, 2) gradient of the P1 basis per element
    iface_elems: np.ndarray    # (nfi, 2) adjacent elements, first < second
    iface_h: np.ndarray        # (nfi,) face lengths
    iface_normal: np.ndarray   # (nfi, 2) unit normal out of the first element
    iface_local: np.ndarray    # (nfi, 2, 2) local vertex positions per side
    bface_elem: np.ndarray     # (nfb,)
    bface_h: np.ndarray        # (nfb,)
    bface_normal: np.ndarray   # (nfb, 2) outward unit normal
    bface_local: np.ndarray    # (nfb, 2)
    incidence: sp.csr_matrix   # (ne, nv) bool, element contains vertex
    structured_n: int          # cells per side

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_interior_faces(self) -> int:
        return self.iface_elems.shape[0]

    @property
    def n_boundary_faces(self) -> int:
        return self.bface_elem.shape[0]


@dataclass(frozen=True)
class Coefficient:
    """Piecewise-constant diffusion coefficient, one finite positive value per element."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("coefficient values must be a nonempty flat per-element array")
        if not np.all((values > 0.0) & (values < np.inf)):
            raise ValueError("coefficient values must be finite and strictly positive")
        object.__setattr__(self, "values", values)

    @property
    def nu_max(self) -> float:
        return float(self.values.max())

    @property
    def contrast(self) -> float:
        return self.nu_max / float(self.values.min())


def _element_geometry(points, elements):
    p0 = points[elements[:, 0]]
    p1 = points[elements[:, 1]]
    p2 = points[elements[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * twice_area
    # grad of barycentric basis: rotated opposite edges over twice the area
    grads = np.empty((elements.shape[0], 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        e = points[elements[:, k]] - points[elements[:, j]]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= twice_area[:, None, None]
    return areas, grads


def _build_mesh(lattice, elements, n):
    vertices = lattice / n
    ne = elements.shape[0]
    # one row per element edge, canonical vertex order
    local_pairs = np.array([[0, 1], [1, 2], [2, 0]])
    edges = elements[:, local_pairs].reshape(-1, 2)          # (3ne, 2)
    owner = np.repeat(np.arange(ne), 3)
    edges_sorted = np.sort(edges, axis=1)
    order = np.lexsort((edges_sorted[:, 1], edges_sorted[:, 0]))
    es = edges_sorted[order]
    own = owner[order]
    new_group = np.ones(len(es), dtype=bool)
    new_group[1:] = np.any(es[1:] != es[:-1], axis=1)
    group_ids = np.cumsum(new_group) - 1
    counts = np.bincount(group_ids)

    starts = np.flatnonzero(new_group)
    int_rows = starts[counts == 2]
    bnd_rows = starts[counts == 1]

    iface_pairs = es[int_rows]
    pair = np.stack([own[int_rows], own[int_rows + 1]], axis=1)
    pair.sort(axis=1)                                        # smaller element first
    iface_elems = pair
    bface_pairs = es[bnd_rows]
    bface_elem = own[bnd_rows]

    areas, grads = _element_geometry(lattice, elements)
    areas = areas / n**2
    grads = grads * n

    def face_lengths(verts):
        d = lattice[verts[:, 0]] - lattice[verts[:, 1]]
        return np.linalg.norm(d, axis=1) / n

    iface_h = face_lengths(iface_pairs)
    bface_h = face_lengths(bface_pairs)

    def local_positions(elems, verts):
        loc = np.empty(verts.shape, dtype=np.int64)
        tri = elements[elems]
        for c in range(2):
            loc[:, c] = np.argmax(tri == verts[:, c, None], axis=1)
        return loc

    iface_local = np.stack([local_positions(iface_elems[:, 0], iface_pairs),
                            local_positions(iface_elems[:, 1], iface_pairs)], axis=1)
    bface_local = local_positions(bface_elem, bface_pairs)

    def outward_normal(loc, verts):
        t = lattice[verts[:, 1]] - lattice[verts[:, 0]]
        nrm = np.stack([t[:, 1], -t[:, 0]], axis=1)
        nrm /= np.linalg.norm(nrm, axis=1)[:, None]
        # CCW elements: (t_y, -t_x) points out exactly when the pair runs CCW
        nrm[(loc[:, 1] - loc[:, 0]) % 3 != 1] *= -1.0
        return nrm

    iface_normal = outward_normal(iface_local[:, 0], iface_pairs)
    bface_normal = outward_normal(bface_local, bface_pairs)

    incidence = sp.csr_matrix(
        (np.ones(3 * ne, dtype=bool), elements.ravel(), np.arange(0, 3 * ne + 1, 3)),
        shape=(ne, vertices.shape[0]))

    return TriMesh(
        vertices=vertices, elements=elements, areas=areas, grads=grads,
        iface_elems=iface_elems, iface_h=iface_h, iface_normal=iface_normal,
        iface_local=iface_local, bface_elem=bface_elem, bface_h=bface_h,
        bface_normal=bface_normal, bface_local=bface_local,
        incidence=incidence, structured_n=n,
    )


def build_structured_mesh(n: int) -> TriMesh:
    """Uniform triangulation of the unit square.

    The square is split into ``n x n`` cells and every cell into two right
    triangles by its lower-left/upper-right diagonal, giving ``2 n**2``
    elements over ``(n+1)**2`` vertices.  The element order is row-major in
    the cells with the lower triangle first, so element ``2*(iy*n+ix)+t``
    lives in cell ``(ix, iy)``.

    Vertex ``(i, j)`` of the lattice sits at ``(i/n, j/n)``.  The geometry is
    exact on that lattice and is scaled from it: areas by ``1/n**2``,
    gradients by ``n`` and face lengths by ``1/n``; the unit normals are the
    lattice's.  Differencing the coordinates ``i/n`` instead would make
    translated elements differ in their last bits whenever ``1/n`` is not
    dyadic, and so make translated subdomains pose different local problems.
    """
    if n < 1:
        raise ValueError(f"mesh subdivision count must be >= 1, got {n}")
    idx = np.arange(n + 1, dtype=float)
    xs, ys = np.meshgrid(idx, idx, indexing="xy")
    lattice = np.stack([xs.ravel(), ys.ravel()], axis=1)

    ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ix = ix.ravel()
    iy = iy.ravel()
    v00 = iy * (n + 1) + ix
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.stack([v00, v10, v11], axis=1)
    upper = np.stack([v00, v11, v01], axis=1)
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper
    return _build_mesh(lattice, elements, n)


def _square_of_element(mesh: TriMesh, e) -> tuple:
    n = mesh.structured_n
    sq = np.asarray(e) // 2
    return sq % n, sq // n


def coefficient_field(mesh: TriMesh, spec: str, seed: int = 0) -> Coefficient:
    """Create a mesh-resolved coefficient from a compact textual spec.

    Supported forms::

        constant:c
        checkerboard:contrast:block     alternating {1, contrast} on block x block cells
        channels:contrast:count         horizontal stripes of value contrast
        log_uniform:min:max             iid per element, log-uniform, PCG64(seed)
    """
    parts = spec.strip().split(":")
    kind = parts[0]
    args = parts[1:]
    ne = mesh.n_elements

    def positive(x, name):
        v = float(x)
        if not 0.0 < v < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {x}")
        return v

    if kind == "constant":
        if len(args) != 1:
            raise ValueError("constant coefficient takes one value: constant:c")
        c = positive(args[0], "coefficient value")
        return Coefficient(np.full(ne, c))
    if kind == "checkerboard":
        if len(args) != 2:
            raise ValueError("usage: checkerboard:contrast:block")
        contrast = positive(args[0], "contrast")
        if contrast < 1.0:
            raise ValueError("contrast must be >= 1")
        block = int(args[1])
        sx, sy = _square_of_element(mesh, np.arange(ne))
        n = mesh.structured_n
        if block < 1 or n % block != 0:
            raise ValueError(f"block size {block} must divide the mesh size {n}")
        parity = (sx // block + sy // block) % 2
        return Coefficient(np.where(parity == 1, contrast, 1.0))
    if kind == "channels":
        if len(args) != 2:
            raise ValueError("usage: channels:contrast:count")
        contrast = positive(args[0], "contrast")
        if contrast < 1.0:
            raise ValueError("contrast must be >= 1")
        count = int(args[1])
        _, sy = _square_of_element(mesh, np.arange(ne))
        n = mesh.structured_n
        if count < 1 or n % (2 * count) != 0:
            raise ValueError(f"2*count must divide the mesh size {n}")
        stripe = (sy * 2 * count) // n
        return Coefficient(np.where(stripe % 2 == 1, contrast, 1.0))
    if kind == "log_uniform":
        if len(args) != 2:
            raise ValueError("usage: log_uniform:min:max")
        lo = positive(args[0], "lower bound")
        hi = positive(args[1], "upper bound")
        if hi < lo:
            raise ValueError("upper bound below lower bound")
        rng = np.random.Generator(np.random.PCG64(seed))
        vals = np.exp(rng.uniform(np.log(lo), np.log(hi), size=ne))
        return Coefficient(vals)
    raise ValueError(f"unknown coefficient kind {kind!r}")
