"""Masked dofs and the partition of unity.

Functions on a subdomain ``D`` are dof vectors over ``D``'s local layout.
The masked subspace of ``D`` consists of the vectors that vanish on the
contact layer ``D minus d_minus(D)``.  Restriction to a subset and
extension by zero from it both go through the subset's dofs in the
enclosing layout, :func:`~msgfem.dg_forms.nested_dofs`.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .decomposition import Decomposition, d_minus
from .dg_forms import nested_dofs
from .mesh import TriMesh

__all__ = [
    "h0_dofs",
    "build_pou",
]


def h0_dofs(mesh: TriMesh, D: np.ndarray) -> np.ndarray:
    """Local dof indices spanning the masked subspace of ``D``.

    These are exactly the dofs of the elements of ``d_minus(D)``.
    """
    D = np.asarray(D, dtype=np.int64)
    return nested_dofs(d_minus(mesh, D), D)


def build_pou(mesh: TriMesh, decomp: Decomposition) -> list:
    """Distance-graded weights normalized to sum to one at each vertex.

    Per subdomain the raw weight is the vertex graph distance to the set of
    forbidden vertices (those touching elements outside the shrunk
    subdomain), capped so the twice-shrunk core sits on the unit plateau,
    then all weights are normalized vertexwise.  Entry ``j`` of the returned
    list is weight ``j`` at every dof of ``omega_j``, in its local layout:
    scaling a dof vector by it is the vertexwise Lagrange interpolant of the
    (quadratic) product of the P1 weight with the vector.  Off ``omega_j``
    the weight is zero.  Every vertex ``omega_j`` shares with an element
    outside it is forbidden, so no shortest path leaves the closure of
    ``omega_j``, and the distances are searched on its vertices alone.
    """
    total = np.zeros(mesh.n_vertices)
    # vertices sharing an element are one edge apart
    adjacency = (mesh.incidence.T @ mesh.incidence).tocsr()
    raws = []
    for j in range(decomp.n_subdomains):
        omega = decomp.omega(j)
        inner = d_minus(mesh, omega)
        # raveled first: the inverse's shape for a 2-d input differs between NumPy versions
        verts, local = np.unique(mesh.elements[omega].ravel(), return_inverse=True)
        local = local.reshape(omega.size, 3)
        if inner.size == mesh.n_elements:
            raw = np.ones(verts.size)
        else:
            forbidden = local[~np.isin(omega, inner)].ravel()
            dist = dijkstra(adjacency[verts][:, verts], indices=forbidden,
                            unweighted=True, min_only=True)
            core = d_minus(mesh, inner)
            cap = 1.0
            if core.size:
                cap = max(float(dist[local[np.searchsorted(omega, core)]].min()), 1.0)
            raw = np.minimum(dist, cap) / cap
        total[verts] += raw
        raws.append((verts, local, raw))

    uncovered = np.flatnonzero(total <= 0.0)
    if uncovered.size:
        raise ValueError(
            f"vertex {int(uncovered[0])} is not interior to any shrunk subdomain; "
            "increase the overlap")
    return [(raw / total[verts])[local].ravel() for verts, local, raw in raws]
