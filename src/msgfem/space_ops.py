"""Masked dofs and the partition of unity.

Functions on a subdomain ``D`` are dof vectors over ``D``'s local layout.
The masked subspace of ``D`` consists of the vectors that vanish on the
contact layer ``D minus d_minus(D)``.  Restriction to a subset and
extension by zero from it both go through the subset's dofs in the
enclosing layout, :func:`~msgfem.dg_forms.nested_dofs`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .decomposition import Decomposition, d_minus
from .dg_forms import nested_dofs
from .mesh import TriMesh

__all__ = [
    "h0_dofs",
    "PartitionOfUnity",
    "build_pou",
]


def h0_dofs(mesh: TriMesh, D: np.ndarray) -> np.ndarray:
    """Local dof indices spanning the masked subspace of ``D``.

    These are exactly the dofs of the elements of ``d_minus(D)``.
    """
    D = np.asarray(D, dtype=np.int64)
    return nested_dofs(d_minus(mesh, D), D)


@dataclass(frozen=True)
class PartitionOfUnity:
    """Continuous piecewise-linear weights, one vertex-value row per subdomain.

    Row ``j`` vanishes on every vertex touched by an element outside the
    shrunk subdomain ``d_minus(omega_j)`` and the rows sum to one at every
    vertex.
    """

    values: np.ndarray    # (n_subdomains, n_vertices)

    def dof_weights(self, mesh: TriMesh, j: int, D) -> np.ndarray:
        """Weight ``j`` at every dof of ``D``, in ``D``'s local dof layout.

        Scaling a dof vector by it is the vertexwise Lagrange interpolant of
        the (quadratic) product of the P1 weight with the vector.
        """
        return self.values[j][mesh.elements[np.asarray(D, dtype=np.int64)]].ravel()


def build_pou(mesh: TriMesh, decomp: Decomposition) -> PartitionOfUnity:
    """Distance-graded weights normalized to sum to one at each vertex.

    Per subdomain the raw weight is the vertex graph distance to the set of
    forbidden vertices (those touching elements outside the shrunk
    subdomain), capped so the twice-shrunk core sits on the unit plateau,
    then all weights are normalized vertexwise.
    """
    nv = mesh.n_vertices
    M = decomp.n_subdomains
    raw = np.zeros((M, nv))
    # vertices sharing an element are one edge apart
    adjacency = (mesh.incidence.T @ mesh.incidence).tocsr()
    for j in range(M):
        omega = decomp.omega(j)
        inner = d_minus(mesh, omega)
        outside = np.ones(mesh.n_elements, dtype=bool)
        outside[inner] = False
        if not outside.any():
            raw[j, :] = 1.0
            continue
        forbidden = np.flatnonzero(mesh.incidence.T @ outside)
        dist = dijkstra(adjacency, indices=forbidden, unweighted=True, min_only=True)
        core = d_minus(mesh, inner)
        cap = 1.0
        if core.size:
            core_verts = np.unique(mesh.elements[core].ravel())
            cap = max(float(dist[core_verts].min()), 1.0)
        raw[j, :] = np.minimum(dist, cap) / cap

    total = raw.sum(axis=0)
    uncovered = np.flatnonzero(total <= 0.0)
    if uncovered.size:
        raise ValueError(
            f"vertex {int(uncovered[0])} is not interior to any shrunk subdomain; "
            "increase the overlap")
    return PartitionOfUnity(values=raw / total[None, :])

