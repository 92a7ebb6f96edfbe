"""Subspace masks, restriction/extension operators and the partition of unity.

Functions on a subdomain ``D`` are dof vectors over ``D``'s local layout.
The masked subspace of ``D`` consists of the vectors that vanish on the
contact layer ``D minus d_minus(D)``; extension by zero maps it isometrically
into the masked subspace of any enclosing set, and restriction simply slices
dofs, so the pair is an exact one-sided inverse.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .decomposition import Decomposition, d_minus
from .dg_forms import nested_dofs, subdomain_dofs
from .mesh import TriMesh

__all__ = [
    "h0_dofs",
    "restrict",
    "extend_by_zero",
    "PartitionOfUnity",
    "build_pou",
    "interpolate_product",
    "pou_blend",
]


def h0_dofs(mesh: TriMesh, D: np.ndarray) -> np.ndarray:
    """Local dof indices spanning the masked subspace of ``D``.

    These are exactly the dofs of the elements of ``d_minus(D)``.
    """
    D = np.asarray(D, dtype=np.int64)
    return nested_dofs(d_minus(mesh, D), D)


def restrict(u: np.ndarray, D_star, D) -> np.ndarray:
    """Restrict a dof vector from an enclosing set to a subset (dof slicing)."""
    return u[nested_dofs(D, D_star)]


def extend_by_zero(mesh: TriMesh, v: np.ndarray, D, D_star) -> np.ndarray:
    """Zero-extension of a masked vector on ``D`` into the layout of ``D_star``.

    Rejects vectors that are nonzero on the contact layer of ``D`` since those
    are not members of the masked subspace and the extension would not be an
    isometry for them.
    """
    D = np.asarray(D, dtype=np.int64)
    idx = nested_dofs(D, D_star)
    free = h0_dofs(mesh, D)
    layer = np.setdiff1d(np.arange(3 * D.size), free, assume_unique=True)
    if np.any(v[layer] != 0.0):
        raise ValueError("vector has nonzero dofs on the contact layer of the subdomain")
    out = np.zeros(3 * np.asarray(D_star).size)
    out[idx] = v
    return out


@dataclass(frozen=True)
class PartitionOfUnity:
    """Continuous piecewise-linear weights, one vertex-value row per subdomain.

    Row ``j`` vanishes on every vertex touched by an element outside the
    shrunk subdomain ``d_minus(omega_j)`` and the rows sum to one at every
    vertex.
    """

    values: np.ndarray    # (n_subdomains, n_vertices)


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


def interpolate_product(mesh: TriMesh, chi_vertex_values: np.ndarray,
                        u: np.ndarray, D) -> np.ndarray:
    """Elementwise nodal interpolation of the product of a P1 weight with u.

    Every dof of ``u`` is scaled by the weight's value at its vertex, which is
    exactly the vertexwise Lagrange interpolant of the (quadratic) product.
    Rows of a two-dimensional ``u`` are weighted one by one.
    """
    D = np.asarray(D, dtype=np.int64)
    chi_dof = chi_vertex_values[mesh.elements[D]].ravel()
    return chi_dof * u


def pou_blend(mesh: TriMesh, decomp: Decomposition, pou: PartitionOfUnity,
              locals_: list) -> np.ndarray:
    """Blend per-subdomain vectors into one global vector.

    Each local contribution is interpolated against its weight and scattered;
    the weight's support condition guarantees the scattered vector vanishes
    outside the shrunk subdomain, so plain accumulation realizes the
    zero-extension.  Restrictions of a single global vector blend back to it.
    """
    out = np.zeros(3 * mesh.n_elements)
    for j in range(decomp.n_subdomains):
        omega = decomp.omega(j)
        loc = interpolate_product(mesh, pou.values[j], locals_[j], omega)
        out[subdomain_dofs(omega)] += loc
    return out

