"""Overlapping subdomain decompositions and element-hull operations.

Subdomains are plain sorted ``int64`` arrays of element indices.  Growth and
shrinkage both work through vertex contact: two elements are neighbours when
they share at least one vertex, which makes the hulls below consistent with
the closure-based definitions used by the local function spaces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TriMesh

__all__ = [
    "Decomposition",
    "square_block",
    "grow",
    "d_minus",
    "build_decomposition",
]


def square_block(mesh: TriMesh, ix0: int, ix1: int, iy0: int, iy1: int) -> np.ndarray:
    """Elements of the structured-mesh cells ``[ix0, ix1) x [iy0, iy1)``."""
    n = mesh.structured_n
    ix = np.arange(max(ix0, 0), min(ix1, n))
    iy = np.arange(max(iy0, 0), min(iy1, n))
    sq = (iy[:, None] * n + ix[None, :]).ravel()
    return np.sort(np.concatenate([2 * sq, 2 * sq + 1]))


def _touching(mesh: TriMesh, mask: np.ndarray) -> np.ndarray:
    """Mask of the elements sharing a vertex with an element of ``mask``."""
    return mesh.incidence @ (mesh.incidence.T @ mask)


def grow(mesh: TriMesh, members: np.ndarray, layers: int) -> np.ndarray:
    """Add ``layers`` rings of vertex-neighbouring elements."""
    cur = np.asarray(members, dtype=np.int64)
    for _ in range(layers):
        if cur.size == 0 or cur.size == mesh.n_elements:
            break
        mask = np.zeros(mesh.n_elements, dtype=bool)
        mask[cur] = True
        cur = np.flatnonzero(_touching(mesh, mask))
    return cur


def d_minus(mesh: TriMesh, members: np.ndarray) -> np.ndarray:
    """Elements of the subdomain whose closure avoids the rest of the domain.

    Complements are taken inside the unit square, so elements touching the
    outer boundary survive if all their mesh neighbours are members.
    """
    members = np.asarray(members, dtype=np.int64)
    outside = np.ones(mesh.n_elements, dtype=bool)
    outside[members] = False
    return members[~_touching(mesh, outside)[members]]


@dataclass(frozen=True)
class Decomposition:
    """Overlapping subdomains with oversampling, on an ``m x m`` cell grid."""

    subdomains: list          # per j: (omega_j, omega_star_j) sorted element arrays

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)

    def omega(self, j: int) -> np.ndarray:
        return self.subdomains[j][0]

    def omega_star(self, j: int) -> np.ndarray:
        return self.subdomains[j][1]


def build_decomposition(mesh: TriMesh, m: int, overlap_layers: int,
                        oversampling_layers: int) -> Decomposition:
    """Grid cells grown by overlap and oversampling rings, truncated at the boundary.

    Subdomain ``j = gy*m + gx`` starts from the structured cells of grid cell
    ``(gx, gy)``; the cell cuts are rounded so remainders go to the nearest
    cell.  ``overlap_layers >= 2`` keeps the shrunk subdomains a cover, which
    the partition of unity needs.
    """
    n = mesh.structured_n
    if m < 1:
        raise ValueError(f"grid size must be >= 1, got {m}")
    if overlap_layers < 2:
        raise ValueError(f"overlap layers must be >= 2, got {overlap_layers}")
    if oversampling_layers < 1:
        raise ValueError(f"oversampling layers must be >= 1, got {oversampling_layers}")
    if m > n:
        raise ValueError(f"grid size {m} exceeds mesh size {n}")

    cuts = np.rint(np.arange(m + 1) * n / m).astype(np.int64)
    subdomains = []
    for gy in range(m):
        for gx in range(m):
            cell = square_block(mesh, cuts[gx], cuts[gx + 1], cuts[gy], cuts[gy + 1])
            omega = grow(mesh, cell, overlap_layers)
            omega_star = grow(mesh, omega, oversampling_layers)
            if m > 1 and omega.size == mesh.n_elements:
                raise ValueError(
                    f"subdomain {gy * m + gx} swallows the whole mesh; "
                    f"reduce overlap ({overlap_layers}) or refine the mesh")
            subdomains.append((omega, omega_star))
    return Decomposition(subdomains=subdomains)
