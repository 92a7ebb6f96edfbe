"""Weighted symmetric interior-penalty DG forms on element subsets.

Discretization: piecewise-linear discontinuous elements, three degrees of
freedom per triangle (the vertex values), so element ``e`` owns the global
dofs ``3e, 3e+1, 3e+2``.

All bilinear forms are assembled per subdomain ``D`` (a sorted element
array) with the face convention: an interior face belongs to ``D`` only when
both of its elements do, and a boundary face of the unit square belongs to
``D`` when its element does.  Faces sitting on the internal boundary of a
subdomain therefore never contribute, which is what makes restriction and
zero-extension exact norm isometries on the masked subspaces.

The assembled variants are

* ``B``      the full form: weighted volume diffusion, interior jump penalty
  minus the two symmetrized consistency terms, and the boundary terms with
  the doubled boundary penalty,
* ``Bplus``  the positive part: volume diffusion plus all jump penalties
  (boundary penalty not doubled, no consistency terms),
* ``H``      ``Bplus`` plus the volume mass matrix (the local inner product),
* ``mass``   the volume mass matrix alone,
* ``Bplus_faces``  the face part of ``Bplus`` (jump seminorm without volume).

Face weights: with per-side coefficient values ``nu_1, nu_2`` the penalty
coefficient is ``gamma_h^2 = (gamma0^2 / h_F) * 2 nu_1 nu_2 / (nu_1 + nu_2)``
and the flux average uses the weights ``(2 nu_2, 2 nu_1) / (nu_1 + nu_2)``.
Interior consistency terms carry a 1/2, boundary ones do not.  All volume
and face integrands are polynomials of degree at most two and are integrated
exactly by closed-form rules.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DGAssembler",
    "subdomain_dofs",
    "nested_dofs",
    "triangle_quadrature",
]

_MASS3 = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def subdomain_dofs(members) -> np.ndarray:
    """Global dof indices of an element set, grouped per element."""
    members = np.asarray(members, dtype=np.int64)
    return (3 * members[:, None] + np.arange(3)).ravel()


def nested_dofs(inner, outer) -> np.ndarray:
    """Positions of the inner set's dofs inside the outer set's local layout.

    Both arguments are sorted element arrays with ``inner`` contained in
    ``outer``; raises if containment fails.
    """
    inner = np.asarray(inner, dtype=np.int64)
    outer = np.asarray(outer, dtype=np.int64)
    pos = np.searchsorted(outer, inner)
    if np.any(pos >= outer.size) or np.any(outer[np.minimum(pos, outer.size - 1)] != inner):
        raise ValueError("inner element set is not contained in the outer one")
    return (3 * pos[:, None] + np.arange(3)).ravel()


class DGAssembler:
    """Caches per-face data for one (mesh, coefficient, gamma0) triple.

    All matrices returned by :meth:`matrix` are over the local dofs of the
    requested element set, ordered per element as in ``subdomain_dofs``.
    Assembly order (volume, then interior faces, then boundary faces, each in
    table order) is fixed, so repeated assembly is bit-reproducible.
    """

    def __init__(self, mesh, coefficient, gamma0: float):
        if gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if coefficient.values.shape[0] != mesh.n_elements:
            raise ValueError("coefficient does not match the mesh")
        self.mesh = mesh
        self.coefficient = coefficient
        self.gamma0 = float(gamma0)

        nu = coefficient.values
        e1 = mesh.iface_elems[:, 0]
        e2 = mesh.iface_elems[:, 1]
        nu1 = nu[e1]
        nu2 = nu[e2]
        self._int_gamma2 = (gamma0 * gamma0 / mesh.iface_h) * 2.0 * nu1 * nu2 / (nu1 + nu2)
        # flux-average coefficient per side: w_1 nu_1 = w_2 nu_2 = 2 nu_1 nu_2/(nu_1+nu_2)
        w1 = 2.0 * nu2 / (nu1 + nu2)
        w2 = 2.0 * nu1 / (nu1 + nu2)
        self._int_coef1 = w1 * nu1
        self._int_coef2 = w2 * nu2
        nub = nu[mesh.bface_elem]
        self._bnd_gamma2 = (gamma0 * gamma0 / mesh.bface_h) * nub

        nfi = mesh.n_interior_faces
        # jump selectors over the 6 local dofs [elem1 | elem2] at both endpoints
        Sp = np.zeros((nfi, 6))
        Sq = np.zeros((nfi, 6))
        rows = np.arange(nfi)
        Sp[rows, mesh.iface_local[:, 0, 0]] = 1.0
        Sp[rows, 3 + mesh.iface_local[:, 1, 0]] = -1.0
        Sq[rows, mesh.iface_local[:, 0, 1]] = 1.0
        Sq[rows, 3 + mesh.iface_local[:, 1, 1]] = -1.0
        self._Sp = Sp
        self._Sq = Sq
        # normal derivatives of the three shape functions, per side
        n = mesh.iface_normal
        self._dn1 = np.einsum("fid,fd->fi", mesh.grads[e1], n)
        self._dn2 = np.einsum("fid,fd->fi", mesh.grads[e2], n)

        nfb = mesh.n_boundary_faces
        Tp = np.zeros((nfb, 3))
        Tq = np.zeros((nfb, 3))
        rows = np.arange(nfb)
        Tp[rows, mesh.bface_local[:, 0]] = 1.0
        Tq[rows, mesh.bface_local[:, 1]] = 1.0
        self._Tp = Tp
        self._Tq = Tq
        self._dnb = np.einsum("fid,fd->fi", mesh.grads[mesh.bface_elem],
                              mesh.bface_normal)

    # -- element selection helpers ------------------------------------------

    def _members(self, D) -> np.ndarray:
        if D is None:
            return np.arange(self.mesh.n_elements, dtype=np.int64)
        D = np.asarray(D, dtype=np.int64)
        if D.size == 0:
            raise ValueError("empty element set")
        return D

    def interior_face_mask(self, D: np.ndarray) -> np.ndarray:
        both = np.isin(self.mesh.iface_elems, D)
        return both[:, 0] & both[:, 1]

    def boundary_face_mask(self, D: np.ndarray) -> np.ndarray:
        return np.isin(self.mesh.bface_elem, D)

    # -- assembly ------------------------------------------------------------

    def matrix(self, D=None, kind: str = "B") -> sp.csr_matrix:
        if kind not in ("B", "Bplus", "H", "mass", "Bplus_faces"):
            raise ValueError(f"unknown form kind {kind!r}")
        mesh = self.mesh
        D = self._members(D)
        ndof = 3 * D.size

        def local_slots(elems):
            return np.searchsorted(D, elems)

        blocks = []
        rows_all = []
        cols_all = []

        def add(block, elems_rows, elems_cols):
            # block: (nf, a, b); elems_*: (nf, a/b) local dof indices
            rows_all.append(np.broadcast_to(elems_rows[:, :, None], block.shape).ravel())
            cols_all.append(np.broadcast_to(elems_cols[:, None, :], block.shape).ravel())
            blocks.append(block.ravel())

        nu = self.coefficient.values[D]
        areas = mesh.areas[D]
        dofs = 3 * local_slots(D)
        eldofs = dofs[:, None] + np.arange(3)

        if kind != "Bplus_faces":
            if kind == "mass":
                vol = areas[:, None, None] * _MASS3[None, :, :]
            else:
                stiff = np.einsum("eid,ejd->eij", mesh.grads[D], mesh.grads[D])
                vol = (nu * areas)[:, None, None] * stiff
                if kind == "H":
                    vol = vol + areas[:, None, None] * _MASS3[None, :, :]
            add(vol, eldofs, eldofs)

        if kind != "mass":
            imask = self.interior_face_mask(D)
            if np.any(imask):
                k = np.flatnonzero(imask)
                hF = mesh.iface_h[k]
                g2 = self._int_gamma2[k]
                Sp = self._Sp[k]
                Sq = self._Sq[k]
                pen = (g2 * hF / 6.0)[:, None, None] * (
                    2.0 * np.einsum("fi,fj->fij", Sp, Sp)
                    + np.einsum("fi,fj->fij", Sp, Sq)
                    + np.einsum("fi,fj->fij", Sq, Sp)
                    + 2.0 * np.einsum("fi,fj->fij", Sq, Sq))
                if kind == "B":
                    gvec = np.concatenate([self._int_coef1[k, None] * self._dn1[k],
                                           self._int_coef2[k, None] * self._dn2[k]], axis=1)
                    jsum = Sp + Sq
                    cons = (0.25 * hF)[:, None, None] * np.einsum("fi,fj->fij", jsum, gvec)
                    blk = pen - cons - np.swapaxes(cons, 1, 2)
                else:
                    blk = pen
                s1 = local_slots(mesh.iface_elems[k, 0])
                s2 = local_slots(mesh.iface_elems[k, 1])
                fd = np.concatenate([3 * s1[:, None] + np.arange(3),
                                     3 * s2[:, None] + np.arange(3)], axis=1)
                add(blk, fd, fd)

            bmask = self.boundary_face_mask(D)
            if np.any(bmask):
                k = np.flatnonzero(bmask)
                hF = mesh.bface_h[k]
                g2 = self._bnd_gamma2[k]
                Tp = self._Tp[k]
                Tq = self._Tq[k]
                mf = (hF / 6.0)[:, None, None] * (
                    2.0 * np.einsum("fi,fj->fij", Tp, Tp)
                    + np.einsum("fi,fj->fij", Tp, Tq)
                    + np.einsum("fi,fj->fij", Tq, Tp)
                    + 2.0 * np.einsum("fi,fj->fij", Tq, Tq))
                if kind == "B":
                    gvec = self.coefficient.values[mesh.bface_elem[k], None] * self._dnb[k]
                    tsum = Tp + Tq
                    cons = (0.5 * hF)[:, None, None] * np.einsum("fi,fj->fij", tsum, gvec)
                    blk = 2.0 * g2[:, None, None] * mf - cons - np.swapaxes(cons, 1, 2)
                else:
                    blk = g2[:, None, None] * mf
                se = local_slots(mesh.bface_elem[k])
                fd = 3 * se[:, None] + np.arange(3)
                add(blk, fd, fd)

        data = np.concatenate(blocks) if blocks else np.empty(0)
        rows = np.concatenate(rows_all) if rows_all else np.empty(0, dtype=np.int64)
        cols = np.concatenate(cols_all) if cols_all else np.empty(0, dtype=np.int64)
        mat = sp.coo_matrix((data, (rows, cols)), shape=(ndof, ndof)).tocsr()
        mat.sum_duplicates()
        return mat

    def load(self, f, D=None, degree: int = 4) -> np.ndarray:
        """Source functional against the shape functions of the set.

        ``f`` is a callable of ``(x, y)`` or a constant; the degree-4 default
        rule is exact for linear sources.
        """
        mesh = self.mesh
        D = self._members(D)
        bary, w = triangle_quadrature(degree)
        pts = np.einsum("qa,ead->eqd", bary, mesh.vertices[mesh.elements[D]])
        if callable(f):
            fv = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
            fv = np.broadcast_to(fv, pts.shape[:2])
        else:
            fv = np.full(pts.shape[:2], float(f))
        # shape function i at a quadrature point equals its barycentric coordinate
        vals = np.einsum("eq,q,qi->ei", fv, w, bary) * mesh.areas[D][:, None]
        return vals.ravel()


_QUAD_RULES = {
    2: (
        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1.0, 1.0, 1.0]) / 3.0,
    ),
    4: (
        np.array([
            [0.108103018168070, 0.445948490915965, 0.445948490915965],
            [0.445948490915965, 0.108103018168070, 0.445948490915965],
            [0.445948490915965, 0.445948490915965, 0.108103018168070],
            [0.816847572980459, 0.091576213509771, 0.091576213509771],
            [0.091576213509771, 0.816847572980459, 0.091576213509771],
            [0.091576213509771, 0.091576213509771, 0.816847572980459],
        ]),
        np.array([0.223381589678011] * 3 + [0.109951743655322] * 3),
    ),
    5: (
        np.array([
            [1 / 3, 1 / 3, 1 / 3],
            [0.059715871789770, 0.470142064105115, 0.470142064105115],
            [0.470142064105115, 0.059715871789770, 0.470142064105115],
            [0.470142064105115, 0.470142064105115, 0.059715871789770],
            [0.797426985353087, 0.101286507323456, 0.101286507323456],
            [0.101286507323456, 0.797426985353087, 0.101286507323456],
            [0.101286507323456, 0.101286507323456, 0.797426985353087],
        ]),
        np.array([0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3),
    ),
}


def triangle_quadrature(degree: int):
    """Barycentric points and unit-weights of a rule exact to the given degree."""
    for d in sorted(_QUAD_RULES):
        if d >= degree:
            return _QUAD_RULES[d]
    raise ValueError(f"no quadrature rule of degree {degree}")
