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
* ``mass``   the volume mass matrix alone.

Face weights: with per-side coefficient values ``nu_1, nu_2`` the penalty
coefficient is ``gamma_h^2 = (gamma0^2 / h_F) * 2 nu_1 nu_2 / (nu_1 + nu_2)``
and the flux average uses the weights ``(2 nu_2, 2 nu_1) / (nu_1 + nu_2)``.
Interior consistency terms carry a 1/2, boundary ones do not.  All volume
and face integrands are polynomials of degree at most two and are integrated
exactly by closed-form rules.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DGAssembler",
    "compact",
    "subdomain_dofs",
    "nested_dofs",
]

_MASS3 = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0

# barycentric points and unit weights of a six-point rule exact to degree 4
_LOAD_POINTS = np.array([
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
])
_LOAD_WEIGHTS = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)


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


def compact(A):
    """``A`` (CSR or CSC) with ``data`` and ``indices`` in arrays of exactly ``nnz`` entries.

    scipy leaves a matrix whose duplicates were summed, and a sparse sum, as
    views of their larger pre-dedupe buffers, which live as long as the
    matrix does.  Values, index order and dtypes are unchanged.  Worth it
    only for a matrix that outlives its stage: the copy raises the peak of a
    short-lived one.
    """
    A.data = A.data[:A.nnz].copy()
    A.indices = A.indices[:A.nnz].copy()
    return A


_KINDS = ("B", "Bplus", "H", "mass")


def _edge_mass(P, Q):
    """Exact edge mass of linear traces times ``6/h``, per face.

    ``P`` and ``Q`` select each trace's values at the two face endpoints.
    """
    def outer(a, b):
        return np.einsum("fi,fj->fij", a, b)
    return 2.0 * outer(P, P) + outer(P, Q) + outer(Q, P) + 2.0 * outer(Q, Q)


def _minus_consistency(pen, scale, jump, flux):
    """Penalty blocks minus the consistency term ``scale * jump flux^T`` and its transpose."""
    cons = scale[:, None, None] * np.einsum("fi,fj->fij", jump, flux)
    return pen - cons - np.swapaxes(cons, 1, 2)


class DGAssembler:
    """The weighted-SIPG forms of one (mesh, coefficient, gamma0) triple.

    Every form is a table of blocks built once, on the first :meth:`matrix`
    call: per element a 3 x 3 volume block (stiffness, mass), and per
    interior face (6 x 6, over both elements) and per boundary face (3 x 3)
    a penalty block and a full-form block (penalty minus the consistency
    term and its transpose).  :meth:`matrix` gathers the blocks of the
    elements and faces that lie in the requested set.  All matrices are
    over the local dofs of that set, ordered per element as in
    ``subdomain_dofs``.  The gather order (volume, then interior faces, then
    boundary faces, each in table order) is fixed, so repeated assembly is
    bit-reproducible.
    """

    def __init__(self, mesh, coefficient, gamma0: float):
        if gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if coefficient.values.shape[0] != mesh.n_elements:
            raise ValueError("coefficient does not match the mesh")
        self.mesh = mesh
        self.coefficient = coefficient
        self.gamma0 = float(gamma0)

    @cached_property
    def _tables(self) -> dict:
        """Per kind, the ``(elements, blocks)`` tables it gathers, in order.

        ``elements`` is an (n, s) array naming the s elements each block
        couples; ``blocks`` is (n, 3s, 3s) over their dofs.
        """
        mesh = self.mesh
        nu = self.coefficient.values
        g0sq = self.gamma0 * self.gamma0
        stiff = (nu * mesh.areas)[:, None, None] * np.einsum("eid,ejd->eij",
                                                              mesh.grads, mesh.grads)
        mass = mesh.areas[:, None, None] * _MASS3[None, :, :]

        e1, e2 = mesh.iface_elems[:, 0], mesh.iface_elems[:, 1]
        nu1, nu2, hF = nu[e1], nu[e2], mesh.iface_h
        g2 = (g0sq / hF) * 2.0 * nu1 * nu2 / (nu1 + nu2)
        # jump selectors over the 6 local dofs [elem1 | elem2] at both endpoints
        Sp = np.zeros((hF.size, 6))
        Sq = np.zeros((hF.size, 6))
        rows = np.arange(hF.size)
        Sp[rows, mesh.iface_local[:, 0, 0]] = 1.0
        Sp[rows, 3 + mesh.iface_local[:, 1, 0]] = -1.0
        Sq[rows, mesh.iface_local[:, 0, 1]] = 1.0
        Sq[rows, 3 + mesh.iface_local[:, 1, 1]] = -1.0
        ipen = (g2 * hF / 6.0)[:, None, None] * _edge_mass(Sp, Sq)
        # flux-average coefficient per side: w_1 nu_1 = w_2 nu_2 = 2 nu_1 nu_2/(nu_1+nu_2)
        w1 = 2.0 * nu2 / (nu1 + nu2)
        w2 = 2.0 * nu1 / (nu1 + nu2)
        n = mesh.iface_normal
        flux = np.concatenate([(w1 * nu1)[:, None] * np.einsum("fid,fd->fi", mesh.grads[e1], n),
                               (w2 * nu2)[:, None] * np.einsum("fid,fd->fi", mesh.grads[e2], n)],
                              axis=1)
        ifull = _minus_consistency(ipen, 0.25 * hF, Sp + Sq, flux)

        eb, hb = mesh.bface_elem, mesh.bface_h
        gb = (g0sq / hb) * nu[eb]
        Tp = np.zeros((hb.size, 3))
        Tq = np.zeros((hb.size, 3))
        rows = np.arange(hb.size)
        Tp[rows, mesh.bface_local[:, 0]] = 1.0
        Tq[rows, mesh.bface_local[:, 1]] = 1.0
        mf = (hb / 6.0)[:, None, None] * _edge_mass(Tp, Tq)
        flux = nu[eb, None] * np.einsum("fid,fd->fi", mesh.grads[eb], mesh.bface_normal)
        bpen = gb[:, None, None] * mf
        bfull = _minus_consistency(2.0 * gb[:, None, None] * mf, 0.5 * hb, Tp + Tq, flux)

        vol, faces, bnd = np.arange(mesh.n_elements)[:, None], mesh.iface_elems, eb[:, None]
        return {"B": [(vol, stiff), (faces, ifull), (bnd, bfull)],
                "Bplus": [(vol, stiff), (faces, ipen), (bnd, bpen)],
                "H": [(vol, stiff + mass), (faces, ipen), (bnd, bpen)],
                "mass": [(vol, mass)]}

    def _members(self, D) -> np.ndarray:
        if D is None:
            return np.arange(self.mesh.n_elements, dtype=np.int64)
        D = np.asarray(D, dtype=np.int64)
        if D.size == 0:
            raise ValueError("empty element set")
        return D

    def matrix(self, D=None, kind: str = "B") -> sp.csr_matrix:
        """The ``kind`` form on the sorted element set ``D`` (the mesh if ``None``)."""
        if kind not in _KINDS:
            raise ValueError(f"unknown form kind {kind!r}")
        D = self._members(D)
        slot = np.full(self.mesh.n_elements, -1, dtype=np.int64)
        slot[D] = np.arange(D.size)
        data, rows, cols = [], [], []
        for elements, blocks in self._tables[kind]:
            local = slot[elements]
            keep = np.flatnonzero((local >= 0).all(axis=1))
            dofs = (3 * local[keep][:, :, None] + np.arange(3)).reshape(keep.size, blocks.shape[1])
            blk = blocks[keep]
            rows.append(np.broadcast_to(dofs[:, :, None], blk.shape).ravel())
            cols.append(np.broadcast_to(dofs[:, None, :], blk.shape).ravel())
            data.append(blk.ravel())
        return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(3 * D.size, 3 * D.size)).tocsr()

    def load(self, f, D=None) -> np.ndarray:
        """Source functional against the shape functions of the set.

        ``f`` is a callable of ``(x, y)``; the degree-4 rule is exact for
        sources up to cubic.
        """
        mesh = self.mesh
        D = self._members(D)
        pts = np.einsum("qa,ead->eqd", _LOAD_POINTS, mesh.vertices[mesh.elements[D]])
        fv = np.broadcast_to(np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float),
                             pts.shape[:2])
        # shape function i at a quadrature point equals its barycentric coordinate
        vals = np.einsum("eq,q,qi->ei", fv, _LOAD_WEIGHTS, _LOAD_POINTS) * mesh.areas[D][:, None]
        return vals.ravel()

