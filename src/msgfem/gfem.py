"""Global multiscale approximation: coarse space and coarse solve.

Beside the forms this stage reads only the local stage's records, which
hand over each subdomain's global dofs, its sweep's mode counts and its
contributions weighted by its partition-of-unity weight, summed here into
global vectors: the particular parts add up to one source approximation,
and each subdomain's kept weighted modes span its coarse columns.  The
coarse correction is the Galerkin solution of the full form on that column
span against the source residual.

A sweep builds its columns once, from the modes the local stage kept for
its largest selection.  Each subdomain's weighted modes are made
H-orthonormal in mode order on the subdomain's own dofs, so the columns are
well conditioned within each subdomain.  A mode that depends on the modes
before it raises an error naming its (j, k), whether those modes are of its
own subdomain or of others.  Column k depends only on the modes before it,
so the columns of a sweep point are, bit for bit, the leading columns of
the one build.  A column lives on its subdomain, so it meets only the
columns of overlapping subdomains and the Gram nonzeros stay in that
overlap band.  A sweep point is its per-subdomain mode counts: it takes the
leading columns of each subdomain and factors their Gram block by a
Cholesky on LAPACK band storage.  An entry of a sparse Gram product depends
only on its own two columns, so every point solves, bit for bit, the system
that a build of just its columns would give.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .dg_forms import GlobalForms, compact
from .errors import SolverError
from .local_problems import solve_checked, symmetric_part

__all__ = [
    "CoarseSpace",
    "MSGFEMSolution",
    "assemble_coarse",
    "solve_coarse",
    "error_report",
    "max_sqrt_lambda_next",
    "solve_msgfem",
]

# a column depends on those before it when, inside its subdomain, its
# H-orthogonal part is at most this share of its H norm, or, across subdomains,
# its squared Cholesky pivot of its squared B norm: a pivot at most 1e-5 of the
# B norm, as an exact duplicate's pivot is only about sqrt(n eps) of it
_DEPENDENCE_RTOL = 1e-10


@dataclass
class CoarseSpace:
    """Coarse columns with their Galerkin data.

    ``basis`` has one fine-dof column per kept local mode: the ``n_j[j]``
    modes of subdomain j in mode order, the subdomains in index order.  The
    columns of one subdomain are H-orthonormal; a mode that depends on
    earlier modes of its subdomain fails the build (see
    :func:`_h_orthonormal`).  Columns of different subdomains are not tested
    against each other here: a dependence across them leaves the Gram block
    singular, and :func:`solve_coarse` fails naming the later column and
    both possible causes.  ``gram_B`` is the sparse (CSR) column Gram matrix
    in the full form, nonzero only between columns of overlapping
    subdomains and stored compact, as it lives for the whole sweep; ``rhs``
    pairs the columns with the residual of the particular part.
    """

    basis: sp.csc_matrix
    gram_B: sp.csr_matrix
    rhs: np.ndarray
    n_j: np.ndarray               # kept modes per subdomain

    @property
    def dropped(self) -> list:
        # always empty, as a dependent mode raises; perfbench/tracer.py reads its length
        return []

    @property
    def n_total(self) -> int:
        return int(self.n_j.sum())


@dataclass
class MSGFEMSolution:
    """One sweep point: its mode counts, its solution and its error surrogate.

    ``u_G`` is the particular part plus the point's coarse correction, in
    fine dofs; ``max_sqrt_lambda_next`` is :func:`max_sqrt_lambda_next` at ``n_j``.
    """

    n_j: np.ndarray               # the point's modes per subdomain
    u_G: np.ndarray
    max_sqrt_lambda_next: float

    @property
    def n_total(self) -> int:
        return int(self.n_j.sum())


def assemble_coarse(forms: GlobalForms, locals_: list):
    """Sum the weighted particular parts and lay out the kept weighted modes globally.

    ``locals_`` lists the subdomains in index order, as
    :func:`~msgfem.local_problems.compute_local_data` returns them; each
    record's parts are placed at its ``dofs``, in list order.  Makes each
    subdomain's weighted modes orthonormal in ``forms.H`` (see
    :func:`_h_orthonormal`) and reduces the columns to their Galerkin data
    in ``forms.B`` with load ``forms.F``.  Returns the coarse space and the
    global particular vector.  A mode that depends on the modes before it
    in its subdomain raises a ``SolverError`` naming its (j, k).
    """
    B, H = forms.B, forms.H
    kept = np.array([data.modes.shape[1] for data in locals_], dtype=np.int64)
    ndof = B.shape[0]
    u_p = np.zeros(ndof)
    rows, cols, vals = [], [], []
    for j, (data, start) in enumerate(zip(locals_, np.cumsum(kept) - kept)):
        u_p[data.dofs] += data.particular
        Q = _h_orthonormal(data.modes, H[data.dofs][:, data.dofs], j)
        r, k = np.nonzero(Q)
        rows.append(data.dofs[r])
        cols.append(start + k)
        vals.append(Q[r, k])
    basis = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(ndof, int(kept.sum()))).tocsc()

    coarse = CoarseSpace(basis=basis,
                         gram_B=compact(symmetric_part(basis.T @ (B @ basis))),
                         rhs=basis.T @ (forms.F - B @ u_p), n_j=kept)
    return coarse, u_p


def _h_orthonormal(V: np.ndarray, H, j: int) -> np.ndarray:
    """H-orthonormal columns spanning those of ``V``, the modes of subdomain ``j``.

    Column k is orthogonalized against the columns before it by classical
    Gram–Schmidt run twice.  When its H-orthogonal part is at most
    ``_DEPENDENCE_RTOL`` of its H norm (an exact duplicate leaves a part
    near eps, a zero column none) it depends on them, and a ``SolverError``
    names its (j, k).  Column k reads only the columns before it, so the
    output for the leading columns of ``V`` is, bit for bit, the leading
    part of the output for all of them.
    """
    n, m = V.shape
    # Fortran order keeps every leading block Q[:, :k] one contiguous array
    Q = np.empty((n, m), order="F")
    HQ = np.empty((n, m), order="F")
    for k in range(m):
        q = V[:, k].copy()
        norm0 = np.sqrt(max(q @ (H @ q), 0.0))
        for _ in range(2):
            q -= Q[:, :k] @ (HQ[:, :k].T @ q)
        Hq = H @ q
        norm = np.sqrt(max(q @ Hq, 0.0))
        if norm <= _DEPENDENCE_RTOL * norm0:
            raise SolverError(f"coarse mode ({j}, {k}) depends on the modes before it "
                              "in its subdomain")
        Q[:, k] = q / norm
        HQ[:, k] = Hq / norm
    return Q


def _lower_band(G: sp.spmatrix) -> np.ndarray:
    """LAPACK lower band storage of symmetric ``G``: ``ab[i - c, c] = G[i, c]``."""
    low = sp.tril(G, format="coo")
    d = low.row - low.col
    ab = np.zeros((int(d.max(initial=0)) + 1, G.shape[0]))
    ab[d, low.col] = low.data
    return ab


def solve_coarse(coarse: CoarseSpace, n_j):
    """Galerkin correction of one sweep point against the source residual.

    The point is its mode counts ``n_j``: the modes k < n_j[j] of each
    subdomain j of the assembled space, at most the ``coarse.n_j[j]`` it
    kept.  The point's Gram block is factored in band storage.  A column
    whose pivot is not positive, or whose squared pivot is at most
    ``_DEPENDENCE_RTOL`` of its Gram diagonal, raises a ``SolverError``
    naming its (j, k): the factor's squared pivot is the column's squared
    B-norm left after the columns before it, and rounding leaves that near
    eps of the diagonal, of either sign, when the column depends on them.
    Returns the correction in fine dofs.
    """
    n_j, kept = np.asarray(n_j, dtype=np.int64), coarse.n_j
    if np.any(n_j > kept):
        raise ValueError("selection exceeds the assembled modes")
    # column c is mode k[c] of subdomain j[c]: the columns run by subdomain, then mode
    j = np.repeat(np.arange(kept.size), kept)
    k = np.arange(j.size) - np.repeat(np.cumsum(kept) - kept, kept)
    cols = np.flatnonzero(k < n_j[j])
    y = np.zeros(j.size)
    if cols.size:
        G = coarse.gram_B[cols][:, cols]
        ab = _lower_band(G)
        pbtrf, = la.get_lapack_funcs(("pbtrf",), (ab,))
        # info: the 1-based column of the first pivot that is not positive, or else
        # of the first at roundoff
        cb, info = pbtrf(ab, lower=1, overwrite_ab=1)
        if info == 0:
            small = np.flatnonzero(cb[0] ** 2 <= _DEPENDENCE_RTOL * G.diagonal())
            info = small[0] + 1 if small.size else 0
        if info > 0:
            c = cols[info - 1]
            raise SolverError(
                f"reduced coarse system is not positive definite at coarse column "
                f"({j[c]}, {k[c]}); the penalty parameter is too small for this mesh, or "
                "coarse columns of different subdomains depend on each other")
        y[cols] = solve_checked(lambda b: la.cho_solve_banded((cb, True), b),
                                G, coarse.rhs[cols], "coarse solve")
    return coarse.basis @ y


def error_report(forms: GlobalForms, u_G: np.ndarray, u_fine: np.ndarray):
    """Relative jump-energy and volume errors of the multiscale solution vs the fine one.

    Returns the pair ``(rel_bplus_error, rel_l2_error)``: the errors in the
    ``forms.Bplus`` and ``forms.mass`` norms, each divided by the fine
    solution's norm unless that is zero.  The two norm matrices of ``forms``
    are assembled once for every report that shares it.  The error
    surrogate of a sweep point is its solution's ``max_sqrt_lambda_next``.
    A norm that is not finite is a :class:`SolverError`.
    """
    Bp, Mv, diff = forms.Bplus, forms.mass, u_G - u_fine

    def norm(mat, v):
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow raises below
            return float(np.sqrt(max(float(v @ (mat @ v)), 0.0)))

    eb, el, rb, rl = norm(Bp, diff), norm(Mv, diff), norm(Bp, u_fine), norm(Mv, u_fine)
    if not np.isfinite([eb, el, rb, rl]).all():
        raise SolverError(f"error report norms are not finite: {eb}, {el}, {rb}, {rl}")
    return eb / rb if rb > 0 else eb, el / rl if rl > 0 else el


def max_sqrt_lambda_next(locals_: list, n_j) -> float:
    """Error surrogate of the point ``n_j``: the largest next-eigenvalue root of a subdomain."""
    worst = 0.0
    for data, n in zip(locals_, n_j):
        if n < data.eigenvalues.size:
            lam = data.eigenvalues[n]
            worst = max(worst, float(np.sqrt(lam)) if np.isfinite(lam) else np.inf)
    return worst


def solve_msgfem(forms: GlobalForms, locals_: list) -> list:
    """Assemble the coarse space once in ``forms`` and solve it at every sweep point.

    The sweep is the one ``locals_`` was computed for: point ``i`` takes the
    ``counts[i]`` leading modes of each subdomain, which its rule selected
    there and the local stage kept.  The columns are assembled from the kept
    modes and every point is solved on its subset of them.  Returns one
    solution per rule, its ``u_G`` the global particular part plus the
    point's coarse correction.
    """
    coarse, u_p = assemble_coarse(forms, locals_)
    return [MSGFEMSolution(n_j=n_j, u_G=u_p + solve_coarse(coarse, n_j),
                           max_sqrt_lambda_next=max_sqrt_lambda_next(locals_, n_j))
            for n_j in map(np.array, zip(*(d.counts for d in locals_)))]
