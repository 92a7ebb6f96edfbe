"""Global multiscale approximation: blended coarse space and coarse solve.

The local spectral data of all subdomains is blended through the partition
of unity into global vectors: the particular parts sum into one source
approximation, and each subdomain's kept local modes span its coarse
columns.  The coarse correction is the Galerkin solution of the full form on
that column span against the source residual.

A sweep builds its columns once, from the modes the local stage kept for
its largest selection.  Each subdomain's blended modes are made
H-orthonormal in mode order on the subdomain's own dofs, so the columns are
well conditioned within each subdomain.  A mode that depends on the modes
before it raises an error naming its (j, k), whether those modes are of its
own subdomain or of others.  Column k depends only on the modes before it,
so the columns of a sweep point are, bit for bit, the leading columns of
the one build.  A column lives on its subdomain, so it meets only the
columns of overlapping subdomains and the Gram nonzeros stay in that
overlap band.  Each sweep point takes the index subset of its modes and
factors its Gram block by a Cholesky on LAPACK band storage.  An entry of a
sparse Gram product depends only on its own two columns, so every point
solves, bit for bit, the system that a build of just its columns would give.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .decomposition import Decomposition
from .dg_forms import DGAssembler, compact, subdomain_dofs
from .errors import SolverError
from .local_problems import select_coarse, solve_checked, symmetric_part
from .mesh import TriMesh
from .space_ops import PartitionOfUnity, pou_blend

__all__ = [
    "GlobalForms",
    "CoarseSpace",
    "MSGFEMSolution",
    "ErrorReport",
    "assemble_coarse",
    "solve_coarse",
    "error_report",
    "max_sqrt_lambda_next",
    "solve_msgfem",
]

# the one dependence test of a coarse column, inside its subdomain (its
# H-orthogonal part) and across subdomains (its squared Cholesky pivot)
_DEPENDENCE_RTOL = 1e-10


class GlobalForms:
    """Global matrices and load vector of one problem, each assembled on first use.

    The matrices live for the whole run, so each is stored compact.
    """

    def __init__(self, asm: DGAssembler, f):
        self.asm = asm
        self.f = f

    @cached_property
    def B(self):
        return compact(self.asm.matrix(None, "B"))

    @cached_property
    def H(self):
        return compact(self.asm.matrix(None, "H"))

    @cached_property
    def Bplus(self):
        return compact(self.asm.matrix(None, "Bplus"))

    @cached_property
    def mass(self):
        return compact(self.asm.matrix(None, "mass"))

    @cached_property
    def F(self) -> np.ndarray:
        return self.asm.load(self.f)


@dataclass
class CoarseSpace:
    """Blended coarse columns with their Galerkin data, and one selection of them.

    ``basis`` has one fine-dof column per kept local mode, ordered by
    subdomain j and then mode k; ``offsets`` holds the (j, k) of each column.
    The columns of one subdomain are H-orthonormal; a mode that depends on
    earlier modes of its subdomain fails the build (see
    :func:`_h_orthonormal`).  Columns of different subdomains are not tested
    against each other here: a dependence across them leaves the Gram block
    singular, and :func:`solve_coarse` fails naming the later column and
    both possible causes.  ``gram_B`` is the sparse (CSR) column Gram matrix
    in the full form, nonzero only between columns of overlapping
    subdomains and stored compact, as it lives for the whole sweep; ``rhs``
    pairs the columns with the residual of the particular part.  The
    selection is the modes k < n_j[j], and ``columns`` are its columns.
    """

    basis: sp.csc_matrix
    offsets: np.ndarray           # (n_columns, 2): subdomain j, local mode k
    gram_B: sp.csr_matrix
    rhs: np.ndarray
    n_j: np.ndarray               # selected modes per subdomain

    @property
    def columns(self) -> np.ndarray:
        j, k = self.offsets.T
        return np.flatnonzero(k < self.n_j[j])

    @property
    def dropped(self) -> list:
        # always empty, as a dependent mode raises; perfbench/tracer.py reads its length
        return []

    @property
    def n_total(self) -> int:
        return int(self.n_j.sum())

    def select(self, n_j) -> CoarseSpace:
        """The sub-selection of modes k < n_j[j]."""
        n_j = np.asarray(n_j, dtype=np.int64)
        if np.any(n_j > self.n_j):
            raise ValueError("selection exceeds the assembled modes")
        return replace(self, n_j=n_j)


@dataclass
class MSGFEMSolution:
    """Particular part, coarse correction and their sum, plus diagnostics."""

    u_p: np.ndarray
    u_s: np.ndarray
    coarse: CoarseSpace
    max_sqrt_lambda_next: float

    @property
    def u_G(self) -> np.ndarray:
        return self.u_p + self.u_s


def assemble_coarse(mesh: TriMesh, decomp: Decomposition, pou: PartitionOfUnity,
                    locals_: list, B, F: np.ndarray, H):
    """Blend the particular parts and the kept local modes into global vectors.

    Makes each subdomain's blended modes H-orthonormal (see
    :func:`_h_orthonormal`) and reduces the columns to their Galerkin data
    in the form ``B`` with load ``F``.  Returns the coarse space and the
    global particular vector.  A mode that depends on the modes before it
    in its subdomain raises a ``SolverError`` naming its (j, k).
    """
    n_sel = np.array([data.modes.shape[1] for data in locals_], dtype=np.int64)
    ndof = 3 * mesh.n_elements
    u_p = pou_blend(mesh, decomp, pou, [d.particular for d in locals_])

    rows, cols, vals, offsets = [], [], [], []
    for data in locals_:
        omega = decomp.omega(data.j)
        dofs = subdomain_dofs(omega)
        blended = pou.dof_weights(mesh, data.j, omega)[:, None] * data.modes
        Q = _h_orthonormal(blended, H[dofs][:, dofs], data.j)
        r, k = np.nonzero(Q)
        rows.append(dofs[r])
        cols.append(len(offsets) + k)
        vals.append(Q[r, k])
        offsets += [(data.j, i) for i in range(Q.shape[1])]
    col = len(offsets)
    basis = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(ndof, col)).tocsc()

    coarse = CoarseSpace(basis=basis,
                         offsets=np.array(offsets, dtype=np.int64).reshape(col, 2),
                         gram_B=compact(symmetric_part(basis.T @ (B @ basis))),
                         rhs=basis.T @ (F - B @ u_p), n_j=n_sel)
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
    """Galerkin correction on one selection against the source residual.

    ``n_j`` picks the sweep point, the modes k < n_j[j] of the assembled
    space.  The point's Gram block is factored in band storage.  A column
    whose pivot is not positive, or whose squared pivot is at most
    ``_DEPENDENCE_RTOL`` of its Gram diagonal, raises a ``SolverError``
    naming its (j, k): the factor's squared pivot is the column's squared
    B-norm left after the columns before it, and rounding leaves that near
    eps of the diagonal, of either sign, when the column depends on them.
    Returns the point's coarse space and the correction in fine dofs.
    """
    space = coarse.select(n_j)
    cols = space.columns
    y = np.zeros(space.basis.shape[1])
    if cols.size:
        G = space.gram_B[cols][:, cols]
        ab = _lower_band(G)
        pbtrf, = la.get_lapack_funcs(("pbtrf",), (ab,))
        # info: the 1-based column of the first pivot that is not positive, or else
        # of the first at roundoff
        cb, info = pbtrf(ab, lower=1, overwrite_ab=1)
        if info == 0:
            small = np.flatnonzero(cb[0] ** 2 <= _DEPENDENCE_RTOL * G.diagonal())
            info = small[0] + 1 if small.size else 0
        if info > 0:
            j, k = space.offsets[cols[info - 1]]
            raise SolverError(
                f"reduced coarse system is not positive definite at coarse column "
                f"({j}, {k}); the penalty parameter is too small for this mesh, or "
                "coarse columns of different subdomains depend on each other")
        y[cols] = solve_checked(lambda b: la.cho_solve_banded((cb, True), b),
                                G, space.rhs[cols], "coarse solve")
    return space, space.basis @ y


@dataclass
class ErrorReport:
    rel_bplus_error: float
    rel_l2_error: float


def error_report(forms: GlobalForms, u_G: np.ndarray, u_fine: np.ndarray) -> ErrorReport:
    """Jump-energy and volume errors of the multiscale solution vs the fine one.

    The two norm matrices of ``forms`` are assembled once for every report
    that shares it.  The error surrogate of a sweep point is its solution's
    ``max_sqrt_lambda_next``.  A norm that is not finite is a :class:`SolverError`.
    """
    Bp, Mv, diff = forms.Bplus, forms.mass, u_G - u_fine

    def norm(mat, v):
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow raises below
            return float(np.sqrt(max(float(v @ (mat @ v)), 0.0)))

    eb, el, rb, rl = norm(Bp, diff), norm(Mv, diff), norm(Bp, u_fine), norm(Mv, u_fine)
    if not np.isfinite([eb, el, rb, rl]).all():
        raise SolverError(f"error report norms are not finite: {eb}, {el}, {rb}, {rl}")
    return ErrorReport(rel_bplus_error=eb / rb if rb > 0 else eb,
                       rel_l2_error=el / rl if rl > 0 else el)


def max_sqrt_lambda_next(locals_: list, coarse: CoarseSpace) -> float:
    """Largest next-eigenvalue root over the subdomains, the error surrogate."""
    worst = 0.0
    for data, n_j in zip(locals_, coarse.n_j):
        if n_j < data.eigenvalues.size:
            lam = data.eigenvalues[n_j]
            worst = max(worst, float(np.sqrt(lam)) if np.isfinite(lam) else np.inf)
    return worst


def solve_msgfem(mesh: TriMesh, decomp: Decomposition, pou: PartitionOfUnity,
                 locals_: list, forms: GlobalForms, rules) -> list:
    """Assemble the coarse space once and solve it at every sweep point.

    ``rules`` is a list of rules of either kind (see :func:`select_coarse`).
    The columns are assembled from the modes ``locals_`` kept, and every
    point is solved on its subset of them; a point that asks for more modes
    than a subdomain kept raises.  Returns one solution per rule.
    """
    coarse, u_p = assemble_coarse(mesh, decomp, pou, locals_, forms.B, forms.F, forms.H)
    solutions = []
    for rule in rules:
        n_j = [select_coarse(d.eigenvalues, rule, d.j) for d in locals_]
        space, u_s = solve_coarse(coarse, n_j)
        solutions.append(MSGFEMSolution(
            u_p=u_p, u_s=u_s, coarse=space,
            max_sqrt_lambda_next=max_sqrt_lambda_next(locals_, space)))
    return solutions
