"""Global multiscale approximation: blended coarse space and coarse solve.

The local spectral data of all subdomains is blended through the partition
of unity into global vectors: the particular parts sum into one source
approximation, and each kept local mode becomes one coarse basis column.
The coarse correction is the Galerkin solution of the full form on that
column span against the source residual.

A sweep builds its columns once, from the modes the local stage kept for
its largest selection, and reduces them to sparse Gram matrices.  A column
lives on its subdomain, so it meets only the columns of overlapping
subdomains and the Gram nonzeros stay in that overlap band.  Each sweep
point then takes the index subset of its modes, rank-filters that subset on
its own sparse Gram block, stored by the band, and densifies only the
block it factors.  An entry of a sparse Gram product depends only on its
own two columns, so every point solves, bit for bit, the system that a
build of just its columns would give.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided

from .decomposition import Decomposition
from .dg_forms import DGAssembler, subdomain_dofs
from .errors import CoercivityError, SolverError
from .local_problems import RESIDUAL_TOL, scaled_residual, select_coarse
from .mesh import TriMesh
from .space_ops import PartitionOfUnity, interpolate_product, pou_blend

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

_RANK_DROP_RTOL = 1e-10


class GlobalForms:
    """Global matrices and load vector of one problem, each assembled on first use."""

    def __init__(self, asm: DGAssembler, f):
        self.asm = asm
        self.f = f

    @cached_property
    def B(self):
        return self.asm.matrix(None, "B")

    @cached_property
    def H(self):
        return self.asm.matrix(None, "H")

    @cached_property
    def Bplus(self):
        return self.asm.matrix(None, "Bplus")

    @cached_property
    def mass(self):
        return self.asm.matrix(None, "mass")

    @cached_property
    def F(self) -> np.ndarray:
        return self.asm.load(self.f)


@dataclass
class CoarseSpace:
    """Blended coarse columns with their Galerkin data, and one selection of them.

    ``basis`` has one fine-dof column per assembled local mode, ordered by
    subdomain j and then mode k; ``offsets`` holds the (j, k) of each column.
    ``gram_B`` and ``gram_H`` are the sparse (CSR) column Gram matrices in
    the full and in the positive form, nonzero only between columns of
    overlapping subdomains, and ``rhs`` pairs the columns with the residual
    of the particular part.  The selection is the modes k < n_j[j]:
    ``columns`` are its columns that pass the rank filter, ``dropped`` names
    the others.
    """

    basis: sp.csc_matrix
    offsets: np.ndarray           # (n_columns, 2): subdomain j, local mode k
    gram_B: sp.csr_matrix
    gram_H: sp.csr_matrix
    rhs: np.ndarray
    n_j: np.ndarray               # selected modes per subdomain (before drops)
    columns: np.ndarray
    dropped: list

    @property
    def n_total(self) -> int:
        return self.columns.size

    def select(self, n_j) -> CoarseSpace:
        """The sub-selection of modes k < n_j[j], rank-filtered on its own Gram block."""
        n_j = np.asarray(n_j, dtype=np.int64)
        if np.array_equal(n_j, self.n_j):
            return self
        if np.any(n_j > self.n_j):
            raise ValueError("selection exceeds the assembled modes")
        j, k = self.offsets.T
        columns, dropped = _rank_filter(self.gram_H, np.flatnonzero(k < n_j[j]),
                                        self.offsets)
        return replace(self, n_j=n_j, columns=columns, dropped=dropped)


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

    Builds one column per mode each subdomain kept and reduces the columns
    to their Galerkin data in the forms ``B`` (with load ``F``) and ``H``.
    Returns the coarse space and the global particular vector.  Columns that
    are numerically dependent on earlier ones in the ``H`` inner product are
    dropped and recorded; this only triggers when eigenvalue clusters
    concentrate on overlaps.
    """
    n_sel = np.array([data.modes.shape[1] for data in locals_], dtype=np.int64)
    ndof = 3 * mesh.n_elements
    u_p = pou_blend(mesh, decomp, pou, [d.particular for d in locals_])

    rows, cols, vals, offsets = [], [], [], []
    for data in locals_:
        omega = decomp.omega(data.j)
        # row k is mode k weighted by the partition of unity
        blended = interpolate_product(mesh, pou.values[data.j], data.modes.T, omega)
        k, r = np.nonzero(blended)
        rows.append(subdomain_dofs(omega)[r])
        cols.append(len(offsets) + k)
        vals.append(blended[k, r])
        offsets += [(data.j, i) for i in range(blended.shape[0])]
    col = len(offsets)
    basis = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(ndof, col)).tocsc()
    offsets = np.array(offsets, dtype=np.int64).reshape(col, 2)

    G = basis.T @ (B @ basis)
    gram_B = (G + G.T) * 0.5
    del G
    gram_H = basis.T @ (H @ basis)
    columns, dropped = _rank_filter(gram_H, np.arange(col), offsets)
    coarse = CoarseSpace(basis=basis, offsets=offsets, gram_B=gram_B,
                         gram_H=gram_H, rhs=basis.T @ (F - B @ u_p), n_j=n_sel,
                         columns=columns, dropped=dropped)
    return coarse, u_p


def _rank_filter(gram_H: sp.csr_matrix, sel: np.ndarray, offsets: np.ndarray):
    """Columns of ``sel`` independent in the Gram matrix; warns on drops.

    Returns the kept columns and the (j, k) offsets of the dropped ones.
    """
    kept = sel[_independent_columns(gram_H[np.ix_(sel, sel)])]
    dropped = [(int(j), int(k)) for j, k in offsets[np.setdiff1d(sel, kept)]]
    if dropped:
        warnings.warn(f"dropped {len(dropped)} dependent coarse columns",
                      stacklevel=3)
    return kept, dropped


def _independent_columns(G: sp.csr_matrix) -> np.ndarray:
    """Indices of the columns a Cholesky-style elimination of ``G`` keeps.

    Column x is dropped when its residual diagonal (the squared norm of its
    part orthogonal to the kept columns before it) is at most
    ``(_RANK_DROP_RTOL * sqrt(G[x, x]))**2``.  The elimination is
    left-looking: row x of the factor is one vectorized reduction that
    subtracts the earlier pivot rows' contributions in pivot order, which
    repeats the floating-point operations of the right-looking row-by-row
    update.  Pivot rows above the first nonzero of column x contribute exact
    zeros and are skipped, so the work follows the profile of ``G``; columns
    of subdomains that do not overlap are orthogonal.  The profile rows of
    ``G`` and of the factor are stored by their offset from the diagonal, so
    each array is n × (band width), and skewed strided views hand the
    reduction the operands of the full rows without copying them.
    """
    n = G.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    norms0 = np.sqrt(np.maximum(G.diagonal(), 0.0))
    index = np.arange(n)
    upper = sp.triu(G, format="coo")
    nz = upper.data != 0.0
    r, c = upper.row[nz], upper.col[nz]
    first = index.copy()
    np.minimum.at(first, c, r)
    # row x of the factor vanishes beyond the last column whose profile starts by x
    reach = np.zeros(n, dtype=np.int64)
    np.maximum.at(reach, first, index)
    reach = np.maximum.accumulate(reach) + 1
    # full-row entry (i, c) sits at [i, c - i]; width >= 2 keeps the skew stride > 0
    w = max(int((reach - first).max()), 2)
    Gb, U, S = np.zeros((3, n, w))   # G; factor rows (zero when dropped); over their pivot
    Gb[r, c - r] = upper.data[nz]
    u_flat = U.reshape(-1)
    terms = np.empty((int((index - first).max(initial=0)) + 1,
                      int((reach - index).max(initial=0))))
    keep = []
    for x in range(n):
        lo, hi = first[x], reach[x]
        t = terms[:x - lo + 1, :hi - x]
        t[0] = Gb[x, :hi - x]
        u = u_flat[lo * (w - 1) + x:x * (w - 1) + x:w - 1]          # U[lo:x, x]
        s = as_strided(S[lo, x - lo:], shape=(x - lo, hi - x),      # S[lo:x, x:hi]
                       strides=((w - 1) * S.itemsize, S.itemsize))
        np.multiply(u[:, None], s, out=t[1:])
        row = np.subtract.reduce(t, axis=0)
        d = row[0]
        if d <= (_RANK_DROP_RTOL * norms0[x]) ** 2 or norms0[x] == 0.0:
            continue
        keep.append(x)
        U[x, :hi - x] = row
        S[x, 1:hi - x] = row[1:] / d
    return np.array(keep, dtype=np.int64)


def solve_coarse(coarse: CoarseSpace, n_j):
    """Galerkin correction on one selection against the source residual.

    ``n_j`` picks the sweep point, the modes k < n_j[j] of the assembled
    space.  Returns the point's coarse space and the correction in fine dofs.
    """
    space = coarse.select(n_j)
    cols = space.columns
    if cols.size == 0:
        return space, np.zeros(space.basis.shape[0])
    G = space.gram_B[np.ix_(cols, cols)]
    rhs = space.rhs[cols]
    try:
        cf = la.cho_factor(G.toarray(order="F"), overwrite_a=True)
    except la.LinAlgError as exc:
        raise CoercivityError(
            "reduced coarse system is not positive definite; the penalty "
            "parameter is too small for this mesh") from exc
    y = la.cho_solve(cf, rhs)
    res = scaled_residual(G, y, rhs)
    if res > RESIDUAL_TOL:
        raise SolverError(f"coarse solve residual {res:.3e} exceeds tolerance")
    return space, np.asarray(space.basis[:, cols] @ y).ravel()


@dataclass
class ErrorReport:
    bplus_error: float
    l2_error: float
    rel_bplus_error: float
    rel_l2_error: float
    max_sqrt_lambda_next: float


def error_report(forms: GlobalForms, u_G: np.ndarray, u_fine: np.ndarray,
                 max_sqrt_lambda_next: float = float("nan")) -> ErrorReport:
    """Jump-energy and volume errors of the multiscale solution vs the fine one.

    The two norm matrices of ``forms`` are assembled once for every report
    that shares it.
    """
    Bp = forms.Bplus
    Mv = forms.mass
    diff = u_G - u_fine

    def norm(mat, v):
        return float(np.sqrt(max(float(v @ (mat @ v)), 0.0)))

    eb = norm(Bp, diff)
    el = norm(Mv, diff)
    rb = norm(Bp, u_fine)
    rl = norm(Mv, u_fine)
    return ErrorReport(
        bplus_error=eb, l2_error=el,
        rel_bplus_error=eb / rb if rb > 0 else eb,
        rel_l2_error=el / rl if rl > 0 else el,
        max_sqrt_lambda_next=max_sqrt_lambda_next,
    )


def max_sqrt_lambda_next(locals_: list, coarse: CoarseSpace) -> float:
    """Largest next-eigenvalue root over the subdomains, the error surrogate."""
    worst = 0.0
    for data, n_j in zip(locals_, coarse.n_j):
        if n_j < data.n_modes:
            lam = data.eigenvalues[n_j]
            worst = max(worst, float(np.sqrt(lam)) if np.isfinite(lam) else np.inf)
    return worst


def solve_msgfem(mesh: TriMesh, decomp: Decomposition, pou: PartitionOfUnity,
                 locals_: list, forms: GlobalForms, rules) -> list:
    """Assemble the coarse space once and solve it at every sweep point.

    ``rules`` is a list of ``("fixed", n)`` rules or a single rule of any
    kind.  The columns are assembled from the modes ``locals_`` kept, and
    every point is solved on its subset of them; a point that asks for more
    modes than a subdomain kept raises.  Returns one solution per rule.
    """
    coarse, u_p = assemble_coarse(mesh, decomp, pou, locals_, forms.B, forms.F, forms.H)
    solutions = []
    for rule in rules:
        space, u_s = solve_coarse(coarse, [select_coarse(d, rule) for d in locals_])
        solutions.append(MSGFEMSolution(
            u_p=u_p, u_s=u_s, coarse=space,
            max_sqrt_lambda_next=max_sqrt_lambda_next(locals_, space)))
    return solutions
