"""Per-subdomain solves: the masked local system, then the spectral coarse modes.

Everything here happens on one oversampling domain at a time and is
independent across subdomains, so the driver can fan the work out to a
thread pool without changing any result, and can hand one subdomain's
results to another whose local problem has the same bytes.
"""
from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomposition import Decomposition
from .dg_forms import GlobalForms, nested_dofs, subdomain_dofs
from .errors import ConfigError, SolverError
from .mesh import TriMesh
from .space_ops import h0_dofs

__all__ = [
    "LocalSpectralData",
    "MaskedSystem",
    "particular_solution",
    "eigenproblem",
    "select_coarse",
    "check_fixed_counts",
    "compute_local_data",
    "symmetric_part",
]

RESIDUAL_TOL = 1e-10
_KERNEL_RTOL = 1e-10    # right-form eigenvalues up to this share of the largest span its kernel
_RESIDUAL_BLOCK = 128   # columns per residual evaluation, so no full-width copy is made


@dataclass
class LocalSpectralData:
    """Everything the global stage needs from one subdomain.

    ``dofs`` are the global dofs of ``omega_j``; ``eigenvalues`` lists every
    mode, sorted descending with the kernel's ``inf`` first; ``counts`` holds
    the leading modes each sweep rule selects and ``modes`` the most of them,
    one column per mode.  ``modes`` and ``particular`` come multiplied by the
    weight chi_j, so u_G sums ``particular`` and combinations of ``modes``.
    """

    dofs: np.ndarray            # global dofs of omega_j
    particular: np.ndarray      # chi_j times the local source solution, on omega_j
    eigenvalues: np.ndarray
    modes: np.ndarray           # (ndof(omega_j), max(counts)), chi_j times the modes
    counts: tuple               # leading modes each sweep rule selects


def scaled_residual(A, x, b) -> float:
    """Backward-error style residual ``|Ax-b| / (|b| + |A| |x|)``.

    Relative to the right-hand side alone the double-precision floor grows
    with the condition number, which high-contrast coefficients reach; the
    scaled form stays near machine precision for any healthy solve.  ``A``
    is a dense array or a sparse matrix.  Matrix right-hand sides are
    measured column by column, a block of columns at a time, and the worst
    is returned.  A non-finite ``x``, or an overflow, gives a NaN ratio,
    which counts as infinite.
    """
    a_inf = float(abs(A).sum(axis=1).max())
    x = x.reshape(x.shape[0], -1)
    b = b.reshape(b.shape[0], -1)
    worst = 0.0
    for s in range(0, x.shape[1], _RESIDUAL_BLOCK):
        xs, bs = x[:, s:s + _RESIDUAL_BLOCK], b[:, s:s + _RESIDUAL_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):
            num = np.linalg.norm(A @ xs - bs, axis=0)
            den = np.linalg.norm(bs, axis=0) + a_inf * np.linalg.norm(xs, axis=0)
            ratio = np.divide(num, den, out=np.zeros_like(num), where=den != 0)  # NaN den: NaN
        worst = max(worst, float(np.max(np.where(np.isnan(ratio), np.inf, ratio), initial=0.0)))
    return worst


def solve_checked(solve, A, b, name: str):
    """``solve(b)`` (an LU, Cholesky or dense solve), then the scaled-residual contract.

    Every right-hand side is solved and checked, a zero one included.  A
    healthy direct solve meets the scaled residual at roundoff whatever the
    contrast.  Raises :class:`SolverError` naming the ``name`` solve when it
    exceeds the tolerance, column by column, or when ``solve`` breaks down,
    an ill-conditioning warning raised as an error included.
    """
    try:
        x = solve(b)
    except (np.linalg.LinAlgError, la.LinAlgWarning) as exc:
        raise SolverError(f"{name} broke down: {exc}") from exc
    res = scaled_residual(A, x, b)
    if res > RESIDUAL_TOL:
        raise SolverError(f"{name} residual {res:.3e} exceeds tolerance")
    return x


class MaskedSystem:
    """The form on one oversampling domain, split at its contact layer.

    The masked (free) dofs impose the zero contact-layer values and the weak
    outer-boundary condition.  Every face of a masked dof's element lies in
    ``omega_star`` under the face convention, so the masked rows of the
    local form and load are rows of the global ``B`` and ``F``: both blocks
    are sliced out of ``forms.B`` at ``rows``, the masked dofs' global
    numbers, bit for bit the blocks a local assembly gives, and ``load`` out
    of ``forms.F``.  The masked block is factored on the first use of
    ``lu``, and ``Bplus``, the positive form on ``omega_star`` that the
    eigenproblem poses its pencil on, is assembled on its first use and
    dropped by :func:`eigenproblem` once its pencil is formed; so the slices
    can be read before anything is factored, and each is built once.
    """

    def __init__(self, forms: GlobalForms, omega_star):
        self._asm = forms.asm
        self.omega_star = omega_star
        self.free = h0_dofs(forms.asm.mesh, omega_star)
        self.layer = np.setdiff1d(np.arange(3 * len(omega_star)), self.free,
                                  assume_unique=True)
        dofs = subdomain_dofs(omega_star)
        self.rows = dofs[self.free]
        masked = forms.B[self.rows]
        self.Aff = masked[:, self.rows].tocsc()
        self.Afl = masked[:, dofs[self.layer]]
        self.load = forms.F[self.rows]

    @cached_property
    def lu(self):
        try:
            return spla.splu(self.Aff)
        except RuntimeError as exc:
            raise SolverError(
                "local system is singular; check the face convention or the "
                "penalty parameter") from exc

    @cached_property
    def Bplus(self):
        return self._asm.matrix(self.omega_star, "Bplus")

    def harmonic_extension(self, columns=None) -> np.ndarray:
        """Discrete harmonic extensions of unit layer data, one column per given layer dof.

        ``columns`` indexes ``layer``; ``None`` stands for every layer dof, which
        gives the harmonic basis.  Column ``k`` is one at layer dof
        ``layer[columns[k]]`` and zero at every other layer dof, and its
        masked dofs are solved so that its form residual vanishes against
        every masked dof.  A layer dof may be named more than once.  Beside
        the result at most one other dense block of its width is live: the
        right-hand side is freed before the result is allocated.
        """
        cols = (np.arange(self.layer.size) if columns is None
                else np.asarray(columns, dtype=np.int64))
        rhs = self.Afl[:, cols].toarray(order="F")   # the bits of Afl @ (unit data)
        np.negative(rhs, out=rhs)
        x = solve_checked(self.lu.solve, self.Aff, rhs, "local harmonic basis")
        del rhs
        U = np.zeros((self.free.size + self.layer.size, cols.size))
        U[self.free] = x
        U[self.layer[cols], np.arange(cols.size)] = 1.0
        return U


def particular_solution(omega, omega_star, system: MaskedSystem) -> np.ndarray:
    """Local source solution of one oversampling domain, cut down to the overlap subdomain.

    ``system`` is the :class:`MaskedSystem` of ``omega_star``, factored here
    on first use; the masked solution for its ``load`` is returned on
    ``omega``.
    """
    psi = np.zeros(3 * len(omega_star))
    psi[system.free] = solve_checked(system.lu.solve, system.Aff, system.load, "local source")
    return psi[nested_dofs(omega, omega_star)]


def symmetric_part(X):
    """``0.5 * (X + X.T)`` of a dense or sparse ``X``, bit for bit, with one temporary fewer."""
    S = X + X.T
    S *= 0.5
    return S


def eigenproblem(w: np.ndarray, omega, omega_star, system: MaskedSystem, rules):
    """Spectral problem of one subdomain selecting the locally optimal coarse directions.

    Right form: energy on the oversampling domain, ``system.Bplus`` on ``omega_star``.
    Left form: energy of the restriction scaled by ``w``, the weight at every
    dof of ``omega`` (an entry of :func:`~msgfem.space_ops.build_pou`),
    on that matrix's ``omega`` block: it differs from ``Bplus`` on ``omega``
    only at elements with a face leaving ``omega``, where ``w`` is zero.  Both
    are congruence images of the positive form, hence symmetric PSD; kernel
    directions of the right form (the constants, on interior subdomains) come
    out as leading infinite eigenvalues.  The pencil is posed on the harmonic
    basis of ``omega_star``, built here on the factored ``system``.  Returns
    every eigenvalue, sorted descending with the kernel's ``inf`` first, on
    ``omega`` the most leading modes any of the ``rules`` keeps, unweighted,
    and the tuple of the counts the rules select (:func:`select_coarse`); a
    fixed count is at most the mode count (:func:`check_fixed_counts`).

    The kernel of the right form is split off first; the finite spectrum is
    computed on the complement that is orthogonal to the kernel in the left
    inner product, which makes the raw residual ``A x - lambda M x`` vanish
    and reproduces the true pencil eigenvalues.  Beside the basis the widest
    temporaries are its product with the right form's matrix, then the
    weighted restriction to ``omega`` and its product; each layer x layer
    pencil matrix is freed once consumed.
    """
    basis = system.harmonic_extension()
    idx = nested_dofs(omega, omega_star)
    values, vectors = np.empty(0), np.empty((0, 0))
    if basis.shape[1]:
        # the right form first: its product with the basis is the widest temporary
        M = symmetric_part(basis.T @ (system.Bplus @ basis))
        W = basis[idx, :]
        W *= w[:, None]
        A = symmetric_part(W.T @ (system.Bplus[idx][:, idx] @ W))
        del W, system.Bplus   # consumed: a worker of the pool holds it no longer
        s, Q = la.eigh(M)
        # s[-1] > 0: a basis column is nonconstant on the layer element of its unit dof
        kern = s <= _KERNEL_RTOL * s[-1]
        K = Q[:, kern]
        W = Q[:, ~kern]     # the complement, made A-orthogonal to the kernel below
        del Q
        n_inf = K.shape[1]
        if n_inf:
            AK = A @ K
            G = K.T @ AK
            W -= K @ solve_checked(lambda b: la.solve(G, b, assume_a="pos"), G,
                                   AK.T @ W, "kernel Gram")
        T = W.T @ A
        del A
        Ar = symmetric_part(T @ W)
        del T
        T = W.T @ M
        del M
        Mr = symmetric_part(T @ W)
        del T
        # Ar and Mr are exactly symmetric, so their Fortran-ordered views are
        # themselves and LAPACK works on them without a copy
        lam, Y = la.eigh(Ar.T, Mr.T, overwrite_a=True, overwrite_b=True)
        del Ar, Mr
        WY = W @ Y
        del W, Y
        values = np.concatenate([np.full(n_inf, np.inf), lam[::-1]])
        vectors = np.concatenate([K, WY[:, ::-1]], axis=1)
        if np.any(values < -RESIDUAL_TOL):
            raise SolverError("negative eigenvalue beyond tolerance; assembly bug")
        # roundoff guard: the pencil is PSD so tiny negatives are noise
        values = np.maximum(values, 0.0)
    counts = tuple(select_coarse(values, r) for r in rules)
    modes = np.empty((idx.size, max(counts)))
    # one full matrix-vector product per mode keeps mode k independent of how
    # many modes are kept: a matrix product rounds with its column count
    for k in range(modes.shape[1]):
        modes[:, k] = (basis @ vectors[:, k])[idx]
    return values, modes, counts


def select_coarse(eigenvalues: np.ndarray, rule) -> int:
    """Leading modes a ``("fixed", n)`` or ``("threshold", tau)`` rule selects, ``inf`` first."""
    kind, value = rule
    if kind == "fixed":
        return int(value)
    if kind == "threshold":
        return int(np.sum(np.sqrt(np.maximum(eigenvalues, 0.0)) >= float(value)))
    raise ValueError(f"unknown coarse selection rule {kind!r}")


def check_fixed_counts(mesh: TriMesh, decomp: Decomposition, rules) -> None:
    """Reject a negative fixed count of ``rules``, or one above a subdomain's mode count.

    A subdomain has one mode per layer dof of its oversampling domain, which
    the geometry gives before any solve; the error names the largest fixed
    count and the first subdomain short of it, in index order.
    """
    fixed = [int(value) for kind, value in rules if kind == "fixed"]
    if not fixed:
        return
    if min(fixed) < 0:
        raise ConfigError(f"fixed mode count must be >= 0, got {min(fixed)}")
    n = max(fixed)
    for j in range(decomp.n_subdomains):
        omega_star = decomp.omega_star(j)
        n_modes = 3 * omega_star.size - h0_dofs(mesh, omega_star).size
        if n > n_modes:
            raise ConfigError(f"requested {n} coarse modes, but subdomain {j} has only {n_modes}")


def _digest(*arrays) -> bytes:
    """32-byte blake2b digest of the dtype, shape and bytes of every array.

    A sparse array enters with its format and shape, then its data, indices
    and index pointers, each as a dense array.
    """
    h = hashlib.blake2b(digest_size=32)
    for a in arrays:
        parts = (a,)
        if sp.issparse(a):
            h.update(f"{a.format}{a.shape}".encode())
            parts = (a.data, a.indices, a.indptr)
        for p in parts:
            h.update(f"{p.dtype.str}{p.shape}".encode())
            h.update(np.ascontiguousarray(p))
    return h.digest()


def compute_local_data(mesh: TriMesh, forms: GlobalForms, decomp: Decomposition,
                       pou: list, rules, threads: int = 1) -> list:
    """Run all per-subdomain stages; results are ordered by subdomain index.

    ``forms`` holds the run's assembler on ``mesh``, whose block tables
    serve every subdomain, and the global ``B`` and load, whose masked rows
    are every subdomain's system and source; the workers only read them, as
    all three are built with ``forms``.  ``rules`` is the run's sweep, its
    fixed counts checked first (:func:`check_fixed_counts`).  Each subdomain
    keeps its overlap subdomain's global dofs, every eigenvalue, the count
    each rule selects (:func:`select_coarse`) and as many leading modes as
    the largest.  Its worker reads its weight once, poses the eigenproblem
    with it and hands over the particular solution and modes times it; the
    factored system, basis and pencil vectors are dropped when it returns.

    Each distinct local problem is solved once.  Before it factors, a worker
    builds its weight, its :class:`MaskedSystem` slices and, with a contact
    layer, its ``Bplus``, and digests every array its solves read
    (:func:`_digest`).  The first subdomain with a digest solves; a later
    one takes that record's particular solution, eigenvalues, modes and
    counts (the same arrays) and keeps its own dofs.  Equal bytes give
    equal results, so every record is byte-identical to its own solve.  The
    mesh geometry is exact on the vertex lattice and scaled from it, so with
    a constant or cell-aligned periodic coefficient translated subdomains
    pose one problem on every ``mesh_n``: 25 of the 64 at (32, 8) and 9 of
    the 16 at (40, 4) with ``constant:1``.  Where the coefficient is drawn
    at random (``log_uniform``), every problem is distinct.  On the pool a worker
    publishes a future for its digest before it solves, and a duplicate
    waits on it; a failed solve raises its error in every waiter.
    """
    if forms.asm.mesh is not mesh:
        raise ValueError("the assembler is built on another mesh")
    check_fixed_counts(mesh, decomp, rules)
    solved: dict = {}    # digest -> Future of (particular, eigenvalues, modes, counts)
    lock = threading.Lock()

    def one(j: int) -> LocalSpectralData:
        omega = decomp.omega(j)
        omega_star = decomp.omega_star(j)
        w = pou[j]
        system = MaskedSystem(forms, omega_star)
        # the right form is read only by a pencil, which needs a contact layer
        key = _digest(system.free, nested_dofs(omega, omega_star), w, system.load,
                      system.Aff, system.Afl, *([system.Bplus] if system.layer.size else []))
        with lock:
            result = solved.get(key)
            first = result is None
            if first:
                result = solved[key] = Future()
        if first:
            try:
                up = particular_solution(omega, omega_star, system)
                values, modes, counts = eigenproblem(w, omega, omega_star, system, rules)
                result.set_result((w * up, values, w[:, None] * modes, counts))
            except BaseException as exc:    # raised below, here and in every waiter
                result.set_exception(exc)
        del system
        particular, values, modes, counts = result.result()
        return LocalSpectralData(dofs=subdomain_dofs(omega), particular=particular,
                                 eigenvalues=values, modes=modes, counts=counts)

    if threads <= 1:
        # a pool worker allocates from its own malloc arena, whose freed blocks the
        # later stages cannot reuse: a one-worker pool costs +7.4 MB peak RSS on
        # coarse-32x8 and +6.5 MB on local-40x4 (medians of 3 benchmark runs)
        return [one(j) for j in range(decomp.n_subdomains)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(decomp.n_subdomains)))
