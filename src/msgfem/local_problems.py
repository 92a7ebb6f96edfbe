"""Per-subdomain solves: the masked local system, then the spectral coarse modes.

Everything here happens on one oversampling domain at a time and is
independent across subdomains, so the driver can fan the work out to a
thread pool without changing any result.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .decomposition import Decomposition
from .dg_forms import DGAssembler, nested_dofs
from .errors import ConfigError, SolverError
from .mesh import TriMesh
from .space_ops import PartitionOfUnity, h0_dofs, restrict

__all__ = [
    "LocalSpectralData",
    "MaskedSystem",
    "particular_solution",
    "eigenproblem",
    "select_coarse",
    "compute_local_data",
    "symmetric_part",
]

RESIDUAL_TOL = 1e-10
_KERNEL_RTOL = 1e-10    # right-form eigenvalues up to this share of the largest span its kernel
_RESIDUAL_BLOCK = 128   # columns per residual evaluation, so no full-width copy is made


@dataclass
class LocalSpectralData:
    """Everything the global stage needs from one subdomain.

    ``eigenvalues`` lists every mode, sorted descending, with kernel modes
    reported as ``inf`` and listed first.  ``modes`` holds the selected
    leading modes alone, one dof column on ``omega_j`` per mode; the local
    approximation space is ``particular`` plus their span.
    """

    j: int
    particular: np.ndarray      # dof vector on omega_j
    eigenvalues: np.ndarray
    modes: np.ndarray           # (ndof(omega_j), n_kept)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def scaled_residual(A, x, b) -> float:
    """Backward-error style residual ``|Ax-b| / (|b| + |A| |x|)``.

    Relative to the right-hand side alone the double-precision floor grows
    with the condition number, which high-contrast coefficients reach; the
    scaled form stays near machine precision for any healthy solve.  ``A``
    is a dense array or a sparse matrix.  Matrix right-hand sides are
    measured column by column, a block of columns at a time, and the worst
    is returned.
    """
    a_inf = float(abs(A).sum(axis=1).max())
    x = x.reshape(x.shape[0], -1)
    b = b.reshape(b.shape[0], -1)
    worst = 0.0
    for s in range(0, x.shape[1], _RESIDUAL_BLOCK):
        xs, bs = x[:, s:s + _RESIDUAL_BLOCK], b[:, s:s + _RESIDUAL_BLOCK]
        num = np.linalg.norm(A @ xs - bs, axis=0)
        den = np.linalg.norm(bs, axis=0) + a_inf * np.linalg.norm(xs, axis=0)
        worst = max(worst, float(np.max(np.divide(num, den, out=np.zeros_like(num),
                                                  where=den > 0), initial=0.0)))
    return worst


def solve_checked(solve, A, b, name: str):
    """``solve(b)`` (an LU, Cholesky or dense solve), then the scaled-residual contract.

    A healthy direct solve meets the scaled residual at roundoff whatever the
    contrast.  Raises :class:`SolverError` naming the ``name`` solve when it
    exceeds the tolerance, column by column, or when ``solve`` breaks down.
    """
    if np.linalg.norm(b) == 0.0:
        return np.zeros_like(b)
    try:
        x = solve(b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{name} broke down: {exc}") from exc
    res = scaled_residual(A, x, b)
    if res > RESIDUAL_TOL:
        raise SolverError(f"{name} residual {res:.3e} exceeds tolerance")
    return x


class MaskedSystem:
    """The form on one oversampling domain, split at its contact layer.

    The masked (free) dofs impose the zero contact-layer values and the weak
    outer-boundary condition; their block is assembled and factored once.
    """

    def __init__(self, asm: DGAssembler, omega_star):
        self.free = h0_dofs(asm.mesh, omega_star)
        self.layer = np.setdiff1d(np.arange(3 * len(omega_star)), self.free,
                                  assume_unique=True)
        A = asm.matrix(omega_star, "B").tocsc()
        self.Aff = A[np.ix_(self.free, self.free)].tocsc()
        self.Afl = A[np.ix_(self.free, self.layer)]
        try:
            self.lu = spla.splu(self.Aff)
        except RuntimeError as exc:
            raise SolverError(
                "local system is singular; check the face convention or the "
                "penalty parameter") from exc

    def harmonic_extension(self, layer_values=None) -> np.ndarray:
        """Discrete harmonic extensions of layer data, one row per layer dof.

        Each column keeps its layer data and solves the masked dofs so that
        its form residual vanishes against every masked dof.  ``None`` stands
        for unit data, one column per layer dof: the harmonic basis, bit for
        bit the extension of ``np.eye(n_layer)``, with no identity formed.
        Beside the result at most one other dense block of its width is
        live: the right-hand side is freed before the result is allocated.
        """
        if layer_values is None:
            rhs = self.Afl.toarray(order="F")   # the bits of Afl @ I
        else:
            rhs = np.asfortranarray(self.Afl @ layer_values)
        np.negative(rhs, out=rhs)
        x = solve_checked(self.lu.solve, self.Aff, rhs, "local harmonic basis")
        del rhs
        U = np.zeros((self.free.size + self.layer.size, x.shape[1]))
        U[self.free] = x
        if layer_values is None:
            U[self.layer, np.arange(self.layer.size)] = 1.0
        else:
            U[self.layer] = layer_values
        return U


def particular_solution(asm: DGAssembler, f, omega, omega_star):
    """Local source solution and harmonic basis of one oversampling domain.

    Both are solved on one :class:`MaskedSystem`.  Returns
    ``(particular, basis)``: ``basis`` holds the harmonic extensions of unit
    data, one column per layer dof, and so spans the locally harmonic space;
    ``particular`` is the masked solution for the source ``f``, cut down to
    the overlap subdomain ``omega``.
    """
    system = MaskedSystem(asm, omega_star)
    basis = system.harmonic_extension()
    psi = np.zeros(basis.shape[0])
    psi[system.free] = solve_checked(system.lu.solve, system.Aff,
                                     asm.load(f, omega_star)[system.free], "local source")
    return restrict(psi, omega_star, omega), basis


def symmetric_part(X):
    """``0.5 * (X + X.T)`` of a dense or sparse ``X``, bit for bit, with one temporary fewer."""
    S = X + X.T
    S *= 0.5
    return S


def eigenproblem(asm: DGAssembler, pou: PartitionOfUnity, j: int, omega, omega_star,
                 basis: np.ndarray):
    """Spectral problem selecting the locally optimal coarse directions.

    Left form: energy of the weight-interpolated restriction to the overlap
    subdomain.  Right form: energy on the oversampling domain.  Both are
    congruence images of the positive form, hence symmetric PSD; kernel
    directions of the right form (the constants, on interior subdomains)
    come out as leading infinite eigenvalues.  ``basis`` is the harmonic
    basis of ``omega_star``.

    The kernel of the right form is split off first; the finite spectrum is
    computed on the complement that is orthogonal to the kernel in the left
    inner product, which makes the raw residual ``A x - lambda M x`` vanish
    and reproduces the true pencil eigenvalues.  Beside ``basis`` the widest
    temporaries are its product with the right form's matrix, then the
    weighted restriction to ``omega`` and its product; each layer x layer
    pencil matrix is freed once consumed.
    """
    if basis.shape[1] == 0:
        return np.empty(0), np.empty((0, 0))
    # the right form first: its product with the basis is the widest temporary
    M = symmetric_part(basis.T @ (asm.matrix(omega_star, "Bplus") @ basis))
    W = basis[nested_dofs(omega, omega_star), :]
    W *= pou.dof_weights(asm.mesh, j, omega)[:, None]
    A = symmetric_part(W.T @ (asm.matrix(omega, "Bplus") @ W))
    del W
    s, Q = la.eigh(M)
    scale = max(float(s[-1]), 0.0)
    kern = s <= _KERNEL_RTOL * scale if scale > 0 else np.ones_like(s, dtype=bool)
    K = Q[:, kern]
    W = Q[:, ~kern]     # the complement, made A-orthogonal to the kernel below
    del Q
    n_inf = K.shape[1]
    if W.shape[1] == 0:
        return np.full(n_inf, np.inf), K
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
    return np.maximum(values, 0.0), vectors


def select_coarse(data: LocalSpectralData, rule) -> int:
    """Number of leading modes chosen by a ``("fixed", n)`` or ``("threshold", tau)`` rule.

    Kernel modes (``inf``) always count first; a fixed count beyond the
    available modes is a configuration error that names the subdomain.
    """
    kind, value = rule
    if kind == "fixed":
        n = int(value)
        if n < 0 or n > data.n_modes:
            raise ConfigError(f"requested {n} coarse modes, but subdomain "
                              f"{data.j} has only {data.n_modes}")
        return n
    if kind == "threshold":
        return int(np.sum(np.sqrt(np.maximum(data.eigenvalues, 0.0)) >= float(value)))
    raise ValueError(f"unknown coarse selection rule {kind!r}")


def compute_local_data(mesh: TriMesh, asm: DGAssembler, f, decomp: Decomposition,
                       pou: PartitionOfUnity, rules, threads: int = 1) -> list:
    """Run all per-subdomain stages; results are ordered by subdomain index.

    ``asm`` is the run's assembler on ``mesh``, so one set of block tables
    serves every subdomain.  ``rules`` is the run's sweep, as
    :func:`msgfem.gfem.solve_msgfem` takes it.  Each subdomain keeps every
    eigenvalue and, on its overlap subdomain, as many leading modes as the
    sweep's rules select at most (:func:`select_coarse`); the dense basis
    and pencil vectors it computed them from are dropped when its worker
    returns.
    """
    if asm.mesh is not mesh:
        raise ValueError("the assembler is built on another mesh")

    def one(j: int) -> LocalSpectralData:
        omega = decomp.omega(j)
        omega_star = decomp.omega_star(j)
        up, basis = particular_solution(asm, f, omega, omega_star)
        values, vectors = eigenproblem(asm, pou, j, omega, omega_star, basis)
        data = LocalSpectralData(j=j, particular=up, eigenvalues=values,
                                 modes=np.empty((up.size, 0)))
        data.modes = np.empty((up.size, max(select_coarse(data, r) for r in rules)))
        idx = nested_dofs(omega, omega_star)
        # one full matrix-vector product per mode: a matrix product, or a product
        # on a subset of the rows, may round differently
        for k in range(data.modes.shape[1]):
            data.modes[:, k] = (basis @ vectors[:, k])[idx]
        return data

    if threads <= 1:
        # a pool worker allocates from its own malloc arena, whose freed blocks the
        # later stages cannot reuse: a one-worker pool costs +7.4 MB peak RSS on
        # coarse-32x8 and +6.5 MB on local-40x4 (medians of 3 benchmark runs)
        return [one(j) for j in range(decomp.n_subdomains)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(decomp.n_subdomains)))

