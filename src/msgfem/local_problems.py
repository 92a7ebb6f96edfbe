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
    "export_eigenvalues",
]

RESIDUAL_TOL = 1e-10
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


def solve_checked(lu, A, b, name: str):
    """One LU solve, then the scaled-residual contract, column by column.

    A healthy direct solve meets the scaled residual at roundoff whatever the
    contrast.  Raises :class:`SolverError` naming the ``name`` solve when it
    exceeds the tolerance.
    """
    if np.linalg.norm(b) == 0.0:
        return np.zeros_like(b)
    x = lu.solve(b)
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

    def harmonic_extension(self, layer_values: np.ndarray) -> np.ndarray:
        """Discrete harmonic extensions of layer data, one row per layer dof.

        Each column keeps its layer data and solves the masked dofs so that
        its form residual vanishes against every masked dof.
        """
        rhs = np.asfortranarray(self.Afl @ layer_values)
        np.negative(rhs, out=rhs)
        x = solve_checked(self.lu, self.Aff, rhs, "local harmonic basis")
        del rhs
        U = np.zeros((self.free.size + self.layer.size, layer_values.shape[1]))
        U[self.layer] = layer_values
        U[self.free] = x
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
    basis = system.harmonic_extension(np.eye(system.layer.size))
    psi = np.zeros(basis.shape[0])
    psi[system.free] = solve_checked(system.lu, system.Aff,
                                     asm.load(f, omega_star)[system.free], "local source")
    return restrict(psi, omega_star, omega), basis


def _deflated_pencil(A: np.ndarray, M: np.ndarray, kernel_rtol: float = 1e-10):
    """Eigenpairs of a symmetric PSD pencil whose right matrix may be singular.

    The kernel of ``M`` is split off first (those directions are the
    infinite modes); the finite spectrum is computed on the complement that
    is orthogonal to the kernel in the ``A`` inner product, which makes the
    raw residual ``A x - lambda M x`` vanish and reproduces the true pencil
    eigenvalues.
    """
    n = A.shape[0]
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    s, Q = la.eigh(M)
    scale = max(float(s[-1]), 0.0)
    kern = s <= kernel_rtol * scale if scale > 0 else np.ones_like(s, dtype=bool)
    K = Q[:, kern]
    P = Q[:, ~kern]
    sp = s[~kern]
    n_inf = K.shape[1]
    if P.shape[1] == 0:
        return np.full(n_inf, np.inf), K
    if n_inf:
        AK = A @ K
        G = K.T @ AK
        W = P - K @ la.solve(G, AK.T @ P, assume_a="pos")
    else:
        W = P
    Ar = W.T @ A @ W
    Ar = 0.5 * (Ar + Ar.T)
    Mr = W.T @ M @ W
    Mr = 0.5 * (Mr + Mr.T)
    lam, Y = la.eigh(Ar, Mr)
    lam = lam[::-1]
    vecs = (W @ Y)[:, ::-1]
    values = np.concatenate([np.full(n_inf, np.inf), lam])
    vectors = np.concatenate([K, vecs], axis=1)
    return values, vectors


def eigenproblem(asm: DGAssembler, pou: PartitionOfUnity, j: int, omega, omega_star,
                 basis: np.ndarray):
    """Spectral problem selecting the locally optimal coarse directions.

    Left form: energy of the weight-interpolated restriction to the overlap
    subdomain.  Right form: energy on the oversampling domain.  Both are
    congruence images of the positive form, hence symmetric PSD; kernel
    directions of the right form (the constants, on interior subdomains)
    come out as leading infinite eigenvalues.  ``basis`` is the harmonic
    basis of ``omega_star``.
    """
    idx = nested_dofs(omega, omega_star)
    chi_dof = pou.values[j][asm.mesh.elements[np.asarray(omega, dtype=np.int64)]].ravel()
    W = basis[idx, :]
    W *= chi_dof[:, None]
    A = W.T @ (asm.matrix(omega, "Bplus") @ W)
    del W
    A = 0.5 * (A + A.T)
    M = basis.T @ (asm.matrix(omega_star, "Bplus") @ basis)
    M = 0.5 * (M + M.T)
    values, vectors = _deflated_pencil(A, M)
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


def _largest_rule(rules: list):
    """The rule of a sweep that selects the most modes on every subdomain."""
    if all(kind == "fixed" for kind, _ in rules):
        return ("fixed", max(n for _, n in rules))
    if len(rules) == 1:
        return rules[0]
    raise ValueError("a sweep is a list of fixed rules or a single rule")


def compute_local_data(mesh: TriMesh, asm: DGAssembler, f, decomp: Decomposition,
                       pou: PartitionOfUnity, rules, threads: int = 1) -> list:
    """Run all per-subdomain stages; results are ordered by subdomain index.

    ``asm`` is the run's assembler on ``mesh``, so one set of block tables
    serves every subdomain.  ``rules`` is the run's sweep, as
    :func:`msgfem.gfem.solve_msgfem` takes it.  Each subdomain keeps every
    eigenvalue and the modes of the sweep's largest rule on its overlap
    subdomain; the dense basis and pencil vectors it computed them from are
    dropped when its worker returns.
    """
    if asm.mesh is not mesh:
        raise ValueError("the assembler is built on another mesh")
    rule = _largest_rule(list(rules))

    def one(j: int) -> LocalSpectralData:
        omega = decomp.omega(j)
        omega_star = decomp.omega_star(j)
        up, basis = particular_solution(asm, f, omega, omega_star)
        values, vectors = eigenproblem(asm, pou, j, omega, omega_star, basis)
        data = LocalSpectralData(j=j, particular=up, eigenvalues=values,
                                 modes=np.empty((up.size, 0)))
        data.modes = np.empty((up.size, select_coarse(data, rule)))
        idx = nested_dofs(omega, omega_star)
        # one full matrix-vector product per mode: a matrix product, or a product
        # on a subset of the rows, may round differently
        for k in range(data.modes.shape[1]):
            data.modes[:, k] = (basis @ vectors[:, k])[idx]
        return data

    if threads <= 1:
        return [one(j) for j in range(decomp.n_subdomains)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(decomp.n_subdomains)))


def export_eigenvalues(locals_: list) -> str:
    """CSV rows ``j,k,lambda,is_infinite`` over all subdomains and modes."""
    lines = ["j,k,lambda,is_infinite"]
    for data in locals_:
        for k, lam in enumerate(data.eigenvalues):
            if np.isinf(lam):
                lines.append(f"{data.j},{k},inf,1")
            else:
                lines.append(f"{data.j},{k},{float(lam)!r},0")
    return "\n".join(lines) + "\n"
