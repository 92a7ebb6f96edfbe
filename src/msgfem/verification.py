"""Independent oracles and the runnable property suite.

The checks here deliberately avoid the multiscale pipeline: the reference
solution is a direct global solve, and every identity is evaluated through
two separate assemblies.  Each invariant the suite samples is one function
of explicit inputs (the operator identities on a nested pair, the kernel
dichotomy of ``Bplus``, the harmonicity defect, blend reproduction), so
other callers check the same invariant on their own sets and draws.  The
suite keeps no tolerance of its own for a solve: harmonicity is the scaled
residual contract that every solve of the run carries.  Definiteness has one
test, :func:`_spd_factor`: on the global ``B``, on the masked blocks of ``B``,
and on the corner block of ``Bplus`` and ``H``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .decomposition import d_minus, grow, square_block
from .dg_forms import DGAssembler, GlobalForms, nested_dofs, subdomain_dofs
from .errors import SolverError
from .local_problems import RESIDUAL_TOL, MaskedSystem, scaled_residual, solve_checked
from .mesh import TriMesh
from .space_ops import h0_dofs

__all__ = [
    "fine_solve",
    "decay_fit",
    "operator_identities",
    "kernel_dichotomy",
    "harmonicity_defect",
    "blend_deviation",
    "CheckResult",
    "SuiteReport",
    "run_property_suite",
]


def _spd_factor(A):
    """The factor that certifies the symmetric ``A`` positive definite, or ``None``.

    Rows and columns share one minimum-degree order on ``A + Aᵀ`` and every diagonal
    pivot is taken, so all are positive exactly when ``A`` is (Sylvester's criterion).
    A factor that SuperLU finds exactly singular has a zero pivot, so it is ``None`` too.
    """
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                       options=dict(SymmetricMode=True))
    except RuntimeError:   # "Factor is exactly singular"
        return None
    ok = np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0)
    return lu if ok else None


def fine_solve(forms: GlobalForms) -> np.ndarray:
    """Direct solve of the global discrete problem; the reference solution.

    It solves on :func:`_spd_factor`, so every run certifies its ``B`` coercive, as the
    error bound needs: a ``B`` that is not raises :class:`SolverError` naming
    ``gamma0_sq``.  A certified factor's solve carries the residual contract of
    :func:`~msgfem.local_problems.solve_checked`, which names the ``global`` solve.
    """
    lu = _spd_factor(forms.B)
    if lu is None:
        raise SolverError("global form is not positive definite at gamma0_sq = "
                          f"{forms.asm.gamma0 ** 2:.12g}; the penalty is below its coercive range")
    return solve_checked(lu.solve, forms.B, forms.F, "global")


# -- decay fits ----------------------------------------------------------------

def decay_fit(ns, values):
    """Least-squares fit of ``log(values)`` against ``ns**0.5``, the paper's rate.

    Only the points with a positive finite value are fitted.  Returns
    ``(slope, intercept, r_squared)``, or three nans when fewer than five
    distinct ``ns`` remain.
    """
    v = np.asarray(values, dtype=float)
    good = np.isfinite(v) & (v > 0)
    x = np.asarray(ns, dtype=float)[good]
    if np.unique(x).size < 5:
        return float("nan"), float("nan"), float("nan")
    x = x ** 0.5
    y = np.log(v[good])
    A = np.stack([x, np.ones_like(x)], axis=1)
    coeffs, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = coeffs
    resid = y - A @ coeffs
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    floor = 1e-20 * max(1.0, float(y @ y))
    if ss_tot <= floor:
        r2 = 1.0 if ss_res <= floor else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# -- sampled invariants -----------------------------------------------------------

def operator_identities(asm: DGAssembler, D, D_star, rng: np.random.Generator,
                        n_vectors: int) -> tuple:
    """The zero-extension and restriction identities on a nested pair ``D`` in ``D_star``.

    Each of ``n_vectors`` rounds draws a masked vector ``v`` on ``D`` and then
    a vector ``u`` on ``D_star`` from ``rng``.  Returns ``(isometry_err,
    restrict_extend_exact, nonexpansive, locality_err)``: the largest relative
    ``H`` norm change under zero-extension, whether restriction undoes it
    exactly, whether restriction never grows the ``H`` norm, and the largest
    relative change of ``B(v, u)`` between the two sets.
    """
    idx = nested_dofs(D, D_star)
    H_D = asm.matrix(D, "H")
    H_Ds = asm.matrix(D_star, "H")
    B_D = asm.matrix(D, "B")
    B_Ds = asm.matrix(D_star, "B")
    free = h0_dofs(asm.mesh, D)
    iso_err = loc_err = 0.0
    re_ok = nonexp_ok = True
    for _ in range(n_vectors):
        v = np.zeros(3 * D.size)
        v[free] = rng.standard_normal(free.size)
        ev = np.zeros(3 * D_star.size)
        ev[idx] = v
        n1 = float(v @ (H_D @ v))
        n2 = float(ev @ (H_Ds @ ev))
        iso_err = max(iso_err, abs(n1 - n2) / n1)
        re_ok = re_ok and np.array_equal(ev[idx], v)
        u = rng.standard_normal(3 * D_star.size)
        ur = u[idx]
        nonexp_ok = nonexp_ok and float(ur @ (H_D @ ur)) <= float(u @ (H_Ds @ u)) * (1 + 1e-12)
        # the masked vector kills every face term only one of the forms has
        a = float(v @ (B_D @ ur))
        b = float(ev @ (B_Ds @ u))
        scale = max(abs(a), abs(b), math.sqrt(float(u @ (H_Ds @ u)) * n1))
        loc_err = max(loc_err, abs(a - b) / scale)
    return iso_err, bool(re_ok), bool(nonexp_ok), loc_err


def kernel_dichotomy(asm: DGAssembler, D) -> tuple:
    """``Bplus`` on ``D`` kills the constants exactly when ``D`` has no boundary face.

    Returns ``(ok, defect)``.  On a set with no boundary face ``defect`` is
    ``|Bplus 1|_inf`` and must stay within ``1e-12 nu_max``; on a set with one
    it is ``None`` and ``1^T Bplus 1`` must be positive.
    """
    Bp = asm.matrix(D, "Bplus")
    ones = np.ones(3 * np.asarray(D).size)
    if np.any(np.isin(asm.mesh.bface_elem, D)):
        return float(ones @ (Bp @ ones)) > 0.0, None
    defect = float(np.abs(Bp @ ones).max())
    return defect <= 1e-12 * asm.coefficient.nu_max, defect


def harmonicity_defect(asm: DGAssembler, D, U: np.ndarray) -> tuple:
    """Whether the dof columns ``U`` on ``D`` are discretely harmonic there.

    Each column must solve the masked rows of ``B`` on ``D`` against a zero
    right-hand side to the contract of every solve of the run: its
    :func:`~msgfem.local_problems.scaled_residual` is within ``RESIDUAL_TOL``.
    Returns ``(ok, worst)``, ``worst`` the largest scaled residual.
    """
    free = h0_dofs(asm.mesh, D)
    zero = np.broadcast_to(0.0, (free.size,) + U.shape[1:])
    worst = scaled_residual(asm.matrix(D, "B")[free], U, zero)
    return worst <= RESIDUAL_TOL, worst


def blend_deviation(mesh: TriMesh, decomp, pou, rng: np.random.Generator,
                    n_vectors: int) -> float:
    """Largest relative max-norm error of the weighted sum of random vectors' restrictions."""
    dev = 0.0
    for _ in range(n_vectors):
        u = rng.standard_normal(3 * mesh.n_elements)
        w = np.zeros_like(u)
        for j in range(decomp.n_subdomains):
            dofs = subdomain_dofs(decomp.omega(j))
            w[dofs] += pou[j] * u[dofs]
        dev = max(dev, float(np.abs(w - u).max() / np.abs(u).max()))
    return dev


# -- the property suite --------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    status: str            # pass | fail | skip
    witness: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    checks: list
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "all_pass": self.ok,
            "checks": [
                {"name": c.name, "status": c.status, "witness": c.witness}
                for c in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{c.status.upper():4s}] {c.name} {c.witness}")
        verdict = "all checks passed" if self.ok else "FAILURES present"
        lines.append(f"result: {verdict} ({self.elapsed:.1f}s)")
        return "\n".join(lines) + "\n"


def run_property_suite(problem) -> SuiteReport:
    """Structural invariants of every stage, on the problem of one run.

    Runs mesh bookkeeping, hull and cover checks, operator identities on a
    nested subdomain pair, kernel characterization, partition-of-unity
    checks, harmonicity of sampled local extensions, definiteness of
    ``Bplus`` and ``H`` on a corner block, and coercivity.  Every definiteness
    check is :func:`_spd_factor`: on the corner block, whose boundary faces
    make ``Bplus`` definite there as ``H`` is, and on each subdomain's masked
    block of ``B``, the block its local solves factor; coercivity names the
    first subdomain that fails it.
    ``problem`` carries the config, decomposition, partition of unity and
    global forms of the run, whose assembler holds the mesh and coefficient.
    Returns a deterministic, JSON-serializable report.
    """
    checks = []
    t0 = time.time()
    config = problem.config
    decomp, pou, asm = problem.decomp, problem.pou, problem.forms.asm
    mesh = asm.mesh

    def record(name, ok, witness, skip=False):
        status = "skip" if skip else ("pass" if ok else "fail")
        checks.append(CheckResult(name=name, status=status, witness=witness))

    # mesh bookkeeping
    nE = mesh.n_elements
    nV = mesh.n_vertices
    nI = mesh.n_interior_faces
    nB = mesh.n_boundary_faces
    euler = nV - (nI + nB) + (nE + 1)
    area = float(mesh.areas.sum())
    record("mesh.euler_formula", euler == 2, {"V-E+F": euler})
    record("mesh.face_identity", 2 * nI + nB == 3 * nE,
           {"interior": nI, "boundary": nB, "elements": nE})
    record("mesh.unit_area", abs(area - 1.0) <= 1e-12, {"area": area})

    # decomposition hulls and cover
    sample = square_block(mesh, 1, min(3, mesh.structured_n),
                          1, min(3, mesh.structured_n))
    dm = d_minus(mesh, sample)
    dp = grow(mesh, sample, 1)
    hulls_ok = (np.all(np.isin(dm, sample)) and np.all(np.isin(sample, dp))
                and np.all(np.isin(dm, d_minus(mesh, dp))))
    record("decomposition.hulls", hulls_ok, {"sample_size": int(sample.size)})
    # one pass over the subdomains; a failing check names its first subdomain
    first_fail = {}
    covered = np.zeros(nE, dtype=bool)
    for j in range(decomp.n_subdomains):
        omega, omega_star = decomp.omega(j), decomp.omega_star(j)
        inner = np.zeros(nE, dtype=bool)
        inner[d_minus(mesh, omega)] = True
        covered |= inner
        support_ok = not np.any(pou[j][np.repeat(~inner[omega], 3)])
        rows = subdomain_dofs(omega_star)[h0_dofs(mesh, omega_star)]
        coercive = _spd_factor(problem.forms.B[rows][:, rows]) is not None
        for name, ok in (("decomposition.nesting", np.all(np.isin(omega, omega_star))),
                         ("dg_forms.kernel_characterization",
                          kernel_dichotomy(asm, omega_star)[0]),
                         ("space_ops.pou_support", support_ok),
                         ("dg_forms.coercivity", coercive)):
            if not ok:
                first_fail.setdefault(name, j)

    def record_first_fail(name):
        j = first_fail.get(name)
        record(name, j is None, {} if j is None else {"subdomain": j})

    record_first_fail("decomposition.nesting")
    record("decomposition.shrunk_cover", bool(covered.all()),
           {"uncovered": int((~covered).sum())})

    # operator identities on a nested pair
    j_mid = decomp.n_subdomains // 2
    iso_err, re_ok, nonexp_ok, loc_err = operator_identities(
        asm, decomp.omega(j_mid), decomp.omega_star(j_mid),
        np.random.Generator(np.random.PCG64(config.seed + 1)), 20)
    record("space_ops.extension_isometry", iso_err <= 1e-12, {"max_rel_err": iso_err})
    record("space_ops.restrict_extend_identity", re_ok, {})
    record("space_ops.restriction_nonexpansive", nonexp_ok, {})
    record("space_ops.locality_identity", loc_err <= 1e-12, {"max_rel_err": loc_err})

    record_first_fail("dg_forms.kernel_characterization")

    # partition of unity
    sums = np.zeros(3 * nE)
    for j in range(decomp.n_subdomains):
        sums[subdomain_dofs(decomp.omega(j))] += pou[j]
    record("space_ops.pou_sum_to_one", float(np.abs(sums - 1.0).max()) <= 1e-14,
           {"max_dev": float(np.abs(sums - 1.0).max())})
    blend_dev = blend_deviation(mesh, decomp, pou,
                                np.random.Generator(np.random.PCG64(config.seed + 2)), 5)
    record("space_ops.blend_reproduction", blend_dev <= 1e-12, {})
    record_first_fail("space_ops.pou_support")
    in_range = all(np.all(w >= 0.0) and np.all(w <= 1.0 + 1e-15) for w in pou)
    record("space_ops.pou_range", in_range, {})

    # harmonicity of the extensions of unit data on a spread of layer dofs
    Ds = decomp.omega_star(j_mid)
    system = MaskedSystem(problem.forms, Ds)
    if system.layer.size:
        spread = np.linspace(0, system.layer.size - 1, 20).astype(np.int64)
        ok, worst = harmonicity_defect(asm, Ds, system.harmonic_extension(spread))
        record("local.harmonicity", ok, {"max_resid": worst})
    else:
        record("local.harmonicity", True, {}, skip=True)

    # definiteness on a corner block, which has boundary faces
    n = mesh.structured_n
    corner = square_block(mesh, 0, min(n, 4), 0, min(n, 4))
    for name, kind in (("dg_forms.bplus_psd", "Bplus"), ("dg_forms.h_positive", "H")):
        record(name, _spd_factor(asm.matrix(corner, kind)) is not None, {})
    record_first_fail("dg_forms.coercivity")
    return SuiteReport(checks=checks, elapsed=time.time() - t0)
