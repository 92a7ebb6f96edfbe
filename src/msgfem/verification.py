"""Independent oracles and the runnable property suite.

The checks here deliberately avoid the multiscale pipeline: the reference
solution is a direct global solve, and every identity is evaluated through
two separate assemblies.  Each invariant the suite samples is one function
of explicit inputs (the operator identities on a nested pair, the kernel
dichotomy of ``Bplus``, blend reproduction, the centred block pair of the
interior-energy bound), so other callers check the same invariant on their
own sets and draws.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .decomposition import d_minus, d_plus, square_block
from .dg_forms import DGAssembler, nested_dofs, subdomain_dofs
from .errors import SolverError
from .gfem import GlobalForms
from .local_problems import MaskedSystem, solve_checked, symmetric_part
from .mesh import TriMesh
from .space_ops import extend_by_zero, h0_dofs, pou_blend, restrict

__all__ = [
    "fine_solve",
    "decay_fit",
    "operator_identities",
    "kernel_dichotomy",
    "harmonicity_defect",
    "blend_deviation",
    "centred_blocks",
    "coercivity_block",
    "caccioppoli_ratios",
    "CheckResult",
    "SuiteReport",
    "run_property_suite",
]


def fine_solve(forms: GlobalForms) -> np.ndarray:
    """Direct solve of the global discrete problem; the reference solution.

    ``B`` is symmetric, so the factor orders its columns by minimum degree on
    the pattern of ``B + Bᵀ``, which fills far less than the default COLAMD.
    """
    B = forms.B.tocsc()
    try:
        lu = spla.splu(B, permc_spec="MMD_AT_PLUS_A")
        return solve_checked(lu.solve, B, forms.F, "global")
    except RuntimeError as exc:   # a singular factor or a failed residual check
        raise SolverError(
            f"global solve broke down ({exc}); the penalty parameter may be "
            "below the coercive range of this mesh family") from exc


# -- decay fits ----------------------------------------------------------------

def decay_fit(ns, values, exponent: float):
    """Least-squares fit of ``log(values)`` against ``ns**exponent``.

    Returns ``(slope, intercept, r_squared)``; refuses fewer than five values.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 5:
        raise ValueError(f"need at least 5 values for a decay fit, got {v.size}")
    if np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise ValueError("decay fit requires positive finite values")
    x = np.asarray(ns, dtype=float) ** exponent
    y = np.log(v)
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
    mesh = asm.mesh
    H_D = asm.matrix(D, "H")
    H_Ds = asm.matrix(D_star, "H")
    B_D = asm.matrix(D, "B")
    B_Ds = asm.matrix(D_star, "B")
    free = h0_dofs(mesh, D)
    iso_err = loc_err = 0.0
    re_ok = nonexp_ok = True
    for _ in range(n_vectors):
        v = np.zeros(3 * D.size)
        v[free] = rng.standard_normal(free.size)
        ev = extend_by_zero(mesh, v, D, D_star)
        n1 = float(v @ (H_D @ v))
        n2 = float(ev @ (H_Ds @ ev))
        iso_err = max(iso_err, abs(n1 - n2) / n1)
        re_ok = re_ok and np.array_equal(restrict(ev, D_star, D), v)
        u = rng.standard_normal(3 * D_star.size)
        ur = restrict(u, D_star, D)
        nonexp_ok = nonexp_ok and float(ur @ (H_D @ ur)) <= float(u @ (H_Ds @ u)) * (1 + 1e-12)
        # the masked vector kills every face term only one of the forms has
        a = float(v @ (B_D @ ur))
        b = float(ev @ (B_Ds @ u))
        scale = max(abs(a), abs(b), np.sqrt(float(u @ (H_Ds @ u)) * n1))
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

    A column's defect is ``|(B u)[free]|_inf`` over the masked dofs of ``D``.
    Returns ``(ok, worst)``: every defect within ``1e-10`` of the column's
    ``H`` norm, and the largest defect-to-norm ratio.
    """
    resid = np.abs((asm.matrix(D, "B") @ U)[h0_dofs(asm.mesh, D), :]).max(axis=0)
    norms = np.sqrt(np.einsum("if,if->f", U, asm.matrix(D, "H") @ U))
    return bool(np.all(resid <= 1e-10 * norms)), float((resid / norms).max())


def blend_deviation(mesh: TriMesh, decomp, pou, rng: np.random.Generator,
                    n_vectors: int) -> float:
    """Largest relative max-norm error of blending the restrictions of random vectors."""
    dev = 0.0
    for _ in range(n_vectors):
        u = rng.standard_normal(3 * mesh.n_elements)
        locals_ = [u[subdomain_dofs(decomp.omega(j))] for j in range(decomp.n_subdomains)]
        w = pou_blend(mesh, decomp, pou, locals_)
        dev = max(dev, float(np.abs(w - u).max() / np.abs(u).max()))
    return dev


def centred_blocks(mesh: TriMesh):
    """The centred half-width block and its core inside a ring of ``5 max(n/32, 1)`` cells.

    Returns ``(core, block)``, or ``None`` when the core would be narrower
    than two cells (every ``n < 24``).
    """
    n = mesh.structured_n
    s = n // 2
    lo = (n - s) // 2
    ring = 5 * max(n // 32, 1)
    if s - 2 * ring < 2:
        return None
    return (square_block(mesh, lo + ring, lo + s - ring, lo + ring, lo + s - ring),
            square_block(mesh, lo, lo + s, lo, lo + s))


def coercivity_block(mesh: TriMesh, coefficient, s: int) -> np.ndarray:
    """The ``s x s`` cell block on the bottom or left edge with the largest coefficient jump.

    Candidates are the corner block, then the blocks along the bottom edge,
    then those along the left edge; the first with the largest max/min
    coefficient ratio wins, so a constant coefficient keeps the corner.
    Returns the block's elements.
    """
    shifts = range(1, mesh.structured_n - s + 1)
    origins = [(0, 0)] + [(i, 0) for i in shifts] + [(0, i) for i in shifts]
    blocks = [square_block(mesh, x, x + s, y, y + s) for x, y in origins]
    ratios = [coefficient.values[b].max() / coefficient.values[b].min() for b in blocks]
    return blocks[int(np.argmax(ratios))]


# -- Caccioppoli sampling ------------------------------------------------------

def annulus_distance(mesh: TriMesh, omega, omega_star) -> float:
    """Distance from the inner block to the inner boundary of the outer one."""
    omega = np.asarray(omega, dtype=np.int64)
    omega_star = np.asarray(omega_star, dtype=np.int64)
    outside = np.setdiff1d(np.arange(mesh.n_elements, dtype=np.int64), omega_star,
                           assume_unique=True)
    if outside.size == 0:
        return float("inf")
    vout = np.intersect1d(np.unique(mesh.elements[omega_star].ravel()),
                          np.unique(mesh.elements[outside].ravel()))
    vin = np.unique(mesh.elements[omega].ravel())
    d2 = ((mesh.vertices[vin][:, None, :] - mesh.vertices[vout][None, :, :]) ** 2).sum(-1)
    return float(np.sqrt(d2.min()))


def caccioppoli_ratios(asm: DGAssembler, omega, omega_star, n_samples: int,
                       seed: int):
    """Interior-energy over annulus-mass ratios of random harmonic samples.

    Samples are harmonic extensions of random layer data, solved as one
    block.  Returns the ratio array and the separation distance; the mesh
    condition (separation larger than three annulus element diameters) is
    enforced.
    """
    mesh = asm.mesh
    omega = np.asarray(omega, dtype=np.int64)
    omega_star = np.asarray(omega_star, dtype=np.int64)
    delta = annulus_distance(mesh, omega, omega_star)
    annulus = np.setdiff1d(omega_star, omega, assume_unique=True)
    touching = d_plus(mesh, annulus)
    if delta <= 3.0 * mesh.h_T[touching].max():
        raise ValueError("separation too small for the interior energy bound")
    system = MaskedSystem(asm, omega_star)
    if system.layer.size == 0:
        raise ValueError("oversampling domain has no harmonic layer")
    rng = np.random.Generator(np.random.PCG64(seed))
    U = system.harmonic_extension(rng.standard_normal((n_samples, system.layer.size)).T)

    def norms(D, kind):
        u = U[nested_dofs(D, omega_star)]
        return np.sqrt(np.maximum(np.einsum("is,is->s", u, asm.matrix(D, kind) @ u), 0.0))

    num, den = norms(omega, "Bplus"), norms(annulus, "mass")
    nu_max = float(asm.coefficient.values[omega_star].max())
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num * delta / (np.sqrt(nu_max) * den), np.inf), delta


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
    checks, harmonicity of sampled local extensions, the interior-energy
    bound, dense positivity checks, and a dense coercivity probe.  Every
    check reads the run's own forms: the probe takes the smallest eigenvalue
    of the symmetric part of ``B`` on the block of ``s x s`` cells,
    ``s = min(n, 12)``, that :func:`coercivity_block` picks, which is the
    whole mesh when ``n <= 12``.
    ``problem`` carries the config, mesh, coefficient, decomposition,
    partition of unity and global forms of the run.  Returns a
    deterministic, JSON-serializable report.
    """
    checks = []
    t0 = time.time()
    config = problem.config
    mesh = problem.mesh
    coef = problem.coefficient
    decomp = problem.decomp
    pou = problem.pou
    asm = problem.forms.asm

    def record(name, ok, witness, skip=False):
        status = "skip" if skip else ("pass" if ok else "fail")
        clean = {k: float(v) if isinstance(v, (float, np.floating)) else v
                 for k, v in witness.items()}
        checks.append(CheckResult(name=name, status=status, witness=clean))

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
    dp = d_plus(mesh, sample)
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
        support_ok = not np.any(pou.values[j][mesh.elements[~inner]])
        for name, ok in (("decomposition.nesting", np.all(np.isin(omega, omega_star))),
                         ("dg_forms.kernel_characterization",
                          kernel_dichotomy(asm, omega_star)[0]),
                         ("space_ops.pou_support", support_ok)):
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
    sums = pou.values.sum(axis=0)
    record("space_ops.pou_sum_to_one", float(np.abs(sums - 1.0).max()) <= 1e-14,
           {"max_dev": float(np.abs(sums - 1.0).max())})
    blend_dev = blend_deviation(mesh, decomp, pou,
                                np.random.Generator(np.random.PCG64(config.seed + 2)), 5)
    record("space_ops.blend_reproduction", blend_dev <= 1e-12, {})
    record_first_fail("space_ops.pou_support")
    in_range = bool(np.all(pou.values >= 0.0) and np.all(pou.values <= 1.0 + 1e-15))
    record("space_ops.pou_range", in_range, {})

    # harmonicity of the extensions of unit data on a spread of layer dofs
    Ds = decomp.omega_star(j_mid)
    system = MaskedSystem(asm, Ds)
    if system.layer.size:
        unit = np.zeros((system.layer.size, 20))
        unit[np.linspace(0, system.layer.size - 1, 20).astype(np.int64), np.arange(20)] = 1.0
        ok, worst = harmonicity_defect(asm, Ds, system.harmonic_extension(unit))
        record("local.harmonicity", ok, {"max_resid": worst})
    else:
        record("local.harmonicity", True, {}, skip=True)

    # interior-energy bound for harmonic samples
    blocks = centred_blocks(mesh)
    if blocks is None:
        record("local.interior_energy_bound", True, {}, skip=True)
    else:
        ratios, delta = caccioppoli_ratios(asm, *blocks, 20, config.seed + 3)
        record("local.interior_energy_bound", bool(np.all(np.isfinite(ratios))),
               {"max_ratio": float(ratios.max()), "delta": delta})

    # dense definiteness on blocks of cells; S is exactly symmetric (Bplus and H are
    # their own), so its Fortran-ordered view S.T is S and LAPACK needs no copy
    def min_eig(block, kind):
        S = symmetric_part(asm.matrix(block, kind).toarray())
        return float(la.eigvalsh(S.T, overwrite_a=True)[0])

    n = mesh.structured_n
    corner = square_block(mesh, 0, min(n, 4), 0, min(n, 4))
    ev_bp = min_eig(corner, "Bplus")
    record("dg_forms.bplus_psd", ev_bp >= -1e-12 * coef.nu_max, {"min_eig": ev_bp})
    ev_h = min_eig(corner, "H")
    record("dg_forms.h_positive", ev_h > 0.0, {"min_eig": ev_h})
    s = min(n, 12)
    ev_b = min_eig(coercivity_block(mesh, coef, s), "B")
    record("dg_forms.coercivity", ev_b > 0.0, {"min_eig": ev_b, "probe_cells": s})

    report = SuiteReport(checks=checks)
    report.elapsed = time.time() - t0
    return report
