"""Caccioppoli-type sampling of the interior-energy bound for harmonic functions.

A discretely harmonic function on an oversampling block controls its energy
on an inner block by its mass on the annulus between them, scaled by the
separation (Babuška & Lipton, *Multiscale Model. Simul.* 9, 2011).  The
sampler draws random layer data, extends it harmonically and returns the
scaled ratios.  Imported by the tests that assert the bound's constant.
"""
import numpy as np

from manufactured import element_diameters
from msgfem.decomposition import grow, square_block
from msgfem.dg_forms import GlobalForms, nested_dofs
from msgfem.local_problems import MaskedSystem, solve_checked
from msgfem.mesh import TriMesh


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


def caccioppoli_ratios(forms: GlobalForms, omega, omega_star, n_samples: int,
                       seed: int):
    """Interior-energy over annulus-mass ratios of random harmonic samples.

    Samples are harmonic extensions of random layer data, solved as one
    block on the masked system's factor through the checked solve.  Returns
    the ratio array and the separation distance; the mesh condition
    (separation larger than three annulus element diameters) is enforced.
    """
    asm = forms.asm
    mesh = asm.mesh
    omega = np.asarray(omega, dtype=np.int64)
    omega_star = np.asarray(omega_star, dtype=np.int64)
    delta = annulus_distance(mesh, omega, omega_star)
    annulus = np.setdiff1d(omega_star, omega, assume_unique=True)
    touching = grow(mesh, annulus, 1)
    if delta <= 3.0 * element_diameters(mesh)[touching].max():
        raise ValueError("separation too small for the interior energy bound")
    system = MaskedSystem(forms, omega_star)
    if system.layer.size == 0:
        raise ValueError("oversampling domain has no harmonic layer")
    rng = np.random.Generator(np.random.PCG64(seed))
    data = rng.standard_normal((n_samples, system.layer.size)).T
    U = np.zeros((system.free.size + system.layer.size, n_samples))
    U[system.free] = solve_checked(system.lu.solve, system.Aff,
                                   np.asfortranarray(-(system.Afl @ data)), "harmonic samples")
    U[system.layer] = data

    def norms(D, kind):
        u = U[nested_dofs(D, omega_star)]
        return np.sqrt(np.maximum(np.einsum("is,is->s", u, asm.matrix(D, kind) @ u), 0.0))

    num, den = norms(omega, "Bplus"), norms(annulus, "mass")
    nu_max = float(asm.coefficient.values[omega_star].max())
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num * delta / (np.sqrt(nu_max) * den), np.inf), delta
