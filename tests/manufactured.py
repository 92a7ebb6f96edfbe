"""Manufactured-solution refinement study of the fine discretization.

The unit-coefficient problem ``-Laplace u = 2 pi^2 sin(pi x) sin(pi y)`` with
exact solution ``sin(pi x) sin(pi y)``, solved on a sequence of structured
meshes.  Errors are measured by a degree-5 quadrature rule, independently of
the degree-4 rule the load vector uses.  Imported by the tests that check
the observed convergence rates.
"""
import numpy as np

from msgfem.dg_forms import DGAssembler, GlobalForms
from msgfem.mesh import build_structured_mesh, coefficient_field
from msgfem.verification import fine_solve

# barycentric points and unit weights of a seven-point rule exact to degree 5
QUAD5_POINTS = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [0.059715871789770, 0.470142064105115, 0.470142064105115],
    [0.470142064105115, 0.059715871789770, 0.470142064105115],
    [0.470142064105115, 0.470142064105115, 0.059715871789770],
    [0.797426985353087, 0.101286507323456, 0.101286507323456],
    [0.101286507323456, 0.797426985353087, 0.101286507323456],
    [0.101286507323456, 0.101286507323456, 0.797426985353087],
])
QUAD5_WEIGHTS = np.array([0.225] + [0.132394152788506] * 3 + [0.125939180544827] * 3)


def sin_exact(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def sin_rhs(x, y):
    return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def sin_grad(x, y):
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def element_diameters(mesh) -> np.ndarray:
    """Longest edge of each element."""
    corners = mesh.vertices[mesh.elements]
    return np.linalg.norm(corners - np.roll(corners, 1, axis=1), axis=2).max(axis=1)


def quadrature_points(mesh):
    """Physical coordinates of the degree-5 points, per element: (e, q, 2)."""
    return np.einsum("qa,ead->eqd", QUAD5_POINTS, mesh.vertices[mesh.elements])


def jump_seminorm_sq(asm: DGAssembler, u: np.ndarray) -> float:
    """Squared jump seminorm: ``u^T Bplus u`` minus ``sum_e nu_e area_e |grad u_e|^2``."""
    mesh = asm.mesh
    grad = np.einsum("ei,eid->ed", u.reshape(-1, 3), mesh.grads)
    volume = float((asm.coefficient.values * mesh.areas) @ (grad ** 2).sum(axis=1))
    return float(u @ (asm.matrix(None, "Bplus") @ u)) - volume


def l2_error_vs_function(mesh, u: np.ndarray, g) -> float:
    """Quadrature error between a dof vector and a smooth function."""
    pts = quadrature_points(mesh)
    uh = np.einsum("ei,qi->eq", u.reshape(-1, 3), QUAD5_POINTS)
    diff = uh - g(pts[..., 0], pts[..., 1])
    val = np.einsum("eq,q->e", diff ** 2, QUAD5_WEIGHTS) @ mesh.areas
    return float(np.sqrt(max(val, 0.0)))


def energy_error_vs_function(asm: DGAssembler, u: np.ndarray, grad_g) -> float:
    """Jump-energy error against a smooth function vanishing on the boundary.

    The volume part compares broken gradients by quadrature; since the target
    is continuous and zero on the outer boundary, all face terms reduce to the
    jump seminorm of the dof vector itself.
    """
    mesh = asm.mesh
    pts = quadrature_points(mesh)
    grad_h = np.einsum("ei,eid->ed", u.reshape(-1, 3), mesh.grads)
    gx, gy = grad_g(pts[..., 0], pts[..., 1])
    dx = grad_h[:, 0, None] - gx
    dy = grad_h[:, 1, None] - gy
    vol = np.einsum("eq,q->e", dx ** 2 + dy ** 2, QUAD5_WEIGHTS) * asm.coefficient.values
    val = float(vol @ mesh.areas) + jump_seminorm_sq(asm, u)
    return float(np.sqrt(max(val, 0.0)))


def rates(h, errors) -> list:
    """Observed convergence orders between consecutive meshes."""
    return [float(np.log(errors[i] / errors[i + 1]) / np.log(h[i] / h[i + 1]))
            for i in range(len(errors) - 1)]


def manufactured_convergence(mesh_sizes, gamma0: float) -> tuple:
    """Refinement study for the unit-coefficient sine problem.

    Returns the mesh sizes and the observed L2 and energy rates.
    """
    hs, l2s, ens = [], [], []
    for n in mesh_sizes:
        mesh = build_structured_mesh(n)
        forms = GlobalForms(DGAssembler(mesh, coefficient_field(mesh, "constant:1"),
                                        gamma0), sin_rhs)
        u = fine_solve(forms)
        hs.append(element_diameters(mesh).max())
        l2s.append(l2_error_vs_function(mesh, u, sin_exact))
        ens.append(energy_error_vs_function(forms.asm, u, sin_grad))
    return hs, rates(hs, l2s), rates(hs, ens)
