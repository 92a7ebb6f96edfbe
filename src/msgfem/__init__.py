"""Multiscale spectral GFEM for weighted interior-penalty DG discretizations."""

from .config import RunConfig, parse_config, serialize_config
from .decomposition import Decomposition, build_decomposition, d_minus, grow, square_block
from .dg_forms import DGAssembler
from .errors import ConfigError, SolverError
from .gfem import (CoarseSpace, GlobalForms, MSGFEMSolution, assemble_coarse,
                   error_report, solve_coarse, solve_msgfem)
from .local_problems import (LocalSpectralData, compute_local_data,
                             eigenproblem, particular_solution, select_coarse)
from .mesh import Coefficient, TriMesh, build_structured_mesh, coefficient_field
from .space_ops import PartitionOfUnity, build_pou, h0_dofs, pou_blend
from .verification import decay_fit, fine_solve, run_property_suite

__version__ = "0.1.0"
