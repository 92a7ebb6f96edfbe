"""Multiscale spectral GFEM for weighted interior-penalty DG discretizations."""

from .config import RunConfig, parse_config, serialize_config
from .errors import ConfigError, SolverError

__version__ = "0.1.0"
