"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised for malformed or out-of-range run configurations."""


class CoercivityError(RuntimeError):
    """Raised when an assembled operator that must be positive definite is not.

    Usually means the penalty parameter is too small for the mesh family.
    """


class SolverError(RuntimeError):
    """Raised when a linear solve breaks down or leaves a large residual."""
