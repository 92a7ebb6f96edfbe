"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised for malformed or out-of-range run configurations."""


class SolverError(RuntimeError):
    """Raised when a linear solve breaks down or leaves a large residual."""
