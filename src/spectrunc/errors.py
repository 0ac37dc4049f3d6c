"""Exception and warning types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration (bad parameter values, malformed files)."""


class GridMismatchError(ConfigError):
    """Two sampled functions do not live on the same grid."""


class AliasingError(ConfigError):
    """A requested Fourier coefficient or truncation order is not alias-free
    on the given grid."""


class BudgetError(ConfigError):
    """A combinatorial or quadrature budget guard was exceeded."""


class NumericalError(RuntimeError):
    """A numerical step failed hard: singular system, residual check
    violation, or an eigen/factorization breakdown."""


class SolverFallbackWarning(UserWarning):
    """The Hermitian factorization failed and a pivoted general solve was
    used instead (typically a non-positive-definite Gram matrix)."""


class BetaMonotonicityWarning(UserWarning):
    """A beta_n sweep is not nondecreasing in n, violating the assumption
    behind the complexity monotonicity guarantee."""
