"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularityError(ValueError):
    """The density is unbounded at the requested point (e.g. Weibull pdf at
    zero with shape < 1)."""


class ConvergenceError(RuntimeError):
    """An iterative procedure exhausted its budget without meeting tolerance."""


class NoClusterError(RuntimeError):
    """Clustering produced no usable cluster (everything labelled noise)."""


class DegenerateDataError(ValueError):
    """Input data is degenerate for the requested operation (e.g. all
    k-distances identical, or an all-zero early-failure cluster)."""


class SurvivalUnderflowError(ArithmeticError):
    """The survival function underflowed to zero, so the hazard ratio is
    not representable."""


# every error type above: a fit that raises one of these failed on its
# data, anything else is a bug
PACKAGE_ERRORS = (
    DomainError, SingularityError, ConvergenceError, NoClusterError, DegenerateDataError,
    SurvivalUnderflowError,
)
