"""Exception types shared across the package.

Each maps to a CLI exit code (see the cli.EXIT_* constants); library callers
catch them directly.
"""


class LagzeroError(Exception):
    """Base class for all package errors."""


class DomainError(LagzeroError):
    """Input outside an operation's mathematical domain."""


class BranchCutError(DomainError):
    """Point lies on a branch cut and no side was specified."""


class OnBoundary(DomainError):
    """Point lies on the curve itself; inside/outside is undefined."""


class QuadratureError(LagzeroError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, achieved_tol, message: str = ""):
        self.achieved_tol = achieved_tol
        super().__init__(message or f"quadrature stalled at tolerance {achieved_tol}")


class NonConvergence(LagzeroError):
    """Iteration hit its budget; usually means precision_bits is too small."""

    def __init__(self, iterations: int, worst_residual, message: str = ""):
        self.iterations = iterations
        self.worst_residual = worst_residual
        super().__init__(
            message
            or f"no convergence after {iterations} iterations "
            f"(worst residual {worst_residual})"
        )


class BracketError(LagzeroError):
    """Bisection bracket could not be established."""


class ClosureError(LagzeroError):
    """Contour continuation failed: Newton stalled or the step budget ran out."""


class PlanError(DomainError):
    """Parameter plan constraints are unsatisfiable."""
