"""Exception types shared across the package.

Each maps to a CLI exit code (see the cli.EXIT_* constants); library callers
catch them directly.
"""

import mpmath as mp


class LagzeroError(Exception):
    """Base class for all package errors."""


class DomainError(LagzeroError):
    """Input outside an operation's mathematical domain."""


class OnBoundary(DomainError):
    """Point lies on the curve itself; inside/outside is undefined."""


class QuadratureError(LagzeroError):
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, achieved_tol, message: str = ""):
        self.achieved_tol = achieved_tol
        super().__init__(message or f"quadrature stalled at tolerance {achieved_tol}")


class NonConvergence(LagzeroError):
    """An iteration ran out of budget or missed its tolerance: the Aberth
    sweeps did not settle, most often from seeds too far from the zeros,
    or a residual bound came out above tol; or a convergence study's
    statistics grew with n."""

    def __init__(self, iterations: int, worst_residual, message: str = ""):
        self.iterations = iterations
        self.worst_residual = worst_residual
        super().__init__(
            message
            or f"no convergence after {iterations} iterations "
            f"(worst residual {mp.nstr(mp.mpf(worst_residual), 3)})"
        )


class BracketError(LagzeroError):
    """Float64 cannot hold a level curve (contour): a real-axis crossing
    underflows, Newton in log|x| passing the smallest normal double, or
    0 < A < 1 but beta2 - beta1 rounds to 0."""


class ClosureError(LagzeroError):
    """Contour tracing or a foot point failed: Newton stalled or ran out of steps."""


class PlanError(DomainError):
    """Parameter plan constraints are unsatisfiable."""
