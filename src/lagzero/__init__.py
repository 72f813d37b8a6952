"""Numerical laboratory for zeros of scaled Laguerre polynomials with
negative parameters.

The package is organized around the scaled family L_n^(alpha)(n z) with
alpha = -n A, A in (0, 1).  Modules:

- laguerre:    exact coefficients, rounding, evaluation, integer-parameter
               reduction, the A_n in (0, 1) domain check
- rootfinder:  simultaneous root solver with inclusion disks
- landscape:   potential-theoretic machinery (R, phi, g, constants)
- contour:     tracing of the predicted limit curves Gamma_r; distance
               and projection to the limit set
- measure:     limit measures mu_r, quantiles, CDFs, log potentials
- asymptotics: strong asymptotics in the outer and oscillatory regions
- harness:     end-to-end comparison of computed zeros against predictions
- cli:         command line entry points
"""

from lagzero.errors import (
    BracketError,
    BranchCutError,
    ClosureError,
    DomainError,
    LagzeroError,
    NonConvergence,
    OnBoundary,
    PlanError,
    QuadratureError,
)
from lagzero.laguerre import (
    build_coefficients,
    integer_reduction,
    monic_rescaled,
    parse_alpha,
    round_coefficients,
)
from lagzero.rootfinder import ZeroSet, find_zeros
from lagzero.landscape import (
    BoundarySide,
    PotentialContext,
    c_constant,
    ell_constant,
    g_eval,
    make_context,
    phi_eval,
    phi_tilde_eval,
    R_eval,
    rate_from_c,
)
from lagzero.contour import (
    ContourPolyline,
    axis_crossing,
    limit_set_distance,
    point_in_loop,
    polyline_csv,
    trace_gamma,
    winding_number,
)
from lagzero.measure import (
    MeasureSpec,
    cdf_interval,
    interval_mass,
    log_potential,
    make_measure,
    mp_density,
    nu_arclength_density,
)
from lagzero.asymptotics import (
    nth_root_exponent,
    oscillatory_value,
    outer_ratio,
)
from lagzero.harness import (
    ComparisonReport,
    ParameterPlan,
    RunOptions,
    compute_zeros,
    convergence_study,
    dist_to_integers,
    make_plan,
    run_comparison,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySide",
    "BracketError",
    "BranchCutError",
    "ClosureError",
    "ComparisonReport",
    "ContourPolyline",
    "DomainError",
    "LagzeroError",
    "MeasureSpec",
    "NonConvergence",
    "OnBoundary",
    "ParameterPlan",
    "PlanError",
    "PotentialContext",
    "QuadratureError",
    "RunOptions",
    "ZeroSet",
    "R_eval",
    "axis_crossing",
    "build_coefficients",
    "c_constant",
    "cdf_interval",
    "compute_zeros",
    "convergence_study",
    "dist_to_integers",
    "ell_constant",
    "find_zeros",
    "g_eval",
    "integer_reduction",
    "interval_mass",
    "limit_set_distance",
    "log_potential",
    "make_context",
    "make_measure",
    "make_plan",
    "monic_rescaled",
    "mp_density",
    "nth_root_exponent",
    "nu_arclength_density",
    "oscillatory_value",
    "outer_ratio",
    "parse_alpha",
    "phi_eval",
    "phi_tilde_eval",
    "point_in_loop",
    "polyline_csv",
    "rate_from_c",
    "round_coefficients",
    "run_comparison",
    "trace_gamma",
    "winding_number",
    "__version__",
]
