"""Numerical laboratory for zeros of scaled Laguerre polynomials with
negative parameters.

The package is organized around the scaled family L_n^(alpha)(n z) with
alpha = -n A, A in (0, 1).  Modules:

- laguerre:    exact coefficients, exact evaluation, the A_n in (0, 1)
               domain check
- rootfinder:  simultaneous root solver with inclusion disks
- tropical:    the Newton polygon of the coefficients: seeds, and the
               scales and words of the root solver's evaluations
- landscape:   the endpoints, the phase phi in closed form, g, the
               constants c_n and ell, and the one adaptive quadrature
- contour:     tracing of the predicted limit curves Gamma_r; foot
               points, distance and projection to the limit set
- measure:     limit measures mu_r, quantiles, CDFs, log potentials
- asymptotics: strong asymptotics in the outer and oscillatory regions
- harness:     end-to-end comparison of computed zeros against predictions
- cli:         command line entry points
"""

__version__ = "0.1.0"
