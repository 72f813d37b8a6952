"""Simultaneous zero finding for monic polynomials at arbitrary precision.

Aberth-Ehrlich iteration: Jacobi-style sweep where each approximation moves by
newton / (1 - newton * sum_j 1/(z_i - z_j)). A root whose step falls below
tol is frozen: later sweeps no longer update it, though it still enters the
other roots' pair sums, and the iteration stops once every root is frozen
(Bini, Numer. Algorithms 13, 1996). One Newton step per root then polishes
the frozen approximations. Residuals are recorded as |P(z)| / max(1, |z|)^n
so the certificate is scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import mpmath as mp

from .errors import NonConvergence
from .laguerre import CoefficientList

MAX_ITERATIONS = 200


@dataclass(frozen=True)
class ZeroSet:
    zeros: tuple
    residuals: tuple
    origin_multiplicity: int
    precision_bits: int
    certified_threshold: object = None
    iterations: int = 0
    suspect: tuple = field(default=())

    @property
    def count(self) -> int:
        return len(self.zeros) + self.origin_multiplicity


def _horner2(coeffs, dcoeffs, z):
    p = mp.mpf(0)
    for c in reversed(coeffs):
        p = p * z + c
    dp = mp.mpf(0)
    for c in reversed(dcoeffs):
        dp = dp * z + c
    return p, dp


def _residual(coeffs, z, n):
    p = mp.mpf(0)
    for c in reversed(coeffs):
        p = p * z + c
    return abs(p) / max(mp.mpf(1), abs(z)) ** n


def _sorted_key(z):
    # the printed doubles, so iteration noise in the real parts of a
    # conjugate pair cannot decide which member comes first
    return (float(z.real), float(z.imag))


def find_zeros(coeffs: CoefficientList, precision_bits: int, tol,
               seeds=None, max_iterations: int = MAX_ITERATIONS,
               origin_multiplicity: int = 0) -> ZeroSet:
    """All zeros of the monic polynomial given by coeffs.

    Each Aberth sweep updates only the roots whose last step exceeded
    tol * max(1, |z|); the sweeps end when none is left, and a final Newton
    step z -= P(z)/P'(z) polishes every root. ZeroSet.iterations counts the
    sweeps. Without seeds the roots start on a Cauchy-bound circle.

    tol must satisfy tol >= 2^(-precision_bits/2). Raises NonConvergence when
    the sweep exhausts max_iterations; caller policy is a single retry at
    doubled precision.
    """
    n = coeffs.degree
    if n == 0:
        return ZeroSet((), (), origin_multiplicity, precision_bits, tol)
    work = coeffs.at_precision(precision_bits)
    with mp.workprec(precision_bits):
        tol = mp.mpf(tol)
        floor = mp.mpf(2) ** (-(precision_bits // 2))
        if tol < floor:
            raise ValueError(f"tol {tol} below 2^-precision/2 = {floor}")
        assert work.coeffs[-1] == 1, "find_zeros expects a monic polynomial"
        cs = work.coeffs
        dcs = tuple(cs[k] * k for k in range(1, n + 1))
        if seeds is None:
            seeds = initial_guesses(n, coeffs=work.coeffs)
        zs = [mp.mpc(s) for s in seeds]
        if len(zs) != n:
            raise ValueError(f"need {n} seeds, got {len(zs)}")

        active = list(range(n))
        for it in range(1, max_iterations + 1):
            moved = []
            still = []
            for i in active:
                z = zs[i]
                p, dp = _horner2(cs, dcs, z)
                if p == 0:
                    continue
                if dp == 0:
                    # nudge off the critical point; rare with spread seeds
                    moved.append((i, z + mp.mpc(tol, tol)))
                    still.append(i)
                    continue
                newton = p / dp
                s = mp.mpc(0)
                for j, w in enumerate(zs):
                    if j != i:
                        d = z - w
                        if d == 0:
                            d = mp.mpc(floor, floor)
                        s += 1 / d
                denom = 1 - newton * s
                corr = newton if denom == 0 else newton / denom
                if abs(corr) > tol * max(1, abs(z)):
                    still.append(i)
                moved.append((i, z - corr))
            for i, z in moved:
                zs[i] = z
            active = still
            if not active:
                break
        else:
            worst = max(_residual(cs, z, n) for z in zs)
            raise NonConvergence(max_iterations, worst)

        # a frozen root keeps the error its last step left, which later
        # moves of the other roots no longer shrink; one Newton step
        # squares it without any pair sums
        for i, z in enumerate(zs):
            p, dp = _horner2(cs, dcs, z)
            if dp != 0:
                zs[i] = z - p / dp

        # real coefficients force conjugate symmetry: an imaginary part at
        # the quarter-precision level is iteration dust on a real zero
        # (converged steps sit at 2^-prec/2), not a genuine pair
        snap = mp.mpf(2) ** (-(precision_bits // 4))
        zs = [
            mp.mpc(z.real, 0) if abs(z.imag) <= snap * max(1, abs(z.real)) else z
            for z in zs
        ]
        residuals = [_residual(cs, z, n) for z in zs]
        worst = max(residuals)
        if worst > tol:
            raise NonConvergence(it, worst)
        order = sorted(range(n), key=lambda i: _sorted_key(zs[i]))
        return ZeroSet(
            tuple(zs[i] for i in order),
            tuple(residuals[i] for i in order),
            origin_multiplicity,
            precision_bits,
            tol,
            it,
        )


def initial_guesses(n: int, coeffs=None) -> list:
    """n seed points on a circle that encloses every zero.

    The radius is the Cauchy bound 1 + max|c_k| of the monic coefficients,
    or 2 without them. Seeds placed on the predicted limit set come from
    harness._seeds_for.
    """
    radius = 2.0
    if coeffs is not None:
        radius = 1.0 + max(float(abs(c)) for c in coeffs)
    return [
        radius * mp.exp(mp.mpc(0, 2 * mp.pi * (k + 0.25) / n))
        for k in range(n)
    ]


def certify(coeffs: CoefficientList, zset: ZeroSet) -> ZeroSet:
    """Recompute residuals at doubled precision; flag blow-ups as suspect."""
    doubled = 2 * zset.precision_bits
    work = coeffs.at_precision(doubled)
    n = coeffs.degree
    with mp.workprec(doubled):
        thr = zset.certified_threshold
        if thr is None:
            thr = mp.mpf(2) ** (-(zset.precision_bits // 2))
        residuals = tuple(_residual(work.coeffs, mp.mpc(z), n) for z in zset.zeros)
        # growth below the certified threshold is the original precision's
        # noise floor giving way to the true residual, not a failure
        suspect = tuple(
            i for i, (r_new, r_old) in enumerate(zip(residuals, zset.residuals))
            if r_new > 4 * r_old and r_new > thr
        )
    return replace(zset, residuals=residuals, suspect=suspect)
