"""Simultaneous zero finding for monic polynomials at arbitrary precision.

Aberth-Ehrlich iteration: Jacobi-style sweep where each approximation moves by
newton / (1 - newton * sum_j 1/(z_i - z_j)). A root whose step falls below
tol is frozen: later sweeps no longer update it, though it still enters the
other roots' pair sums, and the iteration stops once every root is frozen
(Bini, Numer. Algorithms 13, 1996). One Newton step per root then polishes
the frozen approximations. Residuals are recorded as |P(z)| / max(1, |z|)^n
so the certificate is scale-free.

The sweeps and the polish run on fixed-point Gaussian integers: (X, Y)
stands for (X + iY) 2^-P, so each product is one big-integer multiply in C
instead of an mpc operation in pure Python. P is the working precision plus
the bits the smallest nonzero coefficient sits below 1, plus 16 guard bits,
so every coefficient keeps at least precision + 16 significant bits. The
roots then return to mpc for the residual check and certify."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import mpmath as mp
from mpmath.libmp import to_fixed

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


def _residual(coeffs, z, n):
    p = mp.mpf(0)
    for c in reversed(coeffs):
        p = p * z + c
    return abs(p) / max(mp.mpf(1), abs(z)) ** n


def _sorted_key(z):
    # the printed doubles, so iteration noise in the real parts of a
    # conjugate pair cannot decide which member comes first
    return (float(z.real), float(z.imag))


def _fixed_horner(cs, x, y, prec):
    # P(z) and P'(z) at z = (x + iy) 2^-prec; cs holds c_0..c_n scaled by
    # 2^prec. Each complex product takes three multiplies (Gauss); the
    # integers are exact, so the shift alone rounds.
    px, py, dx, dy = cs[-1], 0, 0, 0
    xpy, ymx = x + y, y - x
    for c in reversed(cs[:-1]):
        k = x * (dx + dy)
        dx, dy = ((k - dy * xpy) >> prec) + px, ((k + dx * ymx) >> prec) + py
        k = x * (px + py)
        px, py = ((k - py * xpy) >> prec) + c, (k + px * ymx) >> prec
    return px, py, dx, dy


def _fixed_div(ax, ay, bx, by, prec):
    # (a / b) 2^prec for fixed-point a, b != 0
    bb = bx * bx + by * by
    return ((ax * bx + ay * by) << prec) // bb, ((ay * bx - ax * by) << prec) // bb


def _pair_sums(zs, active, prec, floor):
    """sum_{j != i} 1/(z_i - z_j) for every active i, in fixed point.

    Each term is conj(e) r with e = z_i - z_j and r = 2^(3 prec) // |e|^2,
    held in 2^-(2 prec) units until the total is shifted back. r is
    symmetric in i and j and the sweep is Jacobi, so two active roots share
    one division and receive exactly opposite terms.
    """
    cube = 1 << (3 * prec)
    acc = {i: [0, 0] for i in active}
    for i in active:
        x, y = zs[i]
        si = acc[i]
        for j, (wx, wy) in enumerate(zs):
            sj = acc.get(j)
            if j == i or (sj is not None and j < i):
                continue  # an active j < i already added this pair
            ex, ey = x - wx, y - wy
            if ex == 0 and ey == 0:
                # coincident approximations: opposite offsets part them
                ex = ey = floor
            r = cube // (ex * ex + ey * ey)
            tx, ty = ex * r, ey * r
            si[0] += tx
            si[1] -= ty
            if sj is not None:
                sj[0] -= tx
                sj[1] += ty
    return {i: (sx >> prec, sy >> prec) for i, (sx, sy) in acc.items()}


def _aberth_fixed(cs, zs, prec, tol, floor, max_iterations):
    """Freeze-rule Aberth sweeps and the Newton polish on fixed-point zs.

    Returns the sweep count, or None when max_iterations run out; zs is
    updated in place either way.
    """
    one = 1 << prec
    tol2 = tol * tol
    active = list(range(len(zs)))
    for it in range(1, max_iterations + 1):
        # every pair sum is taken before any root moves (Jacobi order)
        sums = _pair_sums(zs, active, prec, floor)
        still = []
        for i in active:
            x, y = zs[i]
            px, py, dx, dy = _fixed_horner(cs, x, y, prec)
            if px == 0 and py == 0:
                continue
            if dx == 0 and dy == 0:
                # nudge off the critical point; rare with spread seeds
                zs[i] = (x + tol, y + tol)
                still.append(i)
                continue
            nx, ny = _fixed_div(px, py, dx, dy, prec)
            sx, sy = sums[i]
            ax = one - ((nx * sx - ny * sy) >> prec)
            ay = -((nx * sy + ny * sx) >> prec)
            if ax == 0 and ay == 0:
                cx, cy = nx, ny
            else:
                cx, cy = _fixed_div(nx, ny, ax, ay, prec)
            # |corr| > tol max(1, |z|), squared and scaled by 2^(4 prec)
            if (cx * cx + cy * cy) << (2 * prec) > tol2 * max(one * one, x * x + y * y):
                still.append(i)
            zs[i] = (x - cx, y - cy)
        active = still
        if not active:
            break
    else:
        return None

    # a frozen root keeps the error its last step left, which later
    # moves of the other roots no longer shrink; one Newton step
    # squares it without any pair sums
    for i, (x, y) in enumerate(zs):
        px, py, dx, dy = _fixed_horner(cs, x, y, prec)
        if dx != 0 or dy != 0:
            nx, ny = _fixed_div(px, py, dx, dy, prec)
            zs[i] = (x - nx, y - ny)
    return it


def _guard_bits(exact) -> int:
    # an integer >= -log2 min |c_k| over the nonzero c_k (at most two bits
    # over), or 0 when every |c_k| >= 1
    return max(0, max(c.denominator.bit_length() - abs(c.numerator).bit_length() + 1
                      for c in exact if c))


def find_zeros(coeffs: CoefficientList, precision_bits: int, tol,
               seeds=None, max_iterations: int = MAX_ITERATIONS,
               origin_multiplicity: int = 0) -> ZeroSet:
    """All zeros of the monic polynomial given by coeffs.

    Each Aberth sweep updates only the roots whose last step exceeded
    tol * max(1, |z|); the sweeps end when none is left, and a final Newton
    step z -= P(z)/P'(z) polishes every root. ZeroSet.iterations counts the
    sweeps. Without seeds the roots start on a Cauchy-bound circle.

    The sweeps and the polish run in fixed point: a number is a pair of
    Python ints (X, Y) standing for (X + iY) 2^-P, and the coefficients
    are rounded once from coeffs.exact. The guard rule
    P = precision_bits + max(0, -log2 min_k |c_k|) + 16 over the nonzero
    c_k leaves every coefficient at least precision_bits + 16 significant
    bits. The roots return to mpc at precision_bits for the snap, the
    residual check and certify.

    tol must satisfy tol >= 2^(-precision_bits/2). Raises NonConvergence when
    the sweep exhausts max_iterations, or when a residual at precision_bits
    exceeds tol; caller policy is a single retry at doubled precision.
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
        if seeds is None:
            seeds = initial_guesses(n, coeffs=work.coeffs)
        zs = [mp.mpc(s) for s in seeds]
        if len(zs) != n:
            raise ValueError(f"need {n} seeds, got {len(zs)}")

        prec = precision_bits + _guard_bits(coeffs.exact) + 16
        fixed = [(to_fixed(z.real._mpf_, prec), to_fixed(z.imag._mpf_, prec))
                 for z in zs]
        it = _aberth_fixed([round(c * (1 << prec)) for c in coeffs.exact], fixed,
                           prec, to_fixed(tol._mpf_, prec),
                           to_fixed(floor._mpf_, prec), max_iterations)
        zs = [mp.mpc(mp.mpf((x, -prec)), mp.mpf((y, -prec))) for x, y in fixed]
        if it is None:
            worst = max(_residual(cs, z, n) for z in zs)
            raise NonConvergence(max_iterations, worst)

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
