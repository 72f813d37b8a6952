"""Test-only references for lagzero.rootfinder's fixed-point kernels: the
complex Horner pass for P and P', the unscaled Newton step built on it,
and the certificate's radii and suspect set from the full matrix of
pairwise distances.
"""

import math

from lagzero import rootfinder


def complex_horner(cs, x, y, prec):
    """P(z) and P'(z) as (px, py, dx, dy) at z = (x + iy) 2^-prec; cs holds
    c_0..c_n scaled by 2^prec. Each complex product takes three multiplies
    (Gauss), and P's recurrence does not read P'."""
    px, py, dx, dy = cs[-1], 0, 0, 0
    xpy, ymx = x + y, y - x
    for c in reversed(cs[:-1]):
        k = x * (dx + dy)
        dx, dy = ((k - dy * xpy) >> prec) + px, ((k + dx * ymx) >> prec) + py
        k = x * (px + py)
        px, py = ((k - py * xpy) >> prec) + c, (k + px * ymx) >> prec
    return px, py, dx, dy


def plain_newton(cs, prec, x, y):
    """_aberth_fixed's newton on P's own coefficients cs, scaled by 2^prec,
    every step sized: the reference the scaled kernel is checked against."""
    px, py, dx, dy = complex_horner(cs, x, y, prec)
    if px == 0 and py == 0:
        return (0, 0), True
    if dx == 0 and dy == 0:
        return None, True
    return rootfinder._fixed_div(px, py, dx, dy, prec), True


def certificate_radii(fixed, bounds, prec, log_tol):
    """(log_r, suspect) of rootfinder._certificate from its bounds, with
    every log |z_i - z_j| taken on its own."""
    n, shift = len(fixed), prec * math.log(2)
    log_m = [max(0.0, math.log(math.isqrt(x * x + y * y) or 1) - shift) for x, y in fixed]
    dist = [[0.0] * n for _ in range(n)]
    for i, (x, y) in enumerate(fixed):
        for j, (u, v) in enumerate(fixed[:i]):
            dd = (x - u) ** 2 + (y - v) ** 2
            dist[i][j] = dist[j][i] = 0.5 * math.log(dd) - shift if dd else -math.inf
    log_r = [math.log(2 * n) - shift + math.log(b) + n * lm - math.fsum(row)
             for b, lm, row in zip(bounds, log_m, dist)]
    reach = math.log(2) + max(log_r)
    suspect = {i for i in range(n) if log_r[i] > log_tol + log_m[i]}
    for i, row in enumerate(dist):
        for j in range(i):
            if row[j] <= reach and row[j] <= rootfinder._logaddexp(log_r[i], log_r[j]):
                suspect.update((i, j))
    return log_r, tuple(sorted(suspect))
