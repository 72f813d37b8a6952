"""Simultaneous zero finding for monic polynomials at arbitrary precision.

Aberth-Ehrlich iteration: Jacobi-style sweeps move each approximation by
newton / (1 - newton * sum_j 1/(z_i - z_j)). A root whose step falls below
tol is frozen: later sweeps no longer update it, though it still enters the
other roots' pair sums, and the iteration stops once every root is frozen
(Bini, Numer. Algorithms 13, 1996). The sweeps take no last step of their
own: _lift is the one finisher, and its Newton steps give every root the
accuracy returned. The coefficients are real: seeds closed under
conjugation are swept as one representative per conjugate class
(_conjugate_classes), and real roots stay exactly real.

The kernel runs on fixed-point Gaussian integers, (X, Y) for
(X + iY) 2^-W: one big-integer multiply in C per product. Tropical scaling
(lagzero.tropical) sizes the words: in each ring of |z|, Q(w) = P(s w) 2^-m,
with s >= |z| and 2^m about P's largest term at s, is divided by the real
quadratic (t - w)(t - conj w) at |w| <= 1 (_quadratic_horner), which leaves
Q(w) off by at most 2 (n + 1) + 1 units of 2^-W. The Newton step is
s Q/Q', so b correct bits of a root need W = b + cancellation +
ceil(log2(n + 1)) + 16 bits, the cancellation -log2 |w Q'(w)| being read
off the evaluations themselves; a ring whose word turns out short is
widened. The sweeps need far fewer bits than the result (Bini & Robol
2014): they run at LOW_BITS = 128 bits, and _lift then takes each root on
its own, without pair sums, up to the working precision.

The pair sums alone are taken in float64, as in the float phase of MPSolve
(Bini 1996; Bini & Robol 2014): S = sum_j 1/(z_i - z_j) enters the step only
through newton * S, so float64 serves nearly every row. A row is summed in
fixed point where float64 cannot tell its points apart (a distance below
2^-40 max(1, |z_i|), or a position past 2^512), and where 1 - newton * S is
so small that the float row's error bound could move the step by 2^-30.

The lift certifies each ring's roots by one complex Horner pass on the
ring's own words (_certify), not by the kernel's division, so that the
proof stands apart from it. Each connected component of the disks
|w - z_i| <= n |P(z_i)| / prod_{j != i} |z_i - z_j| holds as many zeros as
disks (Neumaier, J. Comput. Appl. Math. 156, 2003). Stage boundaries are
logged at DEBUG on this module's logger."""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from typing import NamedTuple

import mpmath as mp
from mpmath.libmp import (from_man_exp, fzero, mpf_add, round_ceiling, round_nearest, to_fixed,
                           to_float)

from . import tropical
from .debuglog import debug
from .errors import NonConvergence
from .tropical import initial_guesses

MAX_ITERATIONS = 200
# the precision of the first Aberth pass; the lift raises it to the caller's
LOW_BITS = 128
_LOG2 = math.log(2)


class ZeroSet(NamedTuple):
    """Zeros with bounds on |P(z)| / max(1, |z|)^n and log inclusion radii.
    A disk that meets no other holds exactly one zero; suspect lists those
    that meet another, exceed tol max(1, |z|) or do not fix z's doubles."""

    zeros: tuple
    residuals: tuple
    origin_multiplicity: int
    precision_bits: int
    iterations: int = 0
    log_radii: tuple = ()
    suspect: tuple = ()


def _sorted_key(z):
    # the printed doubles, so iteration noise in the real parts of a
    # conjugate pair cannot decide which member comes first
    return (float(z.real), float(z.imag))


def _to_fixed(zs, prec):
    return [(to_fixed(z.real._mpf_, prec), to_fixed(z.imag._mpf_, prec)) for z in zs]


def _conjugate_classes(zs):
    """One representative per conjugate class of the seeds, and twin flags:
    a real seed stands for itself, and one with Im z > 0 for itself and
    its exact conjugate (twin flag set) when every non-real seed has its
    exact conjugate among the seeds; otherwise each seed for itself."""
    upper = Counter(z for z in zs if z.imag > 0)
    if upper != Counter(mp.conj(z) for z in zs if z.imag < 0):
        return zs, [False] * len(zs)
    reps = [z for z in zs if z.imag >= 0]
    return reps, [z.imag > 0 for z in reps]


def _fixed_horner(cs, x, y, prec):
    # P(z) at z = (x + iy) 2^-prec; cs holds c_0..c_n scaled by 2^prec.
    # Three multiplies (Gauss) per step; the integers are exact, so the
    # shift alone rounds
    px, py = cs[-1], 0
    if y == 0:
        for c in reversed(cs[:-1]):
            px = ((x * px) >> prec) + c
        return px, 0
    xpy, ymx = x + y, y - x
    for c in reversed(cs[:-1]):
        k = x * (px + py)
        px, py = ((k - py * xpy) >> prec) + c, (k + px * ymx) >> prec
    return px, py


def _quadratic_horner(cs, x, y, prec):
    """(px, py, dx, dy): P(z) and P'(z) scaled by 2^prec at
    z = (x + iy) 2^-prec, for P's real coefficients c_k 2^prec in cs.

    At y = 0, real Horner. Otherwise P is divided by (t - z)(t - conj z)
    (Knuth, TAOCP 2, 4.6.4): b_k = c_k + 2x b_(k+1) - |z|^2 b_(k+2) gives
    P(z) = b_0 - b_1 conj z, the same recurrence on the quotient's b_2..b_n
    its value Q(z) = e_2 - e_3 conj z, and P'(z) = b_1 + 2iy Q(z): two
    multiplies a step each, three for complex Horner. |z|^2 is floored on
    prec + g bits, 2^g > 2^8 (n + 1)^2.

    Bound in 2^-prec units, at |z| <= 1 with |c_k| <= 2 (Rings' scale),
    each rounded by at most 1/2 + 2^-7: the b_k are those of P + E,
    E = sum eps_k t^k, |eps_k| < 3/2 + 2^-6 (that rounding, a floor, and
    |z|^2's floor times |b_(k+2)| <= (n + 1)^2), so with two last floors
    |P~(z) - P(z)| <= |E(z)| + sqrt 2 <= 2 (n + 1) + 1. b_1 carries E'(z):
    eps_k moves it by eps_k U_(k-1)(z), |U_j| = |(z^(j+1) - conj z^(j+1)) /
    (z - conj z)| <= j + 1. Each quotient step adds a floor and
    |e_(k+2)| 2^-g <= (n + 1)^2 / 3072, times 2y, so with four last floors
    |P~'(z) - P'(z)| <= |E'(z)| + 2 (n - 1)(1 + (n + 1)^2 / 3072) + 3 sqrt 2
                     <= (n + 1)^2 (1 + n / 1536) + 2.
    """
    if y == 0:
        px, dx = cs[-1], 0
        for c in reversed(cs[:-1]):
            dx = ((x * dx) >> prec) + px
            px = ((x * px) >> prec) + c
        return px, 0, dx, 0
    g = 2 * len(cs).bit_length() + 8
    sh = prec + g
    u, v = x << (g + 1), _shift(x * x + y * y, g - prec)
    b1, b2, e1, e2 = cs[-1], 0, 0, 0
    for c in cs[-2:0:-1]:
        e1, e2 = b1 + ((u * e1 - v * e2) >> sh), e1
        b1, b2 = c + ((u * b1 - v * b2) >> sh), b1
    b0 = cs[0] + ((u * b1 - v * b2) >> sh)
    qx, qy = e1 - ((x * e2) >> prec), (y * e2) >> prec
    return (b0 - ((x * b1) >> prec), (y * b1) >> prec,
            b1 - ((2 * y * qy) >> prec), (2 * y * qx) >> prec)


def _fixed_div(ax, ay, bx, by, prec):
    # (a / b) 2^prec for fixed-point a, b != 0
    bb = bx * bx + by * by
    return ((ax * bx + ay * by) << prec) // bb, ((ay * bx - ax * by) << prec) // bb


class _Gaussian(tuple):
    """x + iy on integers x, y: what _pair_loop asks of the exact kernel's
    points and terms. Its abs is 0: the exact kernel tracks no separation."""

    __slots__ = ()

    def __add__(self, w):
        return _Gaussian((self[0] + w[0], self[1] + w[1]))

    def __sub__(self, w):
        return _Gaussian((self[0] - w[0], self[1] - w[1]))

    def conjugate(self):
        return _Gaussian((self[0], -self[1]))

    def __abs__(self):
        return 0


def _pair_loop(pts, twin, active, inverse, zero):
    """(sums, sizes), indexed like pts: for every active i, sums[i] is the
    sum of the terms t = 1/(z_i - w) over every root w != z_i, the roots
    being pts plus conj(pts[j]) for each j with twin[j], and sizes[i] the
    sum of their |t|, in the arithmetic of pts, zero and inverse(e) = 1/e.

    The sweep is Jacobi, so two active roots share one inverse: they
    receive exactly opposite direct terms, and two twins' conjugate terms
    are -conj of each other. For a real i the conjugate term of a twin j is
    the conjugate of its direct term, so the sum of a real root is t +
    conj t per twin, and its imaginary part is 0.
    """
    n = len(pts)
    sums, sizes, live = [zero] * n, [0] * n, [False] * n
    for i in active:
        live[i] = True
    for i in active:
        z, ti = pts[i], twin[i]
        s, r = sums[i], sizes[i]
        for j, w in enumerate(pts):
            lj = live[j]
            if lj and j < i:
                continue  # an active j < i already added this pair
            tj = twin[j]
            if j != i:
                t = inverse(z - w)
                a = abs(t)
                if tj and not ti:
                    s, r = s + (t + t.conjugate()), r + a + a
                else:
                    s, r = s + t, r + a
                if lj:
                    if ti and not tj:
                        sums[j] -= t + t.conjugate()
                        sizes[j] += a + a
                    else:
                        sums[j] -= t
                        sizes[j] += a
            if ti and tj:
                # w = conj z_j; j == i is the twin's own 1/(2i y)
                t = inverse(z - w.conjugate())
                a = abs(t)
                s, r = s + t, r + a
                if lj and j != i:
                    sums[j] -= t.conjugate()
                    sizes[j] += a
        sums[i], sizes[i] = s, r
    return sums, sizes


def _pair_sums(zs, twin, active, prec, floor):
    """sum 1/(z_i - w) over every root w != z_i, for every active i, in
    fixed point; the roots are zs plus conj(zs[j]) for each j with twin[j]
    (_pair_loop). Each term is conj(e) r with e = z_i - w and r =
    2^(3 prec) // |e|^2, held in 2^-(2 prec) units until the total is
    shifted back: exact up to the floors. Coincident approximations are
    parted by opposite offsets, e = +-(floor + i floor). The sweeps take
    it for the rows float64 cannot serve: those _float_pair_sums' separation
    and range guards send here, and those whose 1 - N S is too small for
    the float row's error (_aberth_fixed).
    """
    cube = 1 << (3 * prec)

    def inverse(e):
        ex, ey = e
        if ex == 0 and ey == 0:
            ex = ey = floor
        r = cube // (ex * ex + ey * ey)
        return _Gaussian((ex * r, -ey * r))

    sums, _ = _pair_loop([_Gaussian(p) for p in zs], twin, active, inverse, _Gaussian((0, 0)))
    return {i: (sums[i][0] >> prec, sums[i][1] >> prec) for i in active}


# a float64 row goes to _pair_sums when a distance may be below
# 2^-SEPARATION max(1, |z_i|), and every row does when a position lies past
# 2^RANGE; one whose error may move its step by more than 2^-CONDITION
# relative is taken again there (_aberth_fixed)
SEPARATION, RANGE, CONDITION = 40, 512, 30
_INF = complex(math.inf, 0)


def _float_inverse(e):
    # inf where float64 cannot tell the two points apart; the separation
    # guard then sends both rows to _pair_sums
    return 1 / e if e else _INF


def _from_float(v, prec):
    # floor(v 2^prec), exactly
    m, e = math.frexp(v)
    return _shift(int(m * (1 << 53)), e - 53 + prec)


def _float_pair_sums(zs, twin, active, prec, floor):
    """_pair_sums in float64 where that is enough, as (sums, slack): sums
    as _pair_sums returns them, and slack[i] = e with |S~_i - S_i| < 2^e
    for each row i summed in float64; the other rows are _pair_sums' own.

    Each position is rounded once, x / 2^prec (correctly rounded at any
    prec), and the terms are summed in Python complex (_pair_loop). With A
    the sum of a row's |t| and M = max(1, |z_i|), the row goes to _pair_sums
    when A M > 2^SEPARATION, so whenever one of its distances is below
    2^-SEPARATION M: coincident approximations, a twin's own 2|y| (also
    when y underflows), zeros too close for float64. Whether a row is real
    is read off twin, never off a float.

    The bound, with m terms: rounding the positions, 2^-53 |z| each, moves
    a term t by about 2^-53 (|z_i| + |w|) |t|^2 <= 2^-53 (2 M |t|^2 + |t|),
    which sums to at most 2^-53 (2 M A^2 + A); the subtraction, the
    division and the sum add under (m + 9) 2^-53 A. Doubled for the terms
    of second order, |S~_i - S_i| <= 2^-52 A (2 M A + m + 10).
    """
    if max(abs(v) for p in zs for v in p).bit_length() > prec + RANGE:
        return _pair_sums(zs, twin, active, prec, floor), {}
    one = 1 << prec
    pts = [complex(x / one, y / one) for x, y in zs]
    sums, sizes = _pair_loop(pts, twin, active, _float_inverse, 0j)
    m = len(zs) + sum(twin) - 1
    exact, slack = [], {}
    for i in active:
        a, big = sizes[i], max(1.0, abs(pts[i]))
        if a * big > 2.0 ** SEPARATION:
            exact.append(i)
        else:
            slack[i] = math.frexp(2.0 ** -52 * a * (2 * big * a + m + 10))[1]
    out = {i: (_from_float(sums[i].real, prec), _from_float(sums[i].imag, prec))
           for i in slack}
    if exact:
        out.update(_pair_sums(zs, twin, exact, prec, floor))
    return out, slack


def _bits(x, y):
    return max(abs(x), abs(y)).bit_length()


def _one_minus(nx, ny, s, prec):
    # 1 - N S in 2^-prec units, for N and S in them
    sx, sy = s
    return (1 << prec) - ((nx * sx - ny * sy) >> prec), -((nx * sy + ny * sx) >> prec)


def _within(cx, cy, x, y, tol, prec):
    # |c| <= tol max(1, |z|), all three in 2^-prec units; squared and
    # scaled by 2^(4 prec)
    return (cx * cx + cy * cy) << (2 * prec) <= tol * tol * max(1 << (2 * prec), x * x + y * y)


def _shift(v, s):
    # v 2^s, rounded toward -inf when s < 0
    return v << s if s >= 0 else v >> -s


def _aberth_fixed(zs, twin, prec, tol, max_iterations, newton):
    """Freeze-rule Aberth sweeps on fixed-point zs, which leave each root
    within about tol of a zero; _lift finishes them.

    The roots are zs plus conj(zs[i]) for each i with twin[i] set. tol, in
    2^-prec units, is the freeze tolerance, the nudge off a critical point
    and the offset that parts coincident approximations. newton(x, y)
    returns (step, sized): step is P(z)/P'(z) at z = (x + iy) 2^-prec in
    2^-prec units, (0, 0) at P(z) = 0 and None at P'(z) = 0, and sized is
    false when the word proved too short for a step that small to count;
    such a root stays active. Returns (sweeps, exact, rows): the sweep
    count, or None when max_iterations run out, and how many of the rows
    summed, one per active root and sweep, were taken in fixed point; zs is
    updated in place either way.

    The pair sums S are taken in float64 where that is enough
    (_float_pair_sums). S enters the step N / (1 - N S) only through N S,
    so an error dS moves the step by |N| dS / |1 - N S| relative, which
    grows without bound as 1 - N S nears 0. A float row whose bound allows
    more than 2^-CONDITION there is summed again in fixed point before its
    step. The test runs on bit lengths, two bits on the safe side, since
    the words may hold thousands of bits, more than a float64 can.
    """
    active, exact, rows = list(range(len(zs))), 0, 0
    for it in range(1, max_iterations + 1):
        # every pair sum, a row summed again included, is taken at the
        # positions before any root moves (Jacobi order)
        pos = zs[:]
        sums, slack = _float_pair_sums(pos, twin, active, prec, tol)
        rows, exact = rows + len(active), exact + len(active) - len(slack)
        still = []
        for i in active:
            x, y = zs[i]
            step, sized = newton(x, y)
            if step is None:
                # nudge off the critical point, along the axis for a real
                # root so that it stays real; rare with spread seeds
                zs[i] = (x + tol, y + tol if y else 0)
                still.append(i)
                continue
            nx, ny = step
            ax, ay = _one_minus(nx, ny, sums[i], prec)
            e = slack.get(i)
            if e is not None and _bits(nx, ny) + e + CONDITION + 2 > _bits(ax, ay):
                ax, ay = _one_minus(nx, ny, _pair_sums(pos, twin, [i], prec, tol)[i], prec)
                exact += 1
            if ax == 0 and ay == 0:
                cx, cy = nx, ny
            else:
                cx, cy = _fixed_div(nx, ny, ax, ay, prec)
            if not (sized and _within(cx, cy, x, y, tol, prec)):
                still.append(i)
            zs[i] = (x - cx, y - cy)
        active = still
        if not active:
            return it, exact, rows
    return None, exact, rows


def _ring_newton(rings, j, acc, x, y, e, a=1, final=True):
    """Q(w)/Q'(w) on ring j's scaled polynomial (tropical.Rings) at
    w = (x + iy) 2^-e / a, on the ring's word for acc correct bits, as
    (word, wx, wy, step, sized): w rounded to (wx + i wy) 2^-word, step in
    2^-word units, (0, 0) at Q(w) = 0 and None at Q'(w) = 0 != Q(w), and
    sized false when the word proves short (Rings.measure), which widens
    the ring's later words. A final step, one that has to count, is then
    taken again on the widened word; a sweep's stands, and its root stays
    active. An exact zero is sized like any other step: on a short word Q
    is rounding noise, which can sum to exactly 0 far from a zero.
    """
    for _ in range(2 if final else 1):
        word = rings.word(j, acc)
        q = rings.coefficients(j, word)[3]
        wx, wy = _shift(x, word - e) // a, _shift(y, word - e) // a
        px, py, dx, dy = _quadratic_horner(q, wx, wy, word)
        if dx == 0 and dy == 0:
            return word, wx, wy, None if px or py else (0, 0), True
        sized = rings.measure(j, word, acc, dx, dy)
        if sized:
            break
    return word, wx, wy, _fixed_div(px, py, dx, dy, word), sized


def _scaled_newton(rings, x, y, prec, acc):
    """_aberth_fixed's newton at z = (x + iy) 2^-prec for acc correct bits:
    _ring_newton's sweep step in z's ring at w = z/s, and back as s Q/Q'."""
    j = rings.ring(x, y, prec)
    a, t = rings.scale(j)
    word, _, _, step, sized = _ring_newton(rings, j, acc, x, y, prec - t, a, False)
    if step is None:
        return None, sized
    sh = word + t - prec
    return (_shift(a * step[0], -sh), _shift(a * step[1], -sh)), sized


def _lift(rings, zs, prec, bits, target):
    """Newton steps that raise fixed-point representatives zs, in 2^-prec
    units with about bits correct bits, to target bits, one root at a time
    and without pair sums, each in its ring's frame w = z/s; the rings are
    lifted one after the other, each rounded once for its last word, and
    each ring's roots are certified (_certify) before the next is rounded.

    Level l steps for the goal target / 2^max(0, h - l), rounded up, with h + 1
    the fewest doublings that take bits to target: each level at most doubles
    the accuracy, on the shortest words that do so. A root is done after a step
    for target bits of at most tol max(1, |z|), tol = 2^-(target // 2). A step
    must stay within 2^-(goal/4) max(1, |z|): a larger one means the
    approximation did not hold the bits claimed for it, as next to a zero the
    low words cannot separate from its neighbour. Returns None at such a step
    or at P' = 0, else (levels, roots): roots[i] is _certify's (z, word, bound)
    for the lifted z_i, and levels the most any ring took.
    """
    rings_of = {}
    for i, (x, y) in enumerate(zs):
        rings_of.setdefault(rings.ring(x, y, prec), []).append(i)
    out, levels, halvings = [None] * len(zs), 0, (-(-target // bits) - 1).bit_length() - 1
    for j, todo in rings_of.items():
        # one rounding, for the last level's word; the levels below shift
        # down from it, and the sweeps' shorter rounding goes first
        rings.release(j)
        rings.coefficients(j, rings.word(j, target))
        a, t = rings.scale(j)
        # root i as (w_x, w_y, e) for w = (w_x + i w_y) 2^-e
        roots = {i: (_shift(zs[i][0], t) // a, _shift(zs[i][1], t) // a, prec)
                 for i in todo}
        level = 0
        while todo:
            goal, still = -(-target >> max(0, halvings - level)), []
            for i in todo:
                word, x, y, step, _ = _ring_newton(rings, j, goal, *roots[i])
                if step is None:
                    return None
                cx, cy = step
                # both tests in z's units, 2^-(word + t): exact multiples by a
                zp, ax, ay, ux, uy = word + t, a * x, a * y, a * cx, a * cy
                if not _within(ux, uy, ax, ay, _pow2(zp - goal // 4), zp):
                    return None
                roots[i] = (x - cx, y - cy, word)
                if goal < target or not _within(ux, uy, ax, ay,
                                                _pow2(zp - target // 2), zp):
                    still.append(i)
            todo, level = still, level + 1
        levels = max(levels, level)
        # the ring still holds the rounding for its last word
        for i, (wx, wy, e) in roots.items():
            out[i] = _certify(rings, j, a * wx, a * wy, e + t, target)
        rings.release(j)
    return levels, out


def _pow2(e):
    return 1 << e if e >= 0 else 0


def _certify(rings, j, x, y, e, acc):
    """(z, word, bound) for the root (x + iy) 2^-e of ring j. z is the value
    returned: each part rounded to the context's precision, and made real
    when its imaginary part is at most 2^-(acc // 4) max(1, |Re z|),
    iteration dust on a real zero from unpaired seeds. bound 2^-(prec + 1)
    >= |P(z)| / max(1, |z|)^n comes from one _fixed_horner pass on ring j's
    coefficients at its word W for acc bits, the word the lift ends on, so
    the ring holds that rounding already; prec is the Rings' own.

    The Rings' cs_k lie within 1/2 of c_k 2^prec, so P and P_cs = sum cs_k
    2^-prec z^k differ by at most (n + 1) 2^-(prec + 1) max(1, |z|)^n. Ring
    j's q_k lie within 1/2 + 2^-8 units of 2^-W of the coefficients of
    Q(w) = P_cs(s w) 2^-m, which are below 2 in modulus (up to the float64
    rounding of m): rounded at the ring's top word and again to W
    (tropical._scaled_coefficients, Rings.coefficients). w = z/s is not
    dyadic: it is floored to w~, |w - w~| < sqrt 2 units, and |w~| <= 1 is
    checked exactly; a point outside ring j is taken in its own ring,
    rounded for it alone. At |w~| <= 1, Horner's floors add under sqrt 2 a
    step and q's rounding under 1/2 + 2^-8 a coefficient, so
    |Q~(w~) - Q(w~)| <= 2 (n + 1) units (Higham, sec. 5.1); |Q'| <= n (n + 1)
    on the unit disk and barely more within sqrt 2 units of it, so
    |Q(w) - Q(w~)| <= 3 n (n + 1) / 2 units. In all
        |P(z)| <= 2^(m - W) (|Q~(w~)| + 2 (n + 1) + 3 n (n + 1) / 2)
                  + (n + 1) 2^-(prec + 1) max(1, |z|)^n.
    """
    parts = [from_man_exp(v, -e, mp.mp.prec, round_nearest) for v in (x, y)]
    ((x, y),), e = _exact_fixed([parts])
    if abs(y) << (acc // 4) <= max(abs(x), 1 << e):
        parts[1], y = fzero, 0
    lift = j
    while True:
        word = rings.word(j, acc)
        a, t, m, q = rings.coefficients(j, word)
        wx, wy = _shift(x, word + t - e) // a, _shift(y, word + t - e) // a
        if wx * wx + wy * wy <= 1 << (2 * word):
            break
        if j != lift:
            rings.release(j)
        j = max(j + 1, rings.ring(x, y, e))
    px, py = _fixed_horner(q, wx, wy, word)
    if j != lift:
        rings.release(j)
    n = len(q) - 1
    top = math.isqrt(px * px + py * py) + 1 + 2 * (n + 1) + (3 * n * (n + 1) + 1) // 2
    # in 2^-(prec + 1) units, over max(1, |z|)^n
    k, den, rr = m - word + rings.prec + 1, 1, x * x + y * y
    if rr >> (2 * e):
        # |z|^n, each factor floor(|z| 2^(e + 64)) rounded down to 64 bits
        r = math.isqrt(rr << 128)
        s = r.bit_length() - 64
        k, den = k + n * (e + 64 - s), (r >> s) ** n
    bound = -(-(top << k) // den) if k >= 0 else -(-top // (den << -k))
    return mp.make_mpc(tuple(parts)), word, bound + n + 1


def _exact_fixed(parts):
    """([(x, y)], e): the points whose real and imaginary parts are the raw
    mpf pairs in parts, as exactly (x + iy) 2^-e, on the fewest bits e >= 0
    that hold every part."""
    e = max(0, max(-p[2] for pair in parts for p in pair))
    return [(to_fixed(u, e), to_fixed(v, e)) for u, v in parts], e


def _certificate(fixed, prec, bounds, unit, log_tol):
    """Log radii and suspect indices for the zeros (x + iy) 2^-prec in
    fixed, given bounds[i] 2^-unit >= |P(z_i)| / max(1, |z_i|)^n.

    The radius n |P(z_i)| / prod_{j != i} |z_i - z_j| is doubled to cover
    the float64 sum of logs that stands for the product. With the points
    closed under conjugation, one log |z_i - z_j| per orbit {z_i, z_j},
    {conj z_i, conj z_j} gives every product.
    """
    n, shift, ushift = len(fixed), prec * math.log(2), unit * math.log(2)
    where = {p: i for i, p in enumerate(fixed)}
    twin = [where.get((x, -y)) for x, y in fixed]  # conj z_i = z_twin[i]
    if any(k is None or twin[k] != i for i, k in enumerate(twin)):
        twin = list(range(n))
    reps = [i for i, k in enumerate(twin) if k >= i]
    log_m, log_r = [0.0] * n, [0.0] * n
    rows, pairs = {i: [] for i in reps}, []
    for a, i in enumerate(reps):
        (x, y), row, pi = fixed[i], rows[i], twin[i] != i
        m = math.isqrt(x * x + y * y)  # floor(|z| 2^prec)
        log_m[i] = log_m[twin[i]] = max(0.0, math.log(m or 1) - shift)
        if pi:
            d = 0.5 * math.log(4 * y * y) - shift
            pairs.append((d, i, twin[i]))
            row.append(d)
        for k in reps[:a]:
            (u, v), pk = fixed[k], twin[k] != k
            ex = (x - u) ** 2
            dd = ex + (y - v) ** 2
            d = 0.5 * math.log(dd) - shift if dd else -math.inf
            pairs.append((d, i, k))
            # a real root is as far from z as from conj z
            row.append(d if pi or not pk else 2 * d)
            rows[k].append(d if pk or not pi else 2 * d)
            if pi and pk:
                d = 0.5 * math.log(ex + (y + v) ** 2) - shift
                pairs.append((d, i, twin[k]))
                row.append(d)
                rows[k].append(d)
    for i in reps:
        log_r[i] = log_r[twin[i]] = (math.log(2 * n) - ushift + math.log(bounds[i])
                                     + n * log_m[i] - math.fsum(rows[i]))
    # disks i and j meet when log |z_i - z_j| <= log(r_i + r_j), which is
    # at most log 2 + max log_r
    reach = _LOG2 + max(log_r)
    suspect = {i for i in range(n) if log_r[i] > log_tol + log_m[i]}
    for d, i, k in pairs:
        if d <= reach and d <= _logaddexp(log_r[i], log_r[k]):
            suspect.update((i, k, twin[i], twin[k]))
    return log_r, tuple(sorted(suspect))


def _residual(bound, unit, bits):
    # bound 2^-unit, rounded up to bits
    return mp.make_mpf(from_man_exp(bound, -unit, bits, round_ceiling))


def _logaddexp(a, b):
    # log(e^a + e^b) without overflow, and exactly a + log 2 at a == b
    if a == b:
        return a + _LOG2
    d = a - b
    return a + math.log1p(math.exp(-d)) if d > 0 else b + math.log1p(math.exp(d))


def _rounded(exact, prec):
    # each c_k 2^prec to the nearest integer (ties up), without a Fraction's gcd
    return [((c.numerator << (prec + 1)) + c.denominator) // (2 * c.denominator) for c in exact]


def _guard_bits(exact) -> int:
    # an integer >= -log2 min |c_k| over the nonzero c_k (at most two bits
    # over), or 0 when every |c_k| >= 1; it sizes P's rounded coefficients
    return max(0, max(c.denominator.bit_length() - abs(c.numerator).bit_length() + 1
                      for c in exact if c))


def _below(hull) -> int:
    # -log2 of the smallest zero modulus the Newton polygon predicts: its first slope, or 0
    (k0, l0), (k1, l1) = hull[:2] if len(hull) > 1 else [(0, 0), (1, 0)]
    return max(0, math.ceil((l1 - l0) / (k1 - k0)))


def start_precision(coeffs) -> tuple:
    """(bits, below): the default working precision for the coefficients
    and -log2 of the smallest zero modulus their Newton polygon predicts
    (its first slope, or 0): 256 bits, or 2 below + 128 where the lift's
    2^-(bits // 2) would leave such a zero fewer than 64 bits of its own."""
    below = _below(tropical.hull(coeffs))
    return max(256, 2 * below + 128), below


def fixes_double(z, log_radius) -> bool:
    """Whether every point within e^log_radius of z prints as z does, part
    by part, -0.0 apart from 0.0 (complex(z)); a part that is exactly 0 is
    left out: an isolated disk proves a real zero real, P being real.
    Rounding is monotone, so the ends of each part's range, with a radius
    2^k > e^log_radius (or past every double), decide."""
    k = math.floor(min(log_radius, 710) / _LOG2) + 1
    return all(p == fzero or len({to_float(mpf_add(p, q), rnd=round_nearest).hex()
                                  for q in (fzero, (0, 1, k, 1), (1, 1, k, 1))}) == 1
               for p in (z.real._mpf_, z.imag._mpf_))


def find_zeros(coeffs: tuple, precision_bits: int, seeds=None) -> ZeroSet:
    """All zeros, with inclusion disks, of the monic polynomial whose exact
    Fraction coefficients c_0..c_n (c_n = 1) are coeffs, as
    laguerre.monic_rescaled returns them.

    c_0 = ... = c_{m-1} = 0 make a zero of order m at the origin, returned
    as ZeroSet.origin_multiplicity; the rest sees c_m..c_n alone.

    The sweeps run at bits = min(LOW_BITS, precision_bits) to tolerance
    2^-(bits//2), which leaves a root about bits correct bits, and the lift
    takes each on from them until its step for precision_bits is at most
    tol max(1, |z|), tol = 2^-(precision_bits//2): every root ends in the lift.
    Sweeps that do not converge, or a lift step that does not contract or
    meets P' = 0, restart the sweeps from the seeds at twice the bits;
    ZeroSet.iterations counts every pass's sweeps. Without seeds the roots
    start, unpaired, on the Newton polygon's circles (initial_guesses).

    The pair sums keep bits + 16 bits below the smallest root modulus the
    hull predicts. P's coefficients are rounded once from coeffs to
    precision_bits + max(0, -log2 min_k |c_k|) + 16 bits over the nonzero
    c_k, and again after the sweeps to as many more bits as the largest
    cancellation they measured; the lift's scaled coefficients are rounded
    from them, and the certificate bounds |P| at each root on its ring's,
    at the lift's last word for precision_bits. The roots are returned at
    precision_bits, and the disks are centred on those values; a disk that
    does not fix its zero's printed doubles makes the zero suspect.

    Raises NonConvergence when the sweeps at precision_bits exhaust
    MAX_ITERATIONS, the lift fails from them, or a residual bound exceeds
    tol; callers retry once, at doubled precision.
    """
    if coeffs[-1] != 1:
        raise ValueError("find_zeros expects a monic polynomial")
    origin = next(k for k, c in enumerate(coeffs) if c)
    coeffs = coeffs[origin:]
    n = len(coeffs) - 1
    if n == 0:
        return ZeroSet((), (), origin, precision_bits)
    with mp.workprec(precision_bits):
        tol = mp.mpf(2) ** (-(precision_bits // 2))
        if seeds is None:
            seeds = initial_guesses(coeffs)
        zs = [mp.mpc(s) for s in seeds]
        if len(zs) != n:
            raise ValueError(f"need {n} seeds, got {len(zs)}")

        guarded = precision_bits + _guard_bits(coeffs) + 16
        hull = tropical.hull(coeffs)
        rings, below = tropical.Rings(_rounded(coeffs, guarded), guarded, hull), _below(hull)
        # pair before rounding: to_fixed floors, so to_fixed(-y) != -to_fixed(y)
        reps, twin = _conjugate_classes(zs)
        bits, iterations = min(LOW_BITS, precision_bits), 0
        while True:
            pos = bits + 16 + below
            fixed = _to_fixed(reps, pos)
            sweeps, exact, rows = _aberth_fixed(
                fixed, twin, pos, 1 << (pos - bits // 2), MAX_ITERATIONS,
                partial(_scaled_newton, rings, prec=pos, acc=bits))
            iterations += MAX_ITERATIONS if sweeps is None else sweeps
            words = rings.take_words()
            debug(__name__, "%s sweeps at %d bits (%d rings, %d-%d-bit words, "
                  "%d of %d rows in fixed point)", sweeps, bits, len(words),
                  min(words.values()), max(words.values()), exact, rows)
            # zeros that lose c bits to cancellation need c more of P's bits
            wide = guarded + max(rings.cancellation.values(), default=0)
            if wide > rings.prec:
                rings.widen(_rounded(coeffs, wide), wide)
            # a root frozen by a step of 2^-(bits//2) holds about bits bits
            lifted = None if sweeps is None else _lift(rings, fixed, pos, bits, precision_bits)
            words = rings.take_words()
            if lifted is not None:
                levels, roots = lifted
                debug(__name__, "lifted to %d bits in %d Newton levels (%d-%d-bit words)",
                      precision_bits, levels, min(words.values()), max(words.values()))
                break
            if bits == precision_bits:
                # nothing left to escalate to: the swept roots, bounded in
                # their rings, give the worst residual NonConvergence reports
                worst = max(_certify(rings, rings.ring(x, y, pos), x, y, pos,
                                     precision_bits)[2] for x, y in fixed)
                raise NonConvergence(iterations,
                                     _residual(worst, rings.prec + 1, precision_bits))
            debug(__name__, "escalating from %d bits: %s", bits,
                  "sweeps did not converge" if sweeps is None else "lift failed")
            bits = min(2 * bits, precision_bits)
        # rounding to nearest is odd in y, so an implied twin is returned
        # as the exact conjugate of its representative, and P is real, so
        # it shares its bound
        roots += [(mp.conj(z), word, b) for (z, word, b), t in zip(roots, twin) if t]
        roots.sort(key=lambda r: _sorted_key(r[0]))
        zs = [z for z, _, _ in roots]
        unit = rings.prec + 1  # _certify's bounds are in 2^-unit
        residuals = tuple(_residual(b, unit, precision_bits) for _, _, b in roots)
        if max(residuals) > tol:
            raise NonConvergence(iterations, max(residuals))
        fixed, e = _exact_fixed([(z.real._mpf_, z.imag._mpf_) for z in zs])
        log_r, suspect = _certificate(fixed, e, [b for _, _, b in roots], unit,
                                      float(mp.log(tol)))
        suspect = tuple(sorted({*suspect, *(i for i, z in enumerate(zs)
                                            if not fixes_double(z, log_r[i]))}))
        words = [word for _, word, _ in roots]
        debug(__name__, "certificate at %d-%d-bit words: worst log radius %.1f, %d suspect",
              min(words), max(words), max(log_r), len(suspect))
    return ZeroSet(tuple(zs), residuals, origin, precision_bits, iterations,
                   tuple(log_r), suspect)
