"""Simultaneous zero finding for monic polynomials at arbitrary precision.

Aberth-Ehrlich iteration: Jacobi-style sweep where each approximation moves by
newton / (1 - newton * sum_j 1/(z_i - z_j)). A root whose step falls below
tol is frozen: later sweeps no longer update it, though it still enters the
other roots' pair sums, and the iteration stops once every root is frozen
(Bini, Numer. Algorithms 13, 1996). One Newton step per root then polishes
the frozen approximations.

The coefficients are real, so the zeros are closed under conjugation. When
the seeds are too (each non-real seed's exact conjugate is also a seed),
the kernel stores one representative per conjugate class: each real seed,
and the member with Im z > 0 of each pair. The other member is implied,
never updated, and enters the pair sums as the conjugate of its twin; real
roots stay exactly real. Otherwise every seed runs on its own.

The sweeps and the polish run on fixed-point Gaussian integers: (X, Y)
stands for (X + iY) 2^-W, so each product is one big-integer multiply in C
instead of an mpc operation in pure Python.

Tropical scaling (lagzero.tropical) sizes the words. The roots are
grouped into rings of |z|; in each, Horner runs on Q(w) = P(s w) 2^-m at
|w| <= 1, with s >= |z| and 2^m about P's largest term at |z| = s. In Q's
units each value is then off by at most 2 (n + 1) 2^-W, and the Newton
step is s Q/Q'. So b correct bits of a root need
W = b + cancellation + ceil(log2(n + 1)) + 16 bits, the cancellation
-log2 |w Q'(w)| being read off the evaluations the kernel makes anyway;
a ring whose word turns out short is widened. The pair sums see only
differences of roots: their positions keep 16 bits past the accuracy,
below the smallest root modulus the Newton polygon predicts.

The sweeps need far fewer bits than the result (Bini & Robol 2014): they
run at LOW_BITS = 128 bits, and each root is then lifted on its own,
without pair sums, by Newton steps that double its accuracy on words that
grow with it, up to the working precision. A lift step that does not
contract, as next to zeros that 128 bits cannot tell apart, sends the
sweeps back to the seeds at twice the bits; at the working precision they
are the whole run.

A last fixed-point Horner pass bounds each |P(z_i)| on P's own
coefficients, rounded to the working precision plus the bits the smallest
nonzero coefficient sits below 1 plus 16 guard bits, and so proves what
the scaled kernel returns without relying on it. Each connected component
of the disks |w - z_i| <= n |P(z_i)| / prod_{j != i} |z_i - z_j| holds as
many zeros as disks (Neumaier, J. Comput. Appl. Math. 156, 2003). Stage
boundaries are logged at DEBUG on this module's logger."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import mpmath as mp
from mpmath.libmp import from_man_exp, round_ceiling, to_fixed

from . import tropical
from .debuglog import debug
from .errors import NonConvergence
from .tropical import initial_guesses

MAX_ITERATIONS = 200
# the precision of the first Aberth pass; the lift raises it to the caller's
LOW_BITS = 128
_LOG2 = math.log(2)


@dataclass(frozen=True)
class ZeroSet:
    """Zeros with upper bounds on |P(z)| / max(1, |z|)^n and inclusion radii.
    A disk that meets no other holds exactly one zero; suspect lists those
    that meet another or whose radius exceeds tol max(1, |z|)."""

    zeros: tuple
    residuals: tuple
    origin_multiplicity: int
    precision_bits: int
    iterations: int = 0
    radii: tuple = ()
    suspect: tuple = ()

    @property
    def count(self) -> int:
        return len(self.zeros) + self.origin_multiplicity


def _sorted_key(z):
    # the printed doubles, so iteration noise in the real parts of a
    # conjugate pair cannot decide which member comes first
    return (float(z.real), float(z.imag))


def _to_fixed(zs, prec):
    return [(to_fixed(z.real._mpf_, prec), to_fixed(z.imag._mpf_, prec)) for z in zs]


def _conjugate_classes(zs):
    """One representative per conjugate class of the seeds, and twin flags.

    A real seed stands for itself. A seed with Im z > 0 stands for itself
    and its exact conjugate (twin flag set) when every non-real seed has
    its exact conjugate among the seeds; otherwise every seed stands for
    itself alone.
    """
    upper = Counter(z for z in zs if z.imag > 0)
    if upper != Counter(mp.conj(z) for z in zs if z.imag < 0):
        return zs, [False] * len(zs)
    reps = [z for z in zs if z.imag >= 0]
    return reps, [z.imag > 0 for z in reps]


def _fixed_horner(cs, x, y, prec, deriv=True):
    # P(z) and, with deriv, P'(z) at z = (x + iy) 2^-prec; cs holds c_0..c_n
    # scaled by 2^prec. Each complex product takes three multiplies (Gauss);
    # the integers are exact, so the shift alone rounds. P's recurrence
    # does not read P', so both branches give the same P bit for bit.
    if y == 0:
        # the complex loop with every imaginary part 0, bit for bit
        px, dx = cs[-1], 0
        if not deriv:
            for c in reversed(cs[:-1]):
                px = ((x * px) >> prec) + c
            return px, 0
        for c in reversed(cs[:-1]):
            dx = ((x * dx) >> prec) + px
            px = ((x * px) >> prec) + c
        return px, 0, dx, 0
    px, py, dx, dy = cs[-1], 0, 0, 0
    xpy, ymx = x + y, y - x
    if not deriv:
        for c in reversed(cs[:-1]):
            k = x * (px + py)
            px, py = ((k - py * xpy) >> prec) + c, (k + px * ymx) >> prec
        return px, py
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


def _pair_sums(zs, twin, active, prec, floor):
    """sum 1/(z_i - w) over every root w != z_i, for every active i, in
    fixed point.

    The roots are zs plus conj(zs[j]) for each j with twin[j] set. Each
    term is conj(e) r with e = z_i - w and r = 2^(3 prec) // |e|^2, held in
    2^-(2 prec) units until the total is shifted back. r is symmetric in i and j and the sweep is Jacobi, so two
    active roots share one division: they receive exactly opposite direct
    terms, and two twins' conjugate terms are -conj of each other. For a
    real i (twin unset) the conjugate term of a twin j is the conjugate of
    its direct term, so the sum of a real root has imaginary part 0.
    """
    cube = 1 << (3 * prec)
    acc = {i: [0, 0] for i in active}
    for i in active:
        x, y = zs[i]
        si, ti = acc[i], twin[i]
        for j, (wx, wy) in enumerate(zs):
            sj = acc.get(j)
            if sj is not None and j < i:
                continue  # an active j < i already added this pair
            tj = twin[j]
            if j != i:
                ex, ey = x - wx, y - wy
                if ex == 0 and ey == 0:
                    # coincident approximations: opposite offsets part them
                    ex = ey = floor
                r = cube // (ex * ex + ey * ey)
                tx, ty = ex * r, ey * r
                if tj and not ti:
                    si[0] += 2 * tx
                else:
                    si[0] += tx
                    si[1] -= ty
                if sj is not None:
                    if ti and not tj:
                        sj[0] -= 2 * tx
                    else:
                        sj[0] -= tx
                        sj[1] += ty
            if ti and tj:
                # w = conj z_j; j == i is the twin's own 1/(2i y)
                ex, ey = x - wx, y + wy
                if ex == 0 and ey == 0:
                    ex = ey = floor
                r = cube // (ex * ex + ey * ey)
                tx, ty = ex * r, ey * r
                si[0] += tx
                si[1] -= ty
                if sj is not None and j != i:
                    sj[0] -= tx
                    sj[1] -= ty
    return {i: (sx >> prec, sy >> prec) for i, (sx, sy) in acc.items()}


def _within(cx, cy, x, y, tol, prec):
    # |c| <= tol max(1, |z|), all three in 2^-prec units; squared and
    # scaled by 2^(4 prec)
    return (cx * cx + cy * cy) << (2 * prec) <= tol * tol * max(1 << (2 * prec), x * x + y * y)


def _shift(v, s):
    # v 2^s, rounded toward -inf when s < 0
    return v << s if s >= 0 else v >> -s


def _plain_newton(cs, prec, x, y, final):
    # _aberth_fixed's newton on P's own coefficients cs, scaled by 2^prec,
    # every step sized: the reference the scaled kernel is checked against
    px, py, dx, dy = _fixed_horner(cs, x, y, prec)
    if px == 0 and py == 0:
        return (0, 0), True
    if dx == 0 and dy == 0:
        return None, True
    return _fixed_div(px, py, dx, dy, prec), True


def _aberth_fixed(zs, twin, prec, tol, max_iterations, newton):
    """Freeze-rule Aberth sweeps and the Newton polish on fixed-point zs.

    zs holds representatives: the roots are zs plus conj(zs[i]) for each i
    with twin[i] set (see _pair_sums). tol, in 2^-prec units, is the
    freeze tolerance, the nudge off a critical point and the offset that
    parts coincident approximations. newton(x, y, final) returns
    (step, sized): step is P(z)/P'(z) at z = (x + iy) 2^-prec in 2^-prec
    units, (0, 0) at P(z) = 0 and None at P'(z) = 0, and sized is false
    when the word it was evaluated on proved too short for a step that
    small to count; such a root stays active. final is set for the
    polish, whose step is the root's last. Returns the sweep count, or None when
    max_iterations run out; zs is updated in place either way.
    """
    one = 1 << prec
    active = list(range(len(zs)))
    for it in range(1, max_iterations + 1):
        # every pair sum is taken before any root moves (Jacobi order)
        sums = _pair_sums(zs, twin, active, prec, tol)
        still = []
        for i in active:
            x, y = zs[i]
            step, sized = newton(x, y, False)
            if step is None:
                # nudge off the critical point, along the axis for a real
                # root so that it stays real; rare with spread seeds
                zs[i] = (x + tol, y + tol if y else 0)
                still.append(i)
                continue
            nx, ny = step
            sx, sy = sums[i]
            ax = one - ((nx * sx - ny * sy) >> prec)
            ay = -((nx * sy + ny * sx) >> prec)
            if ax == 0 and ay == 0:
                cx, cy = nx, ny
            else:
                cx, cy = _fixed_div(nx, ny, ax, ay, prec)
            if not (sized and _within(cx, cy, x, y, tol, prec)):
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
        step, _ = newton(x, y, True)
        if step is not None:
            zs[i] = (x - step[0], y - step[1])
    return it


def _ring_newton(rings, j, acc, x, y, e, a=1, final=True):
    """The Newton step Q(w)/Q'(w) on the scaled polynomial of ring j
    (tropical.Rings) at w = (x + iy) 2^-e / a, on the ring's word for acc
    correct bits. Returns (word, wx, wy, step, sized): w rounded to
    (wx + i wy) 2^-word, step in 2^-word units, (0, 0) at Q(w) = 0 and
    None at Q'(w) = 0, and sized false when the evaluation proves the word
    short (Rings.measure), which widens the ring's later words. A final
    step, one that has to count, is then taken once more on the widened
    word; a sweep's is used as it is, and its root stays active.
    """
    for _ in range(2 if final else 1):
        word = rings.word(j, acc)
        q = rings.coefficients(j, word)[3]
        wx, wy = _shift(x, word - e) // a, _shift(y, word - e) // a
        px, py, dx, dy = _fixed_horner(q, wx, wy, word)
        if px == 0 and py == 0:
            return word, wx, wy, (0, 0), True
        if dx == 0 and dy == 0:
            return word, wx, wy, None, True
        sized = rings.measure(j, word, acc, dx, dy)
        if sized:
            break
    return word, wx, wy, _fixed_div(px, py, dx, dy, word), sized


def _scaled_newton(rings, x, y, final, prec, acc):
    """_aberth_fixed's newton at z = (x + iy) 2^-prec for a root that needs
    acc correct bits: _ring_newton in z's ring at w = z/s, and back as
    s Q/Q'."""
    j = rings.ring(x, y, prec)
    a, t = rings.scale(j)
    word, _, _, step, sized = _ring_newton(rings, j, acc, x, y, prec - t, a, final)
    if step is None:
        return None, sized
    sh = word + t - prec
    return (_shift(a * step[0], -sh), _shift(a * step[1], -sh)), sized


def _lift(rings, zs, prec, bits, target):
    """Newton steps that raise fixed-point representatives zs, in 2^-prec
    units with about bits correct bits, to target bits, one root at a time
    and without pair sums.

    Each root stays in the ring of its |z| and moves in that ring's frame
    w = z/s, and the rings are lifted one after the other, each rounded
    once for its last word. Each level doubles the accuracy acc and takes
    _ring_newton's step for min(acc, target) bits. A root is done after a
    step for target bits of at most tol max(1, |z|), tol = 2^-(target // 2).
    A step toward acc must stay within 2^-(acc/4) max(1, |z|), the
    tolerance of the level it starts from: a larger one means the
    approximation did not hold the bits claimed for it, as next to a zero
    that the low words cannot separate from its neighbour. Returns None at
    such a step or at P' = 0, else (levels, roots): roots[i] = (x, y, e)
    is the lifted z_i as exactly (x + iy) 2^-e, and levels the most any
    ring took.
    """
    rings_of = {}
    for i, (x, y) in enumerate(zs):
        rings_of.setdefault(rings.ring(x, y, prec), []).append(i)
    out, levels = [None] * len(zs), 0
    for j, todo in rings_of.items():
        # one rounding, for the last level's word; the levels below shift
        # down from it, and the sweeps' shorter rounding goes first
        rings.release(j)
        rings.coefficients(j, rings.word(j, target))
        a, t = rings.scale(j)
        # root i as (w_x, w_y, e) for w = (w_x + i w_y) 2^-e
        roots = {i: (_shift(zs[i][0], t) // a, _shift(zs[i][1], t) // a, prec)
                 for i in todo}
        acc, level = bits, 0
        while todo:
            acc *= 2
            goal, still = min(acc, target), []
            for i in todo:
                word, x, y, step, _ = _ring_newton(rings, j, goal, *roots[i])
                if step is None:
                    return None
                cx, cy = step
                # both tests in z's units, 2^-(word + t): exact multiples by a
                zp, ax, ay, ux, uy = word + t, a * x, a * y, a * cx, a * cy
                if not _within(ux, uy, ax, ay, _pow2(zp - acc // 4), zp):
                    return None
                roots[i] = (x - cx, y - cy, word)
                if goal < target or not _within(ux, uy, ax, ay,
                                                _pow2(zp - target // 2), zp):
                    still.append(i)
            todo, level = still, level + 1
        rings.release(j)
        levels = max(levels, level)
        for i, (wx, wy, e) in roots.items():
            out[i] = (a * wx, a * wy, e + t)
    return levels, out


def _pow2(e):
    return 1 << e if e >= 0 else 0


def _certificate(cs, fixed, prec, log_tol):
    """Residual bounds in 2^-prec units, log radii and suspect indices.

    A _fixed_horner step adds one coefficient rounding (at most 1/2) and
    a floor of each component (under sqrt 2 together), in 2^-prec units, so
    |P~(z) - P(z)| <= 2 (n + 1) max(1, |z|)^n 2^-prec (Higham, sec. 5.1).
    The radius n (|P~(z_i)| + that) / prod_{j != i} |z_i - z_j| is doubled
    to cover the float64 sum of logs that stands for the product.

    The coefficients are real, so |P(conj z)| = |P(z)|: P~ is taken at
    (x, |y|) only, once for both members of an exact pair.
    """
    n, shift = len(cs) - 1, prec * math.log(2)
    bounds, log_m, upper = [], [], {}
    for x, y in fixed:
        m = math.isqrt(x * x + y * y)  # floor(|z| 2^prec)
        bound = upper.get((x, abs(y)))
        if bound is None:
            px, py = _fixed_horner(cs, x, abs(y), prec, False)
            bound = math.isqrt(px * px + py * py) + 1
            if m >> prec:
                # over max(1, |z|)^n = |z|^n, rounded down at 64 bits a factor
                s = max(0, min(prec, m.bit_length() - 64))
                bound = -(-(bound << (n * (prec - s))) // (m >> s) ** n)
            bound = upper[x, abs(y)] = bound + 2 * (n + 1)
        bounds.append(bound)
        log_m.append(max(0.0, math.log(m or 1) - shift))
    # log |z_i - z_j|, -inf where two coincide
    dist = [[0.0] * n for _ in range(n)]
    for i, (x, y) in enumerate(fixed):
        for j, (u, v) in enumerate(fixed[:i]):
            dd = (x - u) ** 2 + (y - v) ** 2
            dist[i][j] = dist[j][i] = 0.5 * math.log(dd) - shift if dd else -math.inf
    log_r = [math.log(2 * n) - shift + math.log(b) + n * lm - math.fsum(row)
             for b, lm, row in zip(bounds, log_m, dist)]
    # disks i and j meet when log |z_i - z_j| <= log(r_i + r_j), which is
    # at most log 2 + max log_r
    reach = _LOG2 + max(log_r)
    suspect = {i for i in range(n) if log_r[i] > log_tol + log_m[i]}
    for i, row in enumerate(dist):
        for j in range(i):
            if row[j] <= reach and row[j] <= _logaddexp(log_r[i], log_r[j]):
                suspect.update((i, j))
    return bounds, log_r, tuple(sorted(suspect))


def _logaddexp(a, b):
    # log(e^a + e^b) without overflow, and exactly a + log 2 at a == b
    if a == b:
        return a + _LOG2
    d = a - b
    return a + math.log1p(math.exp(-d)) if d > 0 else b + math.log1p(math.exp(d))


def _guard_bits(exact) -> int:
    # an integer >= -log2 min |c_k| over the nonzero c_k (at most two bits
    # over), or 0 when every |c_k| >= 1; it sizes the certificate's words
    return max(0, max(c.denominator.bit_length() - abs(c.numerator).bit_length() + 1
                      for c in exact if c))


def find_zeros(coeffs: tuple, precision_bits: int,
               seeds=None, max_iterations: int = MAX_ITERATIONS) -> ZeroSet:
    """All zeros, with inclusion disks, of the monic polynomial whose exact
    Fraction coefficients c_0..c_n (c_n = 1) are coeffs, as
    laguerre.monic_rescaled returns them.

    Zero low-order coefficients c_0 = ... = c_{m-1} = 0 are a zero of
    order m at the origin: they are stripped first and returned as
    ZeroSet.origin_multiplicity, and everything below (the seeds, one per
    remaining zero, the sweeps and the certificate) sees c_m..c_n alone.

    Each Aberth sweep updates only the roots whose last step exceeded a
    tolerance times max(1, |z|); the sweeps end when none is left, and a
    final Newton step z -= P(z)/P'(z) polishes every root. The sweeps run at
    bits = min(LOW_BITS, precision_bits) with tolerance 2^-(bits//2); below
    precision_bits, Newton steps then lift each root, doubling its accuracy
    per step, until a step on the words for precision_bits is at most
    tol * max(1, |z|), tol = 2^-(precision_bits//2).
    When those sweeps do not converge, or a lift step does not contract or
    meets P' = 0, the sweeps start again from the seeds at twice the bits;
    at precision_bits they meet tol and need no lift. ZeroSet.iterations
    counts the sweeps of every pass. Without seeds the roots start,
    unpaired, on the circles of the Newton polygon (initial_guesses).
    Seeds closed under exact conjugation are iterated as one
    representative per conjugate class, and the zeros come back closed
    under it too.

    Sweeps, polish and lift evaluate the scaled polynomial of each root's
    ring (tropical.Rings) on words sized by the accuracy they need and the
    cancellation they measure; the pair sums run on positions that keep
    bits + 16 bits below the smallest root modulus the hull predicts. The
    certificate alone runs on P's coefficients rounded once from the exact
    coeffs to P = precision_bits + max(0, -log2 min_k |c_k|) + 16 bits over
    the nonzero c_k, the words the scaled coefficients are rounded from.
    The roots are returned at precision_bits, and the disks are centred on
    those values.

    Raises NonConvergence when the sweeps at precision_bits exhaust
    max_iterations, or when a residual bound exceeds tol; caller policy is
    a single retry at doubled precision.
    """
    assert coeffs[-1] == 1, "find_zeros expects a monic polynomial"
    origin = next(k for k, c in enumerate(coeffs) if c)
    coeffs = coeffs[origin:]
    n = len(coeffs) - 1
    if n == 0:
        return ZeroSet((), (), origin, precision_bits)
    with mp.workprec(precision_bits):
        tol = mp.mpf(2) ** (-(precision_bits // 2))
        if seeds is None:
            seeds = initial_guesses(n, coeffs=coeffs)
        zs = [mp.mpc(s) for s in seeds]
        if len(zs) != n:
            raise ValueError(f"need {n} seeds, got {len(zs)}")

        prec = precision_bits + _guard_bits(coeffs) + 16
        cs = [round(c * (1 << prec)) for c in coeffs]
        hull = tropical.hull(coeffs)
        rings = tropical.Rings(cs, prec, hull)
        # -log2 of the smallest root modulus the hull predicts: its first
        # edge's slope
        (k0, l0), (k1, l1) = hull[:2]
        below = max(0, math.ceil((l1 - l0) / (k1 - k0)))
        # pair before rounding: to_fixed floors, so to_fixed(-y) != -to_fixed(y)
        reps, twin = _conjugate_classes(zs)
        bits, iterations = min(LOW_BITS, precision_bits), 0
        while True:
            # at bits == precision_bits the sweeps run to tol itself, and
            # no lift follows
            full = bits == precision_bits
            pos = bits + 16 + below
            fixed = _to_fixed(reps, pos)
            sweeps = _aberth_fixed(fixed, twin, pos, 1 << (pos - bits // 2), max_iterations,
                                   partial(_scaled_newton, rings, prec=pos, acc=bits))
            iterations += max_iterations if sweeps is None else sweeps
            words = rings.take_words()
            debug(__name__, "%s sweeps at %d bits (%d rings, %d-%d-bit words)", sweeps,
                  bits, len(words), min(words.values()), max(words.values()))
            if full:
                roots = [(x, y, pos) for x, y in fixed]
                break
            lifted = None if sweeps is None else _lift(rings, fixed, pos, bits,
                                                       precision_bits)
            words = rings.take_words()
            if lifted is not None:
                levels, roots = lifted
                debug(__name__, "lifted to %d bits in %d Newton levels (%d-%d-bit words)",
                      precision_bits, levels, min(words.values()), max(words.values()))
                break
            debug(__name__, "escalating from %d bits: %s", bits,
                  "sweeps did not converge" if sweeps is None else "lift failed")
            bits = min(2 * bits, precision_bits)
        roots += [(x, -y, e) for (x, y, e), t in zip(roots, twin) if t]
        # rounding to nearest is odd in y, so an implied twin is returned
        # as the exact conjugate of its representative
        zs = [mp.mpc(mp.mpf((x, -e)), mp.mpf((y, -e))) for x, y, e in roots]
        # real coefficients force conjugate symmetry: an imaginary part at
        # the quarter-precision level is iteration dust on a real zero
        # (converged steps sit at 2^-prec/2), not a genuine pair; paired
        # runs keep real roots exactly real, so only unpaired seeds need this
        snap = mp.mpf(2) ** (-(precision_bits // 4))
        zs = sorted((mp.mpc(z.real, 0) if abs(z.imag) <= snap * max(1, abs(z.real))
                     else z for z in zs), key=_sorted_key)
        # rounding to precision_bits only drops low bits, so the disks are
        # centred exactly on the returned values
        bounds, log_r, suspect = _certificate(cs, _to_fixed(zs, prec), prec,
                                              float(mp.log(tol)))
        residuals = tuple(mp.make_mpf(from_man_exp(b, -prec, precision_bits, round_ceiling))
                          for b in bounds)
        debug(__name__, "certificate at %d-bit words: worst log radius %.1f, %d suspect",
              prec, max(log_r), len(suspect))
        if sweeps is None or max(residuals) > tol:
            raise NonConvergence(iterations, max(residuals))
    return ZeroSet(tuple(zs), residuals, origin, precision_bits, iterations,
                   tuple(mp.exp(r) for r in log_r), suspect)
