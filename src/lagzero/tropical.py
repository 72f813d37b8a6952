"""The Newton polygon of a polynomial's coefficients, and what the root
finder reads off it.

The upper convex hull of the points (k, log2 |c_k|) is the Newton polygon.
Its edge from k0 to k1 says that k1 - k0 zeros have modulus near
|c_k0 / c_k1|^(1/(k1 - k0)), a tropical root (Bini, Numer. Algorithms 13,
1996). initial_guesses seeds the zeros on those circles. Rings scales the
polynomial by its dominant term near each modulus (tropical scaling:
Gaubert & Sharify, LNCIS 389, 2009; Bini & Robol, J. Comput. Appl. Math.
272, 2014), so that a fixed-point word has to hold the bits a zero needs,
not the bits the smallest coefficient sits below 1.
"""

from __future__ import annotations

import math

import mpmath as mp

# what a ring's scale may cost at its inner edge: (s/|z|)^n <= 2^RING_BITS
RING_BITS = 8
# bits a scaled word keeps past the accuracy, the cancellation and log2(n + 1)
MARGIN = 16
# the bits a ring's rounding adds to the word it is asked for
_HEADROOM = 64
# a pair split into two real seeds puts them at its modulus times and
# divided by this
_SPLIT = 2 ** (1 / 8)


def _log2_abs(c) -> float:
    return math.log2(abs(c.numerator)) - math.log2(c.denominator)


def hull(coeffs) -> list:
    """Vertices (k, log2 |c_k|) of the upper convex hull of the nonzero
    Fraction coefficients c_k, left to right: the Newton polygon."""
    out = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        p = (k, _log2_abs(c))
        while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                 >= (p[0] - out[-2][0]) * (out[-1][1] - out[-2][1])):
            out.pop()
        out.append(p)
    return out


def initial_guesses(coeffs, real=None) -> list:
    """Seeds on the circles of the Newton polygon of the Fraction
    coefficients c_0..c_n (c_0 != 0), one per zero.

    The hull edge from k0 to k1 holds the k1 - k0 roots of its binomial
    c_k0 + c_k1 z^(k1 - k0), on the circle of radius
    |c_k0 / c_k1|^(1/(k1 - k0)). Paired sweeps keep a real seed real and a
    pair a pair, so seeds closed under conjugation must hold as many real
    seeds on each side of 0 as the polynomial has real zeros there.

    real = (p, q) says it has p positive and q negative real zeros. The
    seeds are then the binomials' roots, exact conjugate pairs and a real
    seed for each real root, with the two real seeds of nearest moduli r,
    r' on a side merged into the pair +-i sqrt(r r'), or the pair nearest
    that side's axis split into two real seeds 2^(1/4) apart around its
    modulus, until p are positive and q negative. The binomials' real
    roots on a side already have the parity of the real zeros there:
    Descartes' rule of signs reads both off the signs of c_0 and c_n.
    Without real, each binomial's roots are turned by pi/(2 (k1 - k0)):
    no seed is real and none has its conjugate among the seeds, so each
    runs on its own. Seeds placed on the predicted limit set come from
    harness._seeds_for.
    """
    ks = [k for k, _ in hull(coeffs)]
    sides, pairs, seeds = ([], []), [], []  # sides: real seeds' moduli, + and -
    for k0, k1 in zip(ks, ks[1:]):
        m = k1 - k0
        r = mp.mpf(2) ** ((_log2_abs(coeffs[k0]) - _log2_abs(coeffs[k1])) / m)
        # the binomial's roots are r e^(i pi u/m), u = 0, 2, .. when
        # -c_k0/c_k1 > 0 and u = 1, 3, .. otherwise; u and -u are a pair
        first = 0 if coeffs[k0] * coeffs[k1] < 0 else 1
        if real is None:
            seeds += [r * mp.expjpi((u + mp.mpf(1) / 2) / m) for u in range(first, 2 * m, 2)]
            continue
        for u in range(first, m + 1, 2):
            if u == 0 or u == m:
                sides[u != 0].append(r)
            else:
                pairs.append(r * mp.expjpi(mp.mpf(u) / m))
    if real is None:
        return seeds
    for side, want in zip(sides, real):
        if (len(side) - want) % 2:
            raise ValueError(f"{len(side)} real seeds on a side cannot become {want}")
        side.sort()
        while len(side) > want:
            i = min(range(len(side) - 1), key=lambda i: side[i + 1] / side[i])
            pairs.append(mp.mpc(0, mp.sqrt(side[i] * side[i + 1])))
            del side[i:i + 2]
    for side, want in zip(sides, real):
        while len(side) < want:
            z = (min if side is sides[0] else max)(pairs, key=mp.arg)
            pairs.remove(z)
            side += [abs(z) * _SPLIT, abs(z) / _SPLIT]
    return ([mp.mpc(r) for r in sides[0]] + [mp.mpc(-r) for r in sides[1]]
            + [w for z in pairs for w in (z, mp.conj(z))])


def _scaled_coefficients(cs, prec, a, t, m, word):
    """Q's coefficients c_k s^k 2^(word - m), s = a 2^-t, rounded from
    cs_k = c_k 2^prec: each within 1/2 + 2^-12 of
    cs_k a^k 2^(word - m - prec - t k).

    a^k and each cs_k keep only the bits the rounded product can reach,
    so every multiply is about word by word bits.
    """
    keep = word + 24 + len(cs).bit_length()
    out, p, e = [], 1, 0  # a^k = p 2^e, to keep bits
    for k, c in enumerate(cs):
        if k:
            p *= a
            d = p.bit_length() - keep
            if d > 0:
                p, e = p >> d, e + d
        sh = prec + t * k + m - word - e
        d = c.bit_length() - keep
        if d > 0:
            c, sh = c >> d, sh - d
        v = c * p
        out.append((v + (1 << (sh - 1))) >> sh if sh > 0 else v << -sh)
    return out


class Rings:
    """Scales and fixed-point words for Q(w) = P(s w) 2^-m, one scale s per
    ring of |z|, for the polynomial whose coefficients, scaled by 2^prec,
    are cs and whose Newton polygon is hull.

    Ring j holds the |z| in (2^((j-1)/K), 2^(j/K)], K = ceil(n/RING_BITS),
    and has the scale s = a 2^-t >= 2^(j/K) for a 16-bit integer a, and
    m = floor(log2 max_k |c_k| s^k), the hull's largest value at s. A root
    that needs acc correct bits is evaluated on acc + c + ceil(log2(n + 1))
    + MARGIN bits, rounded up to a multiple of 8, where c is the largest
    cancellation -log2 |w Q'(w)| measured in its ring so far (measure).
    The root finder's evaluation leaves Q(w) within 2 (n + 1) + 1 units of
    the word (rootfinder._quadratic_horner), under 2^(ceil(log2(n + 1)) + 2),
    so MARGIN - 2 bits stay past that bound.
    """

    def __init__(self, cs, prec, hull):
        n = len(cs) - 1
        self.cs, self.prec, self.hull = cs, prec, hull
        self.per_octave = -(-n // RING_BITS)
        self.spare = n.bit_length() + MARGIN  # ceil(log2(n + 1)) + MARGIN
        self.cancellation = {}  # ring -> largest cancellation measured in it
        self.rounded = {}  # ring -> (word, a, t, m, Q's coefficients)
        self.shifted = {}  # ring -> (word, (a, t, m, q)), the last word asked for
        self.words = {}  # ring -> widest word asked for since take_words

    def ring(self, x, y, prec):
        """The ring of z = (x + iy) 2^-prec; z = 0 falls in the innermost
        ring that a prec-bit word can tell from it."""
        r2 = x * x + y * y or 1
        return math.ceil(self.per_octave * (math.log2(r2) / 2 - prec))

    def scale(self, j):
        """(a, t) with s = a 2^-t >= 2^(j/K), a in [2^15, 2^16]."""
        e, f = divmod(j, self.per_octave)
        return math.ceil(2 ** (15 + f / self.per_octave)), 15 - e

    def word(self, j, acc):
        need = acc + self.cancellation.get(j, 0) + self.spare
        return -(-need // 8) * 8

    def coefficients(self, j, word):
        """(a, t, m, q): the scale s = a 2^-t, m, and Q's coefficients
        scaled by 2^word.

        A rounding costs about the same at any word, so a ring is rounded
        on _HEADROOM bits more than it is asked for, to cover the
        cancellation still to be measured, and kept; shorter words are
        shifted down from it, and the last one is kept too. Words are
        multiples of 8, so the first rounding adds at most 2^-9 of a unit
        to the second's half unit.
        """
        if word > self.words.get(j, 0):
            self.words[j] = word
        got = self.shifted.get(j)
        if got is not None and got[0] == word:
            return got[1]
        got = self.rounded.get(j)
        if got is None or got[0] < word:
            a, t = self.scale(j)
            log_s = math.log2(a) - t
            m = math.floor(max(lc + k * log_s for k, lc in self.hull))
            top = word + _HEADROOM
            got = self.rounded[j] = (top, a, t, m, _scaled_coefficients(
                self.cs, self.prec, a, t, m, top))
        top, a, t, m, q = got
        if top > word:
            half = 1 << (top - word - 1)
            q = [(c + half) >> (top - word) for c in q]
        self.shifted[j] = (word, (a, t, m, q))
        return a, t, m, q

    def take_words(self) -> dict:
        """{ring: the widest word its coefficients were asked for} since
        the last call, which starts the record afresh."""
        words, self.words = self.words, {}
        return words

    def release(self, j):
        """Drop ring j's coefficients; it is rounded again when asked."""
        self.rounded.pop(j, None)
        self.shifted.pop(j, None)

    def widen(self, cs, prec):
        """Round every ring again, when asked, from cs = c_k 2^prec; the
        cancellation measured so far is kept."""
        self.cs, self.prec = cs, prec
        self.rounded.clear()
        self.shifted.clear()

    def measure(self, j, word, acc, dx, dy) -> bool:
        """Record the cancellation -log2 |w Q'(w)|, to a bit or two (|w| is
        near 1 in its ring), from Q'(w) = (dx + i dy) 2^-word; whether the
        word was long enough for it, within 8 bits. A short one widens the
        ring's later words."""
        c = word - max(abs(dx), abs(dy)).bit_length()
        if c > self.cancellation.get(j, 0):
            self.cancellation[j] = c
        return word + 8 >= acc + c + self.spare
