"""Experiment harness: parameter plans, zero runs, comparison reports.

The pipeline mirrors the sensitivity experiments: pick alphas whose
distance to the integers decays like e^{-r n}, compute all zeros of the
scaled polynomial, classify them against the predicted limit set
Gamma_{r_hat} union [beta1, beta2], and boil the comparison down to a
small deterministic report (counts, KS discrepancies, mass error).

alpha values are carried as exact Fractions end to end; binary rounding
of, say, -31.999999 would silently change dist(alpha, Z) by orders of
magnitude, which is the quantity the whole experiment is about.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from mpmath import mp

from . import contour, laguerre, measure, rootfinder, tropical
from .debuglog import debug
from .errors import DomainError, NonConvergence, PlanError
from .landscape import make_context

_REPORT_FIELDS = (
    "n", "alpha", "r_hat", "max_deviation", "loop_count", "interval_count",
    "outlier_count", "ks_interval", "ks_loop", "mass_error", "residual_max",
    "origin_multiplicity", "valid",
)

_CSV_FIELDS = ("n", "alpha", "r_hat", "max_deviation", "ks_interval",
               "ks_loop", "mass_error")


class ParameterPlan(NamedTuple):
    A: Fraction
    r: float
    n_values: Tuple[int, ...]
    alphas: Tuple[Fraction, ...]


class RunOptions:
    """run_comparison's options: classify_tol and the sweep's deltas, each
    finite and > 0, and precision_bits, None for the default or >= 64;
    DomainError otherwise."""

    __slots__ = ("classify_tol", "sweep", "precision_bits")

    def __init__(self, classify_tol: float = 0.1,
                 sweep: Tuple[float, ...] = (0.05, 0.1, 0.2),
                 precision_bits: Optional[int] = None):
        for tol in (classify_tol, *sweep):
            if not (math.isfinite(tol) and tol > 0):
                raise DomainError(
                    f"classify_tol and sweep deltas must be finite and > 0, got {tol}")
        if precision_bits is not None and precision_bits < 64:
            raise DomainError(f"precision_bits must be >= 64, got {precision_bits}")
        self.classify_tol = classify_tol
        self.sweep = sweep
        self.precision_bits = precision_bits


class ComparisonReport(NamedTuple):
    n: int
    alpha: str
    r_hat: float
    max_deviation: float
    loop_count: int
    interval_count: int
    outlier_count: int
    ks_interval: float
    ks_loop: float
    mass_error: float
    residual_max: float
    origin_multiplicity: int
    valid: bool
    sweep: Tuple[Tuple[float, int, int, int], ...] = ()
    zeros: Tuple[Tuple[float, float, str], ...] = ()


def dist_to_integers(alpha) -> Fraction:
    """Exact distance from alpha to the nearest integer."""
    a = laguerre.parse_alpha(alpha)
    frac = a - math.floor(a)
    return min(frac, 1 - frac)


def r_hat_from(n: int, alpha) -> float:
    """-(1/n) log dist(alpha, Z); infinity at the integers."""
    dist = dist_to_integers(alpha)
    if dist == 0:
        return math.inf
    # a plain float log would round dist first and destroy tiny distances
    bits = max(64, 4 * (dist.denominator.bit_length() + 8))
    with mp.workprec(bits):
        val = -mp.log(mp.mpf(dist.numerator) / dist.denominator) / n
    return float(val)


def decimal_str(q: Fraction) -> str:
    """Exact decimal string when the denominator divides a power of 10."""
    num, den = q.numerator, q.denominator
    e2 = (den & -den).bit_length() - 1
    e5 = round(math.log(den >> e2, 5))
    if den != 5 ** e5 << e2:
        with mp.workprec(200):
            return mp.nstr(mp.mpf(num) / den, 40)
    k = max(e2, e5)  # the fewest digits after the point
    s = str(abs(num) * 10 ** k // den).rjust(k + 1, "0")
    head, tail = s[:len(s) - k], s[len(s) - k:].rstrip("0")
    return ("-" if num < 0 else "") + head + ("." + tail if tail else "")


def _round_frac(q: Fraction) -> int:
    # round-half-away-from-zero keeps the rounding independent of parity
    f = math.floor(q)
    return f + 1 if q - f >= Fraction(1, 2) else f


def _exp_fraction(r: float, n: int) -> Fraction:
    """e^{-r n} as an exact 40-digit decimal Fraction (capped at 1/2)."""
    if r == 0:
        return Fraction(1, 2)
    bits = int(1.5 * r * n) + 200
    with mp.workprec(bits):
        x = mp.e ** (-mp.mpf(r) * n)
        e = int(mp.floor(mp.log10(x)))
        digits = int(mp.floor(x * mp.mpf(10) ** (39 - e)))
    dist = Fraction(digits, 1) * Fraction(10) ** (e - 39)
    return min(dist, Fraction(1, 2))


def make_plan(A, r: float, n_values: Sequence[int],
              overrides: Optional[Sequence] = None) -> ParameterPlan:
    """Alphas with -alpha/n -> A and dist(alpha, Z) = e^{-r n} (up to 2x).

    For r = 0 the distance saturates at the maximum possible 1/2; for
    r = inf the alphas are the nearest integers -round(nA).  An explicit
    override list (one alpha per n, exact decimal strings or Fractions)
    replaces the construction, keeping only the A-consistency and
    degeneracy checks; that is the hook for direct parameter choices
    like alpha = -nA whose distances do not follow an e^{-rn} law.
    """
    A = laguerre.parse_alpha(A)
    if not 0 < A < 1:
        raise PlanError(f"A={A} outside (0,1)")
    if not r >= 0:  # NaN too
        raise PlanError(f"r={r} is not a rate >= 0")
    n_values = tuple(int(n) for n in n_values)
    if overrides is not None and len(overrides) != len(n_values):
        raise PlanError("need exactly one override alpha per n")
    alphas: List[Fraction] = []
    for i, n in enumerate(n_values):
        if n < 2:
            raise PlanError(f"n={n} too small to satisfy the invariants")
        if overrides is not None:
            a = laguerre.parse_alpha(overrides[i])
            if a == 0 or a == -n:
                raise PlanError(f"override alpha={a} is a degenerate edge")
            if r != math.inf and a.denominator == 1:
                raise PlanError(f"override alpha={a} is an integer but r={r}")
        else:
            k = _round_frac(n * A)
            k = min(max(k, 1), n - 1)
            if r == math.inf:
                a = Fraction(-k)
            else:
                a = -k + _exp_fraction(r, n)
        if abs(Fraction(-a, n) - A) > Fraction(1, n):
            raise PlanError(f"alpha={a} violates |-alpha/n - A| <= 1/n at n={n}")
        alphas.append(a)
    return ParameterPlan(A, float(r), n_values, tuple(alphas))


def _classify(zs: Sequence[complex], d_int: Sequence[float],
              d_loop: Sequence[float], delta: float) -> List[str]:
    # both sets can match near beta1 at loose tolerances; the nearer one
    # wins, with the interval taking exact ties
    labels = []
    for z, di, dl in zip(zs, d_int, d_loop):
        loop_ok = dl <= delta
        if di <= delta and abs(z.imag) < delta and (not loop_ok or di <= dl):
            labels.append("interval")
        else:
            labels.append("loop" if loop_ok else "outlier")
    return labels


def _counts(labels: Sequence[str]) -> Tuple[int, int, int]:
    return tuple(labels.count(lab) for lab in ("loop", "interval", "outlier"))


def _ks(cdf: Sequence[float]) -> float:
    # cdf: the normalised limit CDF at the sorted sample points; sup
    # distance to the empirical CDF on both sides of each jump
    k = len(cdf)
    return max((max(abs(f - (j + 1) / k), abs(f - j / k))
                for j, f in enumerate(cdf)), default=0.0)


def _seeds_for(n: int, alpha: Fraction, ctx, loop):
    # mu_r's interval mass 1 - A_n is n + alpha zeros, and the interval
    # takes the nearest whole number of seeds: Szego's positive count
    # (laguerre.real_zero_split), less the smallest positive zero when the
    # count exceeds n + alpha by frac(-alpha) > 1/2, for that zero sits at
    # the loop's positive crossing. The rest lie at the origin for integer
    # alpha (loop None; find_zeros strips them), else on the loop in
    # loop_quantiles' layout, x_r among them exactly when floor(-alpha) is odd
    positive, negative = laguerre.real_zero_split(n, alpha)
    k = positive - 1 if positive - (n + alpha) > Fraction(1, 2) else positive
    seeds = measure.interval_quantiles(ctx, k, float(n + alpha))
    if loop is not None:
        seeds.extend(measure.loop_quantiles(loop, n - k, negative))
    return seeds


def compute_zeros(n: int, alpha, precision_bits: Optional[int] = None) -> rootfinder.ZeroSet:
    """Certified zeros of the scaled polynomial L_n^{(alpha)}(nz), as a ZeroSet.

    The root finder gets the exact monic coefficients of
    laguerre.monic_rescaled, for every alpha, and rounds them itself; for
    integer alpha in {-n..-1} it counts the zero low coefficients as
    zset.origin_multiplicity. Inside the theorem range it starts from
    quantiles of mu_{r_hat} (_seeds_for; the loop's on
    contour.trace_coarse), round(n + alpha) of them on the interval, and
    the smallest positive zero at the loop's positive crossing when
    frac(-alpha) > 1/2; outside it from the circles of the Newton polygon
    (tropical.initial_guesses). Either way each side of 0 holds as many
    real seeds as laguerre.real_zero_split counts zeros there. The default
    precision is rootfinder.start_precision's.
    Retries once at doubled precision, logging why at DEBUG, on
    NonConvergence or suspect zeros; a second NonConvergence propagates, and
    a second suspect set is returned as it is. precision_bits below 64
    raises DomainError.
    """
    if n < 1:
        raise DomainError(f"degree n must be at least 1, got {n}")
    if precision_bits is not None and precision_bits < 64:
        # 0 is a precision, not "use the default"
        raise DomainError(f"precision_bits must be >= 64, got {precision_bits}")
    alpha_f = laguerre.parse_alpha(alpha)
    a_n, ctx, loop = Fraction(-alpha_f, n), None, None
    if 0 < a_n < 1:
        ctx, r_hat = make_context(a_n), r_hat_from(n, alpha_f)
        loop = None if math.isinf(r_hat) else contour.trace_coarse(ctx, r_hat)
    return _compute_zeros(n, alpha_f, precision_bits, ctx, loop)


def _compute_zeros(n, alpha_f, precision_bits, ctx, loop) -> rootfinder.ZeroSet:
    # n and precision_bits checked; seeded from mu_r when ctx is given (loop
    # None at r = inf), else from the Newton polygon
    coeffs = laguerre.monic_rescaled(n, alpha_f)
    bits, below = rootfinder.start_precision(coeffs)
    bits = precision_bits or bits

    seeds = None
    if ctx is not None:
        seeds = _seeds_for(n, alpha_f, ctx, loop)
    elif coeffs[0]:
        # the paired sweeps need as many real seeds as real zeros
        seeds = tropical.initial_guesses(coeffs, laguerre.real_zero_split(n, alpha_f))
    debug(__name__, "n=%d alpha=%s: starting at %d bits; the Newton polygon puts "
          "the smallest zero near 2^-%d", n, decimal_str(alpha_f), bits, below)
    try:
        zset = rootfinder.find_zeros(coeffs, bits, seeds=seeds)
    except NonConvergence as exc:
        zset, why = None, f"NonConvergence ({exc})"
    else:
        loose = sum(not rootfinder.fixes_double(zset.zeros[i], zset.log_radii[i])
                    for i in zset.suspect)
        why = zset.suspect and (f"{loose} suspect zeros whose disk does not fix a printed double, "
                                f"{len(zset.suspect) - loose} in disks that overlap or exceed tol")
    if why:
        debug(__name__, "retrying at %d bits: %s", 2 * bits, why)
        zset = rootfinder.find_zeros(coeffs, 2 * bits, seeds=seeds)
    return zset


def run_comparison(n: int, alpha, opts: RunOptions = RunOptions()) -> ComparisonReport:
    """Zeros of L_n^{(alpha)}(nz) against the predicted limit set.

    Against the limit measure the zeros were seeded from, its Gamma_r traced
    once (contour.trace_coarse), with each zero's loop distance and CDF read
    off phi at its foot (contour.foot_points; r_hat >= log 2/n, so never
    r = 0).
    Classification is interval-first inside the tolerance band, then loop,
    then outlier; the origin multiplicity of integer alpha counts toward the
    loop mass (the limit measure's atom at 0).
    """
    alpha_f = laguerre.parse_alpha(alpha)
    a_n = laguerre.theorem_ratio(n, alpha_f)
    ctx, r_hat = make_context(a_n), r_hat_from(n, alpha_f)
    gamma = None if math.isinf(r_hat) else contour.trace_coarse(ctx, r_hat)
    zset = _compute_zeros(n, alpha_f, opts.precision_bits, ctx, gamma)
    origin_mult = zset.origin_multiplicity
    valid = not zset.suspect

    # one foot point per zero; every tolerance below only thresholds it
    zeros = [complex(z) for z in zset.zeros]
    d_int = contour.interval_gap(ctx, zeros)
    A, b1, b2 = float(ctx.A), float(ctx.beta1), float(ctx.beta2)
    d_loop, cdf = [abs(z) for z in zeros], []
    if gamma is not None:
        feet, phis = contour.foot_points(ctx, gamma, zeros)
        d_loop = [abs(z - p) for z, p in zip(zeros, feet)]
        # the nu_r mass clockwise from x_r, over A: Im phi/pi + A/2 on both halves
        cdf = [0.5 + f.imag / (A * math.pi) for f in phis]
    labels = _classify(zeros, d_int, d_loop, opts.classify_tol)
    n_loop, n_int, n_out = _counts(labels)
    max_dev = max(map(min, d_int, d_loop), default=0.0)
    ss = sorted(u for u, lab in zip(cdf, labels) if lab == "loop")
    xs = sorted(z.real for z, lab in zip(zeros, labels) if lab == "interval")
    ks_interval = _ks([measure.interval_phase(A, b1, b2, x) / math.pi / (1 - A)
                       for x in xs])
    alpha_s = decimal_str(alpha_f)
    debug(__name__, "n=%d alpha=%s: %d loop, %d interval, %d outlier zeros; "
          "KS over %d loop and %d interval points", n, alpha_s, n_loop, n_int,
          n_out, len(ss), len(xs))
    mass = Fraction(n_loop + origin_mult, n) - a_n
    sweep = tuple((delta, *_counts(_classify(zeros, d_int, d_loop, delta)))
                  for delta in opts.sweep)

    return ComparisonReport(
        n=n,
        alpha=alpha_s,
        r_hat=r_hat,
        max_deviation=max_dev,
        loop_count=n_loop,
        interval_count=n_int,
        outlier_count=n_out,
        ks_interval=ks_interval,
        ks_loop=_ks(ss),
        mass_error=abs(float(mass)),
        residual_max=float(max(zset.residuals, default=mp.mpf(0))),
        origin_multiplicity=origin_mult,
        valid=valid,
        sweep=sweep,
        zeros=tuple((z.real, z.imag, lab) for z, lab in zip(zeros, labels)),
    )


def convergence_study(plan: ParameterPlan,
                      opts: RunOptions = RunOptions()) -> List[ComparisonReport]:
    """run_comparison per n; trend check on deviation and KS statistics.

    Raises NonConvergence when max_deviation, ks_interval, or ks_loop
    grows by more than 20% from one n to the next (the weak-* claim has
    no rate, so the slack is empirical).
    """
    reports = [run_comparison(n, a, opts)
               for n, a in zip(plan.n_values, plan.alphas)]
    for name in ("max_deviation", "ks_interval", "ks_loop"):
        vals = [getattr(rep, name) for rep in reports]
        for i in range(len(vals) - 1):
            if vals[i + 1] > 1.2 * vals[i] + 1e-12:
                raise NonConvergence(
                    iterations=i + 1,
                    worst_residual=vals[i + 1] / max(vals[i], 1e-300),
                )
    return reports


def _json_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


def report_to_dict(rep: ComparisonReport) -> dict:
    out = {name: _json_value(getattr(rep, name)) for name in _REPORT_FIELDS}
    out["sweep"] = [
        {"delta": d, "loop": lo, "interval": iv, "outlier": ou}
        for d, lo, iv, ou in rep.sweep
    ]
    return out


def report_json(rep: ComparisonReport) -> str:
    return json.dumps(report_to_dict(rep), indent=2)


def study_json(reports: Sequence[ComparisonReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


def study_csv(reports: Sequence[ComparisonReport]) -> str:
    rows = [_CSV_FIELDS] + [[str(_json_value(getattr(rep, name))) for name in _CSV_FIELDS]
                            for rep in reports]
    return "".join(",".join(row) + "\n" for row in rows)
