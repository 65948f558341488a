"""Exact and analytic enumeration of two-type trees, wheels, and unicycles.

Counting conventions.  F_s is the generating-function count of rooted
unlabelled two-type trees with s type-k vertices, the coefficient of z^s
in the unique series T with T(0) = 0 solving

    T = exp(z * (1 + T)^c0) - 1,       c0 = C(k, j) - 1.

`tj_series_fixed_point` solves this equation online, one coefficient of
U = 1 + T and of V = U^c0 per order, in O(s^2) integer products on
m! U_m and m! V_m and one Fraction per coefficient; it shares nothing
with the closed form, so the two check each other.

Closed form:  F_s = sum_{r=1..s} c0^(s-r) s^(s-r-1) / ((r-1)! (s-r)!),
which the binomial theorem collapses to (1 + c0 s)^(s-1) / s!, and the
labelled count is B_s = C(n, j) * C(n-j, k-j)^s * F_s.  Both are exact
rationals.  B_s weights sibling-label collisions by symmetry, so it
exceeds the plain count of distinct process instances, which
`brute_force_Bs` returns, by exactly prod_{i<s} (1 - i/(N(1 + c0 s)))^(-1)
with N = C(n-j, k-j); its count of instances with all labels distinct is
(1 + c0 s) times the number of s-edge j-hypertrees on [n], one per root.

Series and census arithmetic is exact; the probability-weighted bound
evaluators take log B_s from the one-power form, in floats, because values
like p0^(1-s) dwarf any float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from operator import add
from typing import Callable, NamedTuple

import numpy as np

from .combinatorics import TheoryParams, check_domain, comb_at_most, show_int, subset_masks
from .errors import ResourceLimitError, ValidationError

# Largest s of `laplace_sum_check`, whose two float arrays peak at 16 bytes per term
# under tracemalloc, 16 MB at this s.
MAX_LAPLACE_S = 1_000_000
# Largest size, in decimal digits, of the exact arithmetic in `wheel_constant`.
MAX_WHEEL_CONSTANT_DIGITS = 100_000


def _in_float_range(what: str, evaluate: Callable[[], float]) -> float:
    # The one float-range rule of the log-space bound evaluators: an OverflowError (an int,
    # lgamma or exp past the float range), or a result that rounds to inf or nan, is refused
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    raise ValidationError(f"{what} is past the float range")


class RationalSeries:
    """Truncated power series with exact Fraction coefficients, the result
    of `tj_series_fixed_point`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[Fraction]) -> None:
        self.coeffs = coeffs

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)


def tj_series_fixed_point(c0: int, s_max: int) -> RationalSeries:
    """The unique series T, T(0) = 0, with T = exp(z*(1+T)^c0) - 1.

    Solved one coefficient at a time for U = 1 + T and V = U^c0, from
    U_0 = V_0 = 1: U = exp(z*V) gives m U_m = sum_{i=1..m} i V_{i-1} U_{m-i},
    and the power rule U V' = c0 U' V gives
    m V_m = sum_{i=1..m} (c0 i - (m-i)) U_i V_{m-i}.  On the integers
    a_m = m! U_m and b_m = m! V_m these read

        a_m = sum_{i=1..m} i C(m-1, i-1) b_{i-1} a_{m-i},
        m b_m = sum_{i=1..m} (c0 i - (m-i)) C(m, i) a_i b_{m-i},

    where the division by m is exact (b_m = c0^m (1+m)^(m-1)).  Each order
    costs two length-m convolutions, O(s_max^2) in all, and each returned
    coefficient is one Fraction a_m / m!.
    """
    if s_max < 1:
        raise ValidationError(f"s_max must be >= 1, got {s_max}")
    if c0 < 1:
        raise ValidationError(f"c0 must be >= 1, got {c0}")
    a, b, row = [1], [1], [1]  # row: C(m-1, i) for i = 0..m-1
    coeffs, fact = [Fraction(0)], 1
    for m in range(1, s_max + 1):
        a.append(sum(i * row[i - 1] * b[i - 1] * a[m - i] for i in range(1, m + 1)))
        row = [1, *map(add, row, row[1:]), 1]
        mb, rest = divmod(sum((c0 * i - (m - i)) * row[i] * a[i] * b[m - i] for i in range(1, m + 1)), m)
        if rest:
            raise ArithmeticError(f"m b_m at m={m} is not a multiple of m")
        b.append(mb)
        fact *= m
        coeffs.append(Fraction(a[m], fact))
    return RationalSeries(coeffs)


def f_s(c0: int, s: int) -> Fraction:
    """Rooted unlabelled two-type tree count with s type-k vertices, exact.

    Evaluates sum_{r=1..s} c0^(s-r) s^(s-r-1) / ((r-1)!(s-r)!) over the
    common denominator s! * s, keeping everything in integer arithmetic.
    By Lagrange inversion of U = exp(z U^c0), U = 1 + T, the sum equals
    (1 + c0 s)^(s-1) / s! (Flajolet and Sedgewick, Analytic Combinatorics,
    2009, I.5 and A.6); `test_f_s_is_one_power` checks the identity.
    """
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    if c0 < 1:
        raise ValidationError(f"c0 must be >= 1, got {c0}")
    num = sum((c0 * s) ** (s - r) * r * math.comb(s, r) for r in range(1, s + 1))
    return Fraction(num, math.factorial(s) * s)


def b_s(params: TheoryParams, s: int) -> Fraction:
    """Labelled count: B_s = C(n, j) * C(n-j, k-j)^s * F_s, exact."""
    return _labelled(params, s, f_s(params.c0, s))


def _labelled(params: TheoryParams, s: int, fs: Fraction) -> Fraction:
    return math.comb(params.n, params.j) * params.supersets_per_jset**s * fs


def exp_reciprocal_bounds(c0: int, terms: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of e^(1/c0): truncated series and series + tail bound.

    The tail after m = `terms` is below x^(terms+1)/(terms+1)! * 1/(1 - x/(terms+2))
    for x = 1/c0 < terms + 2.
    """
    if c0 < 1 or terms < 1:
        raise ValidationError("need c0 >= 1 and terms >= 1")
    # low = sum_{m <= terms} terms!/m! c0^(terms-m) / (terms! c0^terms), whose
    # denominator is the m = 0 term
    term = num = 1
    for m in range(terms, 0, -1):
        term *= m * c0
        num += term
    low = Fraction(num, term)
    x = Fraction(1, c0)
    tail = (x ** (terms + 1) / math.factorial(terms + 1)) / (1 - x / (terms + 2))
    return low, low + tail


@dataclass(frozen=True)
class EnumReport:
    """Per-size report: exact counts and the two-sided tree-count bracket.

    lower = c0^(s-1) s^(s-1) / s!  and  upper = lower * E  with E a rational
    upper bound of e^(1/c0); bounds_hold checks lower <= F_s <= upper.
    """

    s: int
    f_s: Fraction
    b_s: Fraction
    lower: Fraction
    upper: Fraction
    bounds_hold: bool


def enum_report(params: TheoryParams, s: int, exp_bracket: tuple[Fraction, Fraction]) -> EnumReport:
    fs_val = f_s(params.c0, s)
    lower = Fraction(params.c0 ** (s - 1) * s ** (s - 1), math.factorial(s))
    upper = lower * exp_bracket[1]
    return EnumReport(
        s=s,
        f_s=fs_val,
        b_s=_labelled(params, s, fs_val),
        lower=lower,
        upper=upper,
        bounds_hold=lower <= fs_val <= upper,
    )


def brute_force_Bs(n: int, k: int, j: int, s: int) -> tuple[int, int]:
    """Exhaustively count branching-process-reachable rooted labelled trees.

    Returns (total, distinct) over trees with exactly s type-k vertices:
    sibling k-labels are distinct sets, labels may repeat across
    generations; distinct keeps trees whose labels are all distinct.
    Grows the trees rooted at {1..j} over vertex bitmasks, where j- and
    k-labels differ in bit count; Sym([n]) maps them one to one onto those
    at any root, so both counts are C(n, j) times theirs.
    Guarded to C(n, k) <= 50, s <= 4 and at most 10^6 rooted instances,
    C(N m, s) / m with N = C(n-j, k-j), m = 1 + c0 s, about 2 us each.
    """
    check_domain(n, k, j)
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    if (c := comb_at_most(n, k, 50)) is None or s > 4:
        got = "C(n,k) > 50" if c is None else f"C={c}"
        raise ResourceLimitError(
            f"brute-force guard: need C(n,k) <= 50 and s <= 4, got {got}, s={show_int(s)}"
        )
    m = 1 + (math.comb(k, j) - 1) * s
    if (rooted := math.comb(math.comb(n - j, k - j) * m, s) // m) > 10**6:
        raise ResourceLimitError(f"brute-force guard: need at most 10^6 rooted instances, got {rooted}")
    masks = cache(partial(subset_masks, n))  # for this call alone

    def grow(pending: tuple[int, ...], labels: tuple[int, ...], budget: int) -> tuple[int, int]:
        # (total, distinct) over the trees going on from these pending j-sets
        if not budget:
            return 1, len(set(labels)) == len(labels)
        if not pending:
            return 0, 0
        head, rest = pending[0], pending[1:]
        above = [head | other for other in masks(~head, k - j)]
        total = distinct = 0
        for c in range(budget + 1):
            for chosen in combinations(above, c):
                subs = tuple(sub for kset in chosen for sub in masks(kset, j) if sub != head)
                t, d = grow(rest + subs, labels + chosen + subs, budget - c)
                total, distinct = total + t, distinct + d
        return total, distinct

    root = (1 << j) - 1
    total, distinct = grow((root,), (root,), s)
    return math.comb(n, j) * total, math.comb(n, j) * distinct


def wheel_constant(k: int, j: int) -> Fraction:
    """c_w = (k-j)^j / (j!(k-j)!) * prod_{m=1..j-1} (1 - (C(k-m,j-m)-1)/c0)^(-1).

    Refused (ValidationError) outside 2 <= k and 1 <= j <= k-1, and
    (ResourceLimitError) when j! (k-j)! c0^(j-1), the size of the exact
    arithmetic, has more than MAX_WHEEL_CONSTANT_DIGITS digits.
    """
    _check_wheel_constant(k, j)
    c0 = math.comb(k, j) - 1
    cw = Fraction((k - j) ** j, math.factorial(j) * math.factorial(k - j))
    for m in range(1, j):
        cw /= 1 - Fraction(math.comb(k - m, j - m) - 1, c0)
    return cw


def _check_wheel_constant(k: int, j: int) -> None:
    # the refusals of `wheel_constant`
    check_domain(k, k, j)
    try:
        log_c0 = math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
        digits = ((j - 1) * log_c0 + math.lgamma(j + 1) + math.lgamma(k - j + 1)) / math.log(10)
    except OverflowError:  # a k past the float range, so j or k-j is too
        digits = math.inf
    if digits > MAX_WHEEL_CONSTANT_DIGITS:
        raise ResourceLimitError(f"c_w at (k, j) = ({show_int(k)}, {show_int(j)}) needs {digits:.3g} digits")


def _wheel_c0(n: int, k: int, j: int, ell: int) -> int:
    # c0, once the wheel-count bound's refusals, and those of c_w, have passed
    if ell < 2:
        raise ValidationError(f"wheel length must be >= 2, got {ell}")
    check_domain(n, k, j)
    _check_wheel_constant(k, j)
    return math.comb(k, j) - 1


def wheel_bound_exact(n: int, k: int, j: int, ell: int) -> tuple[Fraction, Fraction]:
    """Exact rational form of the wheel-count bound c_w n^(k-j) / (p0^(ell-1) ell).

    Known fault: where k < 2j the exhaustive census of wheels can pass it, as
    at (n, k, j, ell) = (8, 4, 3, 3), where the census is 560 and the bound 450.
    """
    c0, cw = _wheel_c0(n, k, j, ell), wheel_constant(k, j)
    return cw, cw * n ** (k - j) * (c0 * math.comb(n - j, k - j)) ** (ell - 1) / ell


def log_wheel_bound(n: int, k: int, j: int, ell: int) -> float:
    """Natural log of the `wheel_bound_exact` bound, in floats.  log C(n-j, k-j)
    is summed over its k-j factors (n-k+i)/i, so that no binomial of n is
    formed: the log can decide at any n whether the bound fits a float.
    log c_w is summed over its factors from the logs of exact binomials
    (`math.fsum`), so that no Fraction is formed either.
    """
    c0 = _wheel_c0(n, k, j, ell)
    log_c0 = math.log(c0)  # 1 - (C(k-m, j-m) - 1)/c0 = (c0 + 1 - C(k-m, j-m))/c0
    log_cw = math.fsum([j * math.log(k - j), -math.lgamma(j + 1), -math.lgamma(k - j + 1),
                        *(log_c0 - math.log(c0 + 1 - math.comb(k - m, j - m)) for m in range(1, j))])
    log_supersets = sum(math.log(n - k + i) - math.log(i) for i in range(1, k - j + 1))
    return _in_float_range("the log of the wheel bound", lambda: (
        log_cw + (k - j) * math.log(n) + (ell - 1) * (log_c0 + log_supersets)
        - math.log(ell)))


class LaplaceCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def laplace_sum_check(a: int, s: int) -> LaplaceCheck:
    """Check sum_{i=1..s} i^a falling(s,i)/s^i <= 5 (2a)^(a/2) s^((a+1)/2).

    Valid for s >= (16a)^2; the left side is accumulated in log space so
    huge s neither overflow nor underflow the partial products.
    """
    if a < 1:
        raise ValidationError(f"a must be >= 1, got {a}")
    if s < (16 * a) ** 2:
        raise ValidationError(f"need s >= (16a)^2 = {(16 * a) ** 2}, got {s}")
    if s > MAX_LAPLACE_S:
        raise ResourceLimitError(f"the Laplace sum takes s <= {MAX_LAPLACE_S}, got s={s}")
    # every step in place, so the peak is these two float arrays
    i = np.arange(1, s + 1, dtype=np.float64)
    log_ratio = i - 1
    log_ratio /= s
    np.negative(log_ratio, out=log_ratio)
    np.log1p(log_ratio, out=log_ratio)
    np.cumsum(log_ratio, out=log_ratio)  # log of falling(s, i)/s^i
    terms = np.log(i, out=i)
    terms *= a
    terms += log_ratio
    lhs = float(np.exp(terms, out=terms).sum())
    rhs = 5.0 * (2 * a) ** (a / 2) * s ** ((a + 1) / 2)
    return LaplaceCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


def _log_b_s(params: TheoryParams, s: int) -> float:
    # log B_s in floats, from F_s = (1 + c0 s)^(s-1) / s!; the exact `b_s` sums s big-integer terms
    if s < 1:
        raise ValidationError(f"s must be >= 1, got {s}")
    return _in_float_range("log B_s", lambda: (
        math.log(math.comb(params.n, params.j)) + s * math.log(params.supersets_per_jset)
        + (s - 1) * math.log(1 + params.c0 * s) - math.lgamma(s + 1)))


def _weighted_b_s(params: TheoryParams, s: int, x: int) -> float:
    # B_s p^s (1-p)^x, evaluated in log space.  x can pass the float range as an
    # int, so x log(1-p) is rounded once from the exact product; Rs lowers x by
    # s(1 + c0), which can lift the value past the float range
    if not params.epsilon > 0.0:  # a subcritical bound; at epsilon <= 0, p can be 1
        raise ValidationError(f"the bound needs epsilon in (0, 1), got {params.epsilon}")
    log_b = _log_b_s(params, s)
    return _in_float_range("the bound B_s p^s (1-p)^x", lambda: math.exp(
        log_b + s * math.log(params.p) + float(x * Fraction(math.log1p(-params.p)))))


def expected_Rs_upper(params: TheoryParams, s: int) -> float:
    """Upper bound on the expected total of type-j vertices over all
    branching instances of size s:
    B_s p^s (1-p)^((1+c0 s) C(n-j,k-j) - s(1+c0)), log-space evaluated."""
    x = (1 + params.c0 * s) * params.supersets_per_jset - s * (1 + params.c0)
    return _weighted_b_s(params, s, x)


def expected_Cs_lower_reference(params: TheoryParams, s: int) -> float:
    """Reference value for the expected number of j-sets in hypertree
    components of size s: B_s p^s (1-p)^((1+s c0) C(n-j,k-j)).

    Uses B_s in place of the all-labels-distinct count (they agree up to
    1 - o(1)), so this is a reference value, not a rigorous lower bound.
    """
    return _weighted_b_s(params, s, (1 + s * params.c0) * params.supersets_per_jset)


def unicycle_bound(params: TheoryParams, s: int, constant: float = 244.0) -> float:
    """Log of the bound on marked two-type unicycle counts of size s:

        log( constant * c0^2 * c_w * n^(k-j) * p0^(1-s) * s^(s+1/2) / s! ),

    the length-s wheel bound times constant * c0^2 * s^(s+3/2) / s!.  The bound
    exceeds any float for large s, so the natural log is returned.  Valid for
    s >= 1024 and a finite constant > 0.
    """
    if s < 1024:
        raise ValidationError(f"need s >= 1024, got {s}")
    if not 0 < constant < math.inf:
        raise ValidationError(f"constant must be finite and > 0, got {constant}")
    log_wheel = log_wheel_bound(params.n, params.k, params.j, s)
    return _in_float_range("the log of the unicycle bound", lambda: (
        log_wheel + math.log(constant) + 2 * math.log(params.c0) + (s + 1.5) * math.log(s)
        - math.lgamma(s + 1)))


def predicted_L1(params: TheoryParams) -> float:
    """Predicted size of the largest component:
    (log lambda - 5/2 log log lambda) / delta."""
    if params.lam <= math.e:
        raise ValidationError(f"prediction needs lambda > e, got lambda={params.lam}")
    loglam = math.log(params.lam)
    return (loglam - 2.5 * math.log(loglam)) / params.delta


def predicted_M1(params: TheoryParams) -> float:
    """Predicted order of the largest component: c0 times its size."""
    return params.c0 * predicted_L1(params)
