"""Exact integer combinatorics and canonical colex ranking of vertex sets.

Subsets of [n] = {1, ..., n} are stored as sorted ascending tuples.  Their
canonical integer id is the colexicographic rank: A precedes B iff
max(A symmetric-difference B) lies in B.  Colex ranks of k-sets stream in
increasing order, which lets the sampler skip over absent edges without
materializing all C(n, k) of them.

Enumeration-facing arithmetic is exact (Python ints / Fractions);
probability-facing quantities (p, delta, lambda) are 64-bit floats.  The
array forms of ranking and unranking (`rank_array`, `unrank_array`) stay
exact too: they compute in int64 while every intermediate fits and in
object arrays of Python ints beyond that (`colex_dtype`).  `rank_array`
ranks, in a dtype its caller gives, any position-subsets of the rows of an
array, whole rows or every j-subset of every edge, one column at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ValidationError


def show_int(x) -> str:
    """str(x) for a message, or the bit length of an int whose decimal form
    would pass `sys.get_int_max_str_digits()`, where str(x) raises."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


def check_domain(n: int, k: int, j: int | None = None) -> None:
    """Refuse (n, k, j) outside n >= k >= 2 and 1 <= j <= k-1; with j None,
    only (n, k) is checked.  Every entry point that takes them calls this."""
    if not (2 <= k <= n and (j is None or 1 <= j <= k - 1)):
        got = f"n={show_int(n)}, k={show_int(k)}" + ("" if j is None else f", j={show_int(j)}")
        raise ValidationError(f"need n >= k >= 2 and 1 <= j <= k-1, got {got}")


MAX_FLOAT_INT = 2**1024 - 2**970 - 1  # the largest int float() converts


def comb_at_most(m: int, r: int, cap: int) -> int | None:
    """C(m, r) if it is at most `cap` >= 0, else None.  For t = min(r, m-r) >= 1 and
    e = m.bit_length() - t.bit_length() - 1, m/t is at least 2, above 2^e and below 2^(e+2),
    so C(m, r) >= (m/t)^t >= 2^(t*max(e, 1)) > cap once t*max(e, 1) >= b = cap.bit_length(),
    and is not formed.  Any other is <= (2.72m/t)^t < 2^(t*e + 3.45t) < 2^(4.45b) (t*e, t < b)."""
    t, b = min(r, m - r), cap.bit_length()
    if t > 0 and t * max(m.bit_length() - t.bit_length() - 1, 1) >= b:
        return None
    c = math.comb(m, r)
    return c if c <= cap else None


def subset_masks(n: int, vertices: int, r: int) -> list[int]:
    """The r-subsets of the vertices in [n] of a bitmask, as bitmasks: bit b
    stands for vertex b + 1, and a negative mask, ~S, for [n] minus S."""
    return [sum(c) for c in combinations([1 << b for b in range(n) if vertices >> b & 1], r)]


def _validate_subset(s, n: int) -> None:
    prev = 0
    for v in s:
        if not isinstance(v, int):
            raise ValidationError(f"subset elements must be integers, got {v!r}")
        if v <= prev:
            if v < 1:
                raise ValidationError(f"subset element {v} is below 1")
            raise ValidationError(f"subset must be sorted ascending without duplicates: {list(s)}")
        prev = v
    if prev > n:
        raise ValidationError(f"subset element {prev} exceeds n={n}")


def rank_subset(s, n: int) -> int:
    """Colex rank of a sorted subset of [1, n].

    rank(S) = sum over positions i (1-based) of C(s_i - 1, i).
    """
    _validate_subset(s, n)
    return sum(math.comb(v - 1, i) for i, v in enumerate(s, start=1))


def unrank_subset(rank: int, size: int, n: int) -> list[int]:
    """Inverse of :func:`rank_subset`: the subset of [1, n] at colex `rank`,
    binary-searched per position but the last, rem + 1 as C(a-1, 1) = a-1."""
    if size < 0 or n < 0:
        raise ValidationError(f"unrank_subset needs size, n >= 0, got ({size}, {n})")
    total = math.comb(n, size)
    if not 0 <= rank < total:
        raise IndexError(f"rank {rank} out of range [0, {total}) for C({n},{size})")
    out = [0] * size
    rem = rank
    hi = n
    for i in range(size, 1, -1):
        # largest a in [i, hi] with C(a-1, i) <= rem
        lo = i
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(mid - 1, i) <= rem:
                lo = mid
            else:
                hi = mid - 1
        out[i - 1] = lo
        rem -= math.comb(lo - 1, i)
        hi = lo - 1
    if size:
        out[0] = rem + 1
    return out


@functools.lru_cache(maxsize=64)
def colex_dtype(n: int, size: int) -> type:
    """Array dtype for the colex arithmetic of size-subsets of [1, n].

    int64 while every C(x, i) with x <= n and i <= size, times size, stays
    below 2**62, so that ranks, binomial tables and the products and
    differences inside `_new_table` and `rank_array` cannot overflow; object
    (exact Python ints) beyond that.  The last 64 answers are kept.
    """
    fits = comb_at_most(n, min(size, n // 2), (2**62 - 1) // max(size, 1))
    return object if fits is None else np.int64


def rank_array(rows: np.ndarray, subsets, dtype: type) -> np.ndarray:
    """The (m, len(subsets)) colex ranks of position-subsets of the rows of
    an (m, size) array of sorted subsets of [1, n]: entry (e, s) is
    `rank_subset` of row e's entries at the ascending column indices
    subsets[s], so a whole row's rank is `subsets=[tuple(range(size))]`.
    The rows are not validated.  Ranks are exact in a `dtype` holding
    C(n, size) and each i * C(x, i), x < n, i <= size (`colex_dtype` picks one).

    With x = rows - 1, column c at position i adds C(x_c, i).  Each
    column's binomials are built upward, C(x_c, i + 1) = C(x_c, i) *
    (x_c - i) // (i + 1), and each is added to every subset holding the
    column at that position, so no subset of a row is gathered.
    """
    holders = _holders(tuple(map(tuple, subsets)))
    x = rows.astype(dtype, copy=False) - 1
    out = np.zeros((len(rows), len(subsets)), dtype)
    # views: `+=` on one skips the write-back that `out[:, s] += ...` makes
    ranks = [out[:, s] for s in range(len(subsets))]
    for c, at in holders.items():
        comb = x[:, c]
        for i in range(1, max(at) + 1):
            if i > 1:
                comb = comb * (x[:, c] - (i - 1)) // i
            for s in at.get(i, ()):
                ranks[s] += comb
    return out


@functools.lru_cache(maxsize=8)
def _holders(subsets: tuple) -> dict[int, dict[int, list[int]]]:
    # column -> position -> the subsets holding that column there, for
    # `rank_array`; the last 8 maps built are kept
    holders: dict[int, dict[int, list[int]]] = {}
    for s, sub in enumerate(subsets):
        for i, c in enumerate(sub, start=1):
            holders.setdefault(c, {}).setdefault(i, []).append(s)
    return holders


# (n, i, dtype) -> the read-only table of C(x, i) over x in [0, n), in
# dtype, for `unrank_array`; the last MAX_TABLES used are kept, least recent first
_TABLES: dict[tuple, np.ndarray] = {}
MAX_TABLES = 16


def _colex_table(n: int, i: int, dtype: type, above: np.ndarray | None = None) -> np.ndarray:
    # The kept table of C(x, i), or a new one from `above`, the table at i + 1
    key = (n, i, dtype)
    table = _TABLES.pop(key, None)
    if table is None:
        table = _new_table(n, i, dtype, above)
        table.flags.writeable = False
        if len(_TABLES) == MAX_TABLES:
            del _TABLES[next(iter(_TABLES))]
    _TABLES[key] = table
    return table


def _new_table(n: int, i: int, dtype: type, above: np.ndarray | None) -> np.ndarray:
    # C(x, i) over x in [0, n) by O(n) exact operations: from the table
    # above by differences, C(x, i) = C(x + 1, i + 1) - C(x, i + 1), with
    # C(n - 1, i) last; without one, in int64 by i passes of C(x, t + 1) =
    # C(x, t) * (x - t) // (t + 1) (`colex_dtype` keeps i below 62 there),
    # and in Python ints by the ratio C(x + 1, i) = C(x, i) * (x + 1) // (x + 1 - i)
    if above is not None:
        table = np.empty(n, dtype)
        np.subtract(above[1:], above[:-1], out=table[:-1])
        table[-1] = math.comb(n - 1, i)
        return table
    if dtype is np.int64:
        x = np.arange(n)
        table = np.ones_like(x)
        for t in range(i):
            table = table * (x - t) // (t + 1)
        return table
    table, c = [0] * min(i, n), 1
    for x in range(i, n):
        table.append(c)
        c = c * (x + 1) // (x + 1 - i)
    return np.array(table, dtype)


def unrank_array(ranks: np.ndarray, size: int, n: int) -> np.ndarray:
    """Inverse of whole-row `rank_array`: the (len(ranks), size) int64 array
    whose row r is the subset of [1, n] at colex rank ranks[r].

    Position i (from the top) holds 1 + the largest x with C(x, i) <= rem,
    found by `searchsorted` in the table of C(x, i) over x in [0, n).  At
    position 2 below the top, whose remainders come unsorted (the top's
    come sorted from `sample`), int64 ranks use a closed form instead:
    C(x, 2) <= rem iff x <= 1/2 + sqrt(2 * rem + 1/4), whose float value,
    clamped to [1, n-1], is within one of that x; one step down and one
    step up, checked against the table and never past n-1, make it exact.
    Each table is built once from the one above it by O(n) exact
    differences, the top one directly; the last 16 used are kept,
    read-only, so repeated calls at one (n, size) build none.  The last
    position needs no table: C(x, 1) = x, so it holds rem + 1.
    """
    dtype = colex_dtype(n, size)
    out = np.empty((len(ranks), size), dtype=np.int64)
    rem = ranks
    table = None
    for i in range(size, 1, -1):
        table = _colex_table(n, i, dtype, table)
        if i == 2 < size and dtype is np.int64:
            root = np.sqrt(rem * 2.0 + 0.25)
            root += 0.5
            a = root.astype(np.int64)
            np.maximum(a, 1, out=a)
            np.minimum(a, n - 1, out=a)
            a -= table[a] > rem
            up = np.minimum(a + 1, n - 1)
            a = np.where(table[up] <= rem, up, a)
        else:
            a = np.searchsorted(table, rem, side="right") - 1
        out[:, i - 1] = a + 1
        rem = rem - table[a]
    if size:
        out[:, 0] = rem + 1
    return out


@dataclass(frozen=True)
class TheoryParams:
    """A model point (n, k, j, epsilon) and the constants derived from it.

    c0     = C(k, j) - 1
    p0     = 1 / (c0 * C(n-j, k-j))      (critical edge probability)
    p      = (1 - epsilon) * p0          (edge probability)
    delta  = -epsilon - log(1 - epsilon) (tail decay rate of large components)
    lam    = epsilon^3 * C(n, j)         (scale whose log sets the top size)
    supersets_per_jset = C(n-j, k-j)     (k-sets containing a fixed j-set)

    Any epsilon < 1 with p <= 1 is a point: subcritical for epsilon in
    (0, 1), critical at 0, supercritical below.  Sampling, trials, the
    coupling and the exact counts read only n, k, j and p.  delta and lam
    are the subcritical constants: the size-law predictors read them only
    for epsilon in (0, 1) and refuse other points.  `subcritical` builds a
    point in (0, 1) alone, as experiments and the CLI do.
    """

    n: int
    k: int
    j: int
    epsilon: float
    c0: int = field(init=False)
    p0: float = field(init=False)
    p: float = field(init=False)
    delta: float = field(init=False)
    lam: float = field(init=False)
    supersets_per_jset: int = field(init=False, repr=False)

    @classmethod
    def subcritical(cls, n: int, k: int, j: int, epsilon: float) -> TheoryParams:
        """The point at epsilon in (0, 1); a bad (n, k, j) is refused first."""
        check_domain(n, k, j)
        if not 0.0 < epsilon < 1.0:
            raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
        return cls(n, k, j, epsilon)

    def __post_init__(self) -> None:
        check_domain(self.n, self.k, self.j)
        supersets = comb_at_most(self.n - self.j, self.k - self.j, MAX_FLOAT_INT)
        fan = comb_at_most(self.k, self.j, MAX_FLOAT_INT + 1)  # c0 = fan - 1 converts
        jsets = comb_at_most(self.n, self.j, MAX_FLOAT_INT)
        if None in (supersets, fan, jsets) or (fan - 1) * supersets > MAX_FLOAT_INT:
            raise ValidationError("C(n-j, k-j) or C(n, j) exceeds the float range; "
                                  "n is too large for float probabilities")
        object.__setattr__(self, "c0", fan - 1)
        object.__setattr__(self, "p0", 1.0 / (self.c0 * supersets))
        p = (1.0 - self.epsilon) * self.p0
        if not (self.epsilon < 1.0 and p <= 1.0):  # refuses nan and -inf too
            raise ValidationError(
                f"need epsilon < 1 and p = (1 - epsilon) * p0 <= 1, got epsilon={self.epsilon}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "delta", -self.epsilon - math.log1p(-self.epsilon))
        try:
            lam = self.epsilon**3 * jsets
        except OverflowError:  # epsilon**3 is past the float range below epsilon = -5.6e102
            lam = -math.inf
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "supersets_per_jset", supersets)
