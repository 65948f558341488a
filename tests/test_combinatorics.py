import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.combinatorics import (
    TheoryParams,
    binomial,
    colex_dtype,
    falling_factorial,
    rank_array,
    rank_subset,
    subsets_colex,
    unrank_array,
    unrank_subset,
)
from hyperlab.errors import ValidationError


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(250, 2) == 250 * 249 // 2
    assert binomial(3, 5) == 0


def test_binomial_pascal_recurrence_exhaustive():
    for n in range(1, 65):
        for r in range(1, n + 1):
            assert binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)


def test_binomial_rejects_negative():
    with pytest.raises(ValidationError):
        binomial(-1, 2)


def test_falling_factorial_values():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 0) == 1
    assert falling_factorial(4, 5) == 0


def test_falling_factorial_factorial_identity():
    for n in range(0, 21):
        for k in range(0, n + 1):
            assert falling_factorial(n, k) * math.factorial(n - k) == math.factorial(n)


def _colex_precedes(a, b):
    # A precedes B iff max(A symmetric-difference B) is in B
    diff = set(a) ^ set(b)
    return max(diff) in set(b)


def _colex_sorted(n, size):
    # oracle ordering built from the comparator alone (insertion sort)
    out = []
    for s in combinations(range(1, n + 1), size):
        lo = 0
        while lo < len(out) and _colex_precedes(out[lo], s):
            lo += 1
        out.insert(lo, s)
    return out


def test_rank_first_subset():
    assert rank_subset([1, 2], 4) == 0


def test_unrank_matches_comparator_oracle():
    order = _colex_sorted(4, 2)
    assert order == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    for r, expected in enumerate(order):
        assert tuple(unrank_subset(r, 2, 4)) == expected
        assert rank_subset(expected, 4) == r
    # in particular rank 4 is (2, 4) and rank 5, the last pair, is (3, 4)
    assert unrank_subset(4, 2, 4) == [2, 4]
    assert unrank_subset(5, 2, 4) == [3, 4]


def test_rank_unrank_inverse_full_range():
    for r in range(binomial(10, 3)):
        assert rank_subset(unrank_subset(r, 3, 10), 10) == r


@pytest.mark.parametrize("n,size", [(6, 2), (8, 3), (12, 4), (9, 1), (5, 5)])
def test_rank_is_bijection(n, size):
    ranks = {rank_subset(s, n) for s in combinations(range(1, n + 1), size)}
    assert ranks == set(range(binomial(n, size)))


@given(
    n=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_rank_unrank_roundtrip_property(n, data):
    size = data.draw(st.integers(min_value=0, max_value=min(n, 6)))
    rank = data.draw(st.integers(min_value=0, max_value=binomial(n, size) - 1))
    subset = unrank_subset(rank, size, n)
    assert rank_subset(subset, n) == rank


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 120), st.data())
def test_array_forms_match_scalar_ranking(n, data):
    # sizes up to n cover both the int64 and the object (>= 2**62) arithmetic
    size = data.draw(st.integers(1, n))
    total = math.comb(n, size)
    ranks = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=20))
    arr = np.array(ranks, dtype=colex_dtype(n, size))
    rows = unrank_array(arr, size, n)
    assert rows.tolist() == [unrank_subset(r, size, n) for r in ranks]
    assert rank_array(rows, n).tolist() == ranks


def test_unrank_array_object_ranks_roundtrip():
    n, size = 70, 35
    assert colex_dtype(n, size) is object
    total = math.comb(n, size)
    ranks = [0, 1, 2**63, total // 3, total - 1]
    rows = unrank_array(np.array(ranks, dtype=object), size, n)
    assert rows.tolist() == [unrank_subset(r, size, n) for r in ranks]
    assert rank_array(rows, n).tolist() == ranks


def test_unrank_array_sizes_zero_and_one():
    assert unrank_array(np.array([0, 0]), 0, 5).shape == (2, 0)
    assert unrank_array(np.array([0, 4, 2]), 1, 5).tolist() == [[1], [5], [3]]


def test_colex_dtype_switches_to_python_ints():
    assert colex_dtype(250, 3) is np.int64
    assert colex_dtype(100, 20) is object
    assert colex_dtype(100, 90) is object  # C(100, 50) bounds the tables of C(x, i), i <= 90
    assert colex_dtype(10**2200, 1) is object
    assert colex_dtype(10**2200, 1000) is object  # C(n, r) >= 2**r: no exact C(n, 1000)


def test_rank_rejects_unsorted_and_duplicates():
    with pytest.raises(ValidationError):
        rank_subset([2, 1], 4)
    with pytest.raises(ValidationError):
        rank_subset([1, 1], 4)
    with pytest.raises(ValidationError):
        rank_subset([1, 9], 4)


def test_unrank_range_error():
    with pytest.raises(IndexError):
        unrank_subset(6, 2, 4)
    with pytest.raises(IndexError):
        unrank_subset(-1, 2, 4)


def test_subsets_colex_streams_in_rank_order():
    pool = list(range(1, 9))
    seen = [rank_subset(s, 8) for s in subsets_colex(pool, 3)]
    assert seen == list(range(len(seen))) and len(seen) == binomial(8, 3)


class TestTheoryParams:
    def test_derived_values(self):
        p = TheoryParams(250, 3, 2, 0.3)
        assert p.c0 == 2
        assert p.p0 == pytest.approx(1 / 496)
        assert p.p == pytest.approx(0.7 / 496)
        assert p.delta == pytest.approx(0.05667494393873245, abs=1e-12)
        assert p.lam == pytest.approx(0.027 * 31125)
        assert p.supersets_per_jset == 248

    def test_delta_series_invariant(self):
        for eps in [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]:
            p = TheoryParams(50, 3, 2, eps)
            assert abs(p.delta - eps**2 / 2) <= eps**3

    def test_basic_ranges(self):
        p = TheoryParams(30, 4, 2, 0.25)
        assert p.c0 == 5
        assert 0 < p.p < p.p0 <= 1
        assert p.delta > 0 and p.lam > 0

    @pytest.mark.parametrize(
        "n,k,j,eps",
        [
            (10, 1, 1, 0.3),   # k too small
            (10, 3, 0, 0.3),   # j too small
            (10, 3, 3, 0.3),   # j too large
            (2, 3, 2, 0.3),    # n < k
            (10, 3, 2, 0.0),   # epsilon at boundary
            (10, 3, 2, 1.0),
        ],
    )
    def test_validation(self, n, k, j, eps):
        with pytest.raises(ValidationError):
            TheoryParams(n, k, j, eps)
