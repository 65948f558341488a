import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import combinatorics
from hyperlab.combinatorics import (
    MAX_FLOAT_INT,
    TheoryParams,
    check_domain,
    colex_dtype,
    comb_at_most,
    rank_array,
    rank_subset,
    unrank_array,
    unrank_subset,
)
from hyperlab.enumeration import brute_force_Bs, wheel_bound_exact
from hyperlab.errors import ResourceLimitError, ValidationError
from hyperlab.experiments import ExperimentConfig
from hyperlab.hypergraph import (
    Hypergraph,
    brute_force_wheel_census,
    j_components,
    jset_lookup,
    sample,
)
from hyperlab.processes import branching_with_rate


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
    for r in range(math.comb(10, 3)):
        assert rank_subset(unrank_subset(r, 3, 10), 10) == r


@pytest.mark.parametrize("n,size", [(6, 2), (8, 3), (12, 4), (9, 1), (5, 5)])
def test_rank_is_bijection(n, size):
    ranks = {rank_subset(s, n) for s in combinations(range(1, n + 1), size)}
    assert ranks == set(range(math.comb(n, size)))


@given(
    n=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_rank_unrank_roundtrip_property(n, data):
    size = data.draw(st.integers(min_value=0, max_value=min(n, 6)))
    rank = data.draw(st.integers(min_value=0, max_value=math.comb(n, size) - 1))
    subset = unrank_subset(rank, size, n)
    assert rank_subset(subset, n) == rank


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 120), st.data())
def test_array_forms_match_scalar_ranking(n, data):
    # sizes up to n cover both the int64 and the object (>= 2**62) arithmetic
    size = data.draw(st.integers(1, n))
    total = math.comb(n, size)
    ranks = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=20))
    dtype = colex_dtype(n, size)
    rows = unrank_array(np.array(ranks, dtype=dtype), size, n)
    assert rows.tolist() == [unrank_subset(r, size, n) for r in ranks]
    assert rank_array(rows, [tuple(range(size))], dtype).tolist() == [[r] for r in ranks]
    # position-subsets of every size up to the row's, in any order and repeated:
    # each (column, position) pair the ranker builds is checked against rank_subset
    positions = st.lists(st.integers(0, size - 1), unique=True, max_size=size)
    subsets = data.draw(st.lists(positions.map(lambda ps: tuple(sorted(ps))), max_size=6))
    assert rank_array(rows, subsets, dtype).tolist() == [
        [rank_subset(tuple(row[c] for c in sub), n) for sub in subsets] for row in rows.tolist()]


def test_unrank_array_object_ranks_roundtrip():
    n, size = 70, 35
    assert colex_dtype(n, size) is object
    total = math.comb(n, size)
    ranks = [0, 1, 2**63, total // 3, total - 1]
    rows = unrank_array(np.array(ranks, dtype=object), size, n)
    assert rows.tolist() == [unrank_subset(r, size, n) for r in ranks]
    assert rank_array(rows, [tuple(range(size))], object).ravel().tolist() == ranks


def test_unrank_array_sizes_zero_and_one():
    assert unrank_array(np.array([0, 0]), 0, 5).shape == (2, 0)
    assert unrank_array(np.array([0, 4, 2]), 1, 5).tolist() == [[1], [5], [3]]


class TestUnrankExact:
    """`unrank_array` against `unrank_subset`, where the inverse tables and
    the int64 closed form at position 2 run and where they do not."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        combinatorics._colex_tables.cache_clear()  # tables kept under another cap
        yield
        combinatorics._colex_tables.cache_clear()  # a table at n = 3e6 holds 24 MB

    def test_every_rank_small(self):
        # every (n, size) with 2 <= size <= 8 and C(n, size) <= 20,000, from
        # n = 2; a subset's colex rank does not depend on n, so each size's
        # reference list is built once, at its largest n
        for size in range(2, 9):
            ns = [n for n in range(size, 201) if math.comb(n, size) <= 20_000]
            expected = [unrank_subset(r, size, ns[-1]) for r in range(math.comb(ns[-1], size))]
            for n in ns:
                total = math.comb(n, size)
                assert unrank_array(np.arange(total), size, n).tolist() == expected[:total]

    @pytest.mark.parametrize("n, size", [(10**6, 3), (3 * 10**6, 2), (5 * 10**4, 4), (500, 7)])
    def test_large_int64(self, n, size):
        total = math.comb(n, size)
        assert colex_dtype(n, size) is np.int64
        rng = np.random.default_rng(n)
        ranks = [0, 1, total - 1, total - 2, *rng.integers(0, total, 200).tolist()]
        rows = unrank_array(np.array(ranks, np.int64), size, n)
        assert rows.tolist() == [unrank_subset(r, size, n) for r in ranks]

    @pytest.mark.parametrize("offset", [-0.999, 0.999])
    def test_root_off_by_one_is_corrected(self, monkeypatch, offset):
        # float roots are exact below n of about 2**26, so the checked steps
        # are driven here by a root pushed almost one whole step either way;
        # with no inverse tables, position 2 takes the closed form at every n
        monkeypatch.setattr(combinatorics, "MAX_TABLE_CELLS", 0)
        sqrt = np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda x: sqrt(x) + offset)
        for n, size in ((3, 3), (4, 3), (40, 3), (12, 5), (24, 4)):
            total = math.comb(n, size)
            assert unrank_array(np.arange(total), size, n).tolist() == [
                unrank_subset(r, size, n) for r in range(total)]

    @pytest.mark.parametrize("n, size", [(40, 3), (24, 4), (12, 5), (10, 6)])
    def test_both_sides_of_the_cap(self, monkeypatch, n, size):
        # a cap of 0 or of one cell short of C(n - 1, 2) leaves every position
        # without an inverse; a cap of exactly C(n - 1, 2) gives position 2 one
        total = math.comb(n, size)
        expected = [unrank_subset(r, size, n) for r in range(total)]
        two = math.comb(n - 1, 2)
        for cap, covered in ((0, False), (two - 1, False), (two, True)):
            monkeypatch.setattr(combinatorics, "MAX_TABLE_CELLS", cap)
            combinatorics._colex_tables.cache_clear()
            inverses = [inv for _, inv in combinatorics._colex_tables(n, size)]
            assert [inv is not None for inv in inverses] == [False] * (size - 2) + [covered]
            assert unrank_array(np.arange(total), size, n).tolist() == expected

    def test_out_of_range_ranks_index_nothing_outside_the_tables(self):
        n, size = 10, 3
        ranks = np.array([-2**62, -1, math.comb(n, size), 2**62 - 1])
        with np.errstate(invalid="ignore"):  # the root of a negative rank is nan
            rows = unrank_array(ranks, size, n)
        assert rows.shape == (4, 3)


class TestColexTables:
    """`unrank_array` builds the tables of C(x, i) of one (n, size) once, each
    below the top from the one above, with their inverses below the top, and
    keeps a bounded number of them, read-only."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        combinatorics._colex_tables.cache_clear()
        yield
        combinatorics._colex_tables.cache_clear()

    def test_one_build_per_n_and_size(self):
        for _ in range(5):
            for n, size in ((250, 3), (40, 4), (250, 3), (40, 2)):
                rows = unrank_array(np.arange(7), size, n)
                assert rows.tolist() == [unrank_subset(r, size, n) for r in range(7)]
        info = combinatorics._colex_tables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 17, 3)

    @pytest.mark.parametrize("n, size", [(12, 5), (70, 35), (64, 64), (9, 2)])
    def test_every_table_is_exact(self, n, size):
        # int64 and Python-int tables, built directly and by differences
        tables = combinatorics._colex_tables(n, size)
        assert len(tables) == size - 1
        for i, (table, _) in zip(range(size, 1, -1), tables):
            assert table.dtype == colex_dtype(n, size)
            assert table.tolist() == [math.comb(x, i) for x in range(n)]

    @pytest.mark.parametrize("size", [3, 4, 5, 6])
    def test_every_inverse_is_exact(self, size):
        # inv[r] is the largest x with C(x, i) <= r, for every r < C(n - 1, i)
        for n in range(size, 16):
            (_, top), *below = combinatorics._colex_tables(n, size)
            assert top is None
            for i, (_, inverse) in zip(range(size - 1, 1, -1), below):
                assert inverse.dtype == np.int16
                assert inverse.tolist() == [max(x for x in range(n) if math.comb(x, i) <= r)
                                            for r in range(math.comb(n - 1, i))]

    def test_inverses_stop_at_the_cap(self):
        # C(n - 1, 2) <= 2**22 up to n = 2,897; at k = 4 position 3's C(n - 1, 3)
        # fits beside it at n = 250, and not at n = 300; none for Python ints
        def covered(n, size):
            return [inv is not None for _, inv in combinatorics._colex_tables(n, size)]
        assert covered(2897, 3) == [False, True]
        assert covered(2898, 3) == [False, False]
        assert covered(250, 4) == [False, True, True]
        assert covered(300, 4) == [False, False, True]
        assert colex_dtype(70, 35) is object and not any(covered(70, 35))

    def test_tables_are_read_only(self):
        unrank_array(np.arange(10), 4, 30)
        tables = combinatorics._colex_tables(30, 4)
        assert combinatorics._colex_tables.cache_info().misses == 1  # the kept tables
        for i, (table, inverse) in zip(range(4, 1, -1), tables):
            assert table.tolist() == [math.comb(x, i) for x in range(30)]
            for array in (table, inverse) if i < 4 else (table,):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_bounded_and_still_exact_after_many_n(self):
        for n in range(10, 110):
            unrank_array(np.array([0, math.comb(n, 3) - 1]), 3, n)
        info = combinatorics._colex_tables.cache_info()
        assert info.currsize <= info.maxsize
        for n in range(0, 10):
            for size in range(0, min(n, 6) + 1):
                total = math.comb(n, size)
                rows = unrank_array(np.arange(total), size, n)
                assert rows.shape == (total, size)
                assert rows.tolist() == [unrank_subset(r, size, n) for r in range(total)]


def test_colex_dtype_switches_to_python_ints():
    assert colex_dtype(250, 3) is np.int64
    assert colex_dtype(100, 20) is object
    assert colex_dtype(100, 90) is object  # C(100, 50) bounds the tables of C(x, i), i <= 90
    assert colex_dtype(10**2200, 1) is object
    assert colex_dtype(10**2200, 1000) is object  # C(n, r) >= 2**r: no exact C(n, 1000)


def test_comb_at_most_is_exact_at_every_cap():
    for m in range(65):
        for r in range(m + 1):
            c = math.comb(m, r)
            for cap in {0, 1, c - 1, c, c + 1, 2**31 - 1, 2**62 - 1, MAX_FLOAT_INT}:
                assert comb_at_most(m, r, cap) == (c if c <= cap else None), (m, r, cap)
    for r in (2, 1000, 1023):  # C(10**4000, r) has over 8,000 bits
        assert comb_at_most(10**4000, r, MAX_FLOAT_INT) is None
    float(MAX_FLOAT_INT)
    with pytest.raises(OverflowError):
        float(MAX_FLOAT_INT + 1)


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
            (10, 3, 2, 1.0),   # epsilon at the top boundary
        ],
    )
    def test_validation(self, n, k, j, eps):
        with pytest.raises(ValidationError):
            TheoryParams(n, k, j, eps)

    def test_any_sign_of_epsilon(self):
        # critical at epsilon = 0, supercritical below; p = (1 - epsilon) p0 bit for bit
        p0 = TheoryParams(5, 3, 2, 0.3).p0
        assert TheoryParams(5, 3, 2, 0.0).p == p0
        assert TheoryParams(5, 3, 2, -0.5).p == 1.5 * p0

    # epsilon = -10 at (5, 3, 2) puts p at 11/6
    @pytest.mark.parametrize("eps", [1.0, 1.5, math.inf, math.nan, -math.inf, -10.0])
    def test_refuses_points_past_the_model(self, eps):
        with pytest.raises(ValidationError, match=re.escape(
                f"need epsilon < 1 and p = (1 - epsilon) * p0 <= 1, got epsilon={eps}")):
            TheoryParams(5, 3, 2, eps)

    def test_no_overflow_far_below_zero(self):
        # p0 is about 1.0e-230, so p about 1e-30 is a point, while epsilon**3 is past floats
        params = TheoryParams(10**6, 50, 2, -1e200)
        assert params.p == (1.0 + 1e200) * params.p0 and 1e-31 < params.p < 1e-29
        assert params.lam == -math.inf and params.delta > 0


# Entry points that take (n, k) meet only the triples with a bad (n, k),
# and those that take a Hypergraph, which has a valid (n, k), only those
# with a bad j.
BAD_NK, BAD_J = [(3, 1, 1), (2, 3, 1)], [(5, 3, 0), (5, 3, 3)]
DOMAIN_ENTRY_POINTS = {
    "TheoryParams": (lambda n, k, j: TheoryParams(n, k, j, 0.3), BAD_NK + BAD_J),
    "TheoryParams.subcritical": (lambda n, k, j: TheoryParams.subcritical(n, k, j, 0.3),
                                 BAD_NK + BAD_J),
    "ExperimentConfig": (lambda n, k, j: ExperimentConfig(n, k, j, 0.3, trials=1), BAD_NK + BAD_J),
    "Hypergraph": (lambda n, k, j: Hypergraph(n, k, ()), BAD_NK),
    "sample": (lambda n, k, j: sample(n, k, 0.5, 0), BAD_NK),
    "j_components": (lambda n, k, j: j_components(Hypergraph(n, k, ()), j), BAD_J),
    "jset_lookup": (lambda n, k, j: jset_lookup(Hypergraph(n, k, ()), j), BAD_J),
    "branching_with_rate": (
        lambda n, k, j: branching_with_rate(n, k, j, 0.1, tuple(range(1, j + 1)), seed=0),
        BAD_NK + BAD_J),
    "brute_force_Bs": (lambda n, k, j: brute_force_Bs(n, k, j, 1), BAD_NK + BAD_J),
    "wheel_bound_exact": (lambda n, k, j: wheel_bound_exact(n, k, j, 3), BAD_NK + BAD_J),
    "brute_force_wheel_census": (
        lambda n, k, j: brute_force_wheel_census(n, k, j, 3), BAD_NK + BAD_J),
}


@pytest.mark.parametrize("name,n,k,j", [
    pytest.param(name, *triple, id=f"{name}-{triple}")
    for name, (_, triples) in DOMAIN_ENTRY_POINTS.items() for triple in triples])
def test_every_domain_entry_point_refuses_with_one_message(name, n, k, j):
    message = re.escape(f"need n >= k >= 2 and 1 <= j <= k-1, got n={n}, k={k}")
    with pytest.raises(ValidationError, match=f"^{message}(, j={j})?$"):
        DOMAIN_ENTRY_POINTS[name][0](n, k, j)


# The entry points that take epsilon in (0, 1) alone: a bad (n, k, j) is
# refused first, then epsilon, then binomials past the float range.
SUBCRITICAL_ENTRY_POINTS = {
    "TheoryParams.subcritical": TheoryParams.subcritical,
    "ExperimentConfig": lambda n, k, j, eps: ExperimentConfig(n, k, j, eps, trials=1),
}


@pytest.mark.parametrize("name", sorted(SUBCRITICAL_ENTRY_POINTS))
@pytest.mark.parametrize("eps", [0.0, -0.5, -1e-3, 1.0, 1.5, math.nan, -math.inf])
def test_subcritical_entry_points_refuse_epsilon_outside_zero_one(name, eps):
    build = SUBCRITICAL_ENTRY_POINTS[name]
    message = re.escape(f"epsilon must lie in (0, 1), got {eps}")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build(10, 3, 2, eps)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build(10**4000, 1002, 2, eps)
    with pytest.raises(ValidationError, match="^need n >= k >= 2"):
        build(2, 3, 2, eps)


def test_refusals_word_integers_past_the_str_limit():
    # 10**5000 has more decimal digits than str() converts by default
    huge = 10**5000
    with pytest.raises(ValidationError):
        check_domain(huge, 10 * huge)
    with pytest.raises(ResourceLimitError):
        j_components(Hypergraph(huge, huge, ()), 1)
    with pytest.raises(ResourceLimitError):
        branching_with_rate(huge, huge, 1, 0.0, (1,), 0)
