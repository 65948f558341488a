import math
import re
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab.combinatorics import TheoryParams
from hyperlab.enumeration import (
    _log_b_s,
    b_s,
    brute_force_Bs,
    enum_report,
    exp_reciprocal_bounds,
    expected_Cs_lower_reference,
    expected_Rs_upper,
    f_s,
    laplace_sum_check,
    log_wheel_bound,
    predicted_L1,
    predicted_M1,
    tj_series_fixed_point,
    unicycle_bound,
    wheel_bound_exact,
    wheel_constant,
)
from hyperlab.errors import ResourceLimitError, ValidationError
from hyperlab.hypergraph import Hypergraph, brute_force_wheel_census, j_components


def _mul(a, b):
    """Product of two series truncated to the length of `a`."""
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(len(a))]


def _exp(a):
    """exp of a series with zero constant term, by m b_m = sum_i i a_i b_(m-i)."""
    b = [Fraction(1)]
    for m in range(1, len(a)):
        b.append(sum(i * a[i] * b[m - i] for i in range(1, m + 1)) / m)
    return b


def _series_oracle(c0, order):
    """T by the Fraction recurrences on U = 1 + T and V = U^c0 themselves:
    m U_m = sum_i i V_(i-1) U_(m-i) and m V_m = sum_i (c0 i - (m-i)) U_i V_(m-i)."""
    u, v = [Fraction(1)], [Fraction(1)]
    for m in range(1, order + 1):
        u.append(sum(i * v[i - 1] * u[m - i] for i in range(1, m + 1)) / m)
        v.append(sum((c0 * i - (m - i)) * u[i] * v[m - i] for i in range(1, m + 1)) / m)
    return [Fraction(0), *u[1:]]


def _bracket_oracle(c0, terms):
    """e^(1/c0) bracketed by its Fraction series summed term by term, plus the tail bound."""
    x = Fraction(1, c0)
    low = sum((x**m / math.factorial(m) for m in range(terms + 1)), Fraction(0))
    return low, low + (x ** (terms + 1) / math.factorial(terms + 1)) / (1 - x / (terms + 2))


def _lambert(r, order):
    """[z^i] W^r = -r (-i)^(i-r-1) / (i-r)! for i >= r, W the series with W e^W = z."""
    return [-r * Fraction(-i) ** (i - r - 1) / math.factorial(i - r) if i >= r else Fraction(0)
            for i in range(order + 1)]


class TestSeriesAlgebra:
    def test_mul_truncates(self):
        a = [0, 1, 1, 0, 0]
        assert _mul(a, a) == [0, 0, 1, 2, 1]

    def test_exp_of_z(self):
        assert _exp([0, 1, 0, 0, 0, 0]) == [Fraction(1, math.factorial(i)) for i in range(6)]

    @given(
        a=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
        b=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_exp_homomorphism(self, a, b):
        sa, sb = (([0] + x + [0] * 6)[:7] for x in (a, b))
        assert _exp([x + y for x, y in zip(sa, sb)]) == _mul(_exp(sa), _exp(sb))


class TestLambert:
    def test_first_power_series(self):
        assert _lambert(1, 3) == [0, 1, -1, Fraction(3, 2)]

    def test_square_at_two(self):
        assert _lambert(2, 4)[2] == 1

    def test_zero_below_r(self):
        assert all(c == 0 for c in _lambert(3, 6)[:3])

    def test_powers_match_products(self):
        order = 12
        w = _lambert(1, order)
        acc = w
        for r in range(2, 5):
            acc = _mul(acc, w)
            assert acc == _lambert(r, order)

    def test_functional_inverse_identity(self):
        # W(z) * exp(W(z)) == z, exactly, up to the truncation order
        order = 14
        w = _lambert(1, order)
        assert _mul(w, _exp(w)) == [0, 1] + [0] * (order - 1)


class TestTjSeries:
    def test_c0_one(self):
        t = tj_series_fixed_point(1, 3)
        assert t.coefficient(1) == 1
        assert t.coefficient(2) == Fraction(3, 2)

    def test_c0_two(self):
        t = tj_series_fixed_point(2, 2)
        assert t.coefficient(1) == 1
        assert t.coefficient(2) == Fraction(5, 2)

    @pytest.mark.parametrize("c0", [1, 2, 3, 4, 5, 6])
    def test_linear_coefficient_always_one(self, c0):
        assert tj_series_fixed_point(c0, 2).coefficient(1) == 1

    def test_fixed_point_property(self):
        # the result actually satisfies T = exp(z (1+T)^c0) - 1 to its order
        for c0 in (1, 2, 3, 4, 5, 6):
            order = 10
            t = tj_series_fixed_point(c0, order)
            v = reduce(_mul, [[t.coeffs[0] + 1] + t.coeffs[1:]] * c0)  # (1+T)^c0
            rhs = _exp([0] + v[:-1])
            rhs[0] -= 1
            assert t.coeffs == rhs

    @pytest.mark.parametrize("c0", range(1, 9))
    def test_integer_recurrence_matches_fraction_oracle(self, c0):
        # a_m = m! U_m and b_m = m! V_m against the Fraction recurrences, at every
        # order; dropping the C(m-1, i-1) factor from a_m fails at order 3
        oracle = _series_oracle(c0, 40)
        for order in range(1, 41):
            assert tj_series_fixed_point(c0, order).coeffs == oracle[:order + 1]

    def test_lambert_substitution_route(self):
        # exp(-W(-c0 z)/c0) - 1 reproduces the fixed point series
        for c0 in (1, 2, 3):
            order = 10
            series = _exp([w * (-c0) ** i / -c0 for i, w in enumerate(_lambert(1, order))])
            series[0] -= 1
            assert series == tj_series_fixed_point(c0, order).coeffs


class TestTreeCounts:
    def test_base_values(self):
        assert f_s(1, 1) == 1
        assert f_s(1, 2) == Fraction(3, 2)

    def test_series_oracle_small(self):
        for c0 in (1, 2, 3, 5):
            t = tj_series_fixed_point(c0, 12)
            for s in range(1, 13):
                assert f_s(c0, s) == t.coefficient(s)

    def test_b_s_graph_case(self):
        for n in (4, 7, 11):
            params = TheoryParams(n, 2, 1, 0.3)
            assert b_s(params, 1) == n * (n - 1)

    def test_b_s_k3_j2(self):
        params = TheoryParams(5, 3, 2, 0.3)
        assert b_s(params, 1) == 30

    def test_bracket_small_grid(self):
        for c0 in range(1, 7):
            bracket = exp_reciprocal_bounds(c0, 42)
            for s in range(1, 41):
                fs = f_s(c0, s)
                lower = Fraction(c0 ** (s - 1) * s ** (s - 1), math.factorial(s))
                assert lower <= fs <= lower * bracket[1]
                # strictness: the truncated series alone already dominates
                assert fs <= lower * bracket[0]

    def test_exp_bracket_nesting_and_float_sanity(self):
        for c0 in range(1, 7):
            lo30, hi30 = exp_reciprocal_bounds(c0, 30)
            lo60, hi60 = exp_reciprocal_bounds(c0, 60)
            # longer truncations give nested, tighter rational brackets
            assert lo30 <= lo60 < hi60 <= hi30
            assert float(lo30) == pytest.approx(math.exp(1 / c0), rel=1e-12)

    @pytest.mark.parametrize("c0", range(1, 9))
    def test_bracket_matches_fraction_oracle(self, c0):
        for terms in [*range(1, 61), 202]:
            assert exp_reciprocal_bounds(c0, terms) == _bracket_oracle(c0, terms)

    def test_enum_report_fields(self):
        params = TheoryParams(10, 3, 2, 0.3)
        rep = enum_report(params, 3, exp_reciprocal_bounds(params.c0, 5))
        assert rep.s == 3
        assert rep.bounds_hold
        assert rep.lower <= rep.f_s <= rep.upper
        assert rep.b_s == math.comb(10, 2) * 8**3 * rep.f_s


class TestBruteForceBs:
    def test_single_edge_graph_case(self):
        assert brute_force_Bs(4, 2, 1, 1) == (12, 12)

    def test_two_edges_graph_case(self):
        # chains: 4 roots * 3 first edges * 3 second edges = 36 (repeats allowed)
        # cherries: 4 roots * C(3,2) unordered distinct pairs = 12
        # distinct-label trees drop second edges that reuse the first: 24 + 12
        assert brute_force_Bs(4, 2, 1, 2) == (48, 36)

    def test_hypertree_at_most_total(self):
        for n in (4, 5):
            total, hyper = brute_force_Bs(n, 2, 1, 2)
            assert hyper <= total

    def test_weighted_formula_overcounts_sibling_collisions(self):
        # the closed-form count weighs sibling repeats by symmetry, so it
        # exceeds the plain census, here by (1 - 1/9)^(-1), when labels can collide
        params = TheoryParams(4, 2, 1, 0.3)
        assert b_s(params, 2) == Fraction(54)
        assert brute_force_Bs(4, 2, 1, 2)[0] == 48

    def test_distinct_fraction_grows_with_n(self):
        fractions = []
        for n in (6, 8, 10):
            total, hyper = brute_force_Bs(n, 2, 1, 2)
            fractions.append(Fraction(hyper, total))
        assert fractions[0] < fractions[1] < fractions[2] < 1

    @pytest.mark.parametrize("n, k, j, s", [
        *((n, k, j, s) for n, k, j in [(4, 2, 1), (5, 2, 1), (6, 2, 1), (9, 2, 1), (5, 3, 2), (6, 3, 2),
                                       (6, 3, 1), (5, 4, 2), (6, 4, 3), (7, 4, 3)] for s in (1, 2, 3)),
        *((n, k, j, 4) for n, k, j in [(4, 2, 1), (5, 2, 1), (6, 2, 1), (9, 2, 1), (5, 3, 2)]),
    ])
    def test_total_closed_form(self, n, k, j, s):
        # total = C(n, j) C(N(1+c0 s), s) / (1+c0 s), N = C(n-j, k-j), and the
        # weighted B_s exceeds it by exactly prod_{i<s} (1 - i/(N(1+c0 s)))^(-1)
        c0 = math.comb(k, j) - 1
        m = math.comb(n - j, k - j) * (1 + c0 * s)
        total = brute_force_Bs(n, k, j, s)[0]
        assert total == Fraction(math.comb(n, j) * math.comb(m, s), 1 + c0 * s)
        excess = math.prod(Fraction(m, m - i) for i in range(s))
        assert b_s(TheoryParams(n, k, j, 0.3), s) == total * excess

    @pytest.mark.parametrize("n, k, j, s", [(6, 2, 1, 4), (9, 2, 1, 3), (6, 3, 1, 2), (7, 3, 1, 2),
                                            (5, 3, 2, 4), (6, 3, 2, 3), (6, 4, 2, 2), (6, 4, 2, 3),
                                            (6, 4, 3, 3)])
    def test_distinct_counts_rooted_hypertrees(self, n, k, j, s):
        """distinct = (1 + c0 s) H_s, with H_s the s-edge hypergraphs on [n]
        that `j_components` finds to be one hypertree component: an instance
        with all labels distinct is such a hypertree rooted at one of its
        1 + c0 s j-sets.  This is the bridge from the census to the exact
        hypertree first moments (ROADMAP items 11 and 14)."""
        ksets = sorted(combinations(range(1, n + 1), k), key=lambda e: e[::-1])  # colex order
        hypertrees = 0
        for edges in combinations(ksets, s):
            comps, _ = j_components(Hypergraph(n, k, edges), j)
            hypertrees += len(comps) == 1 and comps[0].is_hypertree
        c0 = math.comb(k, j) - 1
        assert brute_force_Bs(n, k, j, s)[1] == (1 + c0 * s) * hypertrees

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            brute_force_Bs(12, 3, 2, 2)  # C(12,3) = 220 > 50
        with pytest.raises(ResourceLimitError):
            brute_force_Bs(4, 2, 1, 5)

    def test_guard_forms_no_huge_binomial(self):
        # C(10^4000, 1002) has about 4 million digits; it is neither formed nor printed
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"C\(n,k\) > 50"):
            brute_force_Bs(10**4000, 1002, 2, 3)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n, k, j, s", [(7, 5, 2, 4), (7, 4, 1, 4), (7, 5, 1, 4)])
    def test_guard_bounds_the_work(self, n, k, j, s):
        # inside C(n,k) <= 50 and s <= 4, yet 10.1M to 20.8M rooted instances,
        # 22 s to over 40 s of work; refused before any of it
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="rooted instances"):
            brute_force_Bs(n, k, j, s)
        assert time.perf_counter() - start < 0.1


class TestWheelBound:
    def test_constant_graph_case(self):
        assert wheel_constant(2, 1) == 1

    def test_constant_k3_j2(self):
        assert wheel_constant(3, 2) == 1

    def test_constant_k4_j2(self):
        assert wheel_constant(4, 2) == Fraction(5, 3)

    @pytest.mark.parametrize("k, j", [(3, 0), (1, 1), (3, 3), (2, 5)])
    def test_constant_refuses_out_of_domain(self, k, j):
        with pytest.raises(ValidationError, match="1 <= j <= k-1"):
            wheel_constant(k, j)

    def test_bound_value(self):
        cw, bound = wheel_bound_exact(8, 3, 2, 3)
        assert cw == 1
        assert bound == pytest.approx(8 * (2 * 6) ** 2 / 3)

    def test_census_below_bound_tiny(self):
        for n, k, j, ell in [(6, 3, 2, 2), (6, 3, 2, 3), (6, 2, 1, 3), (5, 2, 1, 3)]:
            census = brute_force_wheel_census(n, k, j, ell)
            _, bound = wheel_bound_exact(n, k, j, ell)
            assert census <= bound

    # Every cell of the census guard, n <= 10 and ell <= 4.  The bound's
    # c_w n^(k-j) is too small by n^(2j-k) when k < 2j, and inside the guard
    # that shows only at (k, j, ell) = (4, 3, 3) for n >= 8.
    @pytest.mark.parametrize("k, j, ell, n", [
        pytest.param(k, j, ell, n, marks=pytest.mark.xfail(
            strict=True, reason="wheel bound below the census when k < 2j (ROADMAP item 1)"))
        if (k, j, ell) == (4, 3, 3) and n >= 8 else (k, j, ell, n)
        for k, j in [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3)] for ell in (2, 3, 4)
        for n in range(k, 11)])
    def test_census_below_bound_guard_grid(self, k, j, ell, n):
        assert brute_force_wheel_census(n, k, j, ell) <= wheel_bound_exact(n, k, j, ell)[1]

    # Closed forms of the census past the grid above.  Every length-3 wheel at
    # (3,2) lies on 4 vertices, and one at (4,3) on 5, so the census is a
    # per-vertex-set count times C(n, 4) or C(n, 5).
    @pytest.mark.parametrize("n", range(6, 11))
    def test_census_closed_form_k3_j2(self, n):
        assert brute_force_wheel_census(n, 3, 2, 3) == 4 * math.comb(n, 4)

    @pytest.mark.parametrize("n", range(5, 9))
    def test_census_closed_form_k4_j3(self, n):
        assert brute_force_wheel_census(n, 4, 3, 3) == 10 * math.comb(n, 5)

    def test_rejects_short_wheels(self):
        with pytest.raises(ValidationError):
            wheel_bound_exact(8, 3, 2, 1)
        with pytest.raises(ValidationError):
            log_wheel_bound(8, 3, 2, 1)

    def test_log_bound_matches_exact_bound(self):
        # the summed log C(n-j, k-j) against the exact bound, up to n = 10**30
        for n, k, j, ell in [(8, 3, 2, 3), (30, 4, 2, 5), (60, 2, 1, 7), (12, 4, 3, 2),
                             (10**6, 40, 3, 2), (10**30, 7, 2, 9), (50, 50, 25, 2)]:
            _, bound = wheel_bound_exact(n, k, j, ell)
            log_exact = math.log(bound.numerator) - math.log(bound.denominator)
            assert log_wheel_bound(n, k, j, ell) == pytest.approx(log_exact, rel=1e-12)

    def test_summed_log_matches_exact_log(self):
        # log c_w summed over its factors, against the log of the exact bound
        pairs = [(k, j) for k in range(2, 30) for j in range(1, k)] + [(700, 350), (3000, 2)]
        for k, j in pairs:
            for n, ell in ((k, 2), (10 * k + 7, 5)):
                _, bound = wheel_bound_exact(n, k, j, ell)
                exact = math.log(bound.numerator) - math.log(bound.denominator)
                assert abs(log_wheel_bound(n, k, j, ell) - exact) < 1e-9


class TestLaplace:
    def test_reference_points(self):
        assert laplace_sum_check(1, 256).holds
        assert laplace_sum_check(3, 2304).holds
        assert laplace_sum_check(2, 100_000).holds

    def test_a1_sum_is_exactly_s(self):
        # sum_{i<=s} i * falling(s,i) / s^i telescopes to s
        chk = laplace_sum_check(1, 512)
        assert chk.lhs == pytest.approx(512.0, rel=1e-9)

    def test_below_threshold_rejected(self):
        with pytest.raises(ValidationError):
            laplace_sum_check(2, (16 * 2) ** 2 - 1)


class TestProbabilityBounds:
    def test_log_b_s_matches_exact_count(self):
        for n, k, j in [(60, 3, 2), (250, 3, 2), (40, 2, 1), (30, 4, 2), (20, 4, 3)]:
            params = TheoryParams(n, k, j, 0.3)
            for s in (1, 2, 3, 7, 50, 200):
                exact = b_s(params, s)
                log_exact = math.log(exact.numerator) - math.log(exact.denominator)
                assert _log_b_s(params, s) == pytest.approx(log_exact, rel=1e-14)

    def test_log_b_s_past_float_c0_s(self):
        # at (1020, 1020, 510), s = 1000, c0 s = 2.8e308 passes the float range;
        # B_s = C(n, j) N^s (1 + c0 s)^(s-1) / s! with N = 1, taken in exact ints
        params, s = TheoryParams(1020, 1020, 510, 0.3), 1000
        log_exact = (math.log(math.comb(1020, 510)) + math.log((1 + params.c0 * s) ** (s - 1))
                     - math.log(math.factorial(s)))
        assert _log_b_s(params, s) == pytest.approx(log_exact, rel=1e-14)
        assert 0.0 < expected_Rs_upper(params, s) < math.inf
        assert 0.0 < expected_Cs_lower_reference(params, s) < math.inf

    def test_bounds_take_any_s_short_of_the_float_range(self):
        params = TheoryParams(60, 3, 2, 0.3)
        for s in (100_000, 100_001, 10**300):
            assert 0.0 <= expected_Rs_upper(params, s) < 1e-300
            assert 0.0 <= expected_Cs_lower_reference(params, s) < 1e-300

    # at 10**400, s itself is past the float range; at (1000, 300, 150) and
    # s = 2.2e305, (s-1) log(1 + c0 s) rounds to inf while lgamma(s + 1) does not
    @pytest.mark.parametrize("n, k, j, s", [(60, 3, 2, 10**400), (1000, 300, 150, 22 * 10**304)])
    def test_log_b_s_past_float_range_refused(self, n, k, j, s):
        params = TheoryParams(n, k, j, 0.3)
        for bound in (expected_Rs_upper, expected_Cs_lower_reference):
            with pytest.raises(ValidationError, match="past the float range"):
                bound(params, s)

    @pytest.mark.parametrize("n, k, j, epsilon, s", [(3, 3, 2, 0.3, 1000), (60, 4, 3, 0.05, 100_000)])
    def test_rs_past_float_range_refused(self, n, k, j, epsilon, s):
        params = TheoryParams(n, k, j, epsilon)
        with pytest.raises(ValidationError, match="past the float range"):
            expected_Rs_upper(params, s)
        assert 0.0 <= expected_Cs_lower_reference(params, s) < math.inf

    def test_rs_degenerate_exponent(self):
        # n = k = 2: the (1-p) exponent is zero and the bound is B_1 * p
        params = TheoryParams(2, 2, 1, 0.4)
        assert (1 + params.c0) * params.supersets_per_jset - (1 + params.c0) == 0
        assert expected_Rs_upper(params, 1) == pytest.approx(float(b_s(params, 1)) * params.p)

    def test_rs_monotone_decreasing_tail(self):
        params = TheoryParams(200, 3, 2, 0.3)
        values = [expected_Rs_upper(params, s) for s in range(50, 301)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rs_below_one_certifies_tail_rarity(self):
        # once the bound drops below 1, Markov gives rarity of larger sizes
        params = TheoryParams(250, 3, 2, 0.3)
        s = round(predicted_L1(params)) + 60
        assert expected_Rs_upper(params, s) < 1.0

    def test_cs_over_rs_bookkeeping_identity(self):
        params = TheoryParams(60, 3, 2, 0.3)
        for s in (1, 5, 20):
            ratio = expected_Cs_lower_reference(params, s) / expected_Rs_upper(params, s)
            assert ratio == pytest.approx((1 - params.p) ** (s * (1 + params.c0)), rel=1e-9)

    def test_cs_closed_form_at_one(self):
        params = TheoryParams(30, 3, 2, 0.3)
        expected = (
            math.comb(30, 2)
            * 28
            * params.p
            * (1 - params.p) ** ((1 + params.c0) * 28)
        )
        assert expected_Cs_lower_reference(params, 1) == pytest.approx(expected, rel=1e-9)

    def test_cs_compatible_with_decay_shape(self):
        params = TheoryParams(200, 3, 2, 0.3)
        s = round(predicted_L1(params))
        reference = math.comb(200, 2) * math.exp(-s * params.delta) * s**-1.5
        ratio = expected_Cs_lower_reference(params, s) / reference
        assert 1e-2 <= ratio <= 1e2

    def test_unicycle_log_scales_by_constant(self):
        params = TheoryParams(60, 3, 2, 0.3)
        b1 = unicycle_bound(params, 2048, constant=244.0)
        b2 = unicycle_bound(params, 2048, constant=488.0)
        # log magnitudes are ~1e4, so the difference carries ~1e-8 noise
        assert b2 - b1 == pytest.approx(math.log(2), abs=1e-7)

    def test_unicycle_graph_case_reduction(self):
        params = TheoryParams(200, 2, 1, 0.3)
        s = 4096
        expected = (
            math.log(244.0)
            + math.log(float(wheel_constant(2, 1)))
            + math.log(200)
            + (s - 1) * math.log(199)
            + (s + 0.5) * math.log(s)
            - math.lgamma(s + 1)
        )
        assert unicycle_bound(params, s) == pytest.approx(expected, rel=1e-12)

    def test_unicycle_finite_at_ten_thousand(self):
        params = TheoryParams(200, 3, 2, 0.3)
        assert math.isfinite(unicycle_bound(params, 10_000))

    def test_unicycle_threshold(self):
        params = TheoryParams(200, 3, 2, 0.3)
        with pytest.raises(ValidationError):
            unicycle_bound(params, 1023)

    @pytest.mark.parametrize("constant", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_unicycle_needs_finite_positive_constant(self, constant):
        with pytest.raises(ValidationError):
            unicycle_bound(TheoryParams(200, 3, 2, 0.3), 2048, constant)


class TestPrediction:
    def test_reference_value(self):
        params = TheoryParams(250, 3, 2, 0.3)
        # frozen from a direct evaluation of (log lam - 2.5 log log lam)/delta
        assert predicted_L1(params) == pytest.approx(34.68872011220124, rel=1e-12)

    def test_companion_order(self):
        params = TheoryParams(250, 3, 2, 0.3)
        assert predicted_M1(params) == pytest.approx(2 * predicted_L1(params))

    def test_delta_increasing_in_epsilon(self):
        small = TheoryParams(250, 3, 2, 0.2)
        large = TheoryParams(250, 3, 2, 0.4)
        assert large.delta > small.delta

    def test_lambda_guard(self):
        params = TheoryParams(5, 3, 2, 0.3)  # lam = 0.027 * 10 < e
        with pytest.raises(ValidationError):
            predicted_L1(params)

    # The size law is subcritical.  Each refusal comes before a logarithm:
    # log(lam) at lam <= 0, and log1p(-p) at (2, 2, 1, 0), where p = p0 = 1,
    # would raise a bare ValueError.
    @pytest.mark.parametrize("n, k, j, epsilon", [(2, 2, 1, 0.0), (250, 3, 2, 0.0),
                                                  (250, 3, 2, -0.5)])
    def test_size_law_refuses_epsilon_not_above_zero(self, n, k, j, epsilon):
        params = TheoryParams(n, k, j, epsilon)
        for predict in (predicted_L1, predicted_M1):
            with pytest.raises(ValidationError, match="^prediction needs lambda > e"):
                predict(params)
        for bound in (expected_Rs_upper, expected_Cs_lower_reference):
            with pytest.raises(ValidationError, match=re.escape(
                    f"the bound needs epsilon in (0, 1), got {epsilon}")):
                bound(params, 1)
