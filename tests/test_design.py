import math
from itertools import combinations, product

import numpy as np
import pytest

from pooltest.core import PROPERTIES, BudgetExceededError, InputError
from pooltest.design import (
    coefficient_table,
    disjunct_coefficient,
    disjunct_coefficient_series,
    disjunct_test_count,
    equal_pair_rate,
    equal_pair_rate_minimizer,
    log_n_coefficient,
    make_design,
    max_failure_term,
    max_failure_term_bruteforce,
    nested_pair_rate,
    nested_pair_rate_minimizer,
    optimal_zero_prob,
    rid_equal_answer_prob,
    rrsd_avoid_prob,
    rrsd_equal_answer_prob,
    semidisjunct_coefficient,
    semidisjunct_test_count,
    separable_test_count,
    separable_test_terms,
    separability_failure_term,
    required_tests,
)

E = math.e

# High-precision reference values, frozen from a 60-digit evaluation of the
# closed forms.
GAMMA = {
    1: 3.476059496782207,
    2: 6.236643834507743,
    3: 8.972195450467225,
    4: 11.6999095548682,
    5: 14.42414311204945,
    6: 17.14652480637037,
    7: 19.86780336252954,
}
SEMI = {
    2: 3.744437844709309,
    3: 6.410890501323479,
    4: 9.101331719106805,
    5: 11.80251278424419,
    6: 14.50926504110685,
    7: 17.21925773804982,
}


def test_coefficients_match_reference():
    for d, want in GAMMA.items():
        assert disjunct_coefficient(d) == pytest.approx(want, abs=1e-9)
    for d, want in SEMI.items():
        assert semidisjunct_coefficient(d) == pytest.approx(want, abs=1e-9)


def test_coefficient_domain_errors():
    with pytest.raises(InputError):
        disjunct_coefficient(0)
    with pytest.raises(InputError):
        disjunct_coefficient(-3)
    with pytest.raises(InputError):
        semidisjunct_coefficient(1)


def test_series_frozen_value_and_tail():
    # three-term series at d=2, evaluated directly
    assert disjunct_coefficient_series(2) == pytest.approx(6.22374538967, abs=1e-9)
    assert abs(disjunct_coefficient(100) - disjunct_coefficient_series(100)) < 1e-3


def test_series_gap_shrinks_with_d():
    gaps = [
        abs(disjunct_coefficient(d) - disjunct_coefficient_series(d))
        for d in range(10, 1001, 10)
    ]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_optimal_zero_prob():
    assert optimal_zero_prob("disjunct", 2) == 2 / 3
    assert optimal_zero_prob("separable", 2) == 0.5
    assert optimal_zero_prob("semidisjunct", 10) == 0.9
    for d in range(1, 11):
        assert optimal_zero_prob("disjunct", d) == d / (d + 1)
        assert optimal_zero_prob("disjunct", d) == pytest.approx(1 - 1 / (d + 1), rel=1e-15)
    with pytest.raises(InputError):
        optimal_zero_prob("separable", 1)
    with pytest.raises(InputError):
        optimal_zero_prob("nonsense", 3)


def test_disjunct_test_count_frozen():
    assert disjunct_test_count(10**6, 2, 0.01) == 115
    assert disjunct_test_count(10**4, 5, 0.1) == 167
    assert disjunct_test_count(2, 1, 0.5) >= 1


def test_separable_count_cross_check():
    m = separable_test_count(10**6, 3, 0.1)
    cross = math.ceil(
        GAMMA[2] * (math.log(10**6) + math.log(10) + 2 * math.log(3) + 3 * math.log(2))
    )
    assert abs(m - cross) <= 1


def test_separable_count_dominates_top_index_term():
    for d in (2, 3, 5):
        n = 10**4
        p = 1 - 1 / d
        floor_term = math.ceil(math.log(n) / -math.log1p(p**d - p ** (d - 1)))
        assert separable_test_count(n, d, 0.1) >= floor_term


def test_separable_maximizer_small_n_is_top_index():
    for d in range(2, 8):
        terms = separable_test_terms(10**3, d, 0.1)
        assert max(range(d), key=lambda w: terms[w]) == d - 1


def test_separable_maximizer_large_n():
    # For d >= 3 the top index keeps dominating; at d = 2 the equal-size
    # family at w = 0 takes over for large n (see README numerical notes).
    for n in (10**4, 10**6):
        for d in range(3, 8):
            terms = separable_test_terms(n, d, 0.1)
            assert max(range(d), key=lambda w: terms[w]) == d - 1
        terms2 = separable_test_terms(n, 2, 0.1)
        assert max(range(2), key=lambda w: terms2[w]) == 0


def test_semidisjunct_count_frozen_and_positive():
    assert semidisjunct_test_count(10**4, 4, 0.1) == 180
    assert semidisjunct_test_count(2, 2, 0.9) >= 1


def test_semidisjunct_count_slope_matches_coefficient():
    # ln-n slope of the count equals the coefficient, up to ceil jitter
    for d in (2, 4, 7):
        n1 = 10**9
        n2 = round(n1 * E)
        slope = semidisjunct_test_count(n2, d, 0.1) - semidisjunct_test_count(n1, d, 0.1)
        coef = semidisjunct_coefficient(d)
        assert abs(slope - coef * (math.log(n2) - math.log(n1))) <= 2


def test_semidisjunct_vs_disjunct_counts_at_1e6():
    # d = 2 wins; from d = 3 on the additive d*ln2 term makes the
    # semidisjunct count larger at this n (the advantage is asymptotic).
    assert semidisjunct_test_count(10**6, 2, 0.1) == 90
    assert disjunct_test_count(10**6, 2, 0.1) == 101
    assert semidisjunct_test_count(10**6, 3, 0.1) == 152
    assert disjunct_test_count(10**6, 3, 0.1) == 145


def test_semidisjunct_count_has_separable_floor():
    # A semidisjunct design is separable, so its count never falls below the
    # separable count. The floor binds only at d = 2 from n = 10^24 on,
    # where the w = 0 equal-size family (slope 4.2553) outgrows m_semi
    # (slope 3.7444); elsewhere the count is the closed form m_semi.
    for d in range(2, 65):
        z = (((d - 1.0) / d) ** d) / d
        for e in range(1, 301):
            n = 10**e
            m_semi = math.ceil(
                ((1.0 - 1.0 / d) * math.log(n) + math.log(1.0 / 0.1)
                 + d * math.log(2.0) + 2.0 * math.log(d))
                / -math.log1p(-z)
            )
            floor = separable_test_count(n, d, 0.1)
            count = semidisjunct_test_count(n, d, 0.1)
            assert count == max(m_semi, floor), (d, e)
            assert (count > m_semi) == (d == 2 and e >= 24), (d, e)
    assert semidisjunct_test_count(10**24, 2, 0.1) == 246
    assert semidisjunct_test_count(10**40, 2, 0.1) == 403


def test_required_tests_dispatch_and_make_design():
    assert required_tests("disjunct", 100, 2, 0.1) == disjunct_test_count(100, 2, 0.1)
    spec = make_design(100, 4, 0.1, "semidisjunct")
    assert spec.zero_prob == 0.75 and spec.m == semidisjunct_test_count(100, 4, 0.1)
    rr = make_design(100, 3, 0.1, "disjunct", model="rrsd")
    assert rr.row_weight == 33
    with pytest.raises(InputError):
        make_design(100, 2, 0.1, "disjunct", model="other")


# ---------------------------------------------------------------------------
# Equal-answer probability for independent-cell rows
# ---------------------------------------------------------------------------

def enumerated_equal_prob(d1, d2, k, p):
    """Exhaustive oracle: enumerate assignments of the d1 + d2 - k relevant cells."""
    universe = d1 + d2 - k
    first = set(range(d1))
    second = set(range(d1 - k, d1 - k + d2))
    total = 0.0
    for mask in range(2**universe):
        prob = 1.0
        ones = set()
        for cell in range(universe):
            if (mask >> cell) & 1:
                prob *= 1.0 - p
                ones.add(cell)
            else:
                prob *= p
        if bool(ones & first) == bool(ones & second):
            total += prob
    return total


def test_equal_answer_prob_examples():
    assert rid_equal_answer_prob(3, 3, 3, 0.42) == 1.0
    assert rid_equal_answer_prob(1, 1, 0, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert rid_equal_answer_prob(2, 1, 1, 0.5) == pytest.approx(0.75, rel=1e-15)
    with pytest.raises(InputError):
        rid_equal_answer_prob(1, 1, 2, 0.5)
    with pytest.raises(InputError):
        rid_equal_answer_prob(1, 1, 0, 1.0)


def test_equal_answer_prob_vs_enumeration():
    for d1, d2 in product(range(4), repeat=2):
        for k in range(min(d1, d2) + 1):
            for p in (0.3, 0.5, 0.8):
                assert rid_equal_answer_prob(d1, d2, k, p) == pytest.approx(
                    enumerated_equal_prob(d1, d2, k, p), rel=1e-12
                )


def test_failure_term_examples():
    assert separability_failure_term(50, 3, 3, 3, 0.4, 9).value == pytest.approx(1.0)
    term = separability_failure_term(100, 2, 2, 1, 0.5, 10)
    assert term.value == pytest.approx(5.6313515, abs=1e-6)


def test_failure_term_log_matches_linear():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d1, d2 = rng.integers(0, 5, size=2)
        k = rng.integers(0, min(d1, d2) + 1)
        n = int(rng.integers(2, 500))
        m = int(rng.integers(1, 60))
        p = float(rng.uniform(0.05, 0.95))
        term = separability_failure_term(n, int(d1), int(d2), int(k), p, m)
        direct = n ** float(d2 - k) * rid_equal_answer_prob(int(d1), int(d2), int(k), p) ** m
        if 1e-280 < direct < 1e280:
            assert term.value == pytest.approx(direct, rel=1e-10)


def test_max_failure_term_matches_bruteforce():
    for d in (2, 3):
        for p in (0.3, 1 - 1 / d, 0.9):
            red, witness = max_failure_term(100, d, p, 40)
            brute, triple = max_failure_term_bruteforce(100, d, p, 40)
            assert red.log == pytest.approx(brute.log, abs=1e-12)
            assert triple != (d, d, d)
            member = separability_failure_term(
                100, witness.d1, witness.d2, witness.k, p, 40
            )
            assert member.log == red.log


def test_max_failure_term_dominates_members():
    red, _ = max_failure_term(200, 4, 0.7, 30)
    member = separability_failure_term(200, 4, 4, 3, 0.7, 30)
    assert red.log >= member.log


def test_max_failure_term_below_one_at_design_count():
    for d in (2, 3, 4, 5):
        for n in (100, 10**4):
            m = separable_test_count(n, d, 0.1)
            value, _ = max_failure_term(n, d, 1 - 1 / d, m)
            assert value.value < 1.0


def test_bruteforce_refuses_large_d():
    with pytest.raises(BudgetExceededError):
        max_failure_term_bruteforce(100, 9, 0.5, 10)


# ---------------------------------------------------------------------------
# Pair rates and their minimizers
# ---------------------------------------------------------------------------

def test_pair_rate_values():
    assert nested_pair_rate(3, 2, 2 / 3) == pytest.approx(GAMMA[2], abs=5e-4)
    assert equal_pair_rate(2, 1, 0.5) == pytest.approx(1 / math.log(4 / 3), rel=1e-12)
    for d, p in ((2, 0.3), (5, 0.81)):
        assert nested_pair_rate(d, 0, p) == pytest.approx(1 / math.log(1 / p), rel=1e-12)


def test_pair_rates_return_infinity_not_error():
    assert math.isinf(equal_pair_rate(2, 0, 1e-300))
    assert math.isinf(equal_pair_rate(2000, 1999, 0.5))


def test_pair_rate_domain_errors():
    with pytest.raises(InputError):
        nested_pair_rate(3, 3, 0.5)
    with pytest.raises(InputError):
        equal_pair_rate(3, -1, 0.5)


def test_minimizer_closed_forms():
    for d in range(2, 7):
        assert nested_pair_rate_minimizer(d, d - 1) == pytest.approx((d - 1) / d, rel=1e-15)
        assert equal_pair_rate_minimizer(d, 0) == pytest.approx(0.5 ** (1 / d), rel=1e-15)
    assert nested_pair_rate_minimizer(2, 1) == 0.5
    assert nested_pair_rate_minimizer(5, 0) == 0.0


def test_minimizers_match_grid_search():
    grid = np.linspace(1e-4, 1 - 1e-4, 10**4)
    for d in range(2, 7):
        for w in range(d):
            nested = np.array([nested_pair_rate(d, w, p) for p in grid])
            want = nested_pair_rate_minimizer(d, w)
            if w == 0:
                # rate is increasing in p, so the infimum sits at p -> 0
                assert nested.argmin() == 0
            else:
                at_min = nested_pair_rate(d, w, want)
                assert at_min <= nested.min() * (1 + 1e-9)
                assert abs(grid[nested.argmin()] - want) < 1e-3
            equal = np.array([equal_pair_rate(d, w, p) for p in grid])
            want2 = equal_pair_rate_minimizer(d, w)
            assert equal_pair_rate(d, w, want2) <= equal.min() * (1 + 1e-9)
            assert abs(grid[equal.argmin()] - want2) < 1e-3


# ---------------------------------------------------------------------------
# Constant-weight rows
# ---------------------------------------------------------------------------

def enumerated_rrsd_equal_prob(n, r, first, second):
    hits = 0
    rows = list(combinations(range(1, n + 1), r))
    for row in rows:
        row_set = set(row)
        if bool(row_set & set(first)) == bool(row_set & set(second)):
            hits += 1
    return hits / len(rows)


def test_rrsd_avoid_prob_values():
    assert rrsd_avoid_prob(4, 2, 0) == 1.0
    assert rrsd_avoid_prob(4, 2, 1) == pytest.approx(0.5, rel=1e-15)
    assert rrsd_avoid_prob(4, 2, 2) == pytest.approx(1 / 6, rel=1e-14)
    assert rrsd_avoid_prob(5, 3, 3) == 0.0


def test_rrsd_equal_prob_vs_row_enumeration():
    cases = [
        (4, 2, (1,), (2,), 1, 1, 0),
        (4, 2, (1, 2), (3,), 2, 1, 0),
        (4, 2, (1, 2), (2, 3), 2, 2, 1),
        (4, 2, (1, 2), (3, 4), 2, 2, 0),
        (5, 2, (1, 2), (2,), 2, 1, 1),
    ]
    for n, r, first, second, d1, d2, k in cases:
        want = enumerated_rrsd_equal_prob(n, r, first, second)
        assert rrsd_equal_answer_prob(n, r, d1, d2, k) == pytest.approx(want, rel=1e-13)


def test_rrsd_singleton_pair_exact():
    # two disjoint singletons, weight-2 rows over four items: 2 of 6 rows agree
    assert rrsd_equal_answer_prob(4, 2, 1, 1, 0) == pytest.approx(1 / 3, rel=1e-14)


def test_rrsd_avoid_prob_bounds():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(10, 2000))
        r = int(rng.integers(1, n + 1))
        x = int(rng.integers(0, n // 2 + 1))
        q = rrsd_avoid_prob(n, r, x)
        upper = (1 - r / n) ** x
        lower = upper - x * x * r / (n * n)
        assert q <= upper + 1e-12
        assert q >= lower - 1e-12


def test_rrsd_error_shrinks_with_n():
    rid = rid_equal_answer_prob(3, 3, 1, 2 / 3)
    errs = [
        abs(rrsd_equal_answer_prob(n, round(n / 3), 3, 3, 1) - rid)
        for n in (10**3, 10**4, 10**5)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_rrsd_domain_errors():
    with pytest.raises(InputError):
        rrsd_avoid_prob(10, 11, 2)
    with pytest.raises(InputError):
        rrsd_equal_answer_prob(4, 2, 3, 3, 1)


# ---------------------------------------------------------------------------
# Coefficient orderings and documented anomalies
# ---------------------------------------------------------------------------

def test_coefficient_ordering():
    for d in range(2, 65):
        low = disjunct_coefficient(d - 1)
        mid = semidisjunct_coefficient(d)
        high = disjunct_coefficient(d)
        assert low < mid < high


def test_coefficient_table_monotone():
    rows = coefficient_table(7)
    assert [r.d for r in rows] == list(range(2, 8))
    for a, b in zip(rows, rows[1:]):
        assert a.disjunct < b.disjunct
        assert a.separable < b.separable
        assert a.semidisjunct < b.semidisjunct


def test_log_n_coefficient_maps_each_property():
    assert log_n_coefficient("disjunct", 1) == disjunct_coefficient(1)  # design --d 1
    for row in coefficient_table(5):
        d = row.d
        expected = (
            disjunct_coefficient(d), disjunct_coefficient(d - 1), semidisjunct_coefficient(d)
        )
        assert tuple(log_n_coefficient(prop, d) for prop in PROPERTIES) == expected
        assert (row.disjunct, row.separable, row.semidisjunct) == expected
    for prop in ("separable", "semidisjunct"):
        with pytest.raises(InputError, match="d must be >= 2"):
            log_n_coefficient(prop, 1)
    with pytest.raises(InputError, match="property must be one of"):
        log_n_coefficient("semi", 3)


def test_equal_rate_exceeds_nested_bound_at_d2_w0():
    # Documented anomaly: at d = 2 the equal-size family at w = 0 is the
    # binding one at p = 1/2, so the w-maximum is NOT attained at w = d-1.
    assert equal_pair_rate(2, 0, 0.5) == pytest.approx(4.2552863, abs=1e-6)
    assert equal_pair_rate(2, 0, 0.5) > nested_pair_rate(2, 1, 0.5)
    # every other (d, w) with d <= 10 respects the bound
    for d in range(2, 11):
        bound = nested_pair_rate(d, d - 1, 1 - 1 / d)
        for w in range(d):
            if (d, w) == (2, 0):
                continue
            assert equal_pair_rate(d, w, 1 - 1 / d) <= bound


def test_doubling_tail_inequality_fails_only_at_w0():
    # 2(1 - (1-1/d)^(d-w)) >= (d-w)/(d-1) holds on its stated domain
    # w in [1, d-1]; at w = 0 it fails for d = 2 and d = 3.
    for d, w in ((2, 0), (3, 0)):
        assert 2 * (1 - (1 - 1 / d) ** (d - w)) < (d - w) / (d - 1)
    assert 2 * (1 - (1 - 1 / 4) ** 4) >= 4 / 3
