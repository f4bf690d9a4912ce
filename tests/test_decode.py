import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pooltest.core import BudgetExceededError, InputError, TestMatrix, answer_vector
from pooltest.decode import (
    AMBIGUOUS,
    DECODED,
    NO_CONSISTENT_SET,
    _consistent_sets,
    decode_disjunct,
    decode_semidisjunct,
    decode_separable_bruteforce,
    eliminate,
)
from pooltest.design import disjunct_test_count, semidisjunct_test_count
from pooltest.randgen import gen_rid
from pooltest.verify import check_property, is_disjunct


def naive_eliminate(matrix, answers):
    """Per-item double loop: keep an item unless some negative test holds it."""
    survivors = []
    for item in range(1, matrix.n + 1):
        hit = False
        for row in range(matrix.m):
            if answers[row] == 0 and matrix.get(row, item) == 1:
                hit = True
                break
        if not hit:
            survivors.append(item)
    return tuple(survivors)


def test_all_positive_answers_eliminate_nothing():
    matrix = gen_rid(6, 9, 0.5, seed=4)
    assert eliminate(matrix, np.ones(6, dtype=np.uint8)) == tuple(range(1, 10))


def test_identity_elimination():
    matrix = TestMatrix.identity(3)
    assert eliminate(matrix, [0, 1, 0]) == (2,)


def test_elimination_matches_naive_double_loop():
    matrix = gen_rid(30, 20, 0.6, seed=17)
    items = (3, 11, 19)
    answers = answer_vector(matrix, items)
    assert eliminate(matrix, answers) == naive_eliminate(matrix, answers)


def test_defectives_always_survive():
    rng = np.random.default_rng(55)
    for _ in range(40):
        m, n = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        matrix = gen_rid(m, n, float(rng.uniform(0.1, 0.9)), seed=int(rng.integers(2**32)))
        size = int(rng.integers(0, min(4, n) + 1))
        items = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=size, replace=False)))
        survivors = eliminate(matrix, answer_vector(matrix, items))
        assert set(items) <= set(survivors)


def test_elimination_rejects_length_mismatch():
    matrix = TestMatrix.identity(3)
    with pytest.raises(InputError):
        eliminate(matrix, [0, 1])


def test_decode_disjunct_on_verified_instance():
    n, d, delta = 60, 2, 0.2
    m = disjunct_test_count(n, d, delta)
    hits = 0
    for seed in range(12):
        matrix = gen_rid(m, n, 2 / 3, seed=seed)
        items = (9, 41)
        if not is_disjunct(matrix, items):
            continue
        hits += 1
        outcome = decode_disjunct(matrix, answer_vector(matrix, items))
        assert outcome.status == DECODED and outcome.items == items
        assert outcome.eliminated_count == n - d
    assert hits >= 8


def test_decode_disjunct_without_property_is_superset():
    matrix = gen_rid(4, 30, 2 / 3, seed=3)
    items = (5, 20)
    outcome = decode_disjunct(matrix, answer_vector(matrix, items))
    assert set(items) <= set(outcome.items)


def test_untested_items_survive_all_zero_answers():
    matrix = TestMatrix.from_dense([[0, 1], [0, 1]])
    outcome = decode_disjunct(matrix, [0, 0])
    assert outcome.items == (1,)


def test_decode_semidisjunct_verified_full_size_set():
    n, d, delta = 25, 2, 0.1
    m = semidisjunct_test_count(n, d, delta)
    hits = 0
    for seed in range(10):
        matrix = gen_rid(m, n, 0.5, seed=seed)
        items = (7, 19)
        if not check_property(matrix, items, "semidisjunct", d).holds:
            continue
        hits += 1
        outcome = decode_semidisjunct(matrix, answer_vector(matrix, items), d)
        assert outcome.status == DECODED and outcome.items == items
    assert hits >= 7


def test_semidisjunct_shortcut_equals_elimination():
    matrix = gen_rid(disjunct_test_count(40, 2, 0.2), 40, 2 / 3, seed=77)
    items = (2, 33)
    answers = answer_vector(matrix, items)
    if is_disjunct(matrix, items):
        semi = decode_semidisjunct(matrix, answers, 2)
        plain = decode_disjunct(matrix, answers)
        assert semi.items == plain.items
        assert semi.exhaustive_candidates == 0


def test_semidisjunct_agrees_with_bruteforce_when_unique():
    n, d = 20, 3
    m = semidisjunct_test_count(n, d, 0.1)
    rng = np.random.default_rng(661)
    checked = 0
    for seed in range(30):
        matrix = gen_rid(m, n, 2 / 3, seed=seed)
        items = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=d, replace=False)))
        answers = answer_vector(matrix, items)
        brute = decode_separable_bruteforce(matrix, answers, d)
        if brute.status != DECODED:
            continue
        checked += 1
        semi = decode_semidisjunct(matrix, answers, d)
        assert semi.status == DECODED and semi.items == brute.items == items
    assert checked >= 25


def test_semidisjunct_consistency_of_exhaustive_result():
    # duplicate columns force the exhaustive path; result must replay the answers
    dense = [[1, 1, 0, 0], [0, 0, 1, 0]]
    matrix = TestMatrix.from_dense(dense)
    answers = answer_vector(matrix, (2,))
    outcome = decode_semidisjunct(matrix, answers, 1)
    assert outcome.status == DECODED
    assert outcome.items == (1,)  # lexicographically first consistent singleton
    assert outcome.exhaustive_candidates == 3
    assert np.array_equal(answer_vector(matrix, outcome.items), answers)


def test_bruteforce_unique_on_identity():
    matrix = TestMatrix.identity(5)
    outcome = decode_separable_bruteforce(matrix, answer_vector(matrix, (2, 4)), 2)
    assert outcome.status == DECODED and outcome.items == (2, 4)


def test_bruteforce_ambiguous_counts_all_consistent_sets():
    matrix = TestMatrix.from_dense([[0, 0]])
    outcome = decode_separable_bruteforce(matrix, [0], 1)
    assert outcome.status == AMBIGUOUS
    assert outcome.consistent_count == 3  # empty set, {1}, {2}


def test_bruteforce_no_consistent_set():
    matrix = TestMatrix.from_dense([[0, 0]])
    outcome = decode_separable_bruteforce(matrix, [1], 1)
    assert outcome.status == NO_CONSISTENT_SET
    assert outcome.consistent_count == 0


def test_bruteforce_ambiguous_on_duplicate_columns():
    matrix = TestMatrix.from_dense([[1, 1, 0, 0], [0, 0, 1, 0]])
    outcome = decode_separable_bruteforce(matrix, answer_vector(matrix, (2,)), 1)
    assert outcome.status == AMBIGUOUS and outcome.consistent_count == 2


def test_semidisjunct_budget_refusal():
    matrix = TestMatrix.from_dense(np.ones((1, 60), dtype=np.uint8))
    answers = [1]
    with pytest.raises(BudgetExceededError):
        decode_semidisjunct(matrix, answers, 5, max_subset_tests=1000)
    # C(200, 8) is far over the default budget
    big = TestMatrix.from_dense(np.ones((1, 200), dtype=np.uint8))
    with pytest.raises(BudgetExceededError):
        decode_semidisjunct(big, [1], 8)


def test_bruteforce_budget_refusal():
    matrix = gen_rid(5, 41, 0.5, seed=1)
    with pytest.raises(BudgetExceededError):
        decode_separable_bruteforce(matrix, np.zeros(5, dtype=np.uint8), 2)
    small = gen_rid(5, 10, 0.5, seed=1)
    with pytest.raises(BudgetExceededError):
        decode_separable_bruteforce(small, np.zeros(5, dtype=np.uint8), 5)


def test_exhaustive_work_is_bounded_on_property_instances():
    n, d = 25, 2
    m = semidisjunct_test_count(n, d, 0.1)
    for seed in range(6):
        matrix = gen_rid(m, n, 0.5, seed=seed)
        items = (4, 18)
        if not check_property(matrix, items, "semidisjunct", d).holds:
            continue
        outcome = decode_semidisjunct(matrix, answer_vector(matrix, items), d)
        pool = outcome.exhaustive_candidates
        assert math.comb(pool, d) <= math.comb(math.ceil(n ** (1 / d)) + d, d)


@st.composite
def scan_instances(draw):
    """(dense matrix, candidates, answers, sizes) with n <= 12 and sizes in 0..4.

    Columns are drawn from a small pool that holds the empty column, so
    duplicate and empty columns are common; the answers are those of a
    random item set, or random bits.
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    column = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    pool = draw(st.lists(column, min_size=1, max_size=4)) + [[0] * m]
    columns = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    dense = np.array(columns, dtype=np.uint8).T
    candidates = draw(st.lists(st.integers(1, n), unique=True).map(sorted))
    if draw(st.booleans()):
        chosen = draw(st.lists(st.integers(1, n), unique=True, max_size=4))
        answers = dense[:, [i - 1 for i in chosen]].any(axis=1).astype(np.uint8)
    else:
        answers = np.array(draw(column), dtype=np.uint8)
    sizes = draw(st.lists(st.integers(0, 4), unique=True, max_size=5))
    return dense, tuple(candidates), answers, sizes


@settings(max_examples=300, deadline=None)
@given(scan_instances())
def test_consistent_sets_match_a_literal_filter(instance):
    dense, candidates, answers, sizes = instance
    matrix = TestMatrix.from_dense(dense)

    def ored(items):
        return dense[:, [i - 1 for i in items]].any(axis=1)

    expected = [
        combo for size in sizes for combo in combinations(candidates, size)
        if np.array_equal(ored(combo), answers.astype(bool))
    ]
    assert list(_consistent_sets(matrix, candidates, answers, sizes)) == expected
