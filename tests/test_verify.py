import math

import numpy as np
import pytest

from pooltest.core import BudgetExceededError, InputError, TestMatrix, answer_vector
from pooltest.decode import DECODED, MAX_DESK_ITEMS, decode_separable_bruteforce
from pooltest.design import semidisjunct_test_count
from pooltest.randgen import gen_rid
from pooltest.verify import (
    PropertyReport,
    check_property,
    is_disjunct,
    is_separable,
    non_disjunct_items,
    separability_witness,
)


def naive_item_witness(matrix, items, item):
    for row in range(matrix.m):
        if matrix.get(row, item) == 1 and all(matrix.get(row, i) == 0 for i in items):
            return True
    return False


def test_non_disjunct_items_match_naive_scan():
    matrix = gen_rid(15, 12, 0.5, seed=40)
    items = (2, 9)
    expected = tuple(item for item in range(1, 13)
                     if item not in items and not naive_item_witness(matrix, items, item))
    assert 0 < len(expected) < 10
    assert non_disjunct_items(matrix, items) == expected


def test_non_disjunct_items_examples():
    assert non_disjunct_items(TestMatrix.identity(4), (2, 3)) == ()
    zero_row = TestMatrix.from_dense([[0, 0, 0]])
    assert non_disjunct_items(zero_row, (1,)) == (2, 3)
    assert not is_disjunct(zero_row, (1,))
    assert is_disjunct(TestMatrix.identity(4), (1,))


def test_mean_unwitnessed_items_below_design_allowance():
    # At the semidisjunct design the expected unwitnessed-item count stays
    # under (delta/2) * n^(1/d).
    n, d, delta = 200, 2, 0.2
    m = semidisjunct_test_count(n, d, delta)
    counts = []
    rng = np.random.default_rng(2718)
    for seed in range(300):
        matrix = gen_rid(m, n, 1 - 1 / d, seed=seed)
        items = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=d, replace=False)))
        counts.append(len(non_disjunct_items(matrix, items)))
    mean = sum(counts) / len(counts)
    spread = np.std(counts) / math.sqrt(len(counts))
    assert mean <= (delta / 2) * n ** (1 / d) + 3 * spread


def test_separable_identity_and_duplicate_columns():
    assert is_separable(TestMatrix.identity(5), (1, 4), 2)
    dup = TestMatrix.from_dense([[1, 1, 0], [0, 0, 1]])
    assert not is_separable(dup, (1,), 1)
    assert separability_witness(dup, (1,), 1) == (2,)


def test_separable_agrees_with_bruteforce_uniqueness():
    rng = np.random.default_rng(99)
    for seed in range(30):
        n = int(rng.integers(5, 15))
        m = int(rng.integers(3, 20))
        d = int(rng.integers(1, 4))
        matrix = gen_rid(m, n, 0.5, seed=seed)
        size = int(rng.integers(0, min(d, n) + 1))
        items = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=size, replace=False)))
        outcome = decode_separable_bruteforce(matrix, answer_vector(matrix, items), d)
        unique_hit = outcome.status == DECODED and outcome.items == items
        assert is_separable(matrix, items, d) == unique_hit


def test_separable_budget_refusal():
    with pytest.raises(BudgetExceededError):
        is_separable(gen_rid(5, 50, 0.5, seed=0), (1,), 2)
    with pytest.raises(BudgetExceededError):
        is_separable(gen_rid(5, 10, 0.5, seed=0), (1,), 5)


def test_semidisjunct_identity_holds():
    report = check_property(TestMatrix.identity(6), (2, 5), "semidisjunct", 2)
    assert report.holds
    assert report.witness is None
    assert report.non_disjunct_items == ()
    assert report.threshold == pytest.approx(math.sqrt(6))


def test_disjunct_implies_separable_and_semidisjunct():
    for seed in range(15):
        matrix = gen_rid(30, 12, 2 / 3, seed=seed)
        items = (3, 8)
        if not is_disjunct(matrix, items):
            continue
        assert is_separable(matrix, items, 2)
        assert check_property(matrix, items, "semidisjunct", 2).holds


def test_check_property_agrees_with_the_single_checks():
    rng = np.random.default_rng(12)
    branches = set()
    for seed in range(60):
        n = int(rng.integers(4, 14))
        m = int(rng.integers(2, 10))
        d = int(rng.integers(1, 4))
        matrix = gen_rid(m, n, 0.6, seed=seed)
        size = int(rng.integers(0, d + 1))
        items = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=size, replace=False)))
        unwitnessed = non_disjunct_items(matrix, items)
        confusable = separability_witness(matrix, items, d)
        threshold = n ** (1 / d)
        over = len(unwitnessed) ** d > n
        semi_witness = unwitnessed if over else confusable
        branches |= {("disjunct", not unwitnessed), ("separable", confusable is None),
                     ("semi over threshold", over), ("semi", semi_witness is None)}

        assert check_property(matrix, items, "disjunct") == PropertyReport(
            "disjunct", not unwitnessed, unwitnessed or None, unwitnessed, None)
        assert check_property(matrix, items, "separable", d) == PropertyReport(
            "separable", confusable is None, confusable, unwitnessed, None)
        semi = check_property(matrix, items, "semidisjunct", d)
        assert semi == PropertyReport(
            "semidisjunct", semi_witness is None, semi_witness, unwitnessed, threshold)
    assert len(branches) == 8  # every outcome of every branch was seen


def test_check_property_empty_witness_and_unknown_property():
    # item 1 is in no test, so the empty set gives I = {1}'s answers
    matrix = TestMatrix.from_dense([[0, 1, 0], [0, 0, 1]])
    for name in ("separable", "semidisjunct"):
        report = check_property(matrix, (1,), name, 1)
        assert not report.holds and report.witness == ()
    with pytest.raises(InputError, match="property must be one of"):
        check_property(matrix, (1,), "semi", 1)


@pytest.mark.parametrize("n, d, root", [(16, 2, 4), (64, 3, 4), (125, 3, 5), (1000, 3, 10)])
def test_semidisjunct_allows_exactly_root_unwitnessed_items(n, d, root):
    # root = n^(1/d) exactly, though 64 ** (1/3) is 3.9999999999999996 in floating point
    def check(unwitnessed):
        dense = np.eye(n, dtype=np.uint8)
        dense[:, 1 : 1 + unwitnessed] = 0  # items 2, 3, ... are in no test
        return check_property(TestMatrix.from_dense(dense), (1,), "semidisjunct", d)

    over = check(root + 1)
    assert not over.holds and over.threshold == n ** (1 / d)
    assert over.witness == over.non_disjunct_items == tuple(range(2, root + 3))
    # at the allowance the separability scan runs, or refuses over the desk cap
    if n > MAX_DESK_ITEMS:
        with pytest.raises(BudgetExceededError, match="separability check is capped"):
            check(root)
    else:
        at = check(root)
        assert at.non_disjunct_items == tuple(range(2, root + 2))
        assert at.witness == (1, 2) and not at.holds  # {1, 2} answers like {1}
