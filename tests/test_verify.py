import math
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pooltest import decode, verify
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


def _unwitnessed(n, u):
    """n items, each alone in a test of its own but items 2..u+1, in none:
    for I = {1} those u items are unwitnessed."""
    dense = np.eye(n, dtype=np.uint8)
    dense[:, 1 : 1 + u] = 0
    return TestMatrix.from_dense(dense)


def test_the_capped_allowance_compare_is_the_plain_power():
    # for u >= 2 and d >= b, the bit length of n, u^d >= u^b >= 2^b > n
    for n in [*range(1, 301), 2**40 - 1, 2**40, 2**40 + 1]:
        b = n.bit_length()
        for u in range(12):
            for d in range(1, b + 6):
                assert (u ** min(d, b) > n) == (u**d > n), (n, u, d)


@pytest.mark.parametrize("n", [2, 7, 8, 9, 40, 64, 65])
def test_the_allowance_at_every_d_is_judged_by_the_plain_power(n):
    for u in range(min(11, n - 1) + 1):
        matrix = _unwitnessed(n, u)
        for d in range(1, n.bit_length() + 6):
            if u**d > n:
                report = check_property(matrix, (1,), "semidisjunct", d)
                assert report.witness == report.non_disjunct_items == tuple(range(2, u + 2))
            elif n > MAX_DESK_ITEMS or d > 4:
                with pytest.raises(BudgetExceededError, match="separability check is capped"):
                    check_property(matrix, (1,), "semidisjunct", d)
            else:
                # {1} and an unwitnessed item answer like {1}
                assert check_property(matrix, (1,), "semidisjunct", d).holds == (u == 0 or d == 1)


def test_the_allowance_at_a_huge_d_is_the_allowance_at_the_bit_length():
    # u^d at d = 10^9 would be a 1.6 * 10^9-bit integer: a child process,
    # so that a full power fails the test by its timeout
    probe = """
import numpy as np
from dataclasses import replace
from pooltest.core import TestMatrix
from pooltest.verify import check_property
dense = np.eye(50, dtype=np.uint8)
dense[:, 1:4] = 0
matrix = TestMatrix.from_dense(dense)
huge = check_property(matrix, (1,), "semidisjunct", 10**9)
small = check_property(matrix, (1,), "semidisjunct", (50).bit_length() + 1)
assert huge.threshold == 50 ** 1e-9 and huge.witness == (2, 3, 4)
assert replace(huge, threshold=None) == replace(small, threshold=None)
"""
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=30)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name, d, u, scans", [
    ("disjunct", None, 0, 0),
    ("separable", 2, 0, 1),
    ("semidisjunct", 2, 0, 1),
    ("semidisjunct", 2, 2, 1),  # within the allowance: 2^2 <= 5
    ("semidisjunct", 2, 3, 0),  # over it: 3^2 > 5
])
def test_check_property_reads_the_answers_and_survivors_once(name, d, u, scans, monkeypatch):
    matrix = _unwitnessed(5, u)
    calls = []

    def counted(module, function_name):
        function = getattr(module, function_name)
        monkeypatch.setattr(module, function_name,
                            lambda *a: calls.append(function_name) or function(*a))

    counted(verify, "answer_vector")
    counted(verify, "_consistent_sets")
    counted(decode, "_survivors")
    if hasattr(verify, "_survivors"):
        counted(verify, "_survivors")
    check_property(matrix, (1,), name, d)
    assert sorted(calls) == ["_consistent_sets"] * scans + ["_survivors", "answer_vector"]


def _literal_answers(dense, items):
    return tuple(int(any(row[i - 1] for i in items)) for row in dense)


def _literal_reports(dense, items, d):
    """The three property reports of ``items`` at ``d`` from the dense cells:
    every set of size 0..d is tried, in size then lexicographic order."""
    n = len(dense[0])
    unwitnessed = tuple(
        j for j in range(1, n + 1) if j not in items
        and not any(row[j - 1] and not any(row[i - 1] for i in items) for row in dense))
    answers = _literal_answers(dense, items)
    confusable = next((sets for size in range(d + 1)
                       for sets in combinations(range(1, n + 1), size)
                       if sets != items and _literal_answers(dense, sets) == answers), None)
    reports = {
        "disjunct": PropertyReport("disjunct", not unwitnessed, unwitnessed or None,
                                   unwitnessed, None),
        "separable": PropertyReport("separable", confusable is None, confusable, unwitnessed,
                                    None),
    }
    if d >= 1:
        semi = unwitnessed if len(unwitnessed) ** d > n else confusable
        reports["semidisjunct"] = PropertyReport("semidisjunct", semi is None, semi,
                                                 unwitnessed, n ** (1.0 / d))
    return reports, unwitnessed, confusable


@st.composite
def property_instances(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    dense = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                          min_size=m, max_size=m))
    d = draw(st.integers(0, 3))
    items = tuple(sorted(draw(st.sets(st.integers(1, n), max_size=min(n, d + 1)))))
    return dense, items, d


@settings(max_examples=300, deadline=None)
@given(property_instances())
def test_every_property_check_is_the_literal_check_of_the_dense_cells(instance):
    dense, items, d = instance
    matrix = TestMatrix.from_dense(np.array(dense, np.uint8))
    reports, unwitnessed, confusable = _literal_reports(dense, items, d)
    for name, report in reports.items():
        assert check_property(matrix, items, name, d) == report, name
    assert non_disjunct_items(matrix, items) == unwitnessed
    assert separability_witness(matrix, items, d) == confusable


def _error(call):
    try:
        call()
    except (InputError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc)
    return None


def test_separability_witness_reports_d_then_the_desk_cap_then_the_items():
    wide = gen_rid(3, MAX_DESK_ITEMS + 1, 0.5, seed=1)
    narrow = gen_rid(3, 10, 0.5, seed=1)
    cap = ("BudgetExceededError", "separability check is capped at n <= 40, d <= 4; got n=41, d=1")
    items = ("InputError", "item index must be >= 1, got 0")
    assert _error(lambda: separability_witness(wide, (0,), -1)) == (
        "InputError", "d must be >= 0, got -1")
    assert _error(lambda: separability_witness(wide, (0,), 1)) == cap
    assert _error(lambda: separability_witness(narrow, (0,), 5))[0] == "BudgetExceededError"
    assert _error(lambda: separability_witness(narrow, (0,), 1)) == items


def test_check_property_reports_the_property_then_a_semi_d_then_the_items_then_the_scan():
    wide = gen_rid(3, MAX_DESK_ITEMS + 1, 0.5, seed=1)
    bad_d = ("InputError", "d must be >= 1, got 0")
    items = ("InputError", "item index must be >= 1, got 0")
    assert _error(lambda: check_property(wide, (0,), "x", 0))[1].startswith(
        "property must be one of")
    assert _error(lambda: check_property(wide, (0,), "semidisjunct", 0)) == bad_d
    assert _error(lambda: check_property(wide, (0,), "semidisjunct", None)) == (
        "InputError", "d must be an integer, got None")
    for name in ("disjunct", "separable"):
        assert _error(lambda: check_property(wide, (0,), name, -1)) == items
    # a separable d is checked after the items, and before the desk cap
    assert _error(lambda: check_property(wide, (1,), "separable", -1)) == (
        "InputError", "d must be >= 0, got -1")
    assert _error(lambda: check_property(wide, (1,), "separable", None)) == (
        "InputError", "d must be an integer, got None")
    assert _error(lambda: check_property(wide, (1,), "separable", 1)) == (
        "BudgetExceededError", "separability check is capped at n <= 40, d <= 4; got n=41, d=1")
    # within its allowance, semi is refused by the desk cap on d as well
    assert _error(lambda: check_property(_unwitnessed(10, 0), (1,), "semidisjunct", 5)) == (
        "BudgetExceededError", "separability check is capped at n <= 40, d <= 4; got n=10, d=5")
