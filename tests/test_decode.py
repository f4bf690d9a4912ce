import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pooltest import core, decode
from pooltest.core import (
    BudgetExceededError,
    InputError,
    PoolTestError,
    TestMatrix,
    answer_vector,
    read_gtm1,
    validate_items,
    write_gtm1,
    _cells,
)
from pooltest.decode import (
    AMBIGUOUS,
    DECODED,
    NO_CONSISTENT_SET,
    DecodeOutcome,
    _consistent_sets,
    _decode,
    _scan_sizes,
    decode_disjunct,
    decode_semidisjunct,
    decode_separable_bruteforce,
    eliminate,
)
from pooltest.design import disjunct_test_count, semidisjunct_test_count
from pooltest.randgen import gen_rid
from pooltest.verify import check_property, is_disjunct, non_disjunct_items
from test_core import reference_answer_vector, reference_validate_answers


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


def _all_survive(s):
    """One test that pools all s items: on answer 1 every item survives."""
    return TestMatrix(1, s, np.packbits(np.ones((1, s), np.uint8), axis=1))


def test_the_finish_refuses_exactly_when_the_subset_count_is_over_its_budget():
    # refused below C(s, d), run at and above it, where every set is
    # consistent and the finish stops at the first
    for s in range(2, 70):
        matrix = _all_survive(s)
        for d in range(1, s):
            count = math.comb(s, d)
            with pytest.raises(BudgetExceededError, match=rf"C\({s}, {d}\) subset tests"):
                decode_semidisjunct(matrix, [1], d, count - 1)
            for budget in (count, count + 1):
                outcome = decode_semidisjunct(matrix, [1], d, budget)
                assert outcome == DecodeOutcome(DECODED, tuple(range(1, d + 1)), 1, 0, s)


def test_a_finish_far_over_its_budget_is_refused_without_its_binomial():
    # C(10^6, 5 * 10^5) has about 10^6 bits; the refusal must not compute it
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as refusal:
        decode_semidisjunct(_all_survive(10**6), [1], 5 * 10**5)
    assert str(refusal.value) == (
        "exhaustive finish needs C(1000000, 500000) subset tests, over the budget of 100000000")
    assert time.perf_counter() - start < 5


def test_the_finish_gathers_the_survivors_columns_only_for_its_scan(monkeypatch):
    # answers 11 leave all 6 items: at d = 2 the scan tries C(6, 2) = 15 sets
    matrix = TestMatrix.from_dense([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    calls = []
    cells = decode._cells
    monkeypatch.setattr(decode, "_cells", lambda *a: calls.append(a) or cells(*a))
    for d, budget, outcome in [
        (6, 10**8, DecodeOutcome(DECODED, (1, 2, 3, 4, 5, 6), 1, 0, 0)),  # at most d survive
        (5, 10**8, DecodeOutcome(DECODED, (1, 2, 3, 4, 5), 1, 0, 6)),  # one more than d
        (2, 15, DecodeOutcome(DECODED, (1, 4), 1, 0, 6)),  # C(6, 2) is the budget
        (2, 14, None),  # one over
    ]:
        calls.clear()
        if outcome is None:
            with pytest.raises(BudgetExceededError, match=r"C\(6, 2\) subset tests"):
                decode_semidisjunct(matrix, [1, 1], d, budget)
        else:
            assert decode_semidisjunct(matrix, [1, 1], d, budget) == outcome
        scanned = outcome is not None and outcome.exhaustive_candidates > 0
        assert calls == ([(matrix, (1, 2, 3, 4, 5, 6))] if scanned else []), (d, budget)


@pytest.mark.parametrize("budget", [None, "x", -1, 1.5, True])
def test_a_bad_finish_budget_is_an_input_error(budget):
    # with 6 survivors the finish would scan; with 2 it returns them
    matrix = TestMatrix.from_dense([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    for answers in ([1, 1], [1, 0]):
        with pytest.raises(InputError, match="^max_subset_tests must be"):
            decode_semidisjunct(matrix, answers, 2, max_subset_tests=budget)


def test_a_bad_d_is_reported_before_bad_answers():
    matrix = TestMatrix.from_dense([[1, 0], [0, 1]])
    for d in (0, -1, "2", 2.0, True, None):
        with pytest.raises(InputError, match="^d must be"):
            decode_semidisjunct(matrix, [2, 0, 1], d)
    with pytest.raises(InputError, match="answer"):
        decode_semidisjunct(matrix, [2, 0, 1], 1)


def test_bruteforce_budget_refusal():
    # all 60 items survive: C(60, k) for k <= 4 is 523,686 sets, over the
    # budget; at d = 3 they are 36,051, and at n = 10 every d is within it
    matrix = _all_survive(60)
    with pytest.raises(BudgetExceededError, match=(
            r"^bruteforce decode needs C\(60, k\) subset tests for k <= 4, "
            r"over the budget of 131072$")):
        decode_separable_bruteforce(matrix, [1], 4)
    assert decode_separable_bruteforce(matrix, [1], 3).consistent_count == 36050
    assert decode_separable_bruteforce(_all_survive(10), [1], 5).consistent_count == 637


def _scan_count(scan, s, d):
    """The sets ``scan`` tries among s survivors, summed literally."""
    if scan == "exhaustive finish":
        return math.comb(s, d)
    return sum(math.comb(s, k) for k in range(d + 1))


@pytest.mark.parametrize("scan", ["exhaustive finish", "bruteforce decode", "separability check"])
def test_every_scan_is_refused_exactly_when_its_sets_are_over_its_budget(scan):
    for s in range(70):
        for d in range(8):
            count = _scan_count(scan, s, d)
            sets = f"C({s}, {d}) subset tests" if scan == "exhaustive finish" else (
                f"C({s}, k) subset tests for k <= {d}")
            for budget in (count - 1, count, count + 1):
                if budget < count:
                    with pytest.raises(BudgetExceededError) as refusal:
                        _scan_sizes(scan, s, d, budget)
                    assert str(refusal.value) == (
                        f"{scan} needs {sets}, over the budget of {budget}")
                elif budget >= 0:
                    sizes = _scan_sizes(scan, s, d, budget)
                    assert list(sizes) == (
                        [d] if scan == "exhaustive finish" else list(range(min(d, s) + 1)))
            assert _scan_sizes(scan, s, d, count) == _scan_sizes(scan, s, d, count + 1)


def test_the_default_budget_holds_every_scan_of_forty_survivors_up_to_size_four():
    assert decode._SCAN_BUDGET >= _scan_count("bruteforce decode", 40, 4) == 102_091
    for scan in ("bruteforce decode", "separability check"):
        assert _scan_sizes(scan, 40, 4) == range(5)


@pytest.mark.parametrize("budget_of", [lambda count: count - 1, lambda count: count],
                         ids=["under", "at"])
def test_bruteforce_and_separability_refuse_on_the_scan_budget(budget_of, monkeypatch):
    # every set of 1..d of s survivors explains all-positive answers
    for s in range(1, 12):
        matrix = _all_survive(s)
        for d in range(5):
            count = _scan_count("bruteforce decode", s, d)
            monkeypatch.setattr(decode, "_SCAN_BUDGET", budget_of(count))
            refused = budget_of(count) < count
            for call, scan in (
                (lambda: decode_separable_bruteforce(matrix, [1], d), "bruteforce decode"),
                (lambda: check_property(matrix, (1,), "separable", d), "separability check"),
            ):
                if refused:
                    with pytest.raises(BudgetExceededError, match=f"^{scan} needs C\\({s}, k\\)"):
                        call()
                else:
                    call()
            if not refused:
                outcome = decode_separable_bruteforce(matrix, [1], d)
                assert outcome.consistent_count == count - 1 and outcome.exhaustive_candidates == s


def test_a_scan_far_over_its_budget_is_refused_at_once():
    # d = 10^9 over 2.1 * 10^6 survivors: the sum stops at its second term,
    # and C(s, 10^9) needs no binomial; over 10 survivors it stops at size
    # 10; then through the public calls
    s, d = 2_100_000, 10**9
    start = time.perf_counter()
    for scan in ("bruteforce decode", "separability check"):
        with pytest.raises(BudgetExceededError, match=rf"C\({s}, k\) subset tests for k <= {d},"):
            _scan_sizes(scan, s, d)
    assert _scan_sizes("exhaustive finish", s, d, 10**8) == range(d, d + 1)  # C(s, d) = 0
    assert _scan_sizes("bruteforce decode", 10, d) == range(11)  # no size past s is counted
    with pytest.raises(BudgetExceededError, match=rf"^exhaustive finish needs C\({s}, {s // 2}\)"):
        _scan_sizes("exhaustive finish", s, s // 2, 10**8)
    assert time.perf_counter() - start < 1
    matrix = _all_survive(s)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=rf"^bruteforce decode needs C\({s}, k\)"):
        decode_separable_bruteforce(matrix, [1], d)
    with pytest.raises(BudgetExceededError, match=rf"^separability check needs C\({s}, k\)"):
        check_property(matrix, (1,), "separable", d)
    assert time.perf_counter() - start < 5


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
    """(dense matrix, candidates, answers, sizes) with m <= 130, n <= 12, sizes in 0..4.

    m up to 130 packs the positive rows into one to three 64-bit words; m is
    often drawn next to a multiple of 64, and is rarely one. Columns come
    from a small pool of random columns of a drawn density, which holds the
    empty column, so duplicate and empty columns are common. The answers
    are those of a random item set, that set's answers with random bits
    added, random bits or all ones, so that often no set explains them and
    many candidates have a 1 outside them. Candidates come in any order, and
    sizes in any order.
    """
    m = draw(st.integers(1, 130) | st.sampled_from((63, 64, 65, 127, 128, 129, 130)))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.05, 0.2, 0.5, 0.9)))
    pool = [*(rng.random((draw(st.integers(1, 5)), m)) < density), np.zeros(m, bool)]
    columns = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    dense = np.array([pool[c] for c in columns], dtype=np.uint8).T
    chosen = draw(st.lists(st.integers(1, n), unique=True, max_size=4))
    candidates = draw(st.lists(st.integers(1, n), unique=True))
    if draw(st.booleans()):
        candidates = list(dict.fromkeys(chosen + candidates))
    answers = dense[:, [i - 1 for i in chosen]].any(axis=1)
    kind = draw(st.sampled_from(("set", "set plus noise", "random", "all positive")))
    if kind != "set":
        noise = rng.random(m) < (1.0 if kind == "all positive" else 0.5)
        answers = answers | noise if kind == "set plus noise" else noise
    sizes = draw(st.permutations(range(5)))[: draw(st.integers(0, 5))]
    return dense, tuple(candidates), answers.astype(np.uint8), sizes


def literal_filter(dense, candidates, answers, sizes):
    """Every combination of ``candidates`` by size, kept when its columns OR to ``answers``."""
    columns = [int("".join(map(str, dense[:, i - 1])), 2) for i in candidates]
    target = int("".join(map(str, answers)), 2)
    hits = []
    for size in sizes:
        for combo in combinations(range(len(candidates)), size):
            acc = 0
            for idx in combo:
                acc |= columns[idx]
            if acc == target:
                hits.append(tuple(candidates[idx] for idx in combo))
    return hits


def literal_survivors(dense, candidates, answers):
    """The ``candidates``, in their order, with no 1 on a row whose answer is 0."""
    negative = np.asarray(answers) == 0
    return tuple(i for i in candidates if not dense[negative, i - 1].any())


@settings(max_examples=300, deadline=None)
@given(scan_instances())
def test_consistent_sets_match_a_literal_filter(instance):
    # the scan takes only the survivors; the filter sees every drawn candidate
    dense, candidates, answers, sizes = instance
    matrix = TestMatrix.from_dense(dense)
    expected = literal_filter(dense, candidates, answers, sizes)
    survivors = literal_survivors(dense, candidates, answers)
    cells = _cells(matrix, survivors)
    assert list(_consistent_sets(cells, survivors, answers, sizes)) == expected


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 40])
def test_consistent_sets_split_into_prefix_and_tail(rows, monkeypatch):
    # a lowered row cap sends every size past it through the prefix loop
    monkeypatch.setattr(decode, "_TAIL_ROWS", rows)
    rng = np.random.default_rng(rows)
    for _ in range(40):
        m, n = int(rng.integers(1, 140)), int(rng.integers(1, 15))
        dense = (rng.random((m, n)) < rng.choice([0.1, 0.3, 0.6])).astype(np.uint8)
        dense[:, rng.random(n) < 0.2] = 0
        candidates = tuple(int(i) + 1 for i in rng.permutation(n)[: int(rng.integers(0, n + 1))])
        planted = rng.choice(n, size=int(rng.integers(0, min(n, 4) + 1)), replace=False)
        answers = dense[:, planted].any(axis=1).astype(np.uint8)
        if rng.random() < 0.25:
            answers[:] = 1  # up to three words of positive rows
        sizes = [int(k) for k in rng.permutation(5)]
        matrix = TestMatrix.from_dense(dense)
        expected = literal_filter(dense, candidates, answers, sizes)
        survivors = literal_survivors(dense, candidates, answers)
        cells = _cells(matrix, survivors)
        assert list(_consistent_sets(cells, survivors, answers, sizes)) == expected


def test_consistent_sets_over_fifty_candidates_of_size_four():
    # every test is positive, so every candidate survives, and C(50, 4) is
    # past the real row cap: size 4 runs through the prefix loop
    assert math.comb(50, 4) > decode._TAIL_ROWS
    rng = np.random.default_rng(8)
    dense = (rng.random((16, 50)) < 0.3).astype(np.uint8)
    answers = np.ones(16, dtype=np.uint8)
    matrix = TestMatrix.from_dense(dense)
    candidates = tuple(range(1, 51))
    expected = literal_filter(dense, candidates, answers, [4])
    assert len(expected) > 1
    survivors = literal_survivors(dense, candidates, answers)
    assert list(_consistent_sets(_cells(matrix, survivors), survivors, answers, [4])) == expected


def _size_one_instance(s):
    """12 x s cells whose answers are all positive, and 5 of the s columns
    that cover them all, so 5 sets of size 1 are consistent."""
    rng = np.random.default_rng(s)
    dense = (rng.random((12, s)) < 0.3).astype(np.uint8)
    dense[:, rng.choice(s, 5, replace=False)] = 1
    return dense, tuple(range(1, s + 1)), np.ones(12, np.uint8)


@pytest.mark.parametrize("s", [2**14 - 1, 2**14, 2**14 + 1, 40_000])
def test_sets_of_size_one_are_the_literal_filter_at_any_survivor_count(s):
    # past C(s, 1) = _TAIL_ROWS the tail of one pick still holds every candidate
    dense, candidates, answers = _size_one_instance(s)
    expected = literal_filter(dense, candidates, answers, [0, 1])
    assert len(expected) == 5
    assert list(_consistent_sets(dense, candidates, answers, [0, 1])) == expected


def test_sets_of_size_one_take_one_compare_over_any_survivor_count():
    # a compare per survivor took 0.6 s over 100,000 survivors on a 2-vCPU VM
    dense, candidates, answers = _size_one_instance(100_000)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        hits = list(_consistent_sets(dense, candidates, answers, [1]))
        best = min(best, time.perf_counter() - start)
    assert len(hits) == 5 and best < 0.15


# ---------------------------------------------------------------------------
# Survivors read from the OR of the negative rows, against the full unpack
# ---------------------------------------------------------------------------

def reference_survivor_mask(matrix, answers):
    """The mask as built before survivors were read from the OR's open bytes:
    every bit of the OR unpacked."""
    ans = reference_validate_answers(matrix, answers)
    negative = matrix.bits[ans == 0]
    if negative.shape[0] == 0:
        return np.ones(matrix.n, dtype=bool)
    blocked = np.bitwise_or.reduce(negative, axis=0)
    return np.unpackbits(blocked, count=matrix.n) == 0


def reference_eliminate(matrix, answers):
    return tuple((np.flatnonzero(reference_survivor_mask(matrix, answers)) + 1).tolist())


def reference_non_disjunct_items(matrix, items):
    members = validate_items(items, matrix.n)
    survivors = reference_survivor_mask(matrix, reference_answer_vector(matrix, members))
    survivors[[i - 1 for i in members]] = False
    return tuple((np.flatnonzero(survivors) + 1).tolist())


def reference_decode(decoder, matrix, answers, d, budget):
    """The three decoders on the reference check and survivors, and the one subset scan."""
    ans = reference_validate_answers(matrix, answers)
    survivors = reference_eliminate(matrix, ans)
    eliminated = matrix.n - len(survivors)
    if decoder == "bruteforce":
        s = len(survivors)
        if sum(math.comb(s, k) for k in range(d + 1)) > decode._SCAN_BUDGET:
            raise BudgetExceededError(f"bruteforce decode needs C({s}, k) subset tests for "
                                      f"k <= {d}, over the budget of {decode._SCAN_BUDGET}")
        hits = _consistent_sets(_cells(matrix, survivors), survivors, ans, range(d + 1))
        first = next(hits, None)
        count = (first is not None) + sum(1 for _ in hits)
        return DecodeOutcome(DECODED if count == 1 else AMBIGUOUS if count else NO_CONSISTENT_SET,
                             first if count == 1 else None, count, eliminated, len(survivors))
    if decoder == "disjunct" or len(survivors) <= d:
        return DecodeOutcome(DECODED, survivors, 1, eliminated, 0)
    if math.comb(len(survivors), d) > budget:
        raise BudgetExceededError(f"exhaustive finish needs C({len(survivors)}, {d}) subset "
                                  f"tests, over the budget of {budget}")
    found = next(_consistent_sets(_cells(matrix, survivors), survivors, ans, (d,)), None)
    return DecodeOutcome(NO_CONSISTENT_SET if found is None else DECODED, found,
                         int(found is not None), eliminated, len(survivors))


def _result(call):
    try:
        return call()
    except PoolTestError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def elimination_instances(draw):
    """(matrix, defective set, answers, d): m <= 70, n <= 130, often not a
    multiple of 8, and d <= 6. Sparse matrices and all-positive answers leave 50 or more
    survivors; all-negative answers leave only empty columns. The answers
    come as a list or as an array of one of four dtypes."""
    m = draw(st.integers(1, 70))
    n = draw(st.integers(1, 130) | st.sampled_from((7, 8, 9, 63, 64, 65, 127, 128, 129)))
    density = draw(st.sampled_from((0.01, 0.05, 0.3, 0.7)))
    matrix = gen_rid(m, n, 1 - density, draw(st.integers(0, 2**32 - 1)))
    items = tuple(sorted(draw(st.sets(st.integers(1, n), max_size=min(n, 5)))))
    answers = answer_vector(matrix, items)
    kinds = ("set", "set plus noise", "random", "all positive", "all negative")
    kind = draw(st.sampled_from(kinds))
    if kind in ("set plus noise", "random"):
        noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(m) < 0.5
        answers = (answers | noise if kind == "set plus noise" else noise).astype(np.uint8)
    elif kind != "set":
        answers = np.full(m, kind == "all positive", dtype=np.uint8)
    form = draw(st.sampled_from((np.uint8, bool, np.int64, np.float64, list)))
    answers = answers.tolist() if form is list else answers.astype(form)
    return matrix, items, answers, draw(st.integers(1, 6))


def _assert_matches_the_references(matrix, items, answers, d):
    assert eliminate(matrix, answers) == reference_eliminate(matrix, answers)
    assert non_disjunct_items(matrix, items) == reference_non_disjunct_items(matrix, items)
    budget = 2000  # a wide residue is refused, by both, before its scan
    for decoder, call in (
        ("disjunct", lambda: decode_disjunct(matrix, answers)),
        ("semidisjunct", lambda: decode_semidisjunct(matrix, answers, d, budget)),
        ("bruteforce", lambda: decode_separable_bruteforce(matrix, answers, d)),
    ):
        expected = _result(lambda: reference_decode(decoder, matrix, answers, d, budget))
        assert _result(call) == expected, decoder


@settings(max_examples=400, deadline=None)
@given(elimination_instances())
def test_survivors_match_the_full_unpack(instance):
    _assert_matches_the_references(*instance)


@settings(max_examples=200, deadline=None)
@given(elimination_instances())
def test_a_scan_over_the_survivors_finds_every_consistent_set(instance):
    # the survivors lemma: no consistent set holds an item of a negative
    # test, so the literal filter over every item finds the sets, in the
    # same order, that the scan finds over the survivors alone
    matrix, _, answers, d = instance
    ans = reference_validate_answers(matrix, answers)
    survivors = eliminate(matrix, answers)
    sizes = range(min(d, 3) + 1)
    expected = literal_filter(matrix.dense(), range(1, matrix.n + 1), ans, sizes)
    assert list(_consistent_sets(_cells(matrix, survivors), survivors, ans, sizes)) == expected


@settings(max_examples=200, deadline=None)
@given(elimination_instances())
def test_every_decoder_counts_the_survivors_it_scans(instance):
    # eliminated_count is n less the survivors, and exhaustive_candidates
    # is their count whenever a subset scan ran, else 0
    matrix, _, answers, d = instance
    survivors = eliminate(matrix, answers)
    for call, scanned in (
        (lambda: decode_disjunct(matrix, answers), False),
        (lambda: decode_semidisjunct(matrix, answers, d, 2000), len(survivors) > d),
        (lambda: decode_separable_bruteforce(matrix, answers, d), True),
    ):
        try:
            outcome = call()
        except BudgetExceededError:  # refused before any scan
            continue
        assert outcome.eliminated_count == matrix.n - len(survivors)
        assert outcome.exhaustive_candidates == (len(survivors) if scanned else 0)


@pytest.mark.parametrize("n", [1, 9, 36, 40])
def test_bruteforce_is_the_decode_of_the_streamed_survivors_and_cells(n, tmp_path):
    # the library's brute force and the CLI's, which reads the survivors in
    # one pass of the file and their columns in a second, give one outcome
    rng = np.random.default_rng(n)
    for trial in range(8):
        m = int(rng.integers(1, 12))
        matrix = gen_rid(m, n, 0.6, trial)
        path = tmp_path / f"{trial}.gtm1"
        write_gtm1(matrix, path)
        items = rng.choice(np.arange(1, n + 1), size=min(n, trial % 4), replace=False)
        answers = answer_vector(matrix, items)
        if trial % 4 == 3:
            answers = (rng.random(m) < 0.5).astype(np.uint8)
        _, ans, survivors = read_gtm1(path, core._eliminator(lambda _: answers))

        def cells():
            bits = read_gtm1(path, core._gatherer(lambda _: survivors))
            return np.unpackbits(bits, axis=1, count=len(survivors))

        for d in range(5):
            residue = n, ans, tuple((survivors + 1).tolist()), cells
            expected = _decode("bruteforce", residue, d, None)
            assert decode_separable_bruteforce(matrix, answers, d) == expected, (trial, d)


@pytest.mark.parametrize("block", [1, 9, 40, 1 << 21])
def test_negative_rows_are_ored_in_slabs(block, monkeypatch):
    # slabs of one row, of a few rows with a short last one, and of them all,
    # against the OR of one copy of every negative row
    monkeypatch.setattr(decode, "_BLOCK_BYTES", block)
    rng = np.random.default_rng(block)
    for n in (1, 9, 64, 100):
        for _ in range(10):
            m = int(rng.integers(1, 60))
            matrix = gen_rid(m, n, 0.97, int(rng.integers(2**32)))
            answers = (rng.random(m) < 0.5).astype(np.uint8)
            assert eliminate(matrix, answers) == reference_eliminate(matrix, answers)


def test_elimination_copies_at_most_a_slab_of_negative_rows(monkeypatch):
    # 750 negative rows of 10,000 bytes: one copy of them all is 7.5 MB, a
    # slab of 64 KiB is 6 rows
    monkeypatch.setattr(decode, "_BLOCK_BYTES", 1 << 16)
    m, n = 1000, 80_000
    matrix = gen_rid(m, n, 0.995, 7)
    answers = np.zeros(m, np.uint8)
    answers[::4] = 1
    expected = reference_eliminate(matrix, answers)
    tracemalloc.start()
    try:
        survivors = eliminate(matrix, answers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert survivors == expected and 0 < len(survivors) < n
    assert peak < 4 * (1 << 16) + 4 * n, peak


@pytest.mark.parametrize("n", [61, 64, 100, 127, 130])
def test_survivors_match_the_full_unpack_on_wide_residues(n):
    # sparse rows, a fifth of them negative: 50 or more of n items survive
    rng = np.random.default_rng(n)
    for _ in range(10):
        m = int(rng.integers(5, 71))
        matrix = gen_rid(m, n, 0.995, int(rng.integers(2**32)))
        items = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=3, replace=False)))
        answers = np.ones(m, dtype=np.uint8)
        answers[rng.permutation(m)[: m // 5]] = 0
        assert (answers == 0).any() and len(eliminate(matrix, answers)) >= 50
        _assert_matches_the_references(matrix, items, answers, 2)
