import math
import sys
from concurrent import futures
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pooltest import core, randgen
from pooltest.core import InputError, dumps_gtm1
from pooltest.design import optimal_zero_prob
from pooltest.randgen import gen_rid, gen_rrsd


# Row-by-row references: one row drawn whole, alone, from its own generator,
# which the blocked, chunked and threaded filler must reproduce bit for bit.

def _row_rng(seed, row_index):
    return np.random.default_rng(np.random.SeedSequence([seed, row_index]))


def rid_row(seed, row_index, n, zero_prob):
    """One independent-cell row as a boolean vector; P[cell is 0] = zero_prob."""
    digits = randgen._digits(zero_prob)
    bits = _row_rng(seed, row_index).bit_generator
    u = randgen._raw_bytes(bits, n)
    row = u > digits[0]
    tied = np.flatnonzero(u == digits[0])
    if len(tied):
        randgen._break_ties(bits, row, tied, digits)
    return row


def rrsd_row(seed, row_index, n, row_weight):
    """One uniform constant-weight row as a boolean vector."""
    row = np.zeros(n, dtype=bool)
    row[_row_rng(seed, row_index).choice(n, size=row_weight, replace=False)] = True
    return row


def test_rid_determinism():
    a = gen_rid(12, 33, 0.7, seed=99)
    b = gen_rid(12, 33, 0.7, seed=99)
    assert a == b
    assert dumps_gtm1(a) == dumps_gtm1(b)
    assert a != gen_rid(12, 33, 0.7, seed=100)


def test_rrsd_determinism():
    a = gen_rrsd(8, 21, 4, seed=5)
    assert dumps_gtm1(a) == dumps_gtm1(gen_rrsd(8, 21, 4, seed=5))


def test_rows_are_independent_of_matrix_height():
    # Per-row seed derivation makes the first rows a prefix of any taller draw,
    # so workers can generate rows independently in any order.
    short = gen_rid(5, 17, 0.6, seed=7)
    tall = gen_rid(11, 17, 0.6, seed=7)
    assert np.array_equal(tall.bits[:5], short.bits)
    for j in range(5):
        assert np.array_equal(np.packbits(rid_row(7, j, 17, 0.6)), short.bits[j])
    weighted = gen_rrsd(6, 17, 3, seed=7)
    for j in range(6):
        assert np.array_equal(np.packbits(rrsd_row(7, j, 17, 3)), weighted.bits[j])


def test_rid_cell_frequency():
    p = 0.37
    matrix = gen_rid(100, 10**4, p, seed=2024)
    cells = matrix.m * matrix.n
    zero_frac = 1.0 - matrix.row_weights().sum() / cells
    sigma = math.sqrt(p * (1 - p) / cells)
    assert abs(zero_frac - p) <= 4 * sigma


def test_rid_extreme_zero_prob():
    p = 0.999
    matrix = gen_rid(10**4, 1, p, seed=31)
    ones_frac = matrix.row_weights().sum() / (matrix.m * matrix.n)
    sigma = math.sqrt(p * (1 - p) / (matrix.m * matrix.n))
    assert abs(ones_frac - (1 - p)) <= 4 * sigma


def test_disjunct_zero_prob_matches_one_in_d_plus_1():
    for d in range(1, 11):
        zero = optimal_zero_prob("disjunct", d)
        assert zero == d / (d + 1)
        assert 1.0 - zero == pytest.approx(1 / (d + 1), rel=1e-15)


def test_rrsd_rows_have_exact_weight():
    matrix = gen_rrsd(200, 50, 7, seed=8)
    assert (matrix.row_weights() == 7).all()


def test_rrsd_full_weight_rows_are_all_ones():
    matrix = gen_rrsd(5, 6, 6, seed=1)
    assert (matrix.dense() == 1).all()


def test_rrsd_rows_uniform_over_subsets():
    n, r, rows = 4, 2, 6000
    matrix = gen_rrsd(rows, n, r, seed=123)
    counts = {c: 0 for c in combinations(range(1, n + 1), r)}
    for j in range(rows):
        counts[matrix.row_items(j)] += 1
    expected = rows / 6
    sigma = math.sqrt(rows * (1 / 6) * (5 / 6))
    for pattern, count in counts.items():
        assert abs(count - expected) <= 4 * sigma, (pattern, count)


@pytest.mark.parametrize("kwargs", [
    dict(m=0, n=5, zero_prob=0.5, seed=0),
    dict(m=3, n=5, zero_prob=0.0, seed=0),
    dict(m=3, n=5, zero_prob=1.0, seed=0),
    dict(m=3, n=5, zero_prob=0.5, seed=-1),
])
def test_rid_domain_errors(kwargs):
    with pytest.raises(InputError):
        gen_rid(**kwargs)


@pytest.mark.parametrize("weight", [0, 8])
def test_rrsd_domain_errors(weight):
    with pytest.raises(InputError):
        gen_rrsd(3, 7, weight, seed=0)


# ---------------------------------------------------------------------------
# the row filler against the row-by-row reference
# ---------------------------------------------------------------------------

def _reference_bits(model, m, n, param, seed):
    row = rid_row if model == "rid" else rrsd_row
    return np.array([np.packbits(row(seed, j, n, param)) for j in range(m)])


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every thread pool the filler starts."""
    started = []

    class CountingPool(futures.ThreadPoolExecutor):
        def __init__(self, workers):
            started.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", CountingPool)
    return started


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("model,param", [("rid", 0.6), ("rrsd", 3)])
@pytest.mark.parametrize("m,n", [(1, 15), (1, 17), (2, 16), (3, 13), (7, 33), (9, 40), (5, 1)])
def test_filler_matches_row_by_row_reference(threaded, model, param, m, n, monkeypatch, pools):
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 16)
    monkeypatch.setattr(randgen, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1 if threaded else m * n + 1)
    monkeypatch.setattr(core, "_worker_count", lambda: 4)
    param = min(param, n) if model == "rrsd" else param
    gen = gen_rid if model == "rid" else gen_rrsd
    matrix = gen(m, n, param, 41)
    assert np.array_equal(matrix.bits, _reference_bits(model, m, n, param, 41))
    # every row is a block of its own, and a pool has at most one worker per
    # block: m = 1 leaves one worker, which fills inline; m < 4 uses m workers
    assert pools == ([min(m, 4)] if threaded and m > 1 else [])


@pytest.mark.parametrize("chunk", [8, 24, 1 << 16])
def test_rid_chunking_keeps_the_stream(chunk, monkeypatch):
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", chunk)
    for n in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        matrix = gen_rid(3, n, 0.7, 8)
        assert np.array_equal(matrix.bits, _reference_bits("rid", 3, n, 0.7, 8))


def test_threaded_fill_under_frequent_thread_switches(monkeypatch, pools):
    # more workers than CPUs, switching every microsecond: a row written by
    # the wrong worker or at the wrong offset would change the bits
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 8)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1)
    monkeypatch.setattr(core, "_worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rid, rrsd = gen_rid(64, 203, 0.5, 12), gen_rrsd(64, 203, 9, 12)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [8, 8]
    assert np.array_equal(rid.bits, _reference_bits("rid", 64, 203, 0.5, 12))
    assert np.array_equal(rrsd.bits, _reference_bits("rrsd", 64, 203, 9, 12))


def test_single_cpu_fills_inline(monkeypatch, pools):
    monkeypatch.setattr(randgen, "_BLOCK_CELLS", 50)  # six one-row blocks
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1)
    monkeypatch.setattr(core, "_worker_count", lambda: 1)
    inline = gen_rid(6, 50, 0.5, 3), gen_rrsd(6, 50, 5, 3)
    assert pools == []
    monkeypatch.setattr(core, "_worker_count", lambda: 2)
    assert (gen_rid(6, 50, 0.5, 3), gen_rrsd(6, 50, 5, 3)) == inline
    assert pools == [2, 2]


def test_small_matrices_start_no_threads(pools):
    gen_rid(100, 40, 0.5, 1)
    gen_rrsd(10, 10**4, 100, 1)
    assert pools == []
    matrix = gen_rid(64, 1 << 16, 0.5, 1)  # exactly 2^22 cells
    assert pools == ([] if core._worker_count() == 1 else [min(64, core._worker_count())])
    for j in (0, 63):
        assert np.array_equal(matrix.bits[j], np.packbits(rid_row(1, j, 1 << 16, 0.5)))


# ---------------------------------------------------------------------------
# the byte-threshold rid stream against an exact rational reference
# ---------------------------------------------------------------------------

def _fraction_row(seed, row_index, n, zero_prob):
    """Row ``row_index`` by the stream's specification, in exact arithmetic.

    Each cell reads bytes b1 b2 ... of a uniform U = 0.b1 b2 ... in base 256,
    round by round: round 1 gives byte i to cell i, and every later round
    gives one new byte to each undecided cell, in column order. A round's
    bytes are the little-endian bytes of the next ceil(t/8) raw 64-bit words
    for t undecided cells. After k bytes U lies in [low, low + 256^-k): the
    cell is 0 once that interval lies below zero_prob, and 1 once low reaches
    it.
    """
    bits = np.random.default_rng(np.random.SeedSequence([seed, row_index])).bit_generator
    p = Fraction(zero_prob)
    low = [Fraction(0)] * n
    cells = [None] * n
    undecided = list(range(n))
    width = Fraction(1)
    while undecided:
        words = bits.random_raw((len(undecided) + 7) // 8).tolist()
        data = b"".join(w.to_bytes(8, "little") for w in words)
        width /= 256
        still = []
        for col, byte in zip(undecided, data):
            low[col] += byte * width
            if low[col] + width <= p:
                cells[col] = False
            elif low[col] >= p:
                cells[col] = True
            else:
                still.append(col)
        undecided = still
    return np.array(cells, dtype=bool)


# 0.5, 0.75, 0.875, 1/256 and 255/256 have one base-256 digit, so a tie on
# it decides the cell at once
ZERO_PROBS = [0.5, 0.75, 0.875, 1 / 256, 255 / 256, 0.6, 1 / 3, 0.001, 0.999, 1e-300]


def test_zero_prob_digits_cover_the_first_byte_range():
    # 0.001 has first digit 0, so no byte is below it; 0.999 has 255, so none above
    assert randgen._digits(0.001)[0] == 0 and randgen._digits(0.999)[0] == 255
    assert randgen._digits(0.5) == (128,) and randgen._digits(0.875) == (224,)
    for p in ZERO_PROBS:
        digits = randgen._digits(p)
        assert sum(Fraction(z, 256 ** (k + 1)) for k, z in enumerate(digits)) == Fraction(p)


@pytest.mark.parametrize("zero_prob", ZERO_PROBS)
@pytest.mark.parametrize("n", [1, 7, 8, 9, 1000])
def test_rid_rows_equal_the_fraction_reference(zero_prob, n):
    matrix = gen_rid(3, n, zero_prob, 57)
    for j in range(3):
        expected = _fraction_row(57, j, n, zero_prob)
        assert np.array_equal(rid_row(57, j, n, zero_prob), expected)
        assert np.array_equal(matrix.bits[j], np.packbits(expected))


@pytest.mark.parametrize("zero_prob", [0.6, 0.75, 0.999, 1e-300])
@pytest.mark.parametrize("n", [15, 16, 17, 40, 61])
@pytest.mark.parametrize("threaded", [False, True])
def test_fraction_reference_across_chunks_and_blocks(zero_prob, n, threaded, monkeypatch):
    # 16-cell chunks split the wider rows; 48-cell blocks group the shorter
    # ones, three at a time, so the 7 rows end in a short block
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 16)
    monkeypatch.setattr(randgen, "_BLOCK_CELLS", 48)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1 if threaded else 10**9)
    monkeypatch.setattr(core, "_worker_count", lambda: 2)
    matrix = gen_rid(7, n, zero_prob, 3)
    expected = np.array([np.packbits(_fraction_row(3, j, n, zero_prob)) for j in range(7)])
    assert np.array_equal(matrix.bits, expected)


def test_threaded_blocks_under_frequent_thread_switches(monkeypatch, pools):
    # blocks of three 13-cell rows, strided over 8 workers
    monkeypatch.setattr(randgen, "_BLOCK_CELLS", 40)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1)
    monkeypatch.setattr(core, "_worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        matrix = gen_rid(70, 13, 0.6, 12)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [8]
    assert np.array_equal(matrix.bits, _reference_bits("rid", 70, 13, 0.6, 12))


def test_ties_are_broken_after_the_whole_row(monkeypatch):
    # With 8-cell chunks a row of 4096 cells has about 16 ties spread over
    # many chunks; their second bytes must come after the row's last chunk.
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 8)
    zero_prob = 0.6
    matrix = gen_rid(2, 4096, zero_prob, 5)
    for j in range(2):
        assert np.array_equal(matrix.bits[j], np.packbits(_fraction_row(5, j, 4096, zero_prob)))


def _two_sided_binomial_p(zeros, cells, p):
    """Two-sided p-value of ``zeros`` ~ Binomial(cells, p): twice the tail on its side.

    The tail is summed term by term from ``zeros`` outwards, where the terms
    only shrink, until they no longer change the sum.
    """
    def pmf(k):
        return math.exp(math.lgamma(cells + 1) - math.lgamma(k + 1) - math.lgamma(cells - k + 1)
                        + k * math.log(p) + (cells - k) * math.log1p(-p))

    step = -1 if zeros <= cells * p else 1
    tail, k = 0.0, zeros
    while 0 <= k <= cells:
        term = pmf(k)
        tail += term
        if term < 1e-17 * tail:
            break
        k += step
    return min(1.0, 2 * tail)


# Each case fails a correct sampler with probability at most ALPHA.
ALPHA = 1e-4


@pytest.mark.parametrize("zero_prob", [0.5, 2 / 3, 0.75, 8 / 9, 1 / 3, 0.001, 0.999])
def test_rid_zero_frequency_is_binomial(zero_prob):
    matrix = gen_rid(100, 10**4, zero_prob, 2718)
    cells = matrix.m * matrix.n
    zeros = cells - int(matrix.row_weights().sum())
    assert _two_sided_binomial_p(zeros, cells, zero_prob) >= ALPHA, (zeros, cells * zero_prob)


def test_binomial_p_value_rejects_a_shifted_count():
    # the test has power: 4.5 standard deviations off gives p < ALPHA
    cells, p = 10**6, 0.75
    sigma = math.sqrt(cells * p * (1 - p))
    assert _two_sided_binomial_p(round(cells * p), cells, p) > 0.9
    assert _two_sided_binomial_p(round(cells * p + 4.5 * sigma), cells, p) < ALPHA
    assert _two_sided_binomial_p(round(cells * p - 4.5 * sigma), cells, p) < ALPHA
