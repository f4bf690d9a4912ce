import io
import math
import sys
import tracemalloc
from concurrent import futures
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pooltest import core, randgen
from pooltest.core import InputError, dumps_gtm1
from pooltest.design import optimal_zero_prob
from pooltest.randgen import gen_rid, gen_rrsd


# ---------------------------------------------------------------------------
# A pure-Python reference of the stream: numpy's SeedSequence([seed]), which
# is O'Neill's seed_seq_fe with a pool of four uint32 words, and its PCG64, a
# 128-bit LCG with XSL-RR output that jumps ahead by square and multiply
# (O'Neill, "PCG", 2014). The rows below read it at the offsets the randgen
# module docstring gives, and the blocked, chunked and threaded filler must
# reproduce them bit for bit.
# ---------------------------------------------------------------------------

MASK32, MASK64, MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# row j's window, where its tie rounds or its rrsd choice read
WINDOWS, WINDOW = 2**127, 2**64


def seed_state(seed):
    """``SeedSequence([seed]).generate_state(4, np.uint64)`` as four ints."""
    entropy = [seed & MASK32]  # least significant uint32 word first
    while seed := seed >> 32:
        entropy.append(seed & MASK32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & MASK32
        value = value * const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & MASK32
        value = value * const & MASK32
        out.append(value ^ value >> 16)
    return [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]


class RefPCG64:
    """PCG64 seeded as numpy seeds it from ``SeedSequence([seed])``."""

    def __init__(self, seed):
        w = seed_state(seed)
        initstate, initseq = w[0] << 64 | w[1], w[2] << 64 | w[3]
        self.inc = (initseq << 1 | 1) & MASK128
        self.state = self.inc  # one step from state 0
        self.state = self._step(self.state + initstate)

    def _step(self, state):
        return (state * PCG_MULT + self.inc) & MASK128

    def word(self):
        """The next raw word: a step, then XSL-RR of the new state."""
        self.state = state = self._step(self.state)
        x, rotation = (state >> 64 ^ state) & MASK64, state >> 122
        return (x >> rotation | x << (64 - rotation)) & MASK64

    def words(self, count):
        return [self.word() for _ in range(count)]

    def advance(self, delta):
        """Skip ``delta`` words, mod 2^128: the LCG's map composed by squaring."""
        mult, plus, acc_mult, acc_plus = PCG_MULT, self.inc, 1, 0
        delta &= MASK128
        while delta:
            if delta & 1:
                acc_mult, acc_plus = acc_mult * mult & MASK128, (acc_plus * mult + plus) & MASK128
            mult, plus = mult * mult & MASK128, (mult + 1) * plus & MASK128
            delta >>= 1
        self.state = (acc_mult * self.state + acc_plus) & MASK128
        return self


def stream_at(seed, word):
    """The reference stream of ``seed`` at word ``word``."""
    return RefPCG64(seed).advance(word)


def _plane_count(zero_prob):
    """L: the binary digits of zero_prob if it is a multiple of 1/256, else 8."""
    p = Fraction(zero_prob)
    return next((bits for bits in range(1, 9) if (p * 2**bits).denominator == 1), 8)


def rid_row_rounds(seed, row_index, n, zero_prob):
    """Row ``row_index`` by the stream's specification, in exact arithmetic,
    as a boolean vector, and the rounds it took; P[cell is 0] = zero_prob.

    Round 1 reads the first L bits of each cell's uniform U: cell i takes
    bit 8 * (i % 64 // 8) + 7 - i % 8 of words (j*W + w)*L .. (j*W + w)*L
    + L - 1, for w = i // 64, W = ceil(n/64) and j the row, the first of
    them giving U's most significant bit. Every later round gives one new
    byte to each undecided cell, in column order: the little-endian bytes of
    the next ceil(t/8) words of the row's window from word 2^127 + j*2^64 on,
    for t undecided cells. Once U is known to lie in [low, low + width), the
    cell is 0 if that interval lies below zero_prob, and 1 once low reaches it.
    """
    p = Fraction(zero_prob)
    planes, row_words = _plane_count(zero_prob), -(-n // 64)
    raw = stream_at(seed, row_index * row_words * planes).words(row_words * planes)
    x = [0] * n  # each cell's first L bits of U, as a number
    for i in range(n):
        word, shift = i // 64 * planes, 8 * (i % 64 // 8) + 7 - i % 8
        for plane in range(planes):
            x[i] = x[i] << 1 | raw[word + plane] >> shift & 1
    width = Fraction(1, 2**planes)
    low = [v * width for v in range(2**planes)]  # round 1 has 2^L outcomes
    verdicts = [False if at + width <= p else True if at >= p else None for at in low]
    cells = [verdicts[v] for v in x]
    undecided = [i for i in range(n) if cells[i] is None]
    low = {i: low[x[i]] for i in undecided}
    window, rounds = stream_at(seed, WINDOWS + row_index * WINDOW), 1
    while undecided:
        data = b"".join(w.to_bytes(8, "little") for w in window.words((len(undecided) + 7) // 8))
        width /= 256
        rounds += 1
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
    return np.array(cells, dtype=bool), rounds


def rid_row(seed, row_index, n, zero_prob):
    return rid_row_rounds(seed, row_index, n, zero_prob)[0]


def rrsd_row(seed, row_index, n, row_weight):
    """One uniform constant-weight row as a boolean vector: numpy's
    ``Generator.choice`` on a PCG64 set to the reference's state at the
    row's window."""
    at = stream_at(seed, WINDOWS + row_index * WINDOW)
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "state": {"state": at.state, "inc": at.inc},
                  "has_uint32": 0, "uinteger": 0}
    row = np.zeros(n, dtype=bool)
    row[np.random.Generator(bits).choice(n, size=row_weight, replace=False)] = True
    return row


# seeds of one to 32 uint32 words: from five words on, SeedSequence mixes
# the entropy past its pool of four in an extra loop
STREAM_SEEDS = [0, 2**32, 2**64 + 5, 10**30, 2**200 + 7]
STATE_SEEDS = STREAM_SEEDS + [1, 2**32 - 1, 2**64 - 1, 2**96 - 1, 2**96, 3**100, 2**1000 + 1] + [
    int(s) for s in np.random.default_rng(20261019).integers(0, 2**63, 6)]


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
@pytest.mark.parametrize("m,n", [(1, 15), (1, 130), (2, 64), (3, 13), (7, 65), (9, 200), (5, 1)])
def test_filler_matches_row_by_row_reference(threaded, model, param, m, n, monkeypatch, pools):
    # one-row groups, and 64-cell chunks that split the rows wider than 64
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 64)
    monkeypatch.setattr(randgen, "_GROUP_WORDS", 1)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1 if threaded else m * n + 1)
    monkeypatch.setattr(core, "_worker_count", lambda: 4)
    param = min(param, n) if model == "rrsd" else param
    gen = gen_rid if model == "rid" else gen_rrsd
    matrix = gen(m, n, param, 41)
    assert np.array_equal(matrix.bits, _reference_bits(model, m, n, param, 41))
    # every row is a block of its own, and a pool has at most one worker per
    # block: m = 1 leaves one worker, which fills inline; m < 4 uses m workers
    assert pools == ([min(m, 4)] if threaded and m > 1 else [])


@pytest.mark.parametrize("chunk", [64, 192, 1 << 10])
@pytest.mark.parametrize("zero_prob", [0.7, 0.875])
def test_rid_chunking_keeps_the_stream(chunk, zero_prob, monkeypatch):
    # chunks of whole 64-cell words, at 8 planes with ties and at 3 without
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", chunk)
    for n in (chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        matrix = gen_rid(3, n, zero_prob, 8)
        assert np.array_equal(matrix.bits, _reference_bits("rid", 3, n, zero_prob, 8))


def test_threaded_fill_under_frequent_thread_switches(monkeypatch, pools):
    # more workers than CPUs, switching every microsecond: a row written by
    # the wrong worker or at the wrong offset would change the bits
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 64)  # four chunks a row
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
    monkeypatch.setattr(randgen, "_GROUP_WORDS", 1)  # six one-row blocks
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
# the plane rid stream against its exact rational reference
# ---------------------------------------------------------------------------

# 0.5, 0.75, 0.875, 0.625, 1/256 and 255/256 have one base-256 digit, so
# round 1 reads 1, 2, 3, 3, 8 and 8 bits of each cell and decides it; the
# others read 8 bits and leave ties for later rounds
ZERO_PROBS = [0.5, 0.75, 0.875, 0.625, 1 / 256, 255 / 256, 0.6, 1 / 3, 0.001, 0.999, 1e-300]


def test_zero_prob_digits_cover_the_first_byte_range():
    # 0.001 has first digit 0, so no byte is below it; 0.999 has 255, so none above
    assert randgen._digits(0.001)[0] == 0 and randgen._digits(0.999)[0] == 255
    assert randgen._digits(0.5) == (128,) and randgen._digits(0.875) == (224,)
    for p in ZERO_PROBS:
        digits = randgen._digits(p)
        assert sum(Fraction(z, 256 ** (k + 1)) for k, z in enumerate(digits)) == Fraction(p)


def test_plane_counts():
    for zero_prob, planes in [(0.5, 1), (0.75, 2), (0.875, 3), (0.625, 3), (0.25, 2),
                              (1 / 256, 8), (255 / 256, 8), (0.6, 8), (1e-300, 8)]:
        assert randgen._plane_count(randgen._digits(zero_prob)) == planes
        assert _plane_count(zero_prob) == planes


@pytest.mark.parametrize("zero_prob", ZERO_PROBS)
@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1000])
def test_rid_rows_equal_the_fraction_reference(zero_prob, n):
    for seed in [57] + STREAM_SEEDS:
        matrix = gen_rid(3, n, zero_prob, seed)
        assert np.array_equal(matrix.bits, _reference_bits("rid", 3, n, zero_prob, seed)), seed


@pytest.mark.parametrize("zero_prob", [0.6, 0.75, 0.999, 1e-300])
@pytest.mark.parametrize("n", [15, 64, 65, 130, 200])
@pytest.mark.parametrize("threaded", [False, True])
def test_fraction_reference_across_chunks_and_blocks(zero_prob, n, threaded, monkeypatch):
    # 64-cell chunks split the rows wider than 64; groups of 24 raw words
    # take the shorter ones three at a time at 8 planes and twelve at 2,
    # so the 7 rows end in a short group
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 64)
    monkeypatch.setattr(randgen, "_GROUP_WORDS", 24)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1 if threaded else 10**9)
    monkeypatch.setattr(core, "_worker_count", lambda: 2)
    matrix = gen_rid(7, n, zero_prob, 3)
    assert np.array_equal(matrix.bits, _reference_bits("rid", 7, n, zero_prob, 3))


def test_threaded_blocks_under_frequent_thread_switches(monkeypatch, pools):
    # blocks of three 13-cell rows of 8 planes, strided over 8 workers
    monkeypatch.setattr(randgen, "_GROUP_WORDS", 24)
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
    # With 64-cell chunks a row of 4096 cells has about 16 ties spread over
    # many chunks; their second bytes must come after the row's last chunk.
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 64)
    matrix = gen_rid(2, 4096, 0.6, 5)
    assert np.array_equal(matrix.bits, _reference_bits("rid", 2, 4096, 0.6, 5))


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


def _independence_p(a, b):
    """P-value of the chi-square test, 1 degree of freedom, that the paired
    0/1 samples ``a`` and ``b`` are independent: their 2 x 2 table against
    the product of its margins."""
    a, b = a.ravel().astype(bool), b.ravel().astype(bool)
    table = np.array([[np.sum(~a & ~b), np.sum(~a & b)], [np.sum(a & ~b), np.sum(a & b)]])
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    chi2 = float(((table - expected) ** 2 / expected).sum())
    return math.erfc(math.sqrt(chi2 / 2))


def _cell_pairs(dense, apart):
    """Disjoint pairs of cells ``apart`` columns apart in each row: the first
    ``apart`` cells of every 2 * ``apart``, each with the cell ``apart`` on."""
    m, n = dense.shape
    blocks = n // (2 * apart)
    pairs = dense[:, : blocks * 2 * apart].reshape(m, blocks, 2, apart)
    return pairs[:, :, 0], pairs[:, :, 1]


@pytest.mark.parametrize("zero_prob", [0.5, 0.75, 0.875, 0.625, 0.6, 1 / 3])
@pytest.mark.parametrize("apart", [1, 64])
def test_rid_cells_are_pairwise_independent(zero_prob, apart):
    # neighbours share a byte of each plane word; cells 64 apart sit at the
    # same bit of neighbouring words
    dense = gen_rid(100, 10**4, zero_prob, 314).dense()
    assert _independence_p(*_cell_pairs(dense, apart)) >= ALPHA


def test_independence_p_value_rejects_a_dependent_pair():
    # the test has power: a second cell that copies the first one time in 50
    rng = np.random.default_rng(5)
    a = rng.random(10**6) < 0.25
    b = np.where(rng.random(10**6) < 0.02, a, rng.random(10**6) < 0.25)
    assert _independence_p(a, rng.random(10**6) < 0.25) > ALPHA
    assert _independence_p(a, b) < ALPHA


# ---------------------------------------------------------------------------
# the stream's reference against numpy, and rows at any offset
# ---------------------------------------------------------------------------

def test_reference_seed_state_equals_seed_sequence():
    for seed in STATE_SEEDS:
        state = np.random.SeedSequence([seed]).generate_state(4, np.uint64).tolist()
        assert seed_state(seed) == state, seed
        bits = np.random.PCG64(np.random.SeedSequence([seed])).state["state"]
        ref = RefPCG64(seed)
        assert (bits["state"], bits["inc"]) == (ref.state, ref.inc), seed


@pytest.mark.parametrize("seed", STATE_SEEDS)
def test_reference_pcg64_equals_numpy_draws_and_advance(seed):
    # jumps within round 1, to words past 2^64, to the windows of rows past
    # 2^32, and back over the period's end
    bits, ref = np.random.PCG64(np.random.SeedSequence([seed])), RefPCG64(seed)
    assert bits.random_raw(5).tolist() == ref.words(5)
    for delta in [1, 2**64 + 3, WINDOWS + (2**32 + 1) * WINDOW, WINDOWS - 9, MASK128, 2**200 + 1]:
        bits.advance(delta)
        ref.advance(delta)
        assert bits.random_raw(3).tolist() == ref.words(3), delta


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_reads_equal_the_reference_at_any_word(seed):
    # one thread's stream, moved forward, back, to a window and back to the
    # start after a Generator read an unknown number of words
    stream = randgen.SeededMatrix(1, 1, seed)._stream()
    for at, count in [(0, 3), (2, 4), (2**64 + 1, 2), (WINDOWS + 2**40 * WINDOW, 3), (1, 1)]:
        assert stream.read(at, count).tolist() == stream_at(seed, at).words(count), at
    stream.generator(WINDOWS).integers(0, 10, 3)
    assert stream.read(5, 2).tolist() == stream_at(seed, 5).words(2)


@pytest.mark.parametrize("seed", STATE_SEEDS)
@pytest.mark.parametrize("model,param,n", [("rid", 0.6, 1000), ("rid", 0.75, 65),
                                           ("rid", 1e-300, 9), ("rrsd", 3, 65)])
def test_rows_anywhere_equal_the_reference(seed, model, param, n):
    # a matrix of 2^62 rows, not drawn: runs of rows from row 0, across 2^32,
    # and whose round-1 words lie past 2^64, each with its own ties
    matrix = randgen.seeded_matrix(model, 2**62, n, param, seed)
    row = rid_row if model == "rid" else rrsd_row
    for start, count in [(0, 3), (2**32 - 1, 3), (2**59 + 1, 2), (2**62 - 2, 2), (1, 1)]:
        out = np.empty((count, (n + 7) // 8), np.uint8)
        matrix._fill_bits(start, count, out)
        expected = [np.packbits(row(seed, j, n, param)) for j in range(start, start + count)]
        assert np.array_equal(out, expected), start


def test_row_count_stays_inside_the_period():
    # row windows of 2^64 words from word 2^127 on: 2^63 rows fill the period
    assert randgen.seeded_matrix("rid", 2**63 - 1, 1, 0.5, 0).m == 2**63 - 1
    for model, param in [("rid", 0.5), ("rrsd", 1)]:
        with pytest.raises(InputError, match="m must be <= 9223372036854775807"):
            randgen.seeded_matrix(model, 2**63, 1, param, 0)


@pytest.mark.parametrize("zero_prob", [0.6, 2 / 3])
def test_ties_of_later_rounds_equal_the_reference(zero_prob, monkeypatch):
    # rows 9 and 11 at 0.6, 12 and 15 at 2/3, have a tie that reaches round
    # 3; groups of three rows and three workers, so that the windows are
    # those of the matrix's rows, whichever group or worker draws them
    m, n, seed = 16, 2000, 5
    rounds = [rid_row_rounds(seed, j, n, zero_prob) for j in range(m)]
    assert max(r for _, r in rounds) == 3
    expected = np.array([np.packbits(cells) for cells, _ in rounds])
    assert np.array_equal(gen_rid(m, n, zero_prob, seed).bits, expected)
    monkeypatch.setattr(randgen, "_GROUP_WORDS", 3 * 32 * 8)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1)
    monkeypatch.setattr(core, "_worker_count", lambda: 3)
    assert np.array_equal(gen_rid(m, n, zero_prob, seed).bits, expected)


@pytest.mark.parametrize("zero_prob", [0.6, 2 / 3])
def test_wide_row_ties_equal_the_reference(zero_prob, monkeypatch):
    # rows wider than a chunk of 128 cells, their last word cut short: only
    # the nonzero tie words are unpacked, and a tie bit past n is no cell
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 128)
    for n in (4096 + 37, 129):
        matrix = gen_rid(3, n, zero_prob, 21)
        assert np.array_equal(matrix.bits, _reference_bits("rid", 3, n, zero_prob, 21)), n


def test_bits_do_not_depend_on_workers_chunks_groups_or_blocks(monkeypatch, tmp_path):
    # draw() and the written GTM1 bytes, on 1 to 8 workers, with chunks that
    # split the rows or not, groups of one row to all of them, and codec
    # blocks of one row to several
    m, n, seed = 23, 200, 13
    expected = {model: _reference_bits(model, m, n, param, seed)
                for model, param in [("rid", 2 / 3), ("rrsd", 9)]}
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1)
    path = tmp_path / "m.gtm1"
    for workers in (1, 2, 3, 8):
        monkeypatch.setattr(core, "_worker_count", lambda: workers)
        for chunk, group, block in [(64, 1, n + 1), (192, 24, 3 * (n + 1)),
                                    (1 << 18, 1 << 14, 1 << 21)]:
            monkeypatch.setattr(randgen, "_CHUNK_CELLS", chunk)
            monkeypatch.setattr(randgen, "_GROUP_WORDS", group)
            monkeypatch.setattr(core, "_BLOCK_BYTES", block)
            for model, param in [("rid", 2 / 3), ("rrsd", 9)]:
                matrix = randgen.seeded_matrix(model, m, n, param, seed)
                assert np.array_equal(matrix.draw().bits, expected[model]), (workers, chunk, model)
                core.write_gtm1(matrix, path)
                assert np.array_equal(core.read_gtm1(path).bits, expected[model])


@pytest.mark.parametrize("seed", STATE_SEEDS)
def test_threaded_draws_and_writes_equal_reference_rows(seed, monkeypatch, tmp_path, pools,
                                                        codec_workers):
    # one-row groups and blocks, drawn and written on 8 workers that switch
    # every microsecond: each worker keeps its own copy of the stream, and a
    # row read at another worker's offset, or of another seed, would change
    # the bits
    m, n = 11, 13
    monkeypatch.setattr(randgen, "_GROUP_WORDS", 1)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1)
    monkeypatch.setattr(core, "_BLOCK_BYTES", n + 1)
    path = tmp_path / "m.gtm1"
    for model, param in [("rid", 0.6), ("rrsd", 3)]:
        expected = _reference_bits(model, m, n, param, seed)
        matrix = randgen.seeded_matrix(model, m, n, param, seed)
        assert np.array_equal(matrix.draw().bits, expected)
        core.write_gtm1(matrix, path)
        assert np.array_equal(core.read_gtm1(path).bits, expected)
    # per model: the draw, the threaded write and the read
    assert pools == [8] * 6 and codec_workers == [8] * 6


@pytest.mark.parametrize("model,param,m", [("rid", 0.6, 1 << 16), ("rrsd", 1, 1 << 15)])
def test_tall_matrix_is_written_in_bounded_memory(model, param, m):
    # one stream per thread, whatever the height: 32 bytes a row, half the
    # bound, would be a per-row state
    matrix = randgen.seeded_matrix(model, m, 1, param, 5)
    gen_rid(1, 1, 0.5, 5)  # numpy.random is imported on first use, not counted here
    tracemalloc.start()
    try:
        core.dump_gtm1(matrix, io.BytesIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * 32 // 2, peak
