"""Seeded, reproducible generation of random test matrices.

Every row derives its own generator from ``(seed, row_index)``, so rows can
be produced independently, in any order, or on different workers, and the
matrix is a pure function of its parameters. The derivation is
``numpy.random.SeedSequence([seed, row_index])`` feeding ``default_rng``, bit
for bit, but it is not computed one ``SeedSequence`` per row: the state that
``SeedSequence([seed, j]).generate_state(4, np.uint64)`` gives each row j of
a span of up to 2^14 rows comes from one vectorised uint32 pass of
``SeedSequence``'s entropy hash and mixing, one array lane per row (see
``_row_states``), and each row's ``PCG64`` is seeded from its lane.

A rid row reads its generator's raw PCG64 output (``random_raw``) and
decides each cell by an exact lazy comparison of a uniform U in [0, 1)
against ``zero_prob`` (Knuth and Yao's exact sampler), reading only the bits
of U the cell needs. Let z1 z2 ... zK be the base-256 digits of the exact
double value of ``zero_prob``. Round 1 reads L bits of each cell's U, where
L is the number of binary digits of ``zero_prob`` when K = 1 (1, 2 and 3 for
0.5, 0.75 and 0.875; ``zero_prob`` = z1/256 has at most 8), and 8 otherwise;
T is the number the first L bits of ``zero_prob`` make, z1 >> (8 - L):

* the cells are taken 64 at a time: cell word w (cells 64w .. 64w + 63)
  reads the L raw words w*L .. w*L + L - 1, plane 1 first, and plane l
  gives bit l of each cell's U, the first being the most significant;
* a cell's bit sits at the same place in every plane: cell i is bit
  7 - (i mod 8) of byte floor(i/8) of the word read little-endian, the
  layout of a packed row, so each bitwise compare of the planes makes
  eight bytes of the packed row at once, and the bits past n are cleared;
* a cell whose L bits make a number above T is 1, one below T is 0; an
  equal one is 1 when K = 1, because then U >= ``zero_prob``, and tied
  otherwise (then L = 8 and T = z1);
* after round 1 of the whole row, round k = 2, 3, ... draws ceil(t/8)
  further words, where t cells are still tied, and gives one byte to each
  tied cell in column order, compared with zk as round 1 compared with z1;
  a cell still tied after zK is 1.

So P[cell is 0] equals ``zero_prob`` exactly, and a row at 0.75 reads two
raw words per 64 cells. The rid stream depends only on ``SeedSequence`` and
PCG64's raw output, which NumPy's stream policy (NEP 19) keeps stable across
versions, unlike ``Generator.random``. A rrsd row is ``Generator.choice``
without replacement, which that policy does not cover.

``seeded_matrix`` gives a matrix that is not drawn yet, and one row drawer
per model draws any block of its rows, packed, into a (k, ceil(n/8)) uint8
array, as ``TestMatrix.bits`` holds them. Two sinks share it, and both run
``core._each_block``: ``draw()``, behind ``gen_rid`` and ``gen_rrsd``, draws
each block straight into the matrix's bits, and ``core.write_gtm1`` /
``core.dump_gtm1`` expand each block to GTM1 text as it is drawn, so
``pooltest generate`` never holds the matrix. ``draw()`` splits a matrix of
at least 2^22 cells across a thread pool with one worker per CPU the
process may run on; a smaller one is drawn inline, where starting threads
would cost more than they save. A rid drawer draws round 1 of short rows
several at a time, in groups of about 2^14 raw words and at most 2^8 rows,
and a wider row in chunks of 2^18 cells, whole 64-cell words. Ties are
broken only after a row's round 1 is complete, so the bits do not depend on
the number of workers, the chunk, group, block or span size or the order in
which rows are drawn: each row equals the row drawn whole, alone, from its
own generator.
"""

from __future__ import annotations

import functools
import threading
from typing import Iterator

import numpy as np

from .core import (MODELS, InputError, TestMatrix, _BIT, _each_block, _require_int,
                   _require_open_unit)

__all__ = ["gen_rid", "gen_rrsd", "seeded_matrix"]

# Matrices with fewer cells than this are drawn on the calling thread.
_PARALLEL_CELLS = 1 << 22
# Cells per rid round-1 draw from one row; a wider row is drawn in chunks of
# this many cells, whole 64-cell words, so that every chunk takes whole words
# of each plane. Calls this long let two workers overlap; with 2^16-cell
# chunks they spent their time handing the interpreter lock back and forth.
_CHUNK_CELLS = 1 << 18
# Rows of at most _CHUNK_CELLS cells are drawn in groups of several rows, of
# about this many raw words (128 KiB; 2^19 cells at two planes, 2^17 at
# eight): one numpy call per group, not per row, and small buffers, which
# leave little memory behind in the workers' malloc arenas.
_GROUP_WORDS = 1 << 14
# Rows in one group at most, so that a group of short rows holds a bounded
# number of per-row generators (about 650 bytes each).
_GROUP_ROWS = 1 << 8
# Rows whose seed states one vectorised pass derives, and a thread keeps: the
# pass costs about 150 us however few its rows, and about 100 bytes of
# working memory per row. Spans start at multiples of this, so one never
# crosses a multiple of 2^32, where a row index gains an entropy word.
_SPAN_ROWS = 1 << 14

# numpy's SeedSequence (O'Neill's seed_seq_fe, with a pool of 4 uint32
# words): the constants of its entropy hash, of its output hash and of mix.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_WORDS = 4


def _uint32_words(x: int) -> list[int]:
    """``SeedSequence``'s entropy words of an int: least significant first, at least one."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The constants of ``count`` successive hashes as a read-only (count + 1, 1)
    column: hash i XORs its word with entry i and multiplies by entry i + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _hash(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hash of ``words`` broadcast against a slice of ``_hash_consts``."""
    h = words ^ consts[:-1]
    h *= consts[1:]
    h ^= h >> 16
    return h


def _mix_into(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of each pool word with its hashed word, in place."""
    hashed *= _MIX_MULT_R
    pool *= _MIX_MULT_L
    pool -= hashed
    pool ^= pool >> 16
    return pool


def _row_states(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence([seed, j]).generate_state(4, np.uint64)`` for each row
    j from ``start`` to ``stop`` - 1, as a (stop - start, 4) uint64 array.

    One pass over uint32 arrays with one lane per row: the seed's words are
    the same in every lane, and so are the row's words past its lowest, as
    long as no row in between is a multiple of 2^32.
    """
    lanes = stop - start
    seed_words = _uint32_words(seed)
    words = seed_words + _uint32_words(start)
    entropy = [np.array([w], np.uint32) for w in words]
    at = len(seed_words)  # the row's lowest word
    entropy[at] = np.arange(lanes, dtype=np.uint32) + np.uint32(words[at])
    # 4 hashes fill the pool, 12 mix its words, and 4 more mix in each
    # entropy word past the fourth
    a = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, len(words) - _POOL_WORDS))
    pool = np.zeros((_POOL_WORDS, lanes), np.uint32)
    for i, word in enumerate(entropy[:_POOL_WORDS]):
        pool[i] = word
    pool = _hash(pool, a[: _POOL_WORDS + 1])
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):  # each word into every other
        dst = [i for i in range(_POOL_WORDS) if i != src]
        pool[dst] = _mix_into(pool[dst], _hash(pool[src], a[k : k + len(dst) + 1]))
        k += len(dst)
    for word in entropy[_POOL_WORDS:]:
        _mix_into(pool, _hash(word, a[k : k + _POOL_WORDS + 1]))
        k += _POOL_WORDS
    # the output hashes the pool twice over, into 8 uint32 words per row,
    # read as 4 little-endian uint64 words
    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_WORDS)
    states = np.empty((lanes, 4), "<u8")
    out = states.view("<u4").T
    for half in (0, _POOL_WORDS):
        out[half : half + _POOL_WORDS] = _hash(pool, b[half : half + _POOL_WORDS + 1])
    return states.astype(np.uint64, copy=False)


@functools.cache
def _row_seed_type() -> type:
    """The ``ISeedSequence`` of one row j, its ``SeedSequence([seed, j])``
    for its ``PCG64``, made from the state of its lane in ``_row_states``.

    The class is made on first use: numpy 2 imports ``numpy.random``, about
    15 ms, only when it is first used, and ``pooltest`` does not import it.
    """
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("a row seed gives the 4 uint64 words of a PCG64 state")
            return self._state

    return RowSeed


def _digits(zero_prob: float) -> tuple[int, ...]:
    """Base-256 digits z1 z2 ... zK of the exact value of ``zero_prob`` in (0, 1)."""
    num, den = zero_prob.as_integer_ratio()
    digits = []
    while num:
        digit, num = divmod(num << 8, den)
        digits.append(digit)
    return tuple(digits)


def _plane_count(digits: tuple[int, ...]) -> int:
    """L, the bits of U that round 1 reads: every binary digit of ``zero_prob``
    if it has one base-256 digit, else 8."""
    z1 = digits[0]
    return 8 - ((z1 & -z1).bit_length() - 1) if len(digits) == 1 else 8


def _break_ties(streams: list, tied: np.ndarray, n: int, digits: tuple[int, ...]) -> np.ndarray:
    """The cells among ``tied`` that the later rounds decide as 1.

    ``tied`` holds the cells of a group of rows whose round-1 bits were z1,
    as row * n + column, ascending; ``streams`` are the rows' generators.
    Round k gives each cell still tied in a row, in column order, one byte
    of the next ceil(t/8) raw words of the row's stream, t such cells, and
    compares it with zk.
    """
    ones = []
    for digit in digits[1:]:
        count = np.bincount(tied // n, minlength=len(streams)).tolist()
        u = np.concatenate([_cell_bytes(streams[i].random_raw((t + 7) >> 3))[:t]
                            for i, t in enumerate(count) if t])
        ones.append(tied[u > digit])
        tied = tied[u == digit]
        if not len(tied):
            break
    else:
        ones.append(tied)
    return np.concatenate(ones)


def _round_one(planes: np.ndarray, threshold: tuple[int, ...], exact: bool
               ) -> tuple[np.ndarray, np.ndarray]:
    """The ones and the ties of round 1 as packed cell words, from the (..., L)
    raw words ``planes``: each cell's L bits against ``threshold``, T's bits
    from the most significant. An equal cell is 1 if ``exact``, else tied."""
    ones = None  # the cells above T so far, if any
    equal = planes[..., 0] if threshold[0] else ~planes[..., 0]
    if not threshold[0]:
        ones = planes[..., 0]
    for l in range(1, len(threshold)):
        plane = planes[..., l]
        if threshold[l]:
            equal = equal & plane
        else:
            above = equal & plane
            ones = above if ones is None else ones | above
            equal = equal ^ above
    if exact:
        ones = equal if ones is None else ones | equal
    return np.zeros_like(equal) if ones is None else ones, equal


def _cell_bytes(words: np.ndarray) -> np.ndarray:
    """Packed cell words as the bytes of packed rows: each word little-endian."""
    return np.ascontiguousarray(words, "<u8").view(np.uint8)


class SeededMatrix:
    """An m x n matrix of a seeded model, given by its parameters and drawn
    a block of rows at a time, each row from its own stream.

    ``draw()`` gives the ``TestMatrix``; ``core.write_gtm1`` and
    ``core.dump_gtm1`` write each block as it is drawn, so the matrix is
    never held whole. Both take the same bits.
    """

    model_tag: str
    _rows: int  # rows per draw when the matrix is drawn into memory

    def __init__(self, m: int, n: int, seed: int):
        self.m = _require_int(m, "m", 1)
        self.n = _require_int(n, "n", 1)
        self.seed = _require_int(seed, "seed", 0)
        # each thread's last span: (its first row, the states of its rows)
        self._span = threading.local()

    def _row_seeds(self, r: int, k: int) -> Iterator[np.random.bit_generator.ISeedSequence]:
        """The seeds of rows r .. r + k - 1, from the states of their spans."""
        row_seed = _row_seed_type()
        for start in range(r - r % _SPAN_ROWS, r + k, _SPAN_ROWS):
            kept, states = getattr(self._span, "rows", (None, None))
            if kept != start:
                states = _row_states(self.seed, start, min(start + _SPAN_ROWS, self.m))
                self._span.rows = start, states
            yield from map(row_seed, states[max(r, start) - start : r + k - start])

    def _streams(self, r: int, k: int) -> Iterator[np.random.PCG64]:
        """The bit generators of rows r .. r + k - 1, one at a time: each that
        of ``default_rng(SeedSequence([seed, row]))``, in the same state."""
        return map(np.random.PCG64, self._row_seeds(r, k))

    def _fill_bits(self, r: int, k: int, out: np.ndarray) -> None:
        """Rows r .. r + k - 1, packed, into the uint8 (k, ceil(n/8)) array ``out``."""
        raise NotImplementedError

    def draw(self) -> TestMatrix:
        """The packed matrix. One of at least 2^22 cells is drawn on one
        worker per CPU, each taking every workers-th block of rows."""
        m, n = self.m, self.n
        bits = np.empty((m, (n + 7) // 8), dtype=np.uint8)

        def make_step():
            def step(r: int, k: int) -> bool:
                self._fill_bits(r, k, bits[r : r + k])
                return True

            return step

        _each_block(m, self._rows, m * n >= _PARALLEL_CELLS, make_step)
        return TestMatrix._adopt(m, n, bits, self.model_tag, self.seed)


class _Rid(SeededMatrix):
    model_tag = "RID"

    def __init__(self, m: int, n: int, zero_prob: float, seed: int):
        super().__init__(m, n, seed)
        self._digits = _digits(_require_open_unit(zero_prob, "zero_prob"))
        planes = _plane_count(self._digits)
        self._threshold = tuple(self._digits[0] >> (7 - l) & 1 for l in range(planes))
        self._width = min(self.n, _CHUNK_CELLS)
        group = _GROUP_WORDS // (planes * -(-self.n // 64))
        self._rows = min(_GROUP_ROWS, max(1, group)) if self.n <= _CHUNK_CELLS else 1

    def _fill_bits(self, r: int, k: int, out: np.ndarray) -> None:
        for a in range(0, k, self._rows):
            b = min(k, a + self._rows)
            self._draw_group(range(r + a, r + b), out[a:b])

    def _draw_group(self, rows: range, block: np.ndarray) -> None:
        """Rows of at most ``_rows``: one chunk each if there are several."""
        n, width, digits = self.n, self._width, self._digits
        exact = len(digits) == 1  # zero_prob is z1/256: no cell is left tied
        planes = len(self._threshold)
        streams = list(self._streams(rows.start, len(rows)))
        tied = []
        for c in range(0, n, width):
            w = min(width, n - c)
            words = -(-w // 64)
            raw = [bits.random_raw(words * planes) for bits in streams]
            raw = raw[0] if len(raw) == 1 else np.concatenate(raw)
            ones, equal = _round_one(raw.reshape(len(rows), words, planes), self._threshold, exact)
            block[:, c >> 3 : (c + w + 7) >> 3] = _cell_bytes(ones)[:, : (w + 7) >> 3]
            if not exact and equal.any():
                # as row * n + column: several rows are one chunk, c = 0 and w = n
                cells = np.unpackbits(_cell_bytes(equal), axis=1, count=w).view(bool)
                tied.append(np.flatnonzero(cells) + c)
        if n % 8:
            block[:, -1] &= 0xFF & (0xFF << (8 - n % 8))
        tied = np.concatenate(tied) if tied else ()
        if len(tied):
            # a group of several rows is one chunk, so the ties come in row
            # order, and in column order within a row
            row_of, column = np.divmod(_break_ties(streams, tied, n, digits), n)
            np.bitwise_or.at(block, (row_of, column >> 3), _BIT[column & 7])


class _Rrsd(SeededMatrix):
    model_tag = "RrSD"
    _rows = 1

    def __init__(self, m: int, n: int, row_weight: int, seed: int):
        super().__init__(m, n, seed)
        self._weight = _require_int(row_weight, "row_weight", 1, self.n)

    def _fill_bits(self, r: int, k: int, out: np.ndarray) -> None:
        for i, bits in enumerate(self._streams(r, k)):
            rng = np.random.Generator(bits)  # default_rng's, on the row's stream
            columns = rng.choice(self.n, size=self._weight, replace=False)
            # the columns are distinct, so a byte's sum of their bits is their OR
            out[i] = np.bincount(columns >> 3, _BIT[columns & 7], out.shape[1])


def seeded_matrix(model: str, m: int, n: int, param, seed: int) -> SeededMatrix:
    """The undrawn m x n matrix of ``model``: rid with ``param`` as its
    zero_prob, or rrsd with ``param`` as its row weight. Every parameter is
    checked here, before any row is drawn."""
    if model not in MODELS:
        raise InputError(f"model must be one of {MODELS}, got {model!r}")
    return (_Rid if model == "rid" else _Rrsd)(m, n, param, seed)


def gen_rid(m: int, n: int, zero_prob: float, seed: int) -> TestMatrix:
    """m x n matrix with i.i.d. cells, zero with probability ``zero_prob``."""
    return _Rid(m, n, zero_prob, seed).draw()


def gen_rrsd(m: int, n: int, row_weight: int, seed: int) -> TestMatrix:
    """m x n matrix whose rows are independent uniform ``row_weight``-subsets."""
    return _Rrsd(m, n, row_weight, seed).draw()
