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

A rid row reads its generator's raw PCG64 output (``random_raw``) as a
stream of bytes, each 64-bit word little-endian, and decides each cell by
an exact lazy comparison of a uniform U in [0, 1) against ``zero_prob`` in
base 256. Let z1 z2 ... zK be the base-256 digits of the exact double value
of ``zero_prob``:

* round 1 draws ceil(n/8) words, and byte i decides cell i: the cell is 1 if
  the byte is greater than z1, 0 if it is less, and tied if it equals z1;
* round k draws ceil(t/8) further words, where t cells are still tied, and
  gives one byte to each tied cell in column order, compared with zk;
* a cell still tied after zK is 1, because then U >= zero_prob; so when
  K = 1, as for 0.5, 0.75 or 0.875, a cell is 1 exactly when its byte is at
  least z1, and a row draws round 1 alone.

So P[cell is 0] equals ``zero_prob`` exactly, and a cell takes one byte with
probability 255/256. The rid stream depends only on ``SeedSequence`` and
PCG64's raw output, which NumPy's stream policy (NEP 19) keeps stable across
versions, unlike ``Generator.random``. A rrsd row is ``Generator.choice``
without replacement, which that policy does not cover.

``seeded_matrix`` gives a matrix that is not drawn yet, and one row drawer
per model draws any block of its rows into a boolean buffer. Two sinks share
it, and both run ``core._each_block``: ``draw()``, behind ``gen_rid`` and
``gen_rrsd``, packs each block into a ``TestMatrix``, and
``core.write_gtm1`` / ``core.dump_gtm1`` write each block as GTM1 text as it
is drawn, so ``pooltest generate`` never holds the matrix. ``draw()`` splits
a matrix of at least 2^22 cells across a thread pool with one worker per CPU
the process may run on; a smaller one is drawn inline, where starting
threads would cost more than they save. A rid drawer draws round 1 short
rows several at a time, in groups of about 2^16 cells and at most 2^8 rows,
and a wider row in chunks of 2^18 cells. Ties are broken only after a row's
round 1 is complete, so the bits do not depend on the number of workers,
the chunk, group, block or span size or the order in which rows are drawn:
each row equals the row drawn whole, alone, from its own generator.
"""

from __future__ import annotations

import functools
import threading
from typing import Iterator

import numpy as np

from .core import MODELS, InputError, TestMatrix, _each_block, _require_int, _require_open_unit

__all__ = ["gen_rid", "gen_rrsd", "seeded_matrix"]

# Matrices with fewer cells than this are drawn on the calling thread.
_PARALLEL_CELLS = 1 << 22
# Cells per rid round-1 draw from one row; a wider row is drawn in chunks of
# this many cells, a multiple of 8, so that every chunk takes whole words.
# Calls this long let two workers overlap; with 2^16-cell chunks they spent
# their time handing the interpreter lock back and forth.
_CHUNK_CELLS = 1 << 18
# Rows of at most _CHUNK_CELLS cells are drawn in groups of several rows, of
# about this many cells: one numpy call per group, not per row, and small
# buffers, which leave little memory behind in the workers' malloc arenas.
_BLOCK_CELLS = 1 << 16
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


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The constants of ``count`` successive hashes as a (count + 1, 1)
    column: hash i XORs its word with entry i and multiplies by entry i + 1."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


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


def _raw_bytes(bits: np.random.BitGenerator, count: int) -> np.ndarray:
    """The next ``count`` bytes of a row's stream: ceil(count/8) raw words, little-endian."""
    return bits.random_raw((count + 7) >> 3).astype("<u8", copy=False).view(np.uint8)[:count]


def _break_ties(bits: np.random.BitGenerator, cells: np.ndarray, tied: np.ndarray,
                digits: tuple[int, ...]) -> None:
    """Decide the cells at the columns ``tied``, whose round-1 byte equalled z1."""
    for digit in digits[1:]:
        u = _raw_bytes(bits, len(tied))
        cells[tied[u > digit]] = True
        tied = tied[u == digit]
        if not len(tied):
            return
    cells[tied] = True


class SeededMatrix:
    """An m x n matrix of a seeded model, given by its parameters and drawn
    a block of rows at a time, each row from its own stream.

    ``draw()`` packs it into a ``TestMatrix``; ``core.write_gtm1`` and
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

    def _fill_cells(self, r: int, k: int, out: np.ndarray) -> None:
        """Rows r .. r + k - 1 into the boolean (k, n) array ``out``."""
        raise NotImplementedError

    def draw(self) -> TestMatrix:
        """The packed matrix. One of at least 2^22 cells is drawn on one
        worker per CPU, each taking every workers-th block of rows."""
        m, n, rows = self.m, self.n, self._rows
        bits = np.empty((m, (n + 7) // 8), dtype=np.uint8)

        def make_step():
            cells = np.empty((rows, n), dtype=bool)

            def step(r: int, k: int) -> bool:
                self._fill_cells(r, k, cells[:k])
                bits[r : r + k] = np.packbits(cells[:k], axis=1)
                return True

            return step

        _each_block(m, rows, m * n >= _PARALLEL_CELLS, make_step)
        return TestMatrix._adopt(m, n, bits, self.model_tag, self.seed)


class _Rid(SeededMatrix):
    model_tag = "RID"

    def __init__(self, m: int, n: int, zero_prob: float, seed: int):
        super().__init__(m, n, seed)
        self._digits = _digits(_require_open_unit(zero_prob, "zero_prob"))
        group = min(_GROUP_ROWS, max(1, _BLOCK_CELLS // self.n))
        self._rows = group if self.n <= _CHUNK_CELLS else 1
        self._width = min(self.n, _CHUNK_CELLS)

    def _fill_cells(self, r: int, k: int, out: np.ndarray) -> None:
        for a in range(0, k, self._rows):
            b = min(k, a + self._rows)
            self._draw_group(range(r + a, r + b), out[a:b])

    def _draw_group(self, rows: range, block: np.ndarray) -> None:
        """Rows of at most ``_rows``: one chunk each if there are several."""
        n, width, digits = self.n, self._width, self._digits
        z1 = digits[0]
        exact = len(digits) == 1  # zero_prob is z1/256: no cell is left tied
        streams = list(self._streams(rows.start, len(rows)))
        tied = []
        for c in range(0, n, width):
            w = min(width, n - c)
            raw = [bits.random_raw((w + 7) >> 3) for bits in streams]
            words = raw[0] if len(raw) == 1 else np.concatenate(raw)
            u = words.astype("<u8", copy=False).view(np.uint8).reshape(len(raw), -1)[:, :w]
            if exact:
                np.greater_equal(u, z1, out=block[:, c : c + w])
                continue
            np.greater(u, z1, out=block[:, c : c + w])
            at = np.flatnonzero(u == z1)
            if len(at):
                row_of, column = np.divmod(at, w)
                tied.append((row_of, column + c))
        if tied:
            # a group of several rows is one chunk, so the ties come in row
            # order, and in column order within a row
            row_of, column = (np.concatenate(part) for part in zip(*tied))
            ends = np.searchsorted(row_of, np.arange(len(rows) + 1)).tolist()
            for i, (a, b) in enumerate(zip(ends, ends[1:])):
                if a < b:
                    _break_ties(streams[i], block[i], column[a:b], digits)


class _Rrsd(SeededMatrix):
    model_tag = "RrSD"
    _rows = 1

    def __init__(self, m: int, n: int, row_weight: int, seed: int):
        super().__init__(m, n, seed)
        self._weight = _require_int(row_weight, "row_weight", 1, self.n)

    def _fill_cells(self, r: int, k: int, out: np.ndarray) -> None:
        out.fill(False)
        for i, bits in enumerate(self._streams(r, k)):
            rng = np.random.Generator(bits)  # default_rng's, on the row's stream
            out[i, rng.choice(self.n, size=self._weight, replace=False)] = True


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
