"""Seeded, reproducible generation of random test matrices.

A matrix is a pure function of its parameters. It has one random stream,
the raw 64-bit words (``random_raw``) of ``PCG64(SeedSequence([seed]))``,
and each of its rows reads words at fixed offsets of that stream, so rows
can be drawn independently, in any order, or on different workers. A worker
reaches an offset with ``PCG64.advance``, a jump of O(log) steps (O'Neill,
"PCG: A family of simple fast space-efficient statistically good algorithms
for random number generation", 2014). With the words numbered from 0, and
W = ceil(n/64):

* round 1 of rid row j reads words (j*W + w)*L + l, plane l of the row's
  cell word w, for w < W and l < L (L below): the rows' round 1 is one run
  of words, row after row;
* the later rounds of rid row j read, in order, the words from
  2^127 + j*2^64 on, and rrsd row j is ``Generator.choice`` on the stream
  placed at that word.

The row windows stay inside the stream's period of 2^128 words, and past
every round-1 word, because ``seeded_matrix`` takes m < 2^63 only.

A rid row decides each cell by an exact lazy comparison of a uniform U in
[0, 1) against ``zero_prob`` (Knuth and Yao's exact sampler), reading only
the bits of U the cell needs. Let z1 z2 ... zK be the base-256 digits of the
exact double value of ``zero_prob``. Round 1 reads L bits of each cell's U,
where L is the number of binary digits of ``zero_prob`` when K = 1 (1, 2 and
3 for 0.5, 0.75 and 0.875; ``zero_prob`` = z1/256 has at most 8), and 8
otherwise; T is the number the first L bits of ``zero_prob`` make,
z1 >> (8 - L):

* the cells are taken 64 at a time, cell word w (cells 64w .. 64w + 63)
  reading its L words above, plane 1 first, and plane l gives bit l of each
  cell's U, the first being the most significant;
* a cell's bit sits at the same place in every plane: cell i is bit
  7 - (i mod 8) of byte floor(i/8) of the word read little-endian, the
  layout of a packed row, so each bitwise compare of the planes makes
  eight bytes of the packed row at once, and the bits past n are cleared;
* a cell whose L bits make a number above T is 1, one below T is 0; an
  equal one is 1 when K = 1, because then U >= ``zero_prob``, and tied
  otherwise (then L = 8 and T = z1);
* after round 1 of the whole row, round k = 2, 3, ... reads the next
  ceil(t/8) words of the row's window, where t cells are still tied, and
  gives one byte to each tied cell in column order, compared with zk as
  round 1 compared with z1; a cell still tied after zK is 1.

So P[cell is 0] equals ``zero_prob`` exactly, and a row at 0.75 reads two
raw words per 64 cells. The rid stream depends only on ``SeedSequence``,
PCG64's raw output and its ``advance``, which NumPy's stream policy (NEP 19)
keeps stable across versions, unlike ``Generator.random``. A rrsd row is
``Generator.choice`` without replacement, which that policy does not cover;
it reads a number of words that varies, so a row's generator is placed at
its window from the start of the stream.

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
several at a time, in groups of about 2^14 raw words, with one ``random_raw``
call, and a wider row in chunks of 2^20 cells, whole 64-cell words. Each
thread keeps its own copy of the stream and the word it is at, and jumps to
each read that does not follow its last one; ties are broken only after a
row's round 1 is complete. So the bits do not depend on the number of
workers, the chunk, group or block size or the order in which rows are
drawn.
"""

from __future__ import annotations

import threading

import numpy as np

from .core import (MODELS, TestMatrix, _BIT, _each_block, _require_choice, _require_int,
                   _require_open_unit)

__all__ = ["gen_rid", "gen_rrsd", "seeded_matrix"]

# Matrices with fewer cells than this are drawn on the calling thread.
_PARALLEL_CELLS = 1 << 22
# Cells per rid round-1 draw from one row; a wider row is drawn in chunks of
# this many cells, whole 64-cell words, so that every chunk takes whole words
# of each plane, and a row of 10^6 cells in one call. random_raw and the
# plane compares release the interpreter lock, so calls this long let two
# workers overlap; with 2^16-cell chunks they spent their time handing the
# lock back and forth.
_CHUNK_CELLS = 1 << 20
# Rows of at most _CHUNK_CELLS cells are drawn in groups of several rows, of
# about this many raw words (128 KiB; 2^19 cells at two planes, 2^17 at
# eight): one numpy call per group, not per row, and small buffers, which
# leave little memory behind in the workers' malloc arenas.
_GROUP_WORDS = 1 << 14

# The stream's period in words; row j's window starts at _WINDOWS + j * _WINDOW.
_PERIOD = 1 << 128
_WINDOWS, _WINDOW = 1 << 127, 1 << 64
# Rows a matrix may have: the windows of more would wrap the period.
_MAX_ROWS = (1 << 63) - 1


class _Stream:
    """One thread's copy of a matrix's stream, and the word it is at."""

    def __init__(self, seed: int):
        # numpy 2 imports numpy.random, about 15 ms, only when it is first used
        self.bits = np.random.PCG64(np.random.SeedSequence([seed]))
        self.rng = np.random.Generator(self.bits)
        self._start = self.bits.state
        self.at: int | None = 0  # None once a Generator read an unknown number of words

    def seek(self, at: int) -> None:
        """Move to word ``at``: one jump, unless the stream is there."""
        if self.at is None:
            self.bits.state = self._start
            self.bits.advance(at)
        elif at != self.at:
            self.bits.advance((at - self.at) % _PERIOD)
        self.at = at

    def read(self, at: int, count: int) -> np.ndarray:
        """The ``count`` words from word ``at`` on."""
        self.seek(at)
        self.at += count
        return self.bits.random_raw(count)

    def generator(self, at: int) -> np.random.Generator:
        """The stream as a ``Generator`` from word ``at`` on."""
        self.seek(at)
        self.at = None
        return self.rng


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


def _tied_cells(equal: np.ndarray, c: int, w: int, n: int) -> np.ndarray:
    """The tied cells of a chunk, as row * n + column, ascending, from the
    (k, words) packed cell words ``equal`` of its columns c .. c + w - 1.
    Only the nonzero words are unpacked: a tie is about one cell in 256."""
    at = np.flatnonzero(equal)
    hit = np.flatnonzero(np.unpackbits(_cell_bytes(equal.reshape(-1)[at])).view(bool))
    row, word = np.divmod(at[hit >> 6], equal.shape[1])
    column = c + 64 * word + (hit & 63)
    keep = column < c + w  # not the bits past n
    return row[keep] * n + column[keep]


class SeededMatrix:
    """An m x n matrix of a seeded model, given by its parameters and drawn
    a block of rows at a time from its stream.

    ``draw()`` gives the ``TestMatrix``; ``core.write_gtm1`` and
    ``core.dump_gtm1`` write each block as it is drawn, so the matrix is
    never held whole. Both take the same bits.
    """

    model_tag: str
    _rows: int  # rows per draw when the matrix is drawn into memory

    def __init__(self, m: int, n: int, seed: int):
        self.m = _require_int(m, "m", 1, _MAX_ROWS)
        self.n = _require_int(n, "n", 1)
        self.seed = _require_int(seed, "seed", 0)
        self._local = threading.local()  # each thread's _Stream

    def _stream(self) -> _Stream:
        """The calling thread's copy of the stream, made on its first draw."""
        stream = getattr(self._local, "stream", None)
        if stream is None:
            stream = self._local.stream = _Stream(self.seed)
        return stream

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
        self._row_words = planes * -(-self.n // 64)  # W * L
        self._rows = max(1, _GROUP_WORDS // self._row_words) if self.n <= _CHUNK_CELLS else 1

    def _fill_bits(self, r: int, k: int, out: np.ndarray) -> None:
        for a in range(0, k, self._rows):
            b = min(k, a + self._rows)
            self._draw_group(r + a, b - a, out[a:b])

    def _draw_group(self, r: int, k: int, block: np.ndarray) -> None:
        """Rows r .. r + k - 1, at most ``_rows``: one chunk each if there are several."""
        n, width, digits = self.n, self._width, self._digits
        exact = len(digits) == 1  # zero_prob is z1/256: no cell is left tied
        planes = len(self._threshold)
        stream = self._stream()
        tied = []
        for c in range(0, n, width):
            w = min(width, n - c)
            words = -(-w // 64)
            # several rows are one chunk, c = 0, and their words one run
            raw = stream.read(r * self._row_words + (c >> 6) * planes, k * words * planes)
            ones, equal = _round_one(raw.reshape(k, words, planes), self._threshold, exact)
            block[:, c >> 3 : (c + w + 7) >> 3] = _cell_bytes(ones)[:, : (w + 7) >> 3]
            if not exact:
                tied.append(_tied_cells(equal, c, w, n))
        if n % 8:
            block[:, -1] &= 0xFF & (0xFF << (8 - n % 8))
        tied = np.concatenate(tied) if tied else ()
        if len(tied):
            row_of, column = np.divmod(self._break_ties(stream, r, tied), n)
            np.bitwise_or.at(block, (row_of, column >> 3), _BIT[column & 7])

    def _break_ties(self, stream: _Stream, r: int, tied: np.ndarray) -> np.ndarray:
        """The cells among ``tied`` that the later rounds decide as 1.

        ``tied`` holds the cells of rows r, r + 1, ... whose round-1 bits
        were z1, as (row - r) * n + column, ascending. Round k gives each
        cell of row j still tied, in column order, one byte of the next
        ceil(t/8) words of row j's window, t such cells, and compares it
        with zk.
        """
        n = self.n
        used: dict[int, int] = {}  # words each row has read from its window
        ones = []
        for digit in self._digits[1:]:
            counts = np.bincount(tied // n)
            rows = np.flatnonzero(counts)
            counts = counts[rows]
            words = (counts + 7) >> 3
            raw = []
            for i, w in zip(rows.tolist(), words.tolist()):
                at = used.get(i, 0)
                used[i] = at + w
                raw.append(stream.read(_WINDOWS + (r + i) * _WINDOW + at, w))
            # a row's cells take the first bytes of its words, in column order
            skip = np.repeat(8 * (np.cumsum(words) - words) - (np.cumsum(counts) - counts), counts)
            u = _cell_bytes(np.concatenate(raw))[skip + np.arange(len(tied))]
            ones.append(tied[u > digit])
            tied = tied[u == digit]
            if not len(tied):
                break
        else:
            ones.append(tied)
        return np.concatenate(ones)


class _Rrsd(SeededMatrix):
    model_tag = "RrSD"
    _rows = 1

    def __init__(self, m: int, n: int, row_weight: int, seed: int):
        super().__init__(m, n, seed)
        self._weight = _require_int(row_weight, "row_weight", 1, self.n)

    def _fill_bits(self, r: int, k: int, out: np.ndarray) -> None:
        stream = self._stream()
        for i in range(k):
            rng = stream.generator(_WINDOWS + (r + i) * _WINDOW)
            columns = rng.choice(self.n, size=self._weight, replace=False)
            # the columns are distinct, so a byte's sum of their bits is their OR
            out[i] = np.bincount(columns >> 3, _BIT[columns & 7], out.shape[1])


def seeded_matrix(model: str, m: int, n: int, param, seed: int) -> SeededMatrix:
    """The undrawn m x n matrix of ``model``: rid with ``param`` as its
    zero_prob, or rrsd with ``param`` as its row weight. Every parameter is
    checked here, before any row is drawn."""
    _require_choice(model, "model", MODELS)
    return (_Rid if model == "rid" else _Rrsd)(m, n, param, seed)


def gen_rid(m: int, n: int, zero_prob: float, seed: int) -> TestMatrix:
    """m x n matrix with i.i.d. cells, zero with probability ``zero_prob``."""
    return _Rid(m, n, zero_prob, seed).draw()


def gen_rrsd(m: int, n: int, row_weight: int, seed: int) -> TestMatrix:
    """m x n matrix whose rows are independent uniform ``row_weight``-subsets."""
    return _Rrsd(m, n, row_weight, seed).draw()
