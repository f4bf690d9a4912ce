"""Seeded, reproducible generation of random test matrices.

Every row derives its own generator from ``(seed, row_index)``, so rows can
be produced independently, in any order, or on different workers, and the
matrix is a pure function of its parameters. The derivation is
``numpy.random.SeedSequence([seed, row_index])`` feeding ``default_rng``.

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
rows several at a time, in groups of about 2^16 cells, and a wider row in
chunks of 2^18 cells. Ties are broken only after a row's round 1 is
complete, so the bits do not depend on the number of workers, the chunk,
group or block size or the order in which rows are drawn: each row equals
the row drawn whole, alone, from its own generator.
"""

from __future__ import annotations

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
        self._rows = max(1, _BLOCK_CELLS // self.n) if self.n <= _CHUNK_CELLS else 1
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
        # the rows' default_rng bit generators, without a Generator around them
        streams = [np.random.PCG64(np.random.SeedSequence([self.seed, j])) for j in rows]
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
        for i in range(k):
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, r + i]))
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
