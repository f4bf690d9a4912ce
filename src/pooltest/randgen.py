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
* a cell still tied after zK is 1, because then U >= zero_prob.

So P[cell is 0] equals ``zero_prob`` exactly, and a cell takes one byte with
probability 255/256. The rid stream depends only on ``SeedSequence`` and
PCG64's raw output, which NumPy's stream policy (NEP 19) keeps stable across
versions, unlike ``Generator.random``. A rrsd row is ``Generator.choice``
without replacement, which that policy does not cover.

``gen_rid`` and ``gen_rrsd`` share one row filler. A matrix of at least
2^22 cells has its rows split across a thread pool with one worker per CPU
the process may run on; a smaller one is filled inline, where starting
threads would cost more than they save. A rid worker draws round 1 into a
reused cell buffer: short rows several at a time, in blocks of about 2^16
cells, and a wider row in chunks of 2^18 cells. Ties are broken only after
a row's round 1 is complete, so the bits do not depend on the number of
workers, the chunk or block size or the order in which rows are filled:
each row equals the row drawn whole, alone, from its own generator.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .core import TestMatrix, _require_int, _require_open_unit

__all__ = ["gen_rid", "gen_rrsd"]

# Matrices with fewer cells than this are filled on the calling thread.
_PARALLEL_CELLS = 1 << 22
# Cells per rid round-1 draw from one row; a wider row is drawn in chunks of
# this many cells, a multiple of 8, so that every chunk takes whole words.
# Calls this long let two workers overlap; with 2^16-cell chunks they spent
# their time handing the interpreter lock back and forth.
_CHUNK_CELLS = 1 << 18
# Rows of at most _CHUNK_CELLS cells are drawn in blocks of several rows, of
# about this many cells: one numpy call per block, not per row, and small
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


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def _fill_rows(
    m: int, n: int, block_rows: int,
    make_writer: Callable[[], Callable[[range, np.ndarray], None]],
) -> np.ndarray:
    """Packed bits of an m x n matrix.

    ``make_writer()`` gives each worker its own writer, which draws the rows
    in a range of at most ``block_rows`` row indices, each from its own
    stream, into the packed rows it is handed.
    """
    bits = np.empty((m, (n + 7) // 8), dtype=np.uint8)
    workers = min(m, _worker_count()) if m * n >= _PARALLEL_CELLS else 1
    stride = workers * block_rows

    def fill(first: int) -> None:
        write = make_writer()
        for j in range(first, m, stride):
            write(range(j, min(m, j + stride), workers), bits[j : j + stride : workers])

    if workers == 1:
        fill(0)
    else:
        # imported here, as it adds about a tenth to the package's import time
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(fill, k) for k in range(workers)]:
                future.result()
    return bits


def _check_common(m: int, n: int, seed: int) -> tuple[int, int, int]:
    return _require_int(m, "m", 1), _require_int(n, "n", 1), _require_int(seed, "seed", 0)


def gen_rid(m: int, n: int, zero_prob: float, seed: int) -> TestMatrix:
    """m x n matrix with i.i.d. cells, zero with probability ``zero_prob``."""
    m, n, seed = _check_common(m, n, seed)
    digits = _digits(_require_open_unit(zero_prob, "zero_prob"))
    z1 = digits[0]
    block_rows = max(1, _BLOCK_CELLS // n) if n <= _CHUNK_CELLS else 1
    width = min(n, _CHUNK_CELLS)

    def make_writer():
        cells = np.empty((block_rows, n), dtype=bool)

        def write(rows, out):
            # the rows' default_rng bit generators, without a Generator around them
            streams = [np.random.PCG64(np.random.SeedSequence([seed, j])) for j in rows]
            block = cells[: len(rows)]
            tied = []
            for c in range(0, n, width):
                w = min(width, n - c)
                raw = [bits.random_raw((w + 7) >> 3) for bits in streams]
                words = raw[0] if len(raw) == 1 else np.concatenate(raw)
                u = words.astype("<u8", copy=False).view(np.uint8).reshape(len(raw), -1)[:, :w]
                np.greater(u, z1, out=block[:, c : c + w])
                at = np.flatnonzero(u == z1)
                if len(at):
                    row_of, column = np.divmod(at, w)
                    tied.append((row_of, column + c))
            if tied:
                # a block of several rows is one chunk, so the ties come in
                # row order, and in column order within a row
                row_of, column = (np.concatenate(part) for part in zip(*tied))
                ends = np.searchsorted(row_of, np.arange(len(rows) + 1)).tolist()
                for r, (a, b) in enumerate(zip(ends, ends[1:])):
                    if a < b:
                        _break_ties(streams[r], block[r], column[a:b], digits)
            out[:] = np.packbits(block, axis=1)

        return write

    bits = _fill_rows(m, n, block_rows, make_writer)
    return TestMatrix._adopt(m, n, bits, "RID", seed)


def gen_rrsd(m: int, n: int, row_weight: int, seed: int) -> TestMatrix:
    """m x n matrix whose rows are independent uniform ``row_weight``-subsets."""
    m, n, seed = _check_common(m, n, seed)
    row_weight = _require_int(row_weight, "row_weight", 1, n)

    def make_writer():
        cells = np.empty(n, dtype=bool)

        def write(rows, out):
            rng = np.random.default_rng(np.random.SeedSequence([seed, rows[0]]))
            cells.fill(False)
            cells[rng.choice(n, size=row_weight, replace=False)] = True
            out[0] = np.packbits(cells)

        return write

    bits = _fill_rows(m, n, 1, make_writer)
    return TestMatrix._adopt(m, n, bits, "RrSD", seed)
