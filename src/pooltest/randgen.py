"""Seeded, reproducible generation of random test matrices.

Every row derives its own generator from ``(seed, row_index)``, so rows can
be produced independently, in any order, or on different workers, and the
matrix is a pure function of its parameters. The derivation is
``numpy.random.SeedSequence([seed, row_index])`` feeding ``default_rng``;
it is stable across runs of one build but not guaranteed across library
major versions.

``gen_rid`` and ``gen_rrsd`` share one row filler. A matrix of at least
2^22 cells has its rows split across a thread pool with one worker per CPU
the process may run on; a smaller one is filled inline, where starting
threads would cost more than they save. A rid row is drawn in chunks of
2^16 cells into one reused buffer per worker. Each cell takes exactly one
64-bit draw from its row's generator, so the chunked draws equal one
``random(n)`` call. The bits therefore do not depend on the number of
workers, the chunk size or the order in which rows are filled: they equal
``rid_row`` and ``rrsd_row``, packed row by row.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .core import InputError, TestMatrix, _require_int

__all__ = ["row_generator", "rid_row", "rrsd_row", "gen_rid", "gen_rrsd"]

# Matrices with fewer cells than this are filled on the calling thread.
_PARALLEL_CELLS = 1 << 22
# Cells per rid draw; a multiple of 8, so every chunk packs into whole bytes.
_CHUNK_CELLS = 1 << 16


def _rng(seed: int, row_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, row_index]))


def row_generator(seed: int, row_index: int) -> np.random.Generator:
    """Generator for one row, derived from (seed, row_index)."""
    seed = _require_int(seed, "seed", 0)
    row_index = _require_int(row_index, "row_index", 0)
    return _rng(seed, row_index)


def rid_row(seed: int, row_index: int, n: int, zero_prob: float) -> np.ndarray:
    """One independent-cell row as a boolean vector; P[cell is 0] = zero_prob."""
    rng = row_generator(seed, row_index)
    return rng.random(n) >= zero_prob


def rrsd_row(seed: int, row_index: int, n: int, row_weight: int) -> np.ndarray:
    """One uniform constant-weight row as a boolean vector."""
    rng = row_generator(seed, row_index)
    row = np.zeros(n, dtype=bool)
    row[rng.choice(n, size=row_weight, replace=False)] = True
    return row


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def _fill_rows(
    m: int, n: int, seed: int,
    make_writer: Callable[[], Callable[[np.random.Generator, np.ndarray], None]],
) -> np.ndarray:
    """Packed bits of an m x n matrix, row j drawn from ``_rng(seed, j)``.

    ``make_writer()`` gives each worker its own row writer, which draws one
    row from its generator into the packed row it is handed.
    """
    bits = np.empty((m, (n + 7) // 8), dtype=np.uint8)
    workers = min(m, _worker_count()) if m * n >= _PARALLEL_CELLS else 1

    def fill(first: int) -> None:
        write = make_writer()
        for j in range(first, m, workers):
            write(_rng(seed, j), bits[j])

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
    if isinstance(zero_prob, bool) or not isinstance(zero_prob, (int, float)):
        raise InputError(f"zero_prob must be a real number, got {zero_prob!r}")
    if not 0.0 < float(zero_prob) < 1.0:
        raise InputError(f"zero_prob must lie strictly inside (0, 1), got {zero_prob}")
    zero_prob = float(zero_prob)

    def make_writer():
        draws = np.empty(min(n, _CHUNK_CELLS))
        cells = np.empty(len(draws), dtype=bool)
        chunks = []
        for c in range(0, n, len(draws)):
            k = min(len(draws), n - c)
            chunks.append((draws[:k], cells[:k], c >> 3))

        def write(rng, out):
            for chunk_draws, chunk_cells, at in chunks:
                rng.random(out=chunk_draws)
                np.greater_equal(chunk_draws, zero_prob, out=chunk_cells)
                packed = np.packbits(chunk_cells)
                out[at : at + len(packed)] = packed

        return write

    bits = _fill_rows(m, n, seed, make_writer)
    return TestMatrix(m=m, n=n, bits=bits, model_tag="RID", seed=seed)


def gen_rrsd(m: int, n: int, row_weight: int, seed: int) -> TestMatrix:
    """m x n matrix whose rows are independent uniform ``row_weight``-subsets."""
    m, n, seed = _check_common(m, n, seed)
    row_weight = _require_int(row_weight, "row_weight", 1, n)

    def make_writer():
        cells = np.empty(n, dtype=bool)

        def write(rng, out):
            cells.fill(False)
            cells[rng.choice(n, size=row_weight, replace=False)] = True
            out[:] = np.packbits(cells)

        return write

    bits = _fill_rows(m, n, seed, make_writer)
    return TestMatrix(m=m, n=n, bits=bits, model_tag="RrSD", seed=seed)
