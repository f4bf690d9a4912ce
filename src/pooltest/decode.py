"""Decoders: elimination, elimination plus bounded exhaustive finish, and
an exhaustive reference decoder.

Elimination removes every item that appears in a negative test; it touches
each matrix byte at most once (a single OR-reduction over the negative
rows), so it runs in time linear in the bit-size of the matrix. The
survivors are the 0 bits of that OR. Only its bytes that are not 0xFF are
unpacked, few for a designed matrix, so reading them costs a compare over
the row's n/8 bytes rather than an unpack of n bits. Each instance is
read once, into its residue ``(n, answers, survivors, cells_of)``: the
checked answers, the 1-based survivors, and a call for their cells.
``_residue`` builds it with one ``eliminate`` call, which checks the
answers and hands them to the one survivor reader, ``_survivors``; the
CLI's ``decode`` builds it from its streamed pass. One decode, ``_decode``,
builds every ``DecodeOutcome`` from a residue, and ``verify.check_property``
reads one. The exhaustive phases share one subset scan of the survivors
alone, since a set with an item in a negative test never explains the
answers. It packs their columns into 64-bit words and compares the ORs of
whole blocks of their sets with the answers in single numpy operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    BudgetExceededError,
    TestMatrix,
    validate_answers,
    _BLOCK_BYTES,
    _cells,
    _require_int,
)

__all__ = [
    "MAX_DESK_ITEMS",
    "MAX_DESK_DEFECTIVES",
    "DECODED",
    "AMBIGUOUS",
    "NO_CONSISTENT_SET",
    "DecodeOutcome",
    "eliminate",
    "decode_disjunct",
    "decode_semidisjunct",
    "decode_separable_bruteforce",
]

DECODED = "decoded"
AMBIGUOUS = "ambiguous"
NO_CONSISTENT_SET = "no_consistent_set"

# Desk scale: the exhaustive decoder and the separability check refuse larger
# instances, whose 0..d subsets of every item are too many to try.
MAX_DESK_ITEMS = 40
MAX_DESK_DEFECTIVES = 4


def _over_desk_scale(n: int, d: int) -> bool:
    return n > MAX_DESK_ITEMS or d > MAX_DESK_DEFECTIVES


def _require_desk_scale(check: str, n: int, d: int) -> None:
    if _over_desk_scale(n, d):
        raise BudgetExceededError(
            f"{check} is capped at n <= {MAX_DESK_ITEMS}, d <= {MAX_DESK_DEFECTIVES}; "
            f"got n={n}, d={d}"
        )


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one decode.

    ``items`` is set only for status ``decoded``. ``consistent_count`` is
    the number of consistent sets found (1 when no subset scan ran).
    ``eliminated_count`` is n less the s survivors of elimination, and
    ``exhaustive_candidates`` is s when a subset scan ran, else 0.
    """

    status: str
    items: tuple[int, ...] | None
    consistent_count: int
    eliminated_count: int
    exhaustive_candidates: int


def _survivors(matrix: TestMatrix, ans: np.ndarray) -> np.ndarray:
    """0-based positions, ascending, of the items in no negative test of the
    checked answer vector ``ans``.

    The negative rows are ORed into one row, in slabs of at most a GTM1
    block of bytes, so no copy of them all is made. An item survives where
    its bit of that row is 0, so only the row's bytes that are not 0xFF are
    unpacked, and the padding bits past n, always 0, are dropped.
    """
    negative = np.flatnonzero(ans == 0)
    if not len(negative):
        return np.arange(matrix.n)
    bits = matrix.bits
    slab = max(1, _BLOCK_BYTES // bits.shape[1])
    blocked = np.zeros(bits.shape[1], np.uint8)
    for s in range(0, len(negative), slab):
        blocked |= np.bitwise_or.reduce(bits.take(negative[s : s + slab], axis=0), axis=0)
    open_bytes = np.flatnonzero(blocked != 0xFF)
    zeros = np.flatnonzero(np.unpackbits(blocked[open_bytes]) == 0)
    positions = open_bytes[zeros >> 3] * 8 + (zeros & 7)
    return positions[positions < matrix.n]


def eliminate(matrix: TestMatrix, answers) -> tuple[int, ...]:
    """Items surviving elimination, 1-based and sorted.

    Whenever ``answers`` came from a true defective set I, the result
    contains I: no negative test can contain a defective item.
    """
    return tuple((_survivors(matrix, validate_answers(matrix, answers)) + 1).tolist())


def _residue(matrix: TestMatrix, answers) -> tuple:
    """The residue of ``answers`` on ``matrix``; the scan reads only which
    answers are not 0."""
    survivors = eliminate(matrix, answers)
    return matrix.n, np.asarray(answers), survivors, lambda: _cells(matrix, survivors)


def decode_disjunct(matrix: TestMatrix, answers) -> DecodeOutcome:
    """Pure elimination decode.

    Recovers the defective set exactly whenever every clean item is
    witnessed by some test avoiding the defectives; otherwise the result is
    a superset of the true set.
    """
    return _decode("disjunct", _residue(matrix, answers), None, None)


# Rows of the largest tail table: one vector compare covers at most this
# many candidate sets.
_TAIL_ROWS = 1 << 14


@lru_cache(maxsize=8)
def _tail_table(r: int, limit: int) -> np.ndarray:
    """Every r-subset of range(t), t the largest with C(t, r) <= ``limit`` (0 for r = 0).

    Column c of the (r, C(t, r)) result is the c-th subset in lexicographic
    order, each index i stored as t - 1 - i. Stored that way, the last
    C(s, r) columns are the r-subsets of range(s) in the same order, for
    every s <= t, so one table serves every candidate count.
    """
    t = r
    while r and math.comb(t + 1, r) <= limit:
        t += 1
    count = math.comb(t, r)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(t - 1, -1, -1), r)), np.min_scalar_type(t), count * r
    )
    return flat.reshape(count, r).T.copy()


def _consistent_sets(
    cells: np.ndarray, candidates: Sequence[int], answers: np.ndarray, sizes: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """Sets of ``candidates`` whose columns OR to exactly ``answers``.

    ``candidates`` are survivors: every one lies in no negative test.
    ``cells`` holds their columns as ``_cells`` gathers them, m x s. Yields
    tuples of ``candidates`` by size, in the order of ``sizes``, then in
    lexicographic order of positions in ``candidates``. The scan is lazy: a
    caller that stops at a hit computes no later size.

    The columns are packed over the positive rows into ``uint64`` words, and
    a set is consistent when its columns OR to the OR of all of them, which
    must cover every positive row. A set of size k is a prefix of k - r
    picks followed by a tail of r picks, r as large as keeps C(s, r) <=
    ``_TAIL_ROWS``. The ORs of all tails are taken once per size; each
    prefix is then one vector compare over the tails after its last pick.
    """
    cells = cells.compress(answers != 0, axis=0)
    if not cells.any(axis=1).all():
        return  # a positive row that no candidate covers
    # the candidates in reverse order, the tail tables' index order
    reversed_items = candidates[::-1]
    s = len(reversed_items)
    words = max(1, -(-len(cells) // 64))
    packed = np.zeros((8 * words, s), np.uint8)
    packed[: -(-len(cells) // 8)] = np.packbits(cells, axis=0)
    # word w of column j (reversed order) at [w, j]
    columns = packed.reshape(words, 8, s).transpose(0, 2, 1)[:, ::-1].copy().view(np.uint64)[..., 0]
    target = np.bitwise_or.reduce(columns, axis=1, keepdims=True)
    for size in sizes:
        if size > s:
            continue
        r = size
        while math.comb(s, r) > _TAIL_ROWS:
            r -= 1
        count = math.comb(s, r)
        tails = _tail_table(r, _TAIL_ROWS)[:, -count:]
        ors = np.zeros((words, count), np.uint64)
        for picks in tails:
            ors |= columns.take(picks, axis=1)
        for prefix in combinations(range(s - 1, r - 1, -1), size - r):
            start = count - math.comb(prefix[-1], r) if prefix else 0
            head = np.bitwise_or.reduce(columns.take(prefix, axis=1), axis=1, keepdims=True)
            hits = ((ors[:, start:] | head) == target).all(axis=0)
            for row in np.flatnonzero(hits).tolist():
                yield tuple(reversed_items[j] for j in prefix + tuple(tails[:, start + row].tolist()))


def _decode(decoder: str, residue: tuple, d, budget) -> DecodeOutcome:
    """The outcome of ``decoder`` on ``residue``: the checked answers of an
    n-item matrix, its 1-based survivors ``candidates``, ascending, which
    hold every consistent set, and ``cells_of()``, their m x s cells, called
    only once every refusal passed. ``disjunct`` returns the survivors; so
    does ``semidisjunct`` when at most d are left, else it scans their
    size-d sets, if their count is in its ``budget``; ``bruteforce`` counts
    their consistent sets of size 0..d, at desk scale."""
    n, answers, candidates, cells_of = residue
    if decoder != "disjunct":
        d = _require_int(d, "d", 0 if decoder == "bruteforce" else 1)
    if decoder == "semidisjunct":
        budget = _require_int(budget, "max_subset_tests", 0)
    s = len(candidates)
    if decoder == "disjunct" or decoder == "semidisjunct" and s <= d:
        return DecodeOutcome(DECODED, tuple(candidates), 1, n - s, 0)
    if decoder == "bruteforce":
        _require_desk_scale("bruteforce decode", n, d)
    # C(s, d) >= 2^k for k = min(d, s - d), so a large k refuses before the binomial
    elif min(d, s - d) >= budget.bit_length() or math.comb(s, d) > budget:
        raise BudgetExceededError(
            f"exhaustive finish needs C({s}, {d}) subset tests, over the budget of {budget}"
        )
    sizes = range(d + 1) if decoder == "bruteforce" else (d,)
    hits = _consistent_sets(cells_of(), candidates, answers, sizes)
    first = next(hits, None)
    # brute force counts every consistent set; the finish stops at the first
    count = (first is not None) + (sum(1 for _ in hits) if decoder == "bruteforce" else 0)
    return DecodeOutcome(
        status=DECODED if count == 1 else AMBIGUOUS if count else NO_CONSISTENT_SET,
        items=first if count == 1 else None,
        consistent_count=count,
        eliminated_count=n - s,
        exhaustive_candidates=s,
    )


def decode_semidisjunct(
    matrix: TestMatrix,
    answers,
    d: int,
    max_subset_tests: int = 10**8,
) -> DecodeOutcome:
    """Elimination, then an exhaustive scan of size-d subsets of the residue.

    If at most d items survive elimination they are returned unchecked, as
    ``decoded``: nothing tests that they reproduce ``answers`` or that no
    smaller set does. With tests {1,2,3}, {1,4}, {5}, {2,6}, {3}, answers
    11000 and d = 3, the survivors (1, 4) are returned though {1} alone
    explains the answers.

    Otherwise size-d subsets of the residue are tried in lexicographic
    order and the first one reproducing ``answers`` exactly is returned;
    ``no_consistent_set`` if none does. Exact recovery is guaranteed when
    the matrix is disjunct for the true set, or when the true set has size
    d and the matrix is semidisjunct for it.

    Raises ``BudgetExceededError`` when the subset count exceeds
    ``max_subset_tests`` — the signal that the matrix missed its design
    property.
    """
    d = _require_int(d, "d", 1)  # before the answers
    return _decode("semidisjunct", _residue(matrix, answers), d, max_subset_tests)


def decode_separable_bruteforce(matrix: TestMatrix, answers, d: int) -> DecodeOutcome:
    """Reference decoder: try every set of size 0..d of the survivors.

    Returns the unique consistent candidate, ``ambiguous`` with the count
    of consistent candidates when several match, or ``no_consistent_set``.
    Desk-scale only; refuses beyond ``MAX_DESK_ITEMS`` / ``MAX_DESK_DEFECTIVES``.
    """
    d = _require_int(d, "d", 0)  # before the answers
    return _decode("bruteforce", _residue(matrix, answers), d, None)
