"""Decoders: elimination, elimination plus bounded exhaustive finish, and
an exhaustive reference decoder.

Elimination removes every item that appears in a negative test; it touches
each matrix byte at most once (a single OR-reduction over the negative
rows), so it runs in time linear in the bit-size of the matrix. The
exhaustive phases compare candidate answer vectors as packed integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    BudgetExceededError,
    TestMatrix,
    validate_answers,
    _require_int,
)

__all__ = [
    "MAX_DESK_ITEMS",
    "MAX_DESK_DEFECTIVES",
    "DECODED",
    "AMBIGUOUS",
    "NO_CONSISTENT_SET",
    "DecodeOutcome",
    "survivor_mask",
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


def _require_desk_scale(check: str, n: int, d: int) -> None:
    if n > MAX_DESK_ITEMS or d > MAX_DESK_DEFECTIVES:
        raise BudgetExceededError(
            f"{check} is capped at n <= {MAX_DESK_ITEMS}, d <= {MAX_DESK_DEFECTIVES}; "
            f"got n={n}, d={d}"
        )


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one decode.

    ``items`` is set only for status ``decoded``. ``consistent_count`` is
    the number of consistent candidate sets found (meaningful for the
    exhaustive decoders; elimination does not count candidates).
    ``exhaustive_candidates`` is the size of the residual item pool when an
    exhaustive phase ran, else 0.
    """

    status: str
    items: tuple[int, ...] | None
    consistent_count: int
    eliminated_count: int
    exhaustive_candidates: int


def survivor_mask(matrix: TestMatrix, answers) -> np.ndarray:
    """Boolean length-n mask of items that appear in no negative test."""
    ans = validate_answers(matrix, answers)
    negative = matrix.bits[ans == 0]
    if negative.shape[0] == 0:
        return np.ones(matrix.n, dtype=bool)
    blocked = np.bitwise_or.reduce(negative, axis=0)
    return np.unpackbits(blocked, count=matrix.n) == 0


def eliminate(matrix: TestMatrix, answers) -> tuple[int, ...]:
    """Items surviving elimination, 1-based and sorted.

    Whenever ``answers`` came from a true defective set I, the result
    contains I: no negative test can contain a defective item.
    """
    return tuple((np.flatnonzero(survivor_mask(matrix, answers)) + 1).tolist())


def decode_disjunct(matrix: TestMatrix, answers) -> DecodeOutcome:
    """Pure elimination decode.

    Recovers the defective set exactly whenever every clean item is
    witnessed by some test avoiding the defectives; otherwise the result is
    a superset of the true set.
    """
    survivors = eliminate(matrix, answers)
    return DecodeOutcome(
        status=DECODED,
        items=survivors,
        consistent_count=1,
        eliminated_count=matrix.n - len(survivors),
        exhaustive_candidates=0,
    )


def _consistent_sets(
    matrix: TestMatrix, candidates: Sequence[int], answers: np.ndarray, sizes: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """Sets of ``candidates`` whose columns OR to exactly ``answers``.

    Yields 1-based tuples by size, in the order of ``sizes``, then in
    lexicographic order. Columns and answers are compared as m-bit
    integers, row 0 most significant.
    """
    def packed(bits: np.ndarray) -> int:
        return int.from_bytes(np.packbits(bits).tobytes(), "big")

    target = packed(answers)
    cols = [packed(matrix.column_bits(item)) for item in candidates]
    for size in sizes:
        for combo in combinations(range(len(cols)), size):
            acc = 0
            for idx in combo:
                acc |= cols[idx]
            if acc == target:
                yield tuple(candidates[idx] for idx in combo)


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
    d = _require_int(d, "d", 1)
    ans = validate_answers(matrix, answers)
    survivors = eliminate(matrix, ans)
    eliminated = matrix.n - len(survivors)
    if len(survivors) <= d:
        return DecodeOutcome(
            status=DECODED,
            items=survivors,
            consistent_count=1,
            eliminated_count=eliminated,
            exhaustive_candidates=0,
        )

    if math.comb(len(survivors), d) > max_subset_tests:
        raise BudgetExceededError(
            f"exhaustive finish needs C({len(survivors)}, {d}) subset tests, "
            f"over the budget of {max_subset_tests}"
        )
    found = next(_consistent_sets(matrix, survivors, ans, (d,)), None)
    return DecodeOutcome(
        status=NO_CONSISTENT_SET if found is None else DECODED,
        items=found,
        consistent_count=int(found is not None),
        eliminated_count=eliminated,
        exhaustive_candidates=len(survivors),
    )


def decode_separable_bruteforce(matrix: TestMatrix, answers, d: int) -> DecodeOutcome:
    """Reference decoder: try every candidate set of size 0..d.

    Returns the unique consistent candidate, ``ambiguous`` with the count
    of consistent candidates when several match, or ``no_consistent_set``.
    Desk-scale only; refuses beyond ``MAX_DESK_ITEMS`` / ``MAX_DESK_DEFECTIVES``.
    """
    d = _require_int(d, "d", 0)
    _require_desk_scale("bruteforce decode", matrix.n, d)
    ans = validate_answers(matrix, answers)
    hits = _consistent_sets(matrix, range(1, matrix.n + 1), ans, range(d + 1))
    first = next(hits, None)
    count = (first is not None) + sum(1 for _ in hits)
    return DecodeOutcome(
        status=DECODED if count == 1 else AMBIGUOUS if count else NO_CONSISTENT_SET,
        items=first if count == 1 else None,
        consistent_count=count,
        eliminated_count=0,
        exhaustive_candidates=matrix.n,
    )
