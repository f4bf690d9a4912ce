"""Ground-truth checkers for the three matrix properties.

These are exhaustive and meant for desk-scale instances: they gate
property-conditioned tests and estimate property probabilities
empirically. They are not decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    PROPERTIES,
    TestMatrix,
    answer_vector,
    validate_items,
    _cells,
    _require_choice,
    _require_int,
)
from .decode import _consistent_sets, _require_desk_scale, _survivors

__all__ = [
    "PropertyReport",
    "non_disjunct_items",
    "is_disjunct",
    "separability_witness",
    "is_separable",
    "check_property",
]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a property check.

    ``witness`` explains a failure: a confusable candidate set for a
    separability break (an empty tuple is the empty set), or the
    unwitnessed-item set for a disjunct or allowance break. It is None
    exactly when the property holds. ``non_disjunct_items`` always lists the
    items lacking a clean witness test. ``threshold`` is the unwitnessed-item
    allowance n^(1/d) as a float, set only for the semidisjunct property; it
    is shown, not compared (``check_property`` compares in integers).
    """

    property_name: str
    holds: bool
    witness: tuple[int, ...] | None
    non_disjunct_items: tuple[int, ...]
    threshold: float | None


def non_disjunct_items(matrix: TestMatrix, items: Iterable[int]) -> tuple[int, ...]:
    """Items outside ``items`` with no witnessing test that avoids ``items``.

    Exactly the clean items elimination cannot remove.
    """
    members = validate_items(items, matrix.n)
    survivors = _survivors(matrix, answer_vector(matrix, members)) + 1
    defective = set(members)
    return tuple(i for i in survivors.tolist() if i not in defective)


def is_disjunct(matrix: TestMatrix, items: Iterable[int]) -> bool:
    return len(non_disjunct_items(matrix, items)) == 0


def separability_witness(
    matrix: TestMatrix, items: Iterable[int], d: int
) -> tuple[int, ...] | None:
    """First candidate set J != I with |J| <= d and the same answers, or None."""
    d = _require_int(d, "d", 0)
    _require_desk_scale("separability check", matrix.n, d)
    members = validate_items(items, matrix.n)
    answers = answer_vector(matrix, members)
    survivors = tuple((_survivors(matrix, answers) + 1).tolist())
    hits = _consistent_sets(_cells(matrix, survivors), survivors, answers, range(d + 1))
    return next((hit for hit in hits if hit != members), None)


def is_separable(matrix: TestMatrix, items: Iterable[int], d: int) -> bool:
    """True when no other candidate of size <= d explains the answers."""
    return separability_witness(matrix, items, d) is None


def check_property(
    matrix: TestMatrix, items: Iterable[int], property_name: str, d: int | None = None
) -> PropertyReport:
    """Check ``property_name`` (one of ``PROPERTIES``) of ``matrix`` for ``items``.

    ``d`` is needed for ``separable`` and ``semidisjunct``. The
    separability scan is capped at ``MAX_DESK_ITEMS`` / ``MAX_DESK_DEFECTIVES``
    (``BudgetExceededError``). For ``semidisjunct`` the unwitnessed-item
    count u is checked first (it is cheap): the allowance holds when
    u^d <= n, compared in integers, so exact powers are judged exactly. The
    separability scan runs only when that passes.
    """
    _require_choice(property_name, "property", PROPERTIES)
    threshold = None
    if property_name == "semidisjunct":
        d = _require_int(d, "d", 1)
        threshold = matrix.n ** (1.0 / d)
    members = validate_items(items, matrix.n)
    unwitnessed = non_disjunct_items(matrix, members)
    if property_name == "disjunct" or (threshold is not None and len(unwitnessed) ** d > matrix.n):
        witness = unwitnessed or None
    else:
        witness = separability_witness(matrix, members, d)
    return PropertyReport(property_name, witness is None, witness, unwitnessed, threshold)
