"""Ground-truth checkers for the three matrix properties.

These are exhaustive and meant for desk-scale instances: they gate
property-conditioned tests and estimate property probabilities
empirically. They are not decoders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    BudgetExceededError,
    InputError,
    PROPERTIES,
    TestMatrix,
    answer_vector,
    validate_items,
    _require_int,
)
from .decode import _consistent_sets, survivor_mask

__all__ = [
    "PropertyReport",
    "is_disjunct_for_item",
    "non_disjunct_items",
    "is_disjunct",
    "separability_witness",
    "is_separable",
    "is_semidisjunct",
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
    allowance n^(1/d) as a float, set only for the semidisjunct property.
    """

    property_name: str
    holds: bool
    witness: tuple[int, ...] | None
    non_disjunct_items: tuple[int, ...]
    threshold: float | None


def is_disjunct_for_item(matrix: TestMatrix, items: Iterable[int], item: int) -> bool:
    """True when some test contains ``item`` and no member of ``items``."""
    members = validate_items(items, matrix.n)
    item = _require_int(item, "item", 1, matrix.n)
    if item in members:
        raise InputError(f"item {item} belongs to the defective set")
    avoiding = answer_vector(matrix, members) == 0
    return bool((matrix.column_bits(item)[avoiding] == 1).any())

def non_disjunct_items(matrix: TestMatrix, items: Iterable[int]) -> tuple[int, ...]:
    """Items outside ``items`` with no witnessing test that avoids ``items``.

    Exactly the clean items elimination cannot remove.
    """
    members = validate_items(items, matrix.n)
    survivors = survivor_mask(matrix, answer_vector(matrix, members))
    survivors[[i - 1 for i in members]] = False
    return tuple((np.flatnonzero(survivors) + 1).tolist())


def is_disjunct(matrix: TestMatrix, items: Iterable[int]) -> bool:
    return len(non_disjunct_items(matrix, items)) == 0


def separability_witness(
    matrix: TestMatrix,
    items: Iterable[int],
    d: int,
    max_items: int = 40,
    max_defectives: int = 4,
) -> tuple[int, ...] | None:
    """First candidate set J != I with |J| <= d and the same answers, or None."""
    d = _require_int(d, "d", 0)
    if matrix.n > max_items or d > max_defectives:
        raise BudgetExceededError(
            f"separability check is capped at n <= {max_items}, d <= {max_defectives}; "
            f"got n={matrix.n}, d={d}"
        )
    members = validate_items(items, matrix.n)
    hits = _consistent_sets(
        matrix, range(1, matrix.n + 1), answer_vector(matrix, members), range(d + 1)
    )
    return next((hit for hit in hits if hit != members), None)


def is_separable(
    matrix: TestMatrix,
    items: Iterable[int],
    d: int,
    max_items: int = 40,
    max_defectives: int = 4,
) -> bool:
    """True when no other candidate of size <= d explains the answers."""
    return separability_witness(matrix, items, d, max_items, max_defectives) is None


def is_semidisjunct(
    matrix: TestMatrix,
    items: Iterable[int],
    d: int,
    max_items: int = 40,
    max_defectives: int = 4,
) -> PropertyReport:
    """Separable, with at most n^(1/d) items lacking a witness test."""
    return check_property(matrix, items, "semidisjunct", d, max_items, max_defectives)


def check_property(
    matrix: TestMatrix,
    items: Iterable[int],
    property_name: str,
    d: int | None = None,
    max_items: int = 40,
    max_defectives: int = 4,
) -> PropertyReport:
    """Check ``property_name`` (one of ``PROPERTIES``) of ``matrix`` for ``items``.

    ``d`` is needed for ``separable`` and ``semidisjunct``. The
    separability scan is capped at ``max_items`` / ``max_defectives``
    (``BudgetExceededError``). For ``semidisjunct`` the unwitnessed-item
    count is checked first (it is cheap), and the separability scan runs
    only when that passes.
    """
    if property_name not in PROPERTIES:
        raise InputError(f"unknown property {property_name!r}")
    threshold = None
    if property_name == "semidisjunct":
        threshold = matrix.n ** (1.0 / _require_int(d, "d", 1))
    members = validate_items(items, matrix.n)
    unwitnessed = non_disjunct_items(matrix, members)
    if property_name == "disjunct" or (threshold is not None and len(unwitnessed) > threshold):
        witness = unwitnessed or None
    else:
        witness = separability_witness(matrix, members, d, max_items, max_defectives)
    return PropertyReport(property_name, witness is None, witness, unwitnessed, threshold)
