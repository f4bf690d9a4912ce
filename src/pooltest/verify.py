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
    _require_choice,
    _require_int,
)
from .decode import _consistent_sets, _require_desk_scale, _residue

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
    return check_property(matrix, items, "disjunct").non_disjunct_items


def is_disjunct(matrix: TestMatrix, items: Iterable[int]) -> bool:
    return len(non_disjunct_items(matrix, items)) == 0


def separability_witness(
    matrix: TestMatrix, items: Iterable[int], d: int
) -> tuple[int, ...] | None:
    """First candidate set J != I with |J| <= d and the same answers, or None."""
    d = _require_int(d, "d", 0)
    _require_desk_scale("separability check", matrix.n, d)
    return check_property(matrix, items, "separable", d).witness


def is_separable(matrix: TestMatrix, items: Iterable[int], d: int) -> bool:
    """True when no other candidate of size <= d explains the answers."""
    return separability_witness(matrix, items, d) is None


def check_property(
    matrix: TestMatrix, items: Iterable[int], property_name: str, d: int | None = None
) -> PropertyReport:
    """Check ``property_name`` (one of ``PROPERTIES``) of ``matrix`` for ``items``.

    ``d`` is needed for ``separable`` and ``semidisjunct``. Each reads one
    residue, the survivors of the answers of ``items``: the unwitnessed
    items are the survivors outside ``items``, and the separability scan,
    capped at ``MAX_DESK_ITEMS`` / ``MAX_DESK_DEFECTIVES``
    (``BudgetExceededError``), tries their sets of size 0..d. For
    ``semidisjunct`` the scan runs only when the unwitnessed-item count u is
    within its allowance, u^d <= n, compared in integers, so exact powers
    are judged exactly. The single checks are views of this one.
    """
    _require_choice(property_name, "property", PROPERTIES)
    threshold = None
    if property_name == "semidisjunct":
        d = _require_int(d, "d", 1)
        threshold = matrix.n ** (1.0 / d)
    members = validate_items(items, matrix.n)
    n, answers, survivors, cells_of = _residue(matrix, answer_vector(matrix, members))
    unwitnessed = tuple(sorted(set(survivors).difference(members)))
    # for u >= 2 and d >= b, the bit length of n, u^d >= u^b >= 2^b > n
    over = threshold is not None and len(unwitnessed) ** min(d, int(n).bit_length()) > n
    if property_name == "disjunct" or over:
        witness = unwitnessed or None
    else:
        d = _require_int(d, "d", 0)
        _require_desk_scale("separability check", n, d)
        hits = _consistent_sets(cells_of(), survivors, answers, range(d + 1))
        witness = next((hit for hit in hits if hit != members), None)
    return PropertyReport(property_name, witness is None, witness, unwitnessed, threshold)
