"""Closed-form design mathematics for randomized pool designs.

Two row models are supported. In the ``rid`` model every cell is drawn
independently, zero with probability p; in the ``rrsd`` model every row is
an independent uniform subset of exactly r items. Natural logarithms are
used throughout, and ``ln(x)^-1`` below always abbreviates ``ln(1/x)``.

The test counts returned here make a random m x n matrix satisfy, with
probability at least 1 - delta, one of three decoding properties for an
unknown defective set I of size at most d:

* ``disjunct``   -- every clean item appears in some test that avoids I,
  so plain elimination recovers I.  Optimal zero probability d/(d+1);
  m = ceil(g(d) * (ln n + ln(1/delta))) where

      g(d) = 1 / ln(1 - (1/d) * (1 - 1/(d+1))^(d+1))^-1.

* ``separable``  -- no other candidate set of size <= d explains the
  answers.  Optimal zero probability 1 - 1/d; the count is the maximum
  over reduced index w = 0..d-1 of a union-bound budget per family of
  confusable sets (see ``separable_test_terms``).

* ``semidisjunct`` -- separable, and all but at most n^(1/d) clean items
  are eliminable, which bounds the exhaustive finish.  Zero probability
  1 - 1/d and m = max(m_semi, m_separable), where

      m_semi = ceil(((1 - 1/d) ln n + ln(1/delta) + d ln 2 + 2 ln d)
                    / ln(1 - (1/d) (1 - 1/d)^d)^-1)

  and m_separable is the separable count, the floor that separability
  itself needs.

The per-ln-n coefficients reported by ``coefficient_table`` satisfy
g(d-1) < semidisjunct < g(d) for every d >= 2; the semidisjunct column
approaches the separable column as d grows.

Known numerical caveats (verified by the test suite):

* At d = 2 the equal-size confusable family at reduced index w = 0
  dominates the usual bound: ``equal_pair_rate(2, 0, 1/2) = 4.2553``
  exceeds ``nested_pair_rate(2, 1, 1/2) = 3.4761``, so the d = 2
  separable count has ln-n slope 4.2553 for large n, not g(1).
* At moderate n the additive ``d ln 2 + 2 ln d`` term makes the
  semidisjunct count exceed the disjunct count for d >= 3; the
  semidisjunct advantage is asymptotic in n.
* The separable floor binds only at d = 2: m_semi has ln-n slope 3.7444,
  below the 4.2553 of the equal-size family above, so from n = 10^24 on
  (delta = 0.1) the d = 2 semidisjunct count is the separable count and
  grows with slope 4.2553. For d >= 3 and n up to 10^300 the floor never
  binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DesignSpec, InputError, BudgetExceededError, MODELS, PROPERTIES, _require_choice,
    _require_int, _require_open_unit,
)

__all__ = [
    "TermValue",
    "TermWitness",
    "CoefficientRow",
    "disjunct_coefficient",
    "disjunct_coefficient_series",
    "semidisjunct_coefficient",
    "log_n_coefficient",
    "coefficient_table",
    "optimal_zero_prob",
    "disjunct_test_count",
    "separable_test_terms",
    "separable_test_count",
    "semidisjunct_test_count",
    "required_tests",
    "make_design",
    "rid_equal_answer_prob",
    "separability_failure_term",
    "max_failure_term",
    "max_failure_term_bruteforce",
    "nested_pair_rate",
    "equal_pair_rate",
    "nested_pair_rate_minimizer",
    "equal_pair_rate_minimizer",
    "rrsd_avoid_prob",
    "rrsd_equal_answer_prob",
]

_E = math.e


def _neg_log1m(z: float) -> float:
    """ln(1 - z)^-1, computed stably for small z; +inf once z rounds to 1."""
    if z >= 1.0:
        return math.inf
    return -math.log1p(-z)


def disjunct_coefficient(d: int) -> float:
    """Coefficient of (ln n + ln(1/delta)) in the disjunct test count.

    Equals 1 / ln(1 - (1/d) * (d/(d+1))^(d+1))^-1.
    """
    d = _require_int(d, "d", 1)
    z = ((d / (d + 1.0)) ** (d + 1)) / d
    return 1.0 / _neg_log1m(z)


def disjunct_coefficient_series(d: int) -> float:
    """Three-term large-d series for ``disjunct_coefficient``:
    e*d + (e-1)/2 - ((e^2+2)/(24e))/d.
    """
    d = _require_int(d, "d", 1)
    return _E * d + (_E - 1.0) / 2.0 - ((_E * _E + 2.0) / (24.0 * _E)) / d


def semidisjunct_coefficient(d: int) -> float:
    """ln-n coefficient of the semidisjunct test count:
    (1 - 1/d) / ln(1 - (1/d) (1 - 1/d)^d)^-1.
    """
    d = _require_int(d, "d", 2)
    z = (((d - 1.0) / d) ** d) / d
    return (1.0 - 1.0 / d) / _neg_log1m(z)


@dataclass(frozen=True)
class CoefficientRow:
    """Per-ln-n coefficients of the three designs at one d."""

    d: int
    disjunct: float
    separable: float
    semidisjunct: float


def log_n_coefficient(property_name: str, d: int) -> float:
    """ln-n coefficient of the ``property_name`` test count at d: g(d) for
    disjunct, g(d-1) for separable, ``semidisjunct_coefficient(d)`` for
    semidisjunct."""
    _require_choice(property_name, "property", PROPERTIES)
    if property_name == "disjunct":
        return disjunct_coefficient(d)
    d = _require_int(d, "d", 2)
    if property_name == "separable":
        return disjunct_coefficient(d - 1)
    return semidisjunct_coefficient(d)


def coefficient_table(d_max: int) -> list[CoefficientRow]:
    d_max = _require_int(d_max, "d_max", 2)
    return [
        CoefficientRow(d, **{prop: log_n_coefficient(prop, d) for prop in PROPERTIES})
        for d in range(2, d_max + 1)
    ]


def optimal_zero_prob(property_name: str, d: int) -> float:
    """Cell zero-probability minimizing the test count for a property."""
    _require_choice(property_name, "property", PROPERTIES)
    if property_name == "disjunct":
        d = _require_int(d, "d", 1)
        return d / (d + 1.0)
    d = _require_int(d, "d", 2)
    return (d - 1.0) / d


def disjunct_test_count(n: int, d: int, delta: float) -> int:
    n = _require_int(n, "n", 2)
    d = _require_int(d, "d", 1)
    delta = _require_open_unit(delta, "delta")
    return math.ceil(disjunct_coefficient(d) * (math.log(n) + math.log(1.0 / delta)))


def separable_test_terms(n: int, d: int, delta: float) -> list[float]:
    """Per-index test budgets whose maximum is the separable count.

    Term w, for w = 0..d-1, is

        ((d-w) ln n + ln(1/delta) + 2 ln d + d ln 2)
        / min(ln(1 - 2p^d + 2p^(2d-w))^-1, ln(1 + p^d - p^w)^-1)

    evaluated at p = 1 - 1/d. The two denominators are the decay rates of
    the equal-size and nested confusable-set families at index w.
    """
    n = _require_int(n, "n", 2)
    d = _require_int(d, "d", 1)
    if d < 2:
        raise InputError("d must be >= 2 for separable")
    delta = _require_open_unit(delta, "delta")
    p = (d - 1.0) / d
    additive = math.log(1.0 / delta) + 2.0 * math.log(d) + d * math.log(2.0)
    terms = []
    for w in range(d):
        den_equal = _neg_log1m(2.0 * p**d - 2.0 * p ** (2 * d - w))
        den_nested = _neg_log1m(p**w - p**d)
        terms.append(((d - w) * math.log(n) + additive) / min(den_equal, den_nested))
    return terms


def separable_test_count(n: int, d: int, delta: float) -> int:
    return math.ceil(max(separable_test_terms(n, d, delta)))


def semidisjunct_test_count(n: int, d: int, delta: float) -> int:
    """max(m_semi, separable_test_count(n, d, delta)); see the module notes."""
    n = _require_int(n, "n", 2)
    d = _require_int(d, "d", 1)
    if d < 2:
        raise InputError("d must be >= 2 for semidisjunct")
    delta = _require_open_unit(delta, "delta")
    z = (((d - 1.0) / d) ** d) / d
    numerator = (
        (1.0 - 1.0 / d) * math.log(n)
        + math.log(1.0 / delta)
        + d * math.log(2.0)
        + 2.0 * math.log(d)
    )
    return max(math.ceil(numerator / _neg_log1m(z)), separable_test_count(n, d, delta))


def required_tests(property_name: str, n: int, d: int, delta: float) -> int:
    _require_choice(property_name, "property", PROPERTIES)
    if property_name == "disjunct":
        return disjunct_test_count(n, d, delta)
    if property_name == "separable":
        return separable_test_count(n, d, delta)
    return semidisjunct_test_count(n, d, delta)


def make_design(
    n: int, d: int, delta: float, property_name: str, model: str = "rid"
) -> DesignSpec:
    """Resolve a full design: test count plus the model parameter.

    ``rid`` uses the property's optimal zero probability; ``rrsd`` uses
    row weight round(n/d), the constant-weight analogue of cell
    one-probability 1/d (clamped to [1, n]).
    """
    m = required_tests(property_name, n, d, delta)
    _require_choice(model, "model", MODELS)
    if model == "rid":
        return DesignSpec(
            n=n, d=d, delta=float(delta), model="rid", property_name=property_name,
            m=m, zero_prob=optimal_zero_prob(property_name, d),
        )
    r = min(int(n), max(1, round(n / d)))
    return DesignSpec(
        n=n, d=d, delta=float(delta), model="rrsd", property_name=property_name,
        m=m, row_weight=r,
    )


# ---------------------------------------------------------------------------
# Confusable-pair analysis for separability
# ---------------------------------------------------------------------------

def _check_pair(d1: int, d2: int, k: int) -> tuple[int, int, int]:
    d1 = _require_int(d1, "d1", 0)
    d2 = _require_int(d2, "d2", 0)
    k = _require_int(k, "k", 0)
    if k > min(d1, d2):
        raise InputError(f"k must be <= min(d1, d2), got k={k}, d1={d1}, d2={d2}")
    return d1, d2, k


def rid_equal_answer_prob(d1: int, d2: int, k: int, p: float) -> float:
    """Probability that one random row answers equally for a true set of
    size d1 and a candidate of size d2 sharing k items:

        1 - p^d2 - p^d1 + 2 p^(d1 + d2 - k).
    """
    d1, d2, k = _check_pair(d1, d2, k)
    p = _require_open_unit(p, "p")
    return 1.0 - p**d2 - p**d1 + 2.0 * p ** (d1 + d2 - k)


class TermValue(NamedTuple):
    """A failure-probability mass, carried in log space.

    ``value`` is exp(log); it may round to 0.0 or overflow to inf when the
    mass is not representable in double precision.
    """

    log: float
    value: float


@dataclass(frozen=True)
class TermWitness:
    """Index (d1, d2, k) of a confusable-pair family, with the reduced
    index w it belongs to when known."""

    d1: int
    d2: int
    k: int
    w: int | None = None


def separability_failure_term(
    n: int, d1: int, d2: int, k: int, p: float, m: int
) -> TermValue:
    """Union-bound mass of one family: n^(d2-k) * equal_answer_prob^m.

    Computed in log space so n^(d2-k) cannot overflow.
    """
    n = _require_int(n, "n", 2)
    m = _require_int(m, "m", 1)
    coll = rid_equal_answer_prob(d1, d2, k, p)
    log = (d2 - k) * math.log(n) + (m * math.log(coll) if coll > 0.0 else -math.inf)
    return TermValue(log=log, value=math.exp(log))


def max_failure_term(n: int, d: int, p: float, m: int) -> tuple[TermValue, TermWitness]:
    """Largest union-bound mass over the 2d-member reduced family
    { (d, d, w), (w, d, w) : w = 0..d-1 }, with its witness.

    The reduced family attains the maximum over all admissible
    (d1, d2, k); ``max_failure_term_bruteforce`` is the exhaustive check.
    """
    d = _require_int(d, "d", 2)
    best: TermValue | None = None
    best_witness: TermWitness | None = None
    for w in range(d):
        for d1, d2, k in ((d, d, w), (w, d, w)):
            term = separability_failure_term(n, d1, d2, k, p, m)
            if best is None or term.log > best.log:
                best = term
                best_witness = TermWitness(d1=d1, d2=d2, k=k, w=w)
    assert best is not None and best_witness is not None
    return best, best_witness


def max_failure_term_bruteforce(
    n: int, d: int, p: float, m: int
) -> tuple[TermValue, tuple[int, int, int]]:
    """Exhaustive maximum over all (d1, d2, k) with d1, d2 <= d and
    k <= min(d1, d2), excluding the identical-set triple d1 = d2 = k.

    Desk-scale oracle; refuses d > 8.
    """
    d = _require_int(d, "d", 2)
    if d > 8:
        raise BudgetExceededError(f"bruteforce maximum is capped at d <= 8, got d={d}")
    best: TermValue | None = None
    best_triple: tuple[int, int, int] | None = None
    for d1 in range(d + 1):
        for d2 in range(d + 1):
            for k in range(min(d1, d2) + 1):
                if d1 == d2 == k:
                    continue
                term = separability_failure_term(n, d1, d2, k, p, m)
                if best is None or term.log > best.log:
                    best = term
                    best_triple = (d1, d2, k)
    assert best is not None and best_triple is not None
    return best, best_triple


def _check_rate_args(d: int, w: int, p: float) -> tuple[int, int, float]:
    d = _require_int(d, "d", 1)
    w = _require_int(w, "w", 0, d - 1)
    return d, w, _require_open_unit(p, "p")


def nested_pair_rate(d: int, w: int, p: float) -> float:
    """Tests per ln n to defeat nested confusable pairs at index w:
    (d - w) / ln(1 + p^d - p^w)^-1.  Returns +inf when the denominator
    vanishes, so p-grid searches stay total.
    """
    d, w, p = _check_rate_args(d, w, p)
    den = _neg_log1m(p**w - p**d)
    return (d - w) / den if den > 0.0 else math.inf


def equal_pair_rate(d: int, w: int, p: float) -> float:
    """Tests per ln n to defeat equal-size confusable pairs at index w:
    (d - w) / ln(1 - 2p^d + 2p^(2d-w))^-1.  Returns +inf when the
    denominator vanishes.
    """
    d, w, p = _check_rate_args(d, w, p)
    den = _neg_log1m(2.0 * p**d - 2.0 * p ** (2 * d - w))
    return (d - w) / den if den > 0.0 else math.inf


def nested_pair_rate_minimizer(d: int, w: int) -> float:
    """Global minimizer of ``nested_pair_rate`` in p: (w/d)^(1/(d-w))."""
    d = _require_int(d, "d", 1)
    w = _require_int(w, "w", 0, d - 1)
    return (w / d) ** (1.0 / (d - w))


def equal_pair_rate_minimizer(d: int, w: int) -> float:
    """Global minimizer of ``equal_pair_rate`` in p: (d/(2d-w))^(1/(d-w))."""
    d = _require_int(d, "d", 1)
    w = _require_int(w, "w", 0, d - 1)
    return (d / (2.0 * d - w)) ** (1.0 / (d - w))


# ---------------------------------------------------------------------------
# Constant-weight (rrsd) rows
# ---------------------------------------------------------------------------

def rrsd_avoid_prob(n: int, r: int, x: int) -> float:
    """Probability that a uniform weight-r row avoids x fixed items:
    prod_{i=1..x} (1 - r / (n - i + 1)).

    The product form stays stable at n = 10^6 where factorial ratios would
    not. Exactly zero when x > n - r (the row cannot avoid that many
    columns).
    """
    n = _require_int(n, "n", 1)
    r = _require_int(r, "r", 1, n)
    x = _require_int(x, "x", 0, n)
    if x > n - r:
        return 0.0
    q = 1.0
    for i in range(1, x + 1):
        q *= 1.0 - r / (n - i + 1.0)
    return q


def rrsd_equal_answer_prob(n: int, r: int, d1: int, d2: int, k: int) -> float:
    """Equal-answer probability of one constant-weight-r row for sets of
    sizes d1 and d2 overlapping in k items:

        1 - q(d1) - q(d2) + 2 q(d1 + d2 - k)

    where q(x) = ``rrsd_avoid_prob(n, r, x)``. Converges to the rid value
    at p = 1 - r/n with error O(d^2 (1-p) / n).
    """
    d1, d2, k = _check_pair(d1, d2, k)
    if d1 + d2 - k > n:
        raise InputError(f"d1 + d2 - k must be <= n, got {d1 + d2 - k} > {n}")
    return (
        1.0
        - rrsd_avoid_prob(n, r, d1)
        - rrsd_avoid_prob(n, r, d2)
        + 2.0 * rrsd_avoid_prob(n, r, d1 + d2 - k)
    )
