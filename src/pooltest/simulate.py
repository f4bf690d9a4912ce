"""Seeded Monte Carlo harness for end-to-end decode success and property rates.

Every trial derives its own seeds from ``(master_seed, trial_index)``, so
trials are independent work items: running them in any order, or one at a
time, reproduces the same aggregate report. Wall-clock timings are the one
exception — they are measured on a monotonic clock and excluded from all
determinism guarantees.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass
from math import sqrt
from typing import Iterable

import numpy as np

from .core import (
    BudgetExceededError, DesignSpec, InputError, TestMatrix, answer_vector,
    _require_choice, _require_int,
)
from .decode import (
    DECODED,
    _over_desk_scale,
    decode_disjunct,
    decode_semidisjunct,
    decode_separable_bruteforce,
)
from .randgen import gen_rid, gen_rrsd
from .verify import check_property
from .verify import non_disjunct_items  # not called here; perfbench's tracer wraps this name

__all__ = [
    "DEFECT_MODES",
    "DECODERS",
    "TrialConfig",
    "TrialResult",
    "SimulationReport",
    "wilson_interval",
    "run_single_trial",
    "run_trials",
    "property_trial",
    "estimate_property_rate",
]

DEFECT_MODES = ("exactly_d", "at_most_d")
DECODERS = ("disjunct", "semidisjunct", "bruteforce")


@dataclass(frozen=True)
class TrialConfig:
    """One simulation configuration.

    ``defect_mode`` draws the true defective set: ``exactly_d`` always uses
    size d; ``at_most_d`` draws a uniform size in 0..d, then a uniform set
    of that size. Every trial draws its own matrix from the design.
    """

    design: DesignSpec
    trials: int
    master_seed: int
    decoder: str = "semidisjunct"
    defect_mode: str = "exactly_d"

    def __post_init__(self):
        if not isinstance(self.design, DesignSpec):
            raise InputError(f"design must be a DesignSpec, got {self.design!r}")
        _require_int(self.trials, "trials", 1)
        _require_int(self.master_seed, "master_seed", 0)
        _require_choice(self.decoder, "decoder", DECODERS)
        _require_choice(self.defect_mode, "defect_mode", DEFECT_MODES)


@dataclass(frozen=True)
class TrialResult:
    items: tuple[int, ...]
    success: bool
    refused: bool
    residual: int | None
    non_disjunct_count: int | None
    seconds: float


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate of a trial batch; successes + failures + refusals = trials."""

    trials: int
    successes: int
    failures: int
    refusals: int
    success_rate: float
    wilson_low: float
    wilson_high: float
    mean_seconds: float
    max_seconds: float
    mean_residual: float | None
    mean_non_disjunct: float | None

    def __post_init__(self):
        if self.successes + self.failures + self.refusals != self.trials:
            raise InputError("successes + failures + refusals must equal trials")


# two-sided 95% standard normal quantile
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    successes = _require_int(successes, "successes", 0)
    trials = _require_int(trials, "trials", 1, None)
    if successes > trials:
        raise InputError("successes must be <= trials")
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = _Z95 * sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    # at 0 and at trials successes the formula's endpoint is exactly 0 or 1,
    # which center -/+ half misses by a rounding error
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _matrix_seed(master_seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([master_seed, trial, 0]).generate_state(1, np.uint64)[0])


def _defect_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial, 1]))


def _trial_items(cfg: TrialConfig, trial: int) -> tuple[int, ...]:
    """The defective set of one trial, drawn apart from its matrix."""
    _require_int(trial, "trial", 0)
    design = cfg.design
    rng = _defect_rng(cfg.master_seed, trial)
    if cfg.defect_mode == "exactly_d":
        size = design.d
    else:
        size = int(rng.integers(0, design.d + 1))
    return tuple(sorted(int(i) + 1 for i in rng.choice(design.n, size=size, replace=False)))


def trial_instance(cfg: TrialConfig, trial: int) -> tuple[TestMatrix, tuple[int, ...]]:
    """The (matrix, defective set) pair of one trial; pure in (cfg, trial)."""
    items = _trial_items(cfg, trial)
    design = cfg.design
    seed = _matrix_seed(cfg.master_seed, trial)
    if design.model == "rid":
        matrix = gen_rid(design.m, design.n, design.zero_prob, seed)
    else:
        matrix = gen_rrsd(design.m, design.n, design.row_weight, seed)
    return matrix, items


def _run_trial(cfg: TrialConfig, trial: int, capped: bool, answered: bool, check) -> TrialResult:
    """One trial around ``check``, the one step timed. A ``capped`` check
    over the desk cap on (n, d) is refused before any draw. Otherwise the
    instance is drawn, and answered when ``answered``; ``check(matrix, items,
    answers)`` gives (success, residual, non_disjunct_count) or raises
    ``BudgetExceededError``, a refusal.
    """
    found = None
    if capped and _over_desk_scale(cfg.design.n, cfg.design.d):
        items = _trial_items(cfg, trial)
        start = time.perf_counter()
    else:
        matrix, items = trial_instance(cfg, trial)
        answers = answer_vector(matrix, items) if answered else None
        start = time.perf_counter()
        with suppress(BudgetExceededError):
            found = check(matrix, items, answers)
    seconds = time.perf_counter() - start
    success, residual, non_disjunct_count = found or (False, None, None)
    return TrialResult(items, success, found is None, residual, non_disjunct_count, seconds)


def run_single_trial(cfg: TrialConfig, trial: int) -> TrialResult:
    """Draw, answer, decode one trial. Success means exact set recovery.

    The exhaustive decoder refuses a design over its desk cap on (n, d)
    alone, so such a trial is refused before its matrix is drawn.
    """
    def decode(matrix, items, answers):
        if cfg.decoder == "disjunct":
            outcome = decode_disjunct(matrix, answers)
        elif cfg.decoder == "semidisjunct":
            outcome = decode_semidisjunct(matrix, answers, cfg.design.d)
        else:
            outcome = decode_separable_bruteforce(matrix, answers, cfg.design.d)
        success = outcome.status == DECODED and outcome.items == items
        return success, matrix.n - outcome.eliminated_count, None

    return _run_trial(cfg, trial, capped=cfg.decoder == "bruteforce", answered=True, check=decode)


def property_trial(cfg: TrialConfig, property_name: str, trial: int) -> TrialResult:
    """Check one trial's matrix for a property instead of decoding.

    Uses the identical instance derivation as ``run_single_trial``, so
    property rates for different properties are matched pair by pair. The
    separability check, like the exhaustive decoder, refuses on (n, d)
    before the matrix is drawn.
    """
    def check(matrix, items, answers):
        report = check_property(matrix, items, property_name, cfg.design.d)
        return report.holds, None, len(report.non_disjunct_items)

    return _run_trial(cfg, trial, capped=property_name == "separable", answered=False, check=check)


def _aggregate(results: Iterable[TrialResult], trials: int) -> SimulationReport:
    successes = failures = refusals = 0
    seconds = []
    residuals = []
    unwitnessed = []
    for res in results:
        if res.refused:
            refusals += 1
        elif res.success:
            successes += 1
        else:
            failures += 1
        seconds.append(res.seconds)
        if res.residual is not None:
            residuals.append(res.residual)
        if res.non_disjunct_count is not None:
            unwitnessed.append(res.non_disjunct_count)
    low, high = wilson_interval(successes, trials)
    return SimulationReport(
        trials=trials,
        successes=successes,
        failures=failures,
        refusals=refusals,
        success_rate=successes / trials,
        wilson_low=low,
        wilson_high=high,
        mean_seconds=sum(seconds) / len(seconds),
        max_seconds=max(seconds),
        mean_residual=sum(residuals) / len(residuals) if residuals else None,
        mean_non_disjunct=sum(unwitnessed) / len(unwitnessed) if unwitnessed else None,
    )


def run_trials(cfg: TrialConfig) -> SimulationReport:
    """Decode-success report over cfg.trials independent seeded trials.

    A trial the decoder refuses on its work budget (``BudgetExceededError``)
    counts as a refusal and never aborts the batch. Any other error, such as
    a matrix the generator cannot draw, propagates.
    """
    return _aggregate((run_single_trial(cfg, t) for t in range(cfg.trials)), cfg.trials)


def estimate_property_rate(cfg: TrialConfig, property_name: str) -> SimulationReport:
    """Property-acceptance report over cfg.trials seeded trials, refused as in ``run_trials``."""
    return _aggregate(
        (property_trial(cfg, property_name, t) for t in range(cfg.trials)), cfg.trials
    )
