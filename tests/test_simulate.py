import dataclasses
import math

import numpy as np
import pytest

from pooltest import simulate
from pooltest.core import BudgetExceededError, InputError
from pooltest.design import disjunct_test_count, make_design
from pooltest.simulate import (
    TrialConfig,
    estimate_property_rate,
    property_trial,
    run_single_trial,
    run_trials,
    trial_instance,
    wilson_interval,
)

DETERMINISTIC_FIELDS = (
    "trials", "successes", "failures", "refusals",
    "success_rate", "wilson_low", "wilson_high",
    "mean_residual", "mean_non_disjunct",
)


def snapshot(report):
    return {f: getattr(report, f) for f in DETERMINISTIC_FIELDS}


def test_reports_are_reproducible():
    cfg = TrialConfig(design=make_design(80, 2, 0.2, "semidisjunct"),
                      trials=40, master_seed=11)
    assert snapshot(run_trials(cfg)) == snapshot(run_trials(cfg))


def test_trials_are_order_insensitive():
    cfg = TrialConfig(design=make_design(60, 2, 0.2, "disjunct"),
                      trials=25, master_seed=5, decoder="disjunct")
    report = run_trials(cfg)
    shuffled = [run_single_trial(cfg, t) for t in np.random.default_rng(0).permutation(25)]
    assert sum(r.success for r in shuffled) == report.successes
    assert sum(r.refused for r in shuffled) == report.refusals


def test_defect_mode_sizes():
    spec = make_design(50, 3, 0.2, "disjunct")
    exact = TrialConfig(design=spec, trials=30, master_seed=21, decoder="disjunct")
    sizes = {len(trial_instance(exact, t)[1]) for t in range(30)}
    assert sizes == {3}
    atmost = TrialConfig(design=spec, trials=30, master_seed=21, decoder="disjunct",
                         defect_mode="at_most_d")
    sizes = sorted({len(trial_instance(atmost, t)[1]) for t in range(30)})
    assert all(0 <= s <= 3 for s in sizes)
    assert len(sizes) >= 2


def test_rrsd_model_trials_run():
    spec = make_design(60, 2, 0.2, "disjunct", model="rrsd")
    cfg = TrialConfig(design=spec, trials=20, master_seed=9, decoder="disjunct")
    report = run_trials(cfg)
    assert report.successes + report.failures == 20
    matrix, _ = trial_instance(cfg, 0)
    assert (matrix.row_weights() == spec.row_weight).all()


def test_wilson_interval():
    low, high = wilson_interval(90, 100)
    assert low == pytest.approx(0.8256343384950865, rel=1e-12)
    assert high == pytest.approx(0.9447708629393249, rel=1e-12)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] > 0.99
    for s, n in ((0, 5), (3, 7), (9, 9)):
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0
    with pytest.raises(InputError):
        wilson_interval(5, 4)


def test_wilson_endpoints_are_exact_at_zero_and_all_successes():
    # the formula gives exactly 0 at 0 successes and exactly 1 at t of t
    for trials in range(1, 2001):
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0


def _over_budget(trials: int, seed: int) -> TrialConfig:
    """A brute-force config whose 2-row matrices at n = 60, d = 6 leave
    most items as survivors: far more than 2^17 sets of size 0..6."""
    spec = dataclasses.replace(make_design(60, 6, 0.2, "separable"), m=2)
    return TrialConfig(design=spec, trials=trials, master_seed=seed, decoder="bruteforce")


def test_a_budget_refusal_comes_after_the_matrix_is_drawn(monkeypatch):
    # the trial draws its matrix, then scans or refuses on its survivors
    draws = []
    gen_rid = simulate.gen_rid
    monkeypatch.setattr(simulate, "gen_rid", lambda *a: draws.append(a) or gen_rid(*a))
    cfg = _over_budget(6, 3)
    assert run_trials(cfg).refusals == 6 and len(draws) == 6
    assert estimate_property_rate(cfg, "separable").refusals == 6 and len(draws) == 12
    # at n = 50, d = 2 its design's 32 x 50 matrices leave few survivors:
    # every trial scans
    cfg = TrialConfig(design=make_design(50, 2, 0.1, "separable"), trials=6, master_seed=3)
    assert estimate_property_rate(cfg, "separable").refusals == 0 and len(draws) == 18


def test_refusals_never_abort_the_batch():
    # bruteforce decoder over its scan budget: every trial refuses
    report = run_trials(_over_budget(8, 2))
    assert report.refusals == 8
    assert report.successes + report.failures + report.refusals == report.trials
    assert report.success_rate == 0.0


def test_only_a_budget_refusal_is_a_refusal():
    # m = 2^63 passes DesignSpec but no generator can draw it: drawing a
    # trial's matrix raises, and the batch stops, for a decode and for a
    # property check that draw the matrix
    spec = dataclasses.replace(make_design(40, 2, 0.2, "disjunct"), m=2**63)
    cfg = TrialConfig(design=spec, trials=3, master_seed=1, decoder="disjunct")
    with pytest.raises(InputError, match="m must be <= 9223372036854775807"):
        run_trials(cfg)
    with pytest.raises(InputError, match="m must be <= 9223372036854775807"):
        estimate_property_rate(cfg, "disjunct")


@pytest.mark.parametrize("trial_of", [
    lambda cfg, t: run_single_trial(cfg, t),
    lambda cfg, t: property_trial(cfg, "semidisjunct", t),
], ids=["decode", "property"])
def test_a_budget_error_inside_the_check_is_the_one_refusal(trial_of, monkeypatch):
    raised = BudgetExceededError

    def failing(*args, **kwargs):
        raise raised("from the check")

    monkeypatch.setattr(simulate, "decode_semidisjunct", failing)
    monkeypatch.setattr(simulate, "check_property", failing)
    cfg = TrialConfig(design=make_design(40, 2, 0.2, "semidisjunct"), trials=1, master_seed=4)
    result = trial_of(cfg, 0)
    assert (result.refused, result.success, result.residual, result.non_disjunct_count) == (
        True, False, None, None)
    assert result.items == trial_instance(cfg, 0)[1]
    assert result.seconds >= 0.0
    raised = InputError
    with pytest.raises(InputError, match="from the check"):
        trial_of(cfg, 0)


def test_timing_fields_are_present_but_not_compared():
    cfg = TrialConfig(design=make_design(40, 2, 0.2, "disjunct"),
                      trials=5, master_seed=1, decoder="disjunct")
    report = run_trials(cfg)
    assert report.mean_seconds >= 0.0
    assert report.max_seconds >= report.mean_seconds


def test_config_validation():
    spec = make_design(40, 2, 0.2, "disjunct")
    with pytest.raises(InputError):
        TrialConfig(design=spec, trials=0, master_seed=1)
    with pytest.raises(InputError):
        TrialConfig(design=spec, trials=5, master_seed=1, decoder="magic")
    for design in ("x", None, dataclasses.asdict(spec)):
        with pytest.raises(InputError, match="^design must be a DesignSpec"):
            TrialConfig(design=design, trials=1, master_seed=0)


# ---------------------------------------------------------------------------
# Empirical design guarantees (seeded, deterministic)
# ---------------------------------------------------------------------------

def test_disjunct_design_meets_its_guarantee():
    n, d, delta, trials = 500, 2, 0.2, 1000
    spec = make_design(n, d, delta, "disjunct")
    assert spec.m == disjunct_test_count(n, d, delta)
    cfg = TrialConfig(design=spec, trials=trials, master_seed=314, decoder="disjunct")
    report = estimate_property_rate(cfg, "disjunct")
    sigma = math.sqrt(delta * (1 - delta) / trials)
    assert report.success_rate >= 1 - delta - 3 * sigma
    assert report.mean_non_disjunct is not None


def test_separable_design_meets_its_guarantee():
    n, d, delta, trials = 30, 2, 0.2, 500
    cfg = TrialConfig(design=make_design(n, d, delta, "separable"),
                      trials=trials, master_seed=159, decoder="bruteforce")
    report = estimate_property_rate(cfg, "separable")
    sigma = math.sqrt(delta * (1 - delta) / trials)
    assert report.success_rate >= 1 - delta - 3 * sigma


def test_semidisjunct_rate_dominates_disjunct_rate_on_matched_trials():
    # same matrices, same defective sets: holds pair by pair, so also in rate
    spec = make_design(30, 2, 0.2, "disjunct")
    cfg = TrialConfig(design=spec, trials=150, master_seed=77, decoder="disjunct")
    for t in range(0, 150, 10):
        disj = property_trial(cfg, "disjunct", t)
        semi = property_trial(cfg, "semidisjunct", t)
        assert semi.items == disj.items
        assert semi.success >= disj.success
    semi_rate = estimate_property_rate(cfg, "semidisjunct").success_rate
    disj_rate = estimate_property_rate(cfg, "disjunct").success_rate
    assert semi_rate >= disj_rate


def test_mean_residual_obeys_the_design_allowance():
    n, d, delta, trials = 100, 2, 0.2, 200
    cfg = TrialConfig(design=make_design(n, d, delta, "semidisjunct"),
                      trials=trials, master_seed=41)
    residuals = [run_single_trial(cfg, t).residual for t in range(trials)]
    assert all(r is not None for r in residuals)
    mean_extra = sum(residuals) / trials - d
    spread = np.std(residuals) / math.sqrt(trials)
    assert mean_extra <= n ** (1 / d) + 3 * spread
    report = run_trials(cfg)
    assert report.mean_residual == pytest.approx(sum(residuals) / trials)
    assert report.mean_non_disjunct is None
