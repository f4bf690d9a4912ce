"""Tests of the benchmark itself: span arithmetic, metric names, wrappers.

    python3 -m pytest perfbench
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pooltest import cli, core, decode, randgen, simulate  # noqa: E402
from pooltest.core import BudgetExceededError  # noqa: E402
from pooltest.design import make_design  # noqa: E402
from pooltest.simulate import TrialConfig  # noqa: E402
from tracing import Span  # noqa: E402


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0, None)


def test_self_time_subtracts_nested_and_adjacent_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # adjacent to a
        span("c", 4.0, 5.0, parent=2),  # nested in b
        span("d", 6.0, 6.5, parent=0),  # adjacent to b
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 2.0, 1.0, 0.5])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_covered_merges_overlaps_and_clips_to_the_span():
    intervals = [(1, 4), (2, 3), (3, 5), (9, 12), (-2, 0.5)]
    assert tracing.covered(0.0, 10.0, intervals) == pytest.approx(5.5)
    assert tracing.covered(0.0, 1.0, []) == 0.0


def test_busy_time_counts_a_recursive_span_once():
    spans = [span("f", 0.0, 4.0), span("f", 1.0, 2.0, parent=0), span("g", 5.0, 6.0),
             span("f", 5.2, 5.8, parent=2)]
    assert tracing.busy_time(spans, "f") == pytest.approx(4.6)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "search_mix", "--seed", "1", "--seconds", "0.3",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = tracing.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in table}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_uninstall_restores_every_original():
    before = [getattr(m, a) for m, a, _, _ in tracing.targets()]
    t = tracing.Tracer()
    t.install(tracing.targets())
    assert all(getattr(m, a) is not f for (m, a, _, _), f in zip(tracing.targets(), before))
    t.uninstall()
    assert [getattr(m, a) for m, a, _, _ in tracing.targets()] == before


def run_pipeline(tmp_path):
    """generate -> answer -> decode through cli.main; stdout and file bytes."""
    files = [str(tmp_path / name) for name in ("m.gtm1", "a.txt", "d.txt")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = [
            cli.main(["generate", "--n", "300", "--d", "3", "--delta", "0.1",
                      "--property", "semi", "--seed", "9", "--out", files[0]]),
            cli.main(["answer", "--matrix", files[0], "--items", "4 77 200", "--out", files[1]]),
            cli.main(["decode", "--matrix", files[0], "--answers", files[1], "--d", "3",
                      "--out", files[2]]),
            cli.main(["simulate", "--n", "200", "--d", "2", "--delta", "0.1",
                      "--property", "semi", "--trials", "5", "--seed", "3"]),
        ]
    return codes, out.getvalue(), [Path(f).read_bytes() for f in files]


def trial_results():
    spec = make_design(2000, 3, 0.1, "semidisjunct")
    cfg = TrialConfig(design=spec, trials=4, master_seed=11)
    matrix = randgen.gen_rid(60, 500, 0.7, 5)
    answers = core.answer_vector(matrix, (3, 40, 41))
    return (
        [dataclasses.replace(simulate.run_single_trial(cfg, t), seconds=0.0) for t in range(4)],
        matrix,
        decode.decode_semidisjunct(matrix, answers, 3),
        decode.eliminate(matrix, answers),
    )


def test_wrapped_functions_return_exactly_what_the_unwrapped_ones_do(tmp_path):
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = run_pipeline(plain_dir), trial_results()
    t = tracing.Tracer()
    t.install(tracing.targets())
    try:
        traced = run_pipeline(traced_dir), trial_results()
    finally:
        t.uninstall()
    assert traced == plain
    names = {s.name for s in t.spans}
    assert {"cli.main", "randgen.gen_rid", "core.write_gtm1", "core.read_gtm1",
            "decode.eliminate", "decode.decode_semidisjunct", "simulate.run_single_trial",
            "simulate.trial_instance"} <= names
    assert t.counts["randgen.cells"] > 0 and t.counts["core.gtm1_bytes"] > 0


def test_a_raising_call_still_records_its_span_and_the_refusal():
    matrix = core.TestMatrix.from_dense(np.ones((2, 30), dtype=np.uint8))
    t = tracing.Tracer()
    t.install(tracing.targets())
    try:
        with pytest.raises(BudgetExceededError):
            decode.decode_semidisjunct(matrix, [1, 1], 3, max_subset_tests=10)
    finally:
        t.uninstall()
    metrics = tracing.layer_metrics(t, 1, 1.0, 0.0)
    assert metrics["decode.refusals"] == 1
    assert [s.name for s in t.spans] == ["decode.decode_semidisjunct", "decode.eliminate"]
    assert t.spans[1].parent == 0 and t.spans[0].error == "BudgetExceededError"
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}
