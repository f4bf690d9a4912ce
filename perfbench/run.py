"""pooltest benchmark: one seeded workload per run, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pooltest is imported from ``src/``.
The workload's seeded block of operations runs in passes, one after the
other, until S seconds have passed (at least one pass). Each operation is
timed on every pass and keeps its best time: interference from other work
on the machine only ever adds time, and it comes in bursts of seconds.
``pass_s`` is the sum of the best times, one pass over the block.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the passes run untraced for S/2
seconds, then as many passes run again with every layer boundary wrapped
(``tracing.py``), and the JSON object holds the per-layer metrics. Lines
before it give the inputs' fingerprint, the environment, the output checks
and each metric by name and unit. Results, and the spans of a traced run,
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

IMPORT_PROBE = (
    f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
    "import numpy, pooltest.cli, pooltest.simulate; print(time.perf_counter() - t)"
)


def import_program() -> None:
    """Import pooltest from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import pooltest
    from pooltest import cli, simulate  # noqa: F401

    if not Path(pooltest.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pooltest was imported from {pooltest.__file__}, not {SRC}")


def import_seconds() -> float:
    """Median time to import numpy and pooltest in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                               text=True, check=True, timeout=60)
        times.append(float(probe.stdout))
    return statistics.median(times)


def environment(tmp_dir: Path) -> dict:
    import numpy

    def proc_field(path: str, key: str) -> str:
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def file_system(path: Path) -> str:
        best, kind = "", "unknown"
        try:
            with open("/proc/self/mounts") as f:
                for line in f:
                    fields = line.split()
                    mount = fields[1]
                    if str(path).startswith(mount) and len(mount) > len(best):
                        best, kind = mount, fields[2]
        except OSError:
            pass
        return kind

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_available": proc_field("/proc/meminfo", "MemAvailable"),
        "tmp_dir_fs": file_system(tmp_dir.resolve()),
    }


def fingerprint(workload, seed: int, block: list) -> str:
    text = json.dumps([workload.name, seed, block], default=int)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(workload, state, block, tracer=None) -> list:
    """Call and check each op once; (seconds, Result) per op.

    Only ``workload.call`` is timed. A raised error is a failed operation.
    """
    from workloads import Result

    records = []
    for index, op in enumerate(block):
        if tracer is not None:
            tracer.instance = index
            tracer.planted = workload.planted(op)
        start = time.perf_counter()
        try:
            value = workload.call(state, op)
            error = None
        except Exception as exc:
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        records.append((seconds, Result(error) if error else workload.check(state, op, value)))
    return records


def run_passes(workload, state, block, seconds=0.0, passes=0, tracer=None) -> list:
    """Passes over the block: ``passes`` of them, or until ``seconds`` have gone."""
    deadline = time.perf_counter() + seconds
    runs = [run_pass(workload, state, block, tracer)]
    while len(runs) < passes if passes else time.perf_counter() < deadline:
        runs.append(run_pass(workload, state, block, tracer))
    return runs


def best_times(runs) -> list[float]:
    """Each operation's shortest time over the passes."""
    return [min(times) for times in zip(*[[s for s, _ in run] for run in runs])]


def end_to_end(best, setup_s) -> dict:
    return {
        "setup_s": setup_s,
        "pass_s": sum(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def named_lines(workload, block, best) -> list[str]:
    """The benchmark's specified metric names, where each applies."""
    if workload.name == "pipeline_1e6":
        return [f"pipeline_s {sum(best):.4f} s ("
                + ", ".join(f"{op[0]} {t:.4f} s" for op, t in zip(block, best)) + ")"]
    lines = []
    for index, part in enumerate(workload.parts):
        times = [t for (i, _), t in zip(block, best) if i == index]
        if part.name == "finish_1e5":
            p50, p90 = (statistics.quantiles(times, n=10, method="inclusive")[k] for k in (4, 8))
            lines += [
                f"decodes_per_s {len(times) / sum(times):.2f} 1/s ({len(times)} decodes)",
                f"decode_p50_ms {1e3 * p50:.4f} ms",
                f"decode_p90_ms {1e3 * p90:.4f} ms ({len(times) // 10} samples beyond)",
            ]
        else:
            trials = part.units * len(times)
            lines.append(f"{part.name} trials_per_s {trials / sum(times):.2f} 1/s ({trials} trials)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import pooltest from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")
    workload = workloads.make(args.workload, OUT / "tmp")

    setups = []
    state = None
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if state is not None:
                workload.cleanup(state)
            start = time.perf_counter()
            state = workload.setup(args.seed)
            setups.append(time.perf_counter() - start)
        block = workload.block(state)
        print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print(f"inputs_sha256 {fingerprint(workload, args.seed, block)} ({len(block)} operations)")
        env = environment(OUT / "tmp")
        print(f"env {json.dumps(env)}")

        runs = run_passes(workload, state, block, args.seconds / 2 if args.trace else args.seconds)
        if args.trace:
            # The set-up and the same passes again, with every layer wrapped.
            tracer = tracing.Tracer()
            tracer.install(tracing.targets())
            try:
                workload.cleanup(state)
                start = time.perf_counter()
                state = workload.setup(args.seed)
                traced_setup = time.perf_counter() - start
                traced = run_passes(workload, state, block, passes=len(runs), tracer=tracer)
            finally:
                tracer.uninstall()
    finally:
        if state is not None:
            workload.cleanup(state)

    best = best_times(runs)
    if args.trace:
        traced_wall = traced_setup + sum(s for run in traced for s, _ in run)
        overhead = sum(best_times(traced)) / sum(best) - 1.0
        values = tracing.layer_metrics(tracer, len(block) * len(traced), traced_wall, overhead)
        table = tracing.PER_LAYER
        runs += traced
    else:
        values = end_to_end(best, import_seconds() + statistics.median(setups))
        table = END_TO_END

    results = [result for run in runs for _, result in run]
    failures = [result.failure for result in results if result.failure]
    for reason in failures[:10]:
        print(f"FAILED {workload.name}: {reason}")
    print(f"checked {len(results)} operations: {len(failures)} failed, "
          f"{sum(r.exact for r in results)} exact decodes, "
          f"{sum(r.inexact for r in results)} design misses")

    if args.trace:
        layers = {layer: values[f"{layer}.self_s"] for layer in tracing.LAYERS}
        print("layer self time " + " + ".join(f"{k} {v:.4f}" for k, v in layers.items())
              + f" = {sum(layers.values()):.4f} s; traced wall {traced_wall:.4f} s")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span._asdict()) + "\n")
        print(f"spans {len(tracer.spans)} written to {spans_path}")
    else:
        print(f"best of {len(runs)} passes over {len(block)} operations")
        for line in named_lines(workload, block, best):
            print(line)
        print(f"failure_rate {len(failures) / len(results):.4f} "
              f"({len(failures)}/{len(results)} operations)")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"env": env, "setups_s": setups, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
