"""The benchmark workloads.

Every workload is a closed loop with one caller: the next operation starts
after the previous one returns. A workload draws all of its inputs from the
workload seed (``derive``), hands the program only those generated inputs,
and checks every output with code of its own.

``pipeline_1e6`` runs the CLI at n = 10^6. ``search_mix`` runs a fixed mix
of three parts: Monte Carlo batches at n = 10^4 (``Simulate``), decodes on
an undersized 10^5-item matrix (``Finish``) and brute-force trials at
n = 40 (``Desk``).

Interface of a workload class:

* ``setup(seed)`` -- work done before the timed loop; returns the state.
* ``block(state)`` -- the seeded operation inputs that one pass runs.
* ``call(state, op)`` -- the timed operation; it calls into pooltest only.
* ``check(state, op, result)`` -- untimed; a ``Result``.
* ``planted(op)`` -- the defective set the op plants, where the op fixes it.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pooltest import cli, core, decode, design, randgen, simulate
from pooltest.decode import DECODED
from pooltest.simulate import TrialConfig


def derive(seed: int, *path: int) -> int:
    """A 63-bit seed derived from the workload seed and a path of labels."""
    state = np.random.SeedSequence([seed, *path]).generate_state(2, np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _draw_items(rng: np.random.Generator, n: int, d: int) -> tuple[int, ...]:
    return tuple(sorted(int(i) + 1 for i in rng.choice(n, size=d, replace=False)))


@dataclass
class Result:
    """Outcome of one operation as the checks see it."""

    failure: str | None
    exact: int = 0  # decodes that returned the planted set
    inexact: int = 0  # decodes that explain the answers with another set


class Workload:
    """Defaults shared by the workloads."""

    def planted(self, op):
        return None  # trial_instance draws it inside the program

    def cleanup(self, state):
        pass


# ---------------------------------------------------------------------------
# pipeline_1e6: generate -> answer -> decode through the CLI, files on disk
# ---------------------------------------------------------------------------

class Pipeline(Workload):
    name = "pipeline_1e6"
    N, D, DELTA = 10**6, 8, 0.1
    COMMANDS = ("generate", "answer", "decode")

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int):
        spec = design.make_design(self.N, self.D, self.DELTA, "semidisjunct")
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "m": spec.m, "dir": Path(tempfile.mkdtemp(dir=self.work_dir))}

    def block(self, state) -> list:
        """One instance: each command is an operation of its own."""
        seed = state["seed"]
        instance = (derive(seed, 1), _draw_items(_rng(seed, 1), self.N, self.D))
        return [(command, *instance) for command in self.COMMANDS]

    def planted(self, op):
        return op[2]

    def paths(self, state):
        return [state["dir"] / name for name in ("matrix.gtm1", "answers.txt", "decoded.txt")]

    def call(self, state, op):
        command, matrix_seed, items = op
        matrix, answers, decoded = map(str, self.paths(state))
        args = {
            "generate": ["--n", str(self.N), "--d", str(self.D), "--delta", str(self.DELTA),
                         "--property", "semi", "--seed", str(matrix_seed), "--out", matrix],
            "answer": ["--matrix", matrix, "--items", " ".join(map(str, items)), "--out", answers],
            "decode": ["--matrix", matrix, "--answers", answers, "--d", str(self.D),
                       "--out", decoded],
        }[command]
        return cli.main([command, *args])

    def check(self, state, op, code):
        """Exit codes after each command; the files after ``decode``, which removes them."""
        command, _, planted = op
        if command != "decode":
            return Result(None if code == 0 else f"{command} exit code {code}")
        matrix_path, answers_path, decoded_path = self.paths(state)
        try:
            if code != 0:
                return Result(f"decode exit code {code}")
            with open(matrix_path, "rb") as f:
                header = f.readline()
            m, n = map(int, header.split()[1:3])
            if (m, n) != (state["m"], self.N):
                return Result(f"matrix is {m}x{n}, expected {state['m']}x{self.N}")
            cells = np.memmap(matrix_path, np.uint8, "r", offset=len(header), shape=(m, n + 1))

            def answers_of(items):
                return (cells[:, [i - 1 for i in items]] == ord("1")).any(axis=1)

            answers = np.frombuffer(answers_path.read_bytes().rstrip(b"\n"), np.uint8) == ord("1")
            decoded = tuple(int(t) for t in decoded_path.read_text().split())
            if not np.array_equal(answers, answers_of(planted)):
                return Result("answer file differs from the planted set's answers")
            if not decoded or not np.array_equal(answers_of(decoded), answers):
                return Result(f"decoded set {decoded} does not explain the answers")
            same = decoded == planted
            return Result(None, exact=int(same), inexact=int(not same))
        finally:
            for path in (matrix_path, answers_path, decoded_path):
                path.unlink(missing_ok=True)

    def cleanup(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)


# ---------------------------------------------------------------------------
# search_mix part simulate_1e4: run_trials batches, no file I/O
# ---------------------------------------------------------------------------

class Simulate(Workload):
    name = "simulate_1e4"
    units = 20  # trials per run_trials call
    N, D, DELTA = 10**4, 4, 0.1

    def setup(self, seed: int):
        spec = design.make_design(self.N, self.D, self.DELTA, "semidisjunct")
        return {"seed": seed, "spec": spec}

    def block(self, state) -> list:
        return [derive(state["seed"], 2, k) for k in range(6)]

    def call(self, state, master_seed):
        return simulate.run_trials(TrialConfig(
            design=state["spec"], trials=self.units, master_seed=master_seed,
            decoder="semidisjunct", defect_mode="exactly_d",
        ))

    def check(self, state, op, report):
        if report.successes + report.failures + report.refusals != report.trials:
            return Result("successes + failures + refusals != trials")
        if report.refusals:
            return Result(f"{report.refusals} budget refusals")
        if report.wilson_high < 1.0 - self.DELTA:
            return Result(f"Wilson upper bound {report.wilson_high:.4f} below 1 - delta")
        return Result(None, exact=report.successes, inexact=report.failures)


# ---------------------------------------------------------------------------
# search_mix part finish_1e5: one undersized matrix, semidisjunct decodes
# ---------------------------------------------------------------------------

class Finish(Workload):
    name = "finish_1e5"
    N, D, M, ZERO_PROB = 10**5, 4, 110, 0.75
    # A block holds 2000 planted sets in fixed residue strata: (largest
    # residue of the stratum, planted sets in it). The counts follow the
    # shares of 20,000 uniform draws, so every seed and matrix gets the same
    # mix of cheap and costly finishes. Draws with a residue above 40 (7%)
    # are skipped: their finish costs up to C(s, 4) subsets, seconds each or
    # a budget refusal past 10^8, and a handful would decide a whole run.
    STRATA = ((4, 278), (8, 778), (16, 566), (24, 214), (40, 164))

    def setup(self, seed: int):
        matrix = randgen.gen_rid(self.M, self.N, self.ZERO_PROB, derive(seed, 3))
        columns = np.unpackbits(matrix.bits, axis=1, count=self.N).T.copy()
        return {"seed": seed, "matrix": matrix, "columns": columns}

    def residue(self, state, answers: np.ndarray) -> int:
        negative = state["matrix"].bits[~answers]
        if not len(negative):
            return self.N
        blocked = np.bitwise_or.reduce(negative, axis=0)
        return self.N - int(np.unpackbits(blocked, count=self.N).sum())

    def block(self, state) -> list:
        rng = _rng(state["seed"], 3)
        wanted = dict(self.STRATA)
        size = sum(wanted.values())
        block = []
        for _ in range(100 * size):  # about 1.2 * size draws fill the strata
            items = _draw_items(rng, self.N, self.D)
            residue = self.residue(state, self.answers_of(state, items))
            stratum = next((top for top, _ in self.STRATA if residue <= top), None)
            if stratum is not None and wanted[stratum]:
                wanted[stratum] -= 1
                block.append(items)
                if len(block) == size:
                    return block
        raise RuntimeError(f"residue strata not filled after {100 * size} draws: {wanted}")

    def planted(self, items):
        return items

    def answers_of(self, state, items) -> np.ndarray:
        return state["columns"][[i - 1 for i in items]].any(axis=0)

    def call(self, state, items):
        answers = core.answer_vector(state["matrix"], items)
        return answers, decode.decode_semidisjunct(state["matrix"], answers, self.D)

    def check(self, state, items, result):
        answers, outcome = result
        expected = self.answers_of(state, items)
        if not np.array_equal(answers.astype(bool), expected):
            return Result("answer_vector differs from the planted set's answers")
        if outcome.status != DECODED:
            return Result(f"status {outcome.status}")
        if not np.array_equal(self.answers_of(state, outcome.items), expected):
            return Result(f"decoded set {outcome.items} does not explain the answers")
        same = outcome.items == items
        return Result(None, exact=int(same), inexact=int(not same))


# ---------------------------------------------------------------------------
# search_mix part desk_exhaustive: brute force and property checks at n = 40
# ---------------------------------------------------------------------------

class Desk(Workload):
    name = "desk_exhaustive"
    units = 10  # trials per operation
    N, D, DELTA = 40, 3, 0.1

    def setup(self, seed: int):
        return {"seed": seed, "spec": design.make_design(self.N, self.D, self.DELTA, "separable")}

    def block(self, state) -> list:
        # A trial takes about 22 or 35 ms, as its semidisjunct check does or
        # does not reach the separability scan; a median over single trials
        # would flip between the two, so an operation is ten trials.
        seed = state["seed"]
        return [tuple(derive(seed, 4, 10 * k + j) for j in range(self.units)) for k in range(6)]

    def call(self, state, master_seeds):
        reports = []
        for master_seed in master_seeds:
            cfg = TrialConfig(design=state["spec"], trials=1, master_seed=master_seed,
                              decoder="bruteforce", defect_mode="exactly_d")
            reports.append((
                simulate.run_trials(cfg),
                simulate.estimate_property_rate(cfg, "separable"),
                simulate.estimate_property_rate(cfg, "semidisjunct"),
            ))
        return reports

    def check(self, state, op, reports):
        for brute, separable, semi in reports:
            if brute.refusals or separable.refusals or semi.refusals:
                return Result("budget refusal")
            if brute.successes != separable.successes:
                return Result("brute-force decode and separability_witness disagree on uniqueness")
            if semi.successes > separable.successes:
                return Result("semidisjunct holds where separability fails")
        return Result(None, exact=sum(brute.successes for brute, _, _ in reports))


# ---------------------------------------------------------------------------
# search_mix: the three parts above in one fixed block
# ---------------------------------------------------------------------------

class Search(Workload):
    """Each operation is ``(part index, the part's operation)``."""

    name = "search_mix"

    def __init__(self):
        self.parts = (Simulate(), Finish(), Desk())

    def setup(self, seed: int):
        return [part.setup(seed) for part in self.parts]

    def block(self, states) -> list:
        return [(index, op) for index, (part, state) in enumerate(zip(self.parts, states))
                for op in part.block(state)]

    def call(self, states, op):
        return self.parts[op[0]].call(states[op[0]], op[1])

    def check(self, states, op, result):
        return self.parts[op[0]].check(states[op[0]], op[1], result)

    def planted(self, op):
        return self.parts[op[0]].planted(op[1])


def make(name: str, work_dir: Path):
    """The workload called ``name``; ``work_dir`` holds its temporary files."""
    return Pipeline(work_dir) if name == Pipeline.name else {Search.name: Search}[name]()


NAMES = (Pipeline.name, Search.name)
