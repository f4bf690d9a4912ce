"""Golden CLI transcript: the exit code, stdout and stderr of a fixed command set.

A refactor of the command line keeps these bytes. Each command runs in
process, in one working directory that holds the matrices and answer files
below, so no output depends on where the test runs. The expectations live in
``golden_cli.json``; after a deliberate output change, regenerate them with
``PYTHONPATH=src python tests/test_cli_golden.py``, which prints the argv of
every entry whose exit code, stdout or stderr changed, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from pooltest import cli

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

# file name -> contents; the rid and rrsd matrices come from seeded commands
FILES = {
    # item 1 is in no test, so the empty set answers like {1}
    "tiny.gtm1": "GTM1 2 3 Explicit 0\n010\n001\n",
    # items 1 and 2 have the same column
    "dup.gtm1": "GTM1 2 3 Explicit 0\n110\n001\n",
    # tests {1,2,3}, {1,4}, {5}, {2,6}, {3}: elimination leaves {1, 4} on
    # answers 11000, yet {1} alone explains them
    "six.gtm1": "GTM1 5 6 Explicit 0\n111000\n100100\n000010\n010001\n001000\n",
    # row 2 holds a byte that is not a cell
    "bad.gtm1": "GTM1 2 3 Explicit 0\n010\n0x1\n",
    "a00.txt": "00\n",
    "a01.txt": "01\n",
    "a10.txt": "10\n",
    "a11.txt": "11\n",
    "a11000.txt": "11000\n",
    "def359.txt": "3 5\n9\n",
}

SETUP = [
    ["generate", "--n", "40", "--m", "25", "--zero-prob", "0.5", "--seed", "11",
     "--out", "rid.gtm1"],
    ["generate", "--model", "rrsd", "--n", "30", "--m", "20", "--row-weight", "10",
     "--seed", "12", "--out", "rrsd.gtm1"],
    # 50 items: over the desk cap of the exhaustive checks
    ["generate", "--n", "50", "--m", "10", "--zero-prob", "0.5", "--seed", "13",
     "--out", "wide.gtm1"],
]


SUBCOMMANDS = ("design", "table", "generate", "answer", "decode", "verify", "simulate")


def _commands() -> list[list[str]]:
    commands = list(SETUP)
    for prop in ("disjunct", "separable", "semi"):
        for model in ("rid", "rrsd"):
            for fmt in ("csv", "json"):
                commands.append(["design", "--n", "1000", "--d", "3", "--delta", "0.1",
                                 "--property", prop, "--model", model, "--format", fmt])
    for fmt in ("csv", "json"):
        commands.append(["design", "--n", "1000", "--d", "1", "--delta", "0.05",
                         "--property", "disjunct", "--format", fmt])
    for d_max in ("2", "6"):
        for fmt in ("csv", "json"):
            commands.append(["table", "--d-max", d_max, "--format", fmt])
    for matrix, items, d in (("tiny.gtm1", "1", "1"), ("rid.gtm1", "3 17", "2"),
                             ("rrsd.gtm1", "2 5 9", "3")):
        for prop in ("disjunct", "separable", "semi"):
            for fmt in ("csv", "json"):
                commands.append(["verify", "--matrix", matrix, "--items", items,
                                 "--property", prop, "--d", d, "--format", fmt])
    commands.append(["verify", "--matrix", "wide.gtm1", "--items", "3 17",
                     "--property", "separable", "--d", "2"])
    decodes = [
        # disjunct: elimination only, always decoded
        ["--matrix", "dup.gtm1", "--answers", "a10.txt", "--decoder", "disjunct"],
        ["--matrix", "six.gtm1", "--answers", "a11000.txt", "--decoder", "disjunct"],
        # semi: shortcut, finish, no consistent set, budget, missing --d
        ["--matrix", "six.gtm1", "--answers", "a11000.txt", "--decoder", "semi", "--d", "3"],
        ["--matrix", "dup.gtm1", "--answers", "a10.txt", "--decoder", "semi", "--d", "1"],
        ["--matrix", "dup.gtm1", "--answers", "a11.txt", "--decoder", "semi", "--d", "1"],
        ["--matrix", "dup.gtm1", "--answers", "a10.txt", "--decoder", "semi", "--d", "1",
         "--max-subset-tests", "1"],
        ["--matrix", "dup.gtm1", "--answers", "a10.txt", "--decoder", "semi"],
        # brute: decoded, ambiguous, no consistent set, budget, missing --d
        ["--matrix", "dup.gtm1", "--answers", "a01.txt", "--decoder", "brute", "--d", "1"],
        ["--matrix", "six.gtm1", "--answers", "a11000.txt", "--decoder", "brute", "--d", "3"],
        ["--matrix", "dup.gtm1", "--answers", "a10.txt", "--decoder", "brute", "--d", "1"],
        ["--matrix", "dup.gtm1", "--answers", "a11.txt", "--decoder", "brute", "--d", "1"],
        ["--matrix", "tiny.gtm1", "--answers", "a00.txt", "--decoder", "brute", "--d", "2"],
        ["--matrix", "dup.gtm1", "--answers", "a10.txt", "--decoder", "brute", "--d", "5"],
        ["--matrix", "dup.gtm1", "--answers", "a10.txt", "--decoder", "brute"],
    ]
    commands += [["decode", *args] for args in decodes]
    simulations = [
        ["--n", "300", "--d", "3", "--property", "disjunct"],
        ["--n", "300", "--d", "3", "--property", "semi"],
        ["--n", "30", "--d", "2", "--property", "separable"],
        ["--n", "30", "--d", "2", "--property", "semi", "--decoder", "bruteforce"],
        ["--n", "300", "--d", "3", "--property", "semi", "--decoder", "disjunct"],
        ["--n", "300", "--d", "3", "--property", "semi", "--defect-mode", "atmost"],
        ["--n", "300", "--d", "3", "--property", "semi", "--model", "rrsd"],
        # every trial's matrix is over the brute-force cap: all refusals
        ["--n", "50", "--d", "2", "--property", "separable", "--decoder", "bruteforce"],
    ]
    for args in simulations:
        for fmt in ("csv", "json"):
            commands.append(["simulate", *args, "--delta", "0.1", "--trials", "25",
                             "--seed", "7", "--format", fmt])
    commands.append(["design", "--n", "1000", "--d", "3", "--delta", "0.1",
                     "--property", "bogus"])
    commands.append(["design", "--n", "1000", "--d", "1", "--delta", "0.1",
                     "--property", "separable"])
    commands += [
        ["answer", "--matrix", "rid.gtm1", "--items", "3 17"],
        ["answer", "--matrix", "rrsd.gtm1", "--defectives", "def359.txt"],
        ["answer", "--matrix", "rid.gtm1"],
        # a matrix error comes before an item error
        ["answer", "--matrix", "bad.gtm1", "--items", "9"],
        ["answer", "--matrix", "rid.gtm1", "--items", "3 41"],
        ["answer", "--matrix", "rid.gtm1", "--items", "17 3 17"],
        # the last column
        ["answer", "--matrix", "wide.gtm1", "--items", "50"],
    ]
    # a design's matrix, as GTM1 on stdout
    for model in ("rid", "rrsd"):
        commands.append(["generate", "--model", model, "--n", "40", "--d", "2",
                         "--delta", "0.5", "--property", "disjunct", "--seed", "5"])
    # generate refuses a flag it would ignore: a design flag with --m, the
    # other model's parameter, a parameter without --m
    explicit = ["generate", "--n", "40", "--m", "25", "--seed", "1"]
    designed = ["generate", "--n", "40", "--d", "2", "--delta", "0.5", "--property", "disjunct",
                "--seed", "1"]
    commands += [
        [*explicit, "--zero-prob", "0.5", "--d", "3"],
        [*explicit, "--zero-prob", "0.5", "--delta", "0.1"],
        [*explicit, "--zero-prob", "0.5", "--property", "semi"],
        [*explicit, "--zero-prob", "0.5", "--row-weight", "7"],
        [*explicit, "--model", "rrsd", "--row-weight", "7", "--zero-prob", "0.5"],
        [*designed, "--zero-prob", "0.9"],
        [*designed, "--model", "rrsd", "--row-weight", "7"],
    ]
    # parser errors: a missing required flag is named in declaration order
    commands += [[], ["bogus"]]
    commands += [[command] for command in SUBCOMMANDS]
    design = ["design", "--n", "1000", "--d", "3", "--delta", "0.1", "--property", "semi"]
    simulate = ["simulate", "--n", "300", "--d", "3", "--delta", "0.1", "--property", "semi",
                "--trials", "5"]
    commands += [
        [*design, "--model", "bogus"],
        [*design, "--format", "xml"],
        [*simulate, "--defect-mode", "exactly_d"],
        ["decode", "--matrix", "dup.gtm1", "--answers", "a10.txt", "--decoder", "bruteforce"],
        [*simulate, "--decoder", "semi"],
        ["design", "--n", "010", "--d", "3", "--delta", "0.1", "--property", "semi"],
        ["design", "--n", "1000", "--d", "3", "--delta", ".5", "--property", "semi"],
    ]
    commands += [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS]
    return commands


COMMANDS = _commands()


def run(argv: list[str]) -> dict:
    """One command in process: its argv, exit code, stdout and stderr.

    stdout has a byte buffer, which ``generate`` writes GTM1 to; the code of
    a ``SystemExit`` (``--help``) is recorded as the exit code. Help text is
    wrapped at 80 columns, whatever the terminal.
    """
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n"), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out.flush()
    return {"argv": argv, "code": code, "stdout": out.buffer.getvalue().decode("utf-8"),
            "stderr": err.getvalue()}


def make_files(directory: Path) -> None:
    """Write ``FILES`` and run ``SETUP`` in ``directory``, which becomes the cwd."""
    os.chdir(directory)
    for name, text in FILES.items():
        Path(name).write_text(text)
    for argv in SETUP:
        run(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    previous = os.getcwd()
    try:
        make_files(directory)
    finally:
        os.chdir(previous)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_command_set(golden):
    assert [entry["argv"] for entry in golden] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_cli_output_is_golden(index, golden, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("POOLTEST_SEED", raising=False)
    assert run(COMMANDS[index]) == golden[index]


if __name__ == "__main__":
    os.environ.pop("POOLTEST_SEED", None)
    previous = {json.dumps(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}
    with tempfile.TemporaryDirectory() as tmp:
        make_files(Path(tmp))
        records = [run(argv) for argv in COMMANDS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    changed = [record["argv"] for record in records
               if previous.get(json.dumps(record["argv"])) != record]
    for argv in changed:  # new entries, and those whose code, stdout or stderr changed
        print("changed:", " ".join(argv))
    print(f"{len(changed)} of {len(records)} entries changed")
