import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from pooltest import cli, core, randgen
from pooltest.cli import format_answer_line, parse_answer_file
from pooltest.core import (BudgetExceededError, InputError, ParseError, answer_vector, dumps_gtm1,
                           read_gtm1)
from pooltest.decode import (AMBIGUOUS, DECODED, decode_disjunct, decode_semidisjunct,
                             decode_separable_bruteforce)
from pooltest.design import make_design
from pooltest.randgen import gen_rid, gen_rrsd
from pooltest.verify import check_property


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("POOLTEST_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "pooltest", *args],
        capture_output=True, text=True, env=env,
    )


def test_design_disjunct_example():
    res = run_cli("design", "--n", "1000000", "--d", "2", "--delta", "0.01",
                  "--property", "disjunct")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "# pooltest-csv v1"
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["m"] == "115"
    assert row["zero_prob"] == "0.6667"
    assert row["one_prob"] == "0.3333"


def test_design_rejects_small_d_for_separable():
    res = run_cli("design", "--n", "100", "--d", "1", "--delta", "0.1",
                  "--property", "separable")
    assert res.returncode == 1
    assert "d must be >= 2 for separable" in res.stderr
    assert res.stderr.count("\n") == 1


def test_design_semi_coefficient():
    res = run_cli("design", "--n", "1000", "--d", "4", "--delta", "0.1",
                  "--property", "semi", "--format", "json")
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert record["log_n_coefficient"] == pytest.approx(9.1013, abs=5e-4)


def test_design_rrsd_reports_row_weight():
    res = run_cli("design", "--n", "999", "--d", "3", "--delta", "0.1",
                  "--property", "disjunct", "--model", "rrsd", "--format", "json")
    assert json.loads(res.stdout)["row_weight"] == 333


def test_table_reproduces_reference_rows():
    res = run_cli("table", "--d-max", "7")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "# pooltest-csv v1"
    assert lines[1] == "d,disjunct,separable,semidisjunct"
    rows = [line.split(",") for line in lines[2:]]
    assert rows[0] == ["2", "6.2366", "3.4761", "3.7444"]
    assert rows[4] == ["6", "17.1465", "14.4241", "14.5093"]
    for col in (1, 2, 3):
        vals = [float(r[col]) for r in rows]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)


def test_table_single_row():
    res = run_cli("table", "--d-max", "2")
    assert res.stdout.splitlines()[2:] == ["2,6.2366,3.4761,3.7444"]


def test_generate_answer_decode_pipeline(tmp_path):
    mfile = tmp_path / "m.gtm1"
    afile = tmp_path / "a.txt"
    res = run_cli("generate", "--n", "30", "--d", "2", "--delta", "0.1",
                  "--property", "semi", "--seed", "5", "--out", str(mfile))
    assert res.returncode == 0
    matrix = read_gtm1(mfile)
    # verifier-accepted instance (seed 5 was checked to satisfy the property)
    assert check_property(matrix, (3, 9), "semidisjunct", 2).holds
    res = run_cli("verify", "--matrix", str(mfile), "--items", "3 9",
                  "--property", "semi", "--d", "2", "--format", "json")
    assert json.loads(res.stdout)["holds"] is True

    res = run_cli("answer", "--matrix", str(mfile), "--items", "3 9",
                  "--out", str(afile))
    assert res.returncode == 0
    assert afile.read_text().strip() == format_answer_line(answer_vector(matrix, (3, 9)))

    res = run_cli("decode", "--matrix", str(mfile), "--answers", str(afile),
                  "--decoder", "semi", "--d", "2")
    assert res.returncode == 0
    assert res.stdout == "3 9\n"


def test_decode_from_defectives_file(tmp_path):
    mfile = tmp_path / "m.gtm1"
    dfile = tmp_path / "defects.txt"
    afile = tmp_path / "a.txt"
    run_cli("generate", "--n", "20", "--m", "40", "--zero-prob", "0.5",
            "--seed", "9", "--out", str(mfile))
    dfile.write_text("7 13\n")
    res = run_cli("answer", "--matrix", str(mfile), "--defectives", str(dfile),
                  "--out", str(afile))
    assert res.returncode == 0
    res = run_cli("decode", "--matrix", str(mfile), "--answers", str(afile),
                  "--decoder", "brute", "--d", "2")
    assert res.returncode == 0 and res.stdout == "7 13\n"


def test_decode_truncated_answers_names_the_line(tmp_path):
    mfile = tmp_path / "m.gtm1"
    afile = tmp_path / "a.txt"
    run_cli("generate", "--n", "10", "--m", "12", "--zero-prob", "0.5",
            "--seed", "1", "--out", str(mfile))
    afile.write_text("0101\n")
    res = run_cli("decode", "--matrix", str(mfile), "--answers", str(afile),
                  "--decoder", "disjunct")
    assert res.returncode == 1
    assert "line 1" in res.stderr and "12" in res.stderr


def test_malformed_matrix_names_the_line(tmp_path):
    bad = tmp_path / "bad.gtm1"
    bad.write_text("GTM1 2 3 RID 0\n101\n1x1\n")
    res = run_cli("decode", "--matrix", str(bad), "--answers", str(bad),
                  "--decoder", "disjunct")
    assert res.returncode == 1
    assert "line 3" in res.stderr


def test_decode_ambiguous_and_inconsistent_exit_one(tmp_path):
    mfile = tmp_path / "m.gtm1"
    afile = tmp_path / "a.txt"
    mfile.write_text("GTM1 1 2 Explicit 0\n00\n")
    afile.write_text("0\n")
    res = run_cli("decode", "--matrix", str(mfile), "--answers", str(afile),
                  "--decoder", "brute", "--d", "1")
    assert res.returncode == 1
    assert "ambiguous" in res.stderr and "3" in res.stderr
    afile.write_text("1\n")
    res = run_cli("decode", "--matrix", str(mfile), "--answers", str(afile),
                  "--decoder", "brute", "--d", "1")
    assert res.returncode == 1
    assert "no candidate set" in res.stderr


def test_budget_exceeded_exit_code(tmp_path):
    mfile = tmp_path / "m.gtm1"
    afile = tmp_path / "a.txt"
    run_cli("generate", "--n", "41", "--m", "5", "--zero-prob", "0.5",
            "--seed", "2", "--out", str(mfile))
    afile.write_text("0" * 5 + "\n")
    res = run_cli("decode", "--matrix", str(mfile), "--answers", str(afile),
                  "--decoder", "brute", "--d", "2")
    assert res.returncode == 2
    assert "capped" in res.stderr


def _library_decode(matrix, answers, decoder, d, budget):
    """(exit code, stdout, stderr) of ``decode`` as the library decoders give it."""
    try:
        if decoder == "disjunct":
            outcome = decode_disjunct(matrix, answers)
        elif decoder in ("brute", "bruteforce"):
            outcome = decode_separable_bruteforce(matrix, answers, d)
        else:
            outcome = decode_semidisjunct(matrix, answers, d, budget)
    except BudgetExceededError as exc:
        return 2, "", f"error: {exc}\n"
    if outcome.status == DECODED:
        return 0, " ".join(map(str, outcome.items)) + "\n", ""
    if outcome.status == AMBIGUOUS:
        return 1, "", f"error: ambiguous answers: {outcome.consistent_count} consistent sets\n"
    return 1, "", "error: no candidate set is consistent with the answers\n"


@pytest.mark.parametrize("tag", ["RID", "RrSD", "Explicit"])
@pytest.mark.parametrize("block", [None, 16, 61 * 2])
@pytest.mark.parametrize("m,n", [(7, 60), (5, 36)])
def test_decode_of_a_file_is_the_library_decode_of_the_read_matrix(tag, block, m, n, tmp_path,
                                                                   monkeypatch, capsys):
    # undersized 7 x 60 matrices, so that many items survive: the finish
    # decodes, finds no set or is over its budget, and brute force is over
    # the desk cap; 5 x 36 matrices, at desk scale and with duplicate
    # columns (36 > 2^5), so that brute force finds several sets; rows in
    # pieces of 16 cells or in blocks of 2 or 3 rows, on 1 to 3 workers
    rng = np.random.default_rng(len(tag) + n)
    if tag == "RID":
        matrix = gen_rid(m, n, 0.6, 4)
    elif tag == "RrSD":
        matrix = gen_rrsd(m, n, n // 3, 4)
    else:
        matrix = core.TestMatrix.from_dense(rng.integers(0, 2, (m, n), dtype=np.uint8))
    path = tmp_path / "m.gtm1"
    core.write_gtm1(matrix, path)
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK_BYTES", block)
    seen = set()
    for trial in range(12):
        monkeypatch.setattr(core, "_worker_count", lambda: 1 + trial % 3)
        items = rng.choice(np.arange(1, n + 1), size=1 + trial % 4, replace=False)
        answers = answer_vector(matrix, items)
        if trial % 6 == 5:
            answers = np.zeros(m, np.uint8)  # the empty set, which only --d 0 allows
        afile = tmp_path / f"a{trial}.txt"  # a new file: a rewrite can cost far more
        afile.write_text(format_answer_line(answers) + "\n")
        for decoder, d, budget in [("disjunct", 1, 10**8), ("semi", 1, 10**8), ("semi", 2, 10**8),
                                   ("semi", 3, 10**8), ("semi", 2, 30), ("semidisjunct", 2, 30),
                                   ("brute", 0, 10**8), ("brute", 1, 10**8), ("brute", 2, 30),
                                   ("bruteforce", 3, 10**8)]:
            expected = _library_decode(read_gtm1(path), answers, decoder, d, budget)
            code = cli.main(["decode", "--matrix", str(path), "--answers", str(afile),
                             "--decoder", decoder, "--d", str(d), "--max-subset-tests",
                             str(budget)])
            assert (code, *capsys.readouterr()) == expected, (trial, decoder, d, budget)
            seen.add(expected[0] if code != 1 else expected[2].split(":")[1])
    assert seen == {0, " no candidate set is consistent with the answers\n", 2} | (
        {" ambiguous answers"} if n <= 40 else set())


def _counted_passes(monkeypatch) -> list:
    """The sink of each pass of the GTM1 reader, appended as it starts."""
    passes = []
    decode = core._decode
    monkeypatch.setattr(core, "_decode", lambda *a: passes.append(a[2]) or decode(*a))
    return passes


def test_decode_refuses_an_over_budget_finish_before_its_second_pass(tmp_path, monkeypatch,
                                                                   capsys):
    # all 60 items of a 7 x 60 matrix survive all-positive answers: one
    # pass finds them, and a second reads their columns only in the budget
    path, afile = tmp_path / "m.gtm1", tmp_path / "a.txt"
    matrix = gen_rid(7, 60, 0.5, 4)
    core.write_gtm1(matrix, path)
    afile.write_text("1" * 7 + "\n")
    passes = _counted_passes(monkeypatch)
    for budget, count in [(59, 1), (60, 2)]:
        passes.clear()
        code = cli.main(["decode", "--matrix", str(path), "--answers", str(afile),
                         "--d", "1", "--max-subset-tests", str(budget)])
        expected = _library_decode(matrix, np.ones(7, np.uint8), "semi", 1, budget)
        assert (code, *capsys.readouterr()) == expected and len(passes) == count, budget
    assert expected[0] != 2


@pytest.mark.parametrize("decoder", ["brute", "bruteforce"])
def test_decode_brute_force_streams_and_refuses_over_the_desk_cap_after_one_pass(
        decoder, tmp_path, monkeypatch, capsys):
    # brute force never reads the matrix whole: one pass finds the
    # survivors, and a second, at desk scale, reads their columns
    passes = _counted_passes(monkeypatch)
    for n, count in [(36, 2), (40, 2), (41, 1)]:
        path, afile = tmp_path / f"m{n}.gtm1", tmp_path / "a.txt"
        matrix = gen_rid(7, n, 0.5, 4)
        core.write_gtm1(matrix, path)
        answers = answer_vector(matrix, (3, 9))
        afile.write_text(format_answer_line(answers) + "\n")
        passes.clear()
        code = cli.main(["decode", "--matrix", str(path), "--answers", str(afile),
                         "--decoder", decoder, "--d", "2"])
        expected = _library_decode(matrix, answers, decoder, 2, 10**8)
        assert (code, *capsys.readouterr()) == expected, n
        assert len(passes) == count and core._packer not in passes, n
        assert (code == 2) == (n > 40) and ("capped" in expected[2]) == (n > 40), n


def test_simulate_deterministic_stdout():
    args = ("simulate", "--n", "60", "--d", "2", "--delta", "0.2",
            "--property", "semi", "--trials", "50", "--seed", "7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    # the property's default decoder, by either spelling; the record names it in full
    for decoder in ("semi", "semidisjunct"):
        assert run_cli(*args, "--decoder", decoder).stdout == first.stdout
    header = first.stdout.splitlines()[1].split(",")
    assert "mean_seconds" not in header
    timed = run_cli(*args, "--timings")
    assert "mean_seconds" in timed.stdout.splitlines()[1].split(",")
    assert timed.stdout.splitlines()[2].split(",")[:len(header)] == \
        first.stdout.splitlines()[2].split(",")


def test_env_seed_is_the_default(tmp_path):
    out1 = tmp_path / "a.gtm1"
    out2 = tmp_path / "b.gtm1"
    out3 = tmp_path / "c.gtm1"
    env = {"POOLTEST_SEED": "4242"}
    run_cli("generate", "--n", "15", "--m", "6", "--zero-prob", "0.5",
            "--out", str(out1), env_extra=env)
    run_cli("generate", "--n", "15", "--m", "6", "--zero-prob", "0.5",
            "--seed", "4242", "--out", str(out2))
    run_cli("generate", "--n", "15", "--m", "6", "--zero-prob", "0.5",
            "--out", str(out3))
    assert out1.read_text() == out2.read_text()
    assert out3.read_text() != out1.read_text()  # unset env falls back to seed 0


def test_generate_rrsd_rows(tmp_path):
    out = tmp_path / "r.gtm1"
    res = run_cli("generate", "--model", "rrsd", "--n", "12", "--m", "7",
                  "--row-weight", "4", "--seed", "3", "--out", str(out))
    assert res.returncode == 0
    matrix = read_gtm1(out)
    assert matrix.model_tag == "RrSD"
    assert (matrix.row_weights() == 4).all()


# SHA-256 of the GTM1 bytes `generate` writes. Every digest was re-pinned
# when each matrix moved to one PCG64 stream, its rows at fixed offsets (see
# pooltest.randgen): a rid row's round 1 reads only the bits of each cell's
# uniform that the cell needs, 2 at zero_prob 0.75 and 8 at 0.55, whose ties
# read later bytes from the row's window, where a rrsd row's choice reads
# too. It was a deliberate change of the random stream, as the per-row
# streams before it were; the digests must not change again by accident.
# The fourth and fifth matrices hold at least 2^22 cells, so their rows are
# drawn on a thread pool. The last two have rows of 10^6 and 2,100,001 cells,
# one rid draw a row and three (two of 2^20 cells); their digests were taken
# when a row was drawn in chunks of 2^18 cells, and they pin that the chunk
# size leaves the bits as they were.
GOLDEN_GENERATE = [
    (("--n", "10000", "--d", "4", "--delta", "0.1", "--property", "semi", "--seed", "17"),
     "82aadf2fa12065b458732f836480339d791fdaf3cd8f0216292efddb9f691c11"),
    (("--model", "rrsd", "--n", "5000", "--d", "3", "--delta", "0.1",
      "--property", "disjunct", "--seed", "23"),
     "0c1e017290a584cd66b8d41ca5350edb386f3918921605e30a9b114743461f6a"),
    (("--n", "1001", "--m", "37", "--zero-prob", "0.55", "--seed", "29"),
     "245f7d67ee2264ea1cceb12e755237182323e2dd8d55b9794bff3275a1f68108"),
    (("--n", "100000", "--m", "64", "--zero-prob", "0.75", "--seed", "31"),
     "a558f7a5ca4e807a3830989102e2c9dde78bfa92edc54cfa2f0617affc0c9a37"),
    (("--model", "rrsd", "--n", "100000", "--m", "64", "--row-weight", "20000",
      "--seed", "37"),
     "1dec095a05319819b010c9c65fd1ed032a194ebd4353735f5ecb8a58b04a521b"),
    (("--n", "1000000", "--m", "4", "--zero-prob", "0.875", "--seed", "1"),
     "c361280593f9d49797cc4b73659af51a897befa8e5ac8e85db8a385c7f7faeb6"),
    (("--n", "2100001", "--m", "3", "--zero-prob", "0.7", "--seed", "1"),
     "c14cef1a49aea6c7a45977d9d63f58d215d00494c6eb7f73202b49b3fec94795"),
]


@pytest.mark.parametrize("args,digest", GOLDEN_GENERATE)
def test_generate_bytes_are_golden(args, digest, tmp_path):
    out = tmp_path / "m.gtm1"
    res = run_cli("generate", *args, "--out", str(out))
    assert res.returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    res = run_cli("generate", *args)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("target,content,message", [
    ("matrix", b"GTM1 2 3 RID 0\n101\n0\xff1\n", "line 3, column 2: non-ASCII byte 0xff"),
    ("matrix", b"GTM1 2 3 RID 0\r\n101\r\n010\r\n", "line 1: seed must be an integer"),
    ("answers", b"01\xff\n", "line 1, column 3: non-ASCII byte 0xff"),
    ("answers", b"01\r\n", "line 1, column 3: invalid answer character '\\r'"),
    ("defectives", b"1\n 2 \xff3\n", "line 2, column 4: invalid item index '\\xff3'"),
    ("defectives", b"1_0\n", "line 1, column 1: invalid item index '1_0'"),
    ("defectives", b"2\n3 01\n", "line 2, column 3: invalid item index '01'"),
])
def test_bad_bytes_give_one_line_errors(target, content, message, tmp_path):
    files = {name: tmp_path / name for name in ("matrix", "answers", "defectives")}
    files["matrix"].write_bytes(b"GTM1 2 3 RID 0\n101\n011\n")
    files["answers"].write_bytes(b"11\n")
    files["defectives"].write_bytes(b"1\n")
    files[target].write_bytes(content)
    if target == "answers":
        res = run_cli("decode", "--matrix", str(files["matrix"]), "--answers",
                      str(files["answers"]), "--decoder", "disjunct")
    else:
        res = run_cli("answer", "--matrix", str(files["matrix"]), "--defectives",
                      str(files["defectives"]))
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: {message}")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


@pytest.mark.parametrize("items", ["\u0662", "1_0", "+1", "1 x", "007", "3 01"])
def test_items_must_be_ascii_decimal(items, tmp_path):
    mfile = tmp_path / "m.gtm1"
    mfile.write_text("GTM1 1 12 RID 0\n101010101010\n")
    res = run_cli("answer", "--matrix", str(mfile), "--items", items)
    assert res.returncode == 1
    assert "invalid item index" in res.stderr and res.stderr.count("\n") == 1


def test_numeric_flags_take_canonical_decimals(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("POOLTEST_SEED", raising=False)
    out = tmp_path / "m.gtm1"
    assert cli.main(["generate", "--n", "10", "--m", "1", "--zero-prob", "0.5",
                     "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"GTM1 1 10 RID 0\n")
    monkeypatch.setenv("POOLTEST_SEED", "4242")
    assert cli.main(["generate", "--n", "12", "--m", "3", "--zero-prob", "0.5",
                     "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"GTM1 3 12 RID 4242\n")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("value", ["1_0", "\u0663", "+1", "-1", "007", " 1", "1 ", "", "1e3",
                                   "0x1", "\udcff"])
@pytest.mark.parametrize("flag", ["--n", "--m", "--seed"])
def test_numeric_flags_reject_loose_integers(flag, value, capsys):
    args = {"--n": "10", "--m": "1", "--seed": "3"}
    args[flag] = value
    argv = ["generate", "--zero-prob", "0.5"]
    for name, text in args.items():
        argv.append(f"{name}={text}")
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: argument {flag}: expected a decimal integer (0|[1-9][0-9]*), " \
                  f"got {value!r}\n"


@pytest.mark.parametrize("argv", [
    ["design", "--n", "1_000", "--d", "2", "--delta", "0.1", "--property", "semi"],
    ["table", "--d-max", "\u0667"],
    ["simulate", "--n", "100", "--d", "2", "--delta", "0.1", "--property", "semi",
     "--trials", "1_0"],
    ["decode", "--matrix", "m", "--answers", "a", "--max-subset-tests", "10_000"],
])
def test_every_command_rejects_loose_integers(argv, capsys):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --") and err.count("\n") == 1


# (command, flag) for each flag whose values are names
CHOICE_FLAGS = [(command, flag.rstrip("!")) for command, _, _, flags in cli._COMMANDS
                for flag in flags.split() if "choices" in cli._FLAGS[flag.rstrip("!")]]


def _argv_with(command: str, flag: str, value: str) -> list[str]:
    """``command`` with ``flag`` set to ``value``, and each other required
    flag to its first choice or to 1."""
    flags = next(entry[3] for entry in cli._COMMANDS if entry[0] == command)
    argv = [command, flag, value]
    for name in (f[:-1] for f in flags.split() if f.endswith("!") and f[:-1] != flag):
        argv += [name, cli._FLAGS[name].get("choices", ("1",))[0]]
    return argv


def test_every_flag_that_takes_a_name_is_a_choice_flag(capsys):
    # --property too: SEMI is not semi
    assert cli.main(["design", "--n", "1000", "--d", "3", "--delta", "0.1",
                     "--property", "SEMI"]) == 1
    assert capsys.readouterr().err.startswith("error: argument --property: invalid choice: 'SEMI'")
    assert {flag for _, flag in CHOICE_FLAGS} == {
        "--property", "--decoder", "--model", "--format", "--defect-mode"}


@pytest.mark.parametrize("command,flag", CHOICE_FLAGS)
def test_choice_flags_match_their_names_exactly(command, flag, capsys):
    choices = cli._FLAGS[flag]["choices"]
    for choice in choices:
        args = cli.build_parser().parse_args(_argv_with(command, flag, choice))
        assert getattr(args, flag[2:].replace("-", "_")) == choice
    for bad in [*(choice.upper() for choice in choices), "bogus"]:
        assert bad not in choices
        argv = _argv_with(command, flag, bad)
        message = f"argument {flag}: invalid choice: {bad!r}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}"):
            cli.build_parser().parse_args(argv)
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_item_index_error_names_line_and_column(tmp_path):
    mfile = tmp_path / "m.gtm1"
    mfile.write_text("GTM1 1 12 RID 0\n101010101010\n")
    res = run_cli("answer", "--matrix", str(mfile), "--items", "3 007")
    assert res.returncode == 1
    assert res.stderr == "error: line 1, column 3: invalid item index '007' in --items\n"


REAL_GRAMMAR = "(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?"

# (command line without the real flag, the real flag); every real flag of every command
REAL_FLAGS = [
    (["design", "--n", "1000", "--d", "2", "--property", "semi"], "--delta"),
    (["generate", "--n", "10", "--m", "2", "--seed", "1", "--out", "{out}"], "--zero-prob"),
    (["generate", "--n", "30", "--d", "2", "--property", "semi", "--seed", "1", "--out", "{out}"],
     "--delta"),
    (["simulate", "--n", "30", "--d", "2", "--property", "semi", "--trials", "2", "--seed", "1"],
     "--delta"),
]


@pytest.mark.parametrize("value", ["0.5", "0.25", "5e-1", "0.5E0", "25e-2", "0.05", "1e-1",
                                   "0.999", "2.5E-1"])
@pytest.mark.parametrize("argv,flag", REAL_FLAGS)
def test_real_flags_take_ascii_decimals(argv, flag, value, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("POOLTEST_SEED", raising=False)
    out = tmp_path / "m.gtm1"
    args = [a.format(out=out) for a in argv] + [f"{flag}={value}"]
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""
    if flag == "--zero-prob":  # the value reaches the sampler as float() reads it
        assert read_gtm1(out) == gen_rid(2, 10, float(value), 1)


@pytest.mark.parametrize("value", ["0.1_0", "\u0660.\u0665", "0\u00b75", " 0.5", "0.5 ", "",
                                   "nan", "inf", "-0.5", "+0.5", ".5", "5.", "00.5", "0x1p-1",
                                   "1e999", "0.5e", "\udcff"])
@pytest.mark.parametrize("argv,flag", REAL_FLAGS)
def test_real_flags_reject_loose_numbers(argv, flag, value, tmp_path, capsys):
    args = [a.format(out=tmp_path / "m.gtm1") for a in argv] + [f"{flag}={value}"]
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: argument {flag}: expected a decimal number ({REAL_GRAMMAR}), " \
                  f"got {value!r}\n"
    assert not (tmp_path / "m.gtm1").exists()


@pytest.mark.parametrize("value", ["\u0662", "1_0", "+2", "02", "", "-1"])
def test_env_seed_rejects_loose_integers(value, monkeypatch, capsys):
    monkeypatch.setenv("POOLTEST_SEED", value)
    assert cli.main(["generate", "--n", "10", "--m", "1", "--zero-prob", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: POOLTEST_SEED must be a decimal integer (0|[1-9][0-9]*), " \
                  f"got {value!r}\n"


def test_generate_streams_to_stdout(monkeypatch):
    # The document goes to stdout's byte layer block by block; text still
    # held in the text layer must reach the bytes first.
    monkeypatch.setattr(core, "_BLOCK_BYTES", 64)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    stdout.write("before\n")
    assert cli.main(["generate", "--n", "100", "--m", "9", "--zero-prob", "0.5",
                     "--seed", "4"]) == 0
    stdout.flush()
    expected = "before\n" + dumps_gtm1(gen_rid(9, 100, 0.5, 4))
    assert stdout.buffer.getvalue() == expected.encode("ascii")


@pytest.mark.parametrize("mode", ["ab", "r+b"])
def test_generate_to_stdout_keeps_the_files_content(mode, monkeypatch, tmp_path):
    # standard output may be a regular file with content before the document:
    # the codec writes there in order, never by position, on one worker
    monkeypatch.setattr(core, "_BLOCK_BYTES", 2 * 101)
    monkeypatch.setattr(core, "_worker_count", lambda: 8)
    path = tmp_path / "out.gtm1"
    path.write_bytes(b"old\n")
    with open(path, mode) as raw:
        raw.seek(0, io.SEEK_END)
        stdout = io.TextIOWrapper(raw, encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        stdout.write("before\n")
        assert cli.main(["generate", "--n", "100", "--m", "9", "--zero-prob", "0.5",
                         "--seed", "4"]) == 0
        stdout.flush()
        stdout.detach()
    expected = "old\nbefore\n" + dumps_gtm1(gen_rid(9, 100, 0.5, 4))
    assert path.read_bytes() == expected.encode("ascii")


def test_generate_to_stdout_never_preallocates(monkeypatch, tmp_path):
    # not even a regular file: standard output is written in order
    calls = []
    monkeypatch.setattr(os, "posix_fallocate", lambda *args: calls.append(args), raising=False)
    path = tmp_path / "out.gtm1"
    with open(path, "wb") as raw:
        stdout = io.TextIOWrapper(raw, encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["generate", "--n", "100", "--m", "9", "--zero-prob", "0.5",
                         "--seed", "4"]) == 0
        stdout.flush()
        stdout.detach()
    assert path.read_bytes() == dumps_gtm1(gen_rid(9, 100, 0.5, 4)).encode("ascii")
    assert calls == []


def test_generate_stops_at_a_full_disk_before_drawing_a_row(monkeypatch, tmp_path, capsys):
    drawn = []
    fill_bits = randgen._Rid._fill_bits

    def counting(self, r, k, out):
        drawn.append(r)
        fill_bits(self, r, k, out)

    def full(fd, offset, size):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(randgen._Rid, "_fill_bits", counting)
    monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
    path = tmp_path / "m.gtm1"
    assert cli.main(["generate", "--n", "100", "--m", "9", "--zero-prob", "0.5",
                     "--out", str(path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert drawn == []


def _design_m_n_param(n, model):
    spec = make_design(n, 2, 0.1, "semidisjunct", model)
    return spec.m, n, spec.zero_prob if model == "rid" else spec.row_weight


@pytest.mark.parametrize("args,matrix", [
    (("--n", "41", "--m", "9", "--zero-prob", "0.875"), lambda: gen_rid(9, 41, 0.875, 6)),
    (("--n", "41", "--m", "9", "--zero-prob", "0.7"), lambda: gen_rid(9, 41, 0.7, 6)),
    (("--model", "rrsd", "--n", "41", "--m", "9", "--row-weight", "5"),
     lambda: gen_rrsd(9, 41, 5, 6)),
    (("--model", "rrsd", "--n", "300", "--d", "2", "--delta", "0.1", "--property", "semi"),
     lambda: gen_rrsd(*_design_m_n_param(300, "rrsd"), 6)),
    (("--n", "300", "--d", "2", "--delta", "0.1", "--property", "semi"),
     lambda: gen_rid(*_design_m_n_param(300, "rid"), 6)),
])
def test_generate_writes_the_bytes_of_the_packed_matrix(args, matrix, monkeypatch, tmp_path):
    # the rows are drawn into the codec's blocks, of two 41-cell rows or one
    # 300-cell row, on up to 8 workers for a file and inline for standard output
    monkeypatch.setattr(core, "_BLOCK_BYTES", 2 * 42)
    monkeypatch.setattr(core, "_worker_count", lambda: 8)
    expected = dumps_gtm1(matrix()).encode("ascii")
    path = tmp_path / "m.gtm1"
    assert cli.main(["generate", *args, "--seed", "6", "--out", str(path)]) == 0
    assert path.read_bytes() == expected
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["generate", *args, "--seed", "6"]) == 0
    stdout.flush()
    assert stdout.buffer.getvalue() == expected


@pytest.mark.parametrize("args,message", [
    (("--m", "3", "--zero-prob", "1.5"), "zero_prob must lie strictly inside (0, 1), got 1.5"),
    (("--m", "3", "--zero-prob", "0"), "zero_prob must lie strictly inside (0, 1), got 0.0"),
    (("--m", "3"), "--zero-prob is required with --m for the rid model"),
    (("--model", "rrsd", "--m", "3", "--row-weight", "11"), "row_weight must be <= 10, got 11"),
    (("--model", "rrsd", "--m", "3", "--row-weight", "0"), "row_weight must be >= 1, got 0"),
    (("--model", "rrsd", "--m", "3"), "--row-weight is required with --m for the rrsd model"),
    (("--m", "0", "--zero-prob", "0.5"), "m must be >= 1, got 0"),
    (("--m", "3", "--zero-prob", "0.5", "--seed", "-1"), "argument --seed: expected"),
    (("--m", "3", "--zero-prob", "0.5", "--seed", "1.5"), "argument --seed: expected"),
    (("--d", "20", "--delta", "0.1", "--property", "semi"), "d must be <= n"),
    # a flag the run would ignore
    (("--m", "3", "--zero-prob", "0.5", "--d", "2"), "--d does not apply with --m for the rid model"),
    (("--m", "3", "--zero-prob", "0.5", "--delta", "0.1"), "--delta does not apply with --m for the rid model"),
    (("--m", "3", "--zero-prob", "0.5", "--property", "semi"),
     "--property does not apply with --m for the rid model"),
    (("--m", "3", "--zero-prob", "0.5", "--row-weight", "2"),
     "--row-weight does not apply with --m for the rid model"),
    (("--model", "rrsd", "--m", "3", "--row-weight", "2", "--zero-prob", "0.5"),
     "--zero-prob does not apply with --m for the rrsd model"),
    (("--d", "2", "--delta", "0.1", "--property", "semi", "--zero-prob", "0.9"),
     "--zero-prob requires --m"),
    (("--model", "rrsd", "--d", "2", "--delta", "0.1", "--property", "semi", "--row-weight", "2"),
     "--row-weight requires --m"),
])
def test_generate_checks_its_parameters_before_opening_the_file(args, message, tmp_path, capsys):
    path = tmp_path / "m.gtm1"
    path.write_bytes(b"kept\n")
    assert cli.main(["generate", "--n", "10", *args, "--out", str(path)]) == 1
    assert message in capsys.readouterr().err
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize("model_args", [("--zero-prob", "0.5"),
                                        ("--model", "rrsd", "--row-weight", "2")])
def test_generate_refuses_rows_past_the_streams_windows(model_args, tmp_path):
    # row j's window starts at word 2^127 + j * 2^64: 2^63 rows would wrap
    # the period of 2^128 words
    path = tmp_path / "m.gtm1"
    res = run_cli("generate", "--n", "10", "--m", str(2**63), *model_args, "--out", str(path))
    assert res.returncode == 1
    assert res.stderr == "error: m must be <= 9223372036854775807, got 9223372036854775808\n"
    assert not path.exists()


def test_a_reader_that_stops_early_is_no_error():
    # about 400 KB of GTM1, more than a pipe holds: the writer meets the closed pipe
    env = dict(os.environ)
    env.pop("POOLTEST_SEED", None)
    with subprocess.Popen([sys.executable, "-m", "pooltest", "generate", "--n", "2000", "--m",
                           "200", "--zero-prob", "0.5", "--seed", "1"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b"GTM1 200 2"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 1


def test_cli_import_loads_neither_numpy_random_nor_a_thread_pool():
    # both are imported on first use, so importing the CLI stays cheap;
    # numpy before 2.0 imports numpy.random itself, which pooltest cannot help
    probe = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
             "import pooltest.cli, pooltest.simulate; "
             "print(eager, 'numpy.random' in sys.modules, 'concurrent.futures' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         timeout=60)
    eager, random_loaded, futures_loaded = res.stdout.split()
    assert random_loaded == eager and futures_loaded == "False"


def test_unknown_flags_exit_one():
    res = run_cli("design", "--nope", "3")
    assert res.returncode == 1
    assert res.stderr.startswith("error:")


def test_missing_file_exit_one(tmp_path):
    res = run_cli("answer", "--matrix", str(tmp_path / "nope.gtm1"), "--items", "1")
    assert res.returncode == 1


# ---------------------------------------------------------------------------
# answer-file helpers
# ---------------------------------------------------------------------------

def test_answer_line_round_trip():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    line = format_answer_line(bits)
    assert line == "10110"
    assert np.array_equal(parse_answer_file(line + "\n", 5), bits)
    assert np.array_equal(parse_answer_file(line, 5), bits)


@pytest.mark.parametrize("text,fragment", [
    ("0101\n", "expected 6"),
    ("010100\n0\n", "exactly one line"),
    ("", "line 2: answer file must hold exactly one line, found 0"),
    ("\n", "line 1, column 1: expected 6 answer characters, got 0"),
    ("01x100\n", "column 3"),
    ("01010\r\n", "column 6: invalid answer character"),
    ("010100\r\n", "column 7: invalid answer character"),
    ("0101\u00e90\n", "column 5: non-ASCII byte 0xc3"),
    (b"010\xff00\n", "column 4: non-ASCII byte 0xff"),
    ("0101001\n", "column 7: expected 6 answer characters, got 7"),
])
def test_answer_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_answer_file(text, 6)


def test_answer_file_of_many_lines_is_counted_not_split():
    data = b"00\n" * 200_000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_answer_file(data, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "line 200000: answer file must hold exactly one line, found 200000"
    # splitting it would hold 200,000 bytes objects, about 40 bytes each
    assert peak < len(data) // 8
