"""Command-line frontend.

Commands: ``design``, ``table``, ``generate``, ``answer``, ``decode``,
``verify``, ``simulate``. Reporting commands take ``--format csv|json``;
CSV is the default for pipelines and starts with the schema comment
``# pooltest-csv v1``.

File formats:

* matrix — GTM1 text (see ``pooltest.core``);
* answers — a single line of m characters, each '0' or '1', ended by LF or
  by the end of the file;
* defectives — whitespace-separated 1-based item indices, each a canonical
  ASCII decimal, ``0|[1-9][0-9]*`` (``--items`` takes the same list).

Integer flags take the same canonical decimals; real
flags (``--delta``, ``--zero-prob``) take ASCII decimals of the form
``(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?``, with no sign, blank or
``_``, and no ``nan`` or ``inf``.

Files are read as bytes: a byte the format does not allow is a parse error
naming its line and column.

Exit codes: 0 success, 1 domain or parse error, 2 work budget exceeded.
``POOLTEST_SEED`` provides the default master seed where ``--seed`` is
omitted. All commands are deterministic given their flags; timing fields
are reported only with ``--timings`` and are excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import design as design_mod
from .core import (
    BudgetExceededError,
    InputError,
    ParseError,
    _canonical_int,
    _canonical_real,
    _eliminator,
    _gatherer,
    dump_gtm1,
    read_gtm1,
    validate_items,
    write_gtm1,
)
# not called here; perfbench's tracer wraps this name, and read_gtm1, in this module
from .core import answer_vector
from .decode import AMBIGUOUS, DECODED, _decode
from .decode import decode_semidisjunct  # not called here; perfbench's tracer wraps this name
from .randgen import gen_rid  # not called here; perfbench's tracer wraps this name
from .randgen import seeded_matrix
from .simulate import TrialConfig, run_trials
from .verify import check_property

CSV_SCHEMA_COMMENT = "# pooltest-csv v1"

_PROPERTY_ALIASES = {
    "disjunct": "disjunct",
    "separable": "separable",
    "semi": "semidisjunct",
    "semidisjunct": "semidisjunct",
}

_DECODER_ALIASES = {
    "disjunct": "disjunct",
    "semi": "semidisjunct",
    "semidisjunct": "semidisjunct",
    "brute": "bruteforce",
    "bruteforce": "bruteforce",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _decimal(text: str) -> int | None:
    """``text`` read as a canonical ASCII decimal, ``0|[1-9][0-9]*``, else None."""
    return _canonical_int(text.encode("utf-8", "surrogatepass"))


def _decimal_arg(text: str) -> int:
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected a decimal integer (0|[1-9][0-9]*), got {text!r}")
    return value


def _real_arg(text: str) -> float:
    value = _canonical_real(text.encode("utf-8", "surrogatepass"))
    if value is None:
        raise argparse.ArgumentTypeError(
            f"expected a decimal number ((0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?), got {text!r}")
    return value


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("POOLTEST_SEED")
    if env is None:
        return 0
    seed = _decimal(env)
    if seed is None:
        raise InputError(f"POOLTEST_SEED must be a decimal integer (0|[1-9][0-9]*), got {env!r}")
    return seed


# CSV format spec of a float field; any other float field takes ".4f"
_FLOAT_FORMATS = {
    "delta": "g", "success_rate": ".6f", "wilson_low": ".6f", "wilson_high": ".6f",
    "mean_seconds": ".6f", "max_seconds": ".6f",
}


def _csv_cell(field: str, value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    if isinstance(value, float):
        return format(value, _FLOAT_FORMATS.get(field, ".4f"))
    return str(value)


def _emit(args, records: dict | list[dict], out) -> None:
    """Print one record, or a list of records with the same fields, as
    ``--format`` asks: JSON as given (a tuple becomes a list), or CSV with
    one row per record, each cell by ``_csv_cell``."""
    if args.format == "json":
        print(json.dumps(records, indent=2), file=out)
        return
    rows = records if isinstance(records, list) else [records]
    print(CSV_SCHEMA_COMMENT, file=out)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([_csv_cell(field, value) for field, value in row.items()] for row in rows)


def _item_tokens(data: bytes, source: str) -> list[int]:
    """Whitespace-separated item indices, each a canonical ASCII decimal."""
    parsed = []
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        for match in re.finditer(rb"\S+", line):
            value = _canonical_int(match.group())
            if value is None:
                shown = match.group().decode("ascii", "backslashreplace")
                raise ParseError(f"invalid item index '{shown}' in {source}",
                                 line=lineno, column=match.start() + 1)
            parsed.append(value)
    return parsed


def _read_items(args, n: int) -> tuple[int, ...]:
    if getattr(args, "items", None) is not None:
        data = args.items.encode("utf-8", "surrogatepass")
        return validate_items(_item_tokens(data, "--items"), n)
    if getattr(args, "defectives", None) is None:
        raise InputError("one of --defectives or --items is required")
    data = Path(args.defectives).read_bytes()
    return validate_items(_item_tokens(data, args.defectives), n)


def format_answer_line(answers) -> str:
    return "".join("1" if int(a) else "0" for a in answers)


def parse_answer_file(data: bytes | str, expected_m: int) -> np.ndarray:
    """Parse a one-line answer file; diagnostics carry line and column.

    A string is read as its UTF-8 bytes, so a character outside ASCII is an
    invalid byte, as is a carriage return.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    # the lines are counted, not split: a file of many lines costs no copies
    lines = data.count(b"\n") + (data[-1:] not in (b"", b"\n"))
    if lines != 1:
        raise ParseError(
            f"answer file must hold exactly one line, found {lines}", line=max(2, lines)
        )
    line = data.removesuffix(b"\n")
    raw = np.frombuffer(line, dtype=np.uint8) - ord("0")
    bad = raw > 1
    col = int(np.argmax(bad)) + 1 if bad.any() else len(raw) + 1
    if col <= min(len(raw), expected_m + 1):
        byte = line[col - 1]
        if byte > 127:
            raise ParseError(f"non-ASCII byte 0x{byte:02x}", line=1, column=col)
        raise ParseError(f"invalid answer character {chr(byte)!r}", line=1, column=col)
    if len(raw) != expected_m:
        raise ParseError(
            f"expected {expected_m} answer characters, got {len(raw)}", line=1,
            column=min(len(raw) + 1, expected_m + 1),
        )
    return raw


def _write_text(path: str | None, text: str, out) -> None:
    if path is None:
        out.write(text)
    else:
        Path(path).write_text(text, encoding="ascii")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_design(args, out) -> int:
    prop = _PROPERTY_ALIASES[args.property]
    spec = design_mod.make_design(args.n, args.d, args.delta, prop, args.model)
    _emit(args, {
        "n": spec.n, "d": spec.d, "delta": spec.delta, "property": prop,
        "model": spec.model, "m": spec.m, "zero_prob": spec.zero_prob,
        "one_prob": None if spec.zero_prob is None else 1.0 - spec.zero_prob,
        "row_weight": spec.row_weight,
        "log_n_coefficient": design_mod.log_n_coefficient(prop, spec.d),
    }, out)
    return 0


def _cmd_table(args, out) -> int:
    _emit(args, [
        {"d": r.d, "disjunct": r.disjunct, "separable": r.separable,
         "semidisjunct": r.semidisjunct}
        for r in design_mod.coefficient_table(args.d_max)
    ], out)
    return 0


def _cmd_generate(args, out) -> int:
    seed = _default_seed(args.seed)
    own = "--zero-prob" if args.model == "rid" else "--row-weight"
    # a flag this run would ignore is an error
    used = ("--d", "--delta", "--property") if args.m is None else (own,)
    for flag in ("--d", "--delta", "--property", "--zero-prob", "--row-weight"):
        if flag not in used and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise InputError(f"{flag} requires --m" if args.m is None
                             else f"{flag} does not apply with --m for the {args.model} model")
    if args.m is not None:
        m, model = args.m, args.model
        param = args.zero_prob if model == "rid" else args.row_weight
        if param is None:
            raise InputError(f"{own} is required with --m for the {model} model")
    else:
        if args.d is None or args.delta is None or args.property is None:
            raise InputError("either --m or all of --d/--delta/--property are required")
        prop = _PROPERTY_ALIASES[args.property]
        spec = design_mod.make_design(args.n, args.d, args.delta, prop, args.model)
        m, model = spec.m, spec.model
        param = spec.zero_prob if model == "rid" else spec.row_weight
    # every parameter is checked here, before the output file is opened
    matrix = seeded_matrix(model, m, args.n, param, seed)
    if args.out is None:
        out.flush()
        dump_gtm1(matrix, out.buffer)
    else:
        write_gtm1(matrix, args.out)
    return 0


def _cmd_answer(args, out) -> int:
    def columns_of(n: int) -> np.ndarray:
        return np.array(_read_items(args, n), dtype=np.intp) - 1

    answers = read_gtm1(args.matrix, _gatherer(columns_of, any_of=True))
    _write_text(args.out, format_answer_line(answers) + "\n", out)
    return 0


def _cmd_decode(args, out) -> int:
    def answers_of(m: int) -> np.ndarray:
        return parse_answer_file(Path(args.answers).read_bytes(), m)

    def survivors_cells() -> np.ndarray:  # a second pass, over the survivors' columns
        bits = read_gtm1(args.matrix, _gatherer(lambda n: survivors))
        return np.unpackbits(bits, axis=1, count=len(survivors))

    spelling = args.decoder or "semi"
    decoder = _DECODER_ALIASES[spelling]
    # the residue from one pass that keeps the OR of the negative rows:
    # every consistent set lies in the survivors
    n, answers, survivors = read_gtm1(args.matrix, _eliminator(answers_of))
    if decoder != "disjunct" and args.d is None:
        raise InputError(f"--d is required for the {spelling} decoder")
    residue = n, answers, tuple((survivors + 1).tolist()), survivors_cells
    outcome = _decode(decoder, residue, args.d, args.max_subset_tests)
    if outcome.status == DECODED:
        _write_text(args.out, " ".join(str(i) for i in outcome.items) + "\n", out)
        return 0
    if outcome.status == AMBIGUOUS:
        print(f"error: ambiguous answers: {outcome.consistent_count} consistent sets",
              file=sys.stderr)
        return 1
    print("error: no candidate set is consistent with the answers", file=sys.stderr)
    return 1


def _cmd_verify(args, out) -> int:
    matrix = read_gtm1(args.matrix)
    items = _read_items(args, matrix.n)
    prop = _PROPERTY_ALIASES[args.property]
    if prop != "disjunct" and args.d is None:
        raise InputError(f"--d is required for the {prop} property")
    report = check_property(matrix, items, prop, args.d)
    _emit(args, {
        "property": prop, "holds": report.holds, "witness": report.witness,
        "non_disjunct_count": len(report.non_disjunct_items),
        "non_disjunct_items": report.non_disjunct_items,
        # JSON shows the threshold as CSV does, to 4 decimals
        "threshold": None if report.threshold is None else round(report.threshold, 4),
    }, out)
    return 0


def _cmd_simulate(args, out) -> int:
    prop = _PROPERTY_ALIASES[args.property]
    spec = design_mod.make_design(args.n, args.d, args.delta, prop, args.model)
    # by default the decoder that the property is designed for
    default = {"disjunct": "disjunct", "separable": "bruteforce", "semidisjunct": "semidisjunct"}
    decoder = _DECODER_ALIASES[args.decoder or default[prop]]
    defect_mode = {"exactly": "exactly_d", "atmost": "at_most_d"}[args.defect_mode]
    cfg = TrialConfig(
        design=spec,
        trials=args.trials,
        master_seed=_default_seed(args.seed),
        decoder=decoder,
        defect_mode=defect_mode,
    )
    report = run_trials(cfg)
    record = {
        "n": spec.n, "d": spec.d, "delta": spec.delta, "property": prop,
        "model": spec.model, "m": spec.m,
        "param": spec.zero_prob if spec.model == "rid" else spec.row_weight,
        "decoder": decoder, "defect_mode": defect_mode, "trials": report.trials,
        "successes": report.successes, "failures": report.failures,
        "refusals": report.refusals, "success_rate": report.success_rate,
        "wilson_low": report.wilson_low, "wilson_high": report.wilson_high,
        "mean_residual": report.mean_residual,
        "mean_non_disjunct": report.mean_non_disjunct,
    }
    if args.timings:
        record["mean_seconds"] = report.mean_seconds
        record["max_seconds"] = report.max_seconds
    _emit(args, record, out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# each flag's argparse keywords, given once
_FLAGS = {
    "--n": {"type": _decimal_arg},
    "--d": {"type": _decimal_arg},
    "--delta": {"type": _real_arg},
    "--property": {"choices": tuple(_PROPERTY_ALIASES)},
    "--decoder": {"choices": tuple(_DECODER_ALIASES)},
    "--model": {"choices": ("rid", "rrsd"), "default": "rid"},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--d-max": {"type": _decimal_arg},
    "--m": {"type": _decimal_arg},
    "--zero-prob": {"type": _real_arg},
    "--row-weight": {"type": _decimal_arg},
    "--seed": {"type": _decimal_arg},
    "--out": {},
    "--matrix": {},
    "--defectives": {},
    "--items": {},
    "--answers": {},
    "--max-subset-tests": {"type": _decimal_arg, "default": 10**8},
    "--defect-mode": {"choices": ("exactly", "atmost"), "default": "exactly"},
    "--trials": {"type": _decimal_arg, "default": 100},
    "--timings": {"action": "store_true"},
}

# (command, help, handler, flags in usage order; a trailing "!" marks a required flag)
_COMMANDS = (
    ("design", "compute test count and cell parameters", _cmd_design,
     "--n! --d! --delta! --property! --model --format"),
    ("table", "per-ln-n coefficient table for d = 2..K", _cmd_table, "--d-max! --format"),
    ("generate", "write a seeded random matrix as GTM1", _cmd_generate,
     "--model --n! --m --zero-prob --row-weight --d --delta --property --seed --out"),
    ("answer", "answer bits of a matrix for a defective set", _cmd_answer,
     "--matrix! --defectives --items --out"),
    ("decode", "recover the defective set from answers", _cmd_decode,
     "--matrix! --answers! --decoder --d --max-subset-tests --out"),
    ("verify", "check a matrix property for a defective set", _cmd_verify,
     "--matrix! --defectives --items --property! --d --format"),
    ("simulate", "seeded Monte Carlo decode-success report", _cmd_simulate,
     "--n! --d! --delta! --property! --model --decoder --defect-mode --trials --seed"
     " --timings --format"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pooltest", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text, handler, flags in _COMMANDS:
        p = sub.add_parser(command, help=help_text)
        for flag in flags.split():
            name = flag.rstrip("!")
            p.add_argument(name, required=flag.endswith("!"), **_FLAGS[name])
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, sys.stdout)
    except BrokenPipeError:
        # a reader that stops early is no error; what stdout buffers goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (BudgetExceededError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, BudgetExceededError) else 1


if __name__ == "__main__":
    sys.exit(main())
