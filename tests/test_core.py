import hashlib
import io
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from pooltest import core, randgen
from pooltest.core import (
    MODEL_TAGS,
    DesignSpec,
    InputError,
    ParseError,
    TestMatrix,
    answer_vector,
    dumps_gtm1,
    parse_gtm1,
    read_gtm1,
    validate_answers,
    validate_items,
    write_gtm1,
)
from pooltest.decode import eliminate
from pooltest.design import make_design, nested_pair_rate, rid_equal_answer_prob
from pooltest.randgen import gen_rid, gen_rrsd


def naive_answers(matrix, items):
    """Independent per-row scan: positive iff the row hits any member."""
    out = []
    for j in range(matrix.m):
        out.append(int(any(matrix.get(j, i) == 1 for i in items)))
    return np.array(out, dtype=np.uint8)


def test_identity_singleton():
    m = TestMatrix.identity(3)
    assert answer_vector(m, (2,)).tolist() == [0, 1, 0]


def test_empty_set_gives_all_zero():
    m = gen_rid(6, 9, 0.4, seed=3)
    assert answer_vector(m, ()).tolist() == [0] * 6


def test_answers_match_per_row_scan():
    m = gen_rid(20, 10, 0.5, seed=1)
    items = (1, 7)
    assert np.array_equal(answer_vector(m, items), naive_answers(m, items))


@pytest.mark.parametrize("bad", [(0,), (11,), (-2,), (3, 3)])
def test_item_validation_rejects(bad):
    m = gen_rid(4, 10, 0.5, seed=0)
    with pytest.raises(InputError):
        answer_vector(m, bad)


def test_item_validation_sorts():
    assert validate_items((9, 2, 5), 10) == (2, 5, 9)
    with pytest.raises(InputError):
        validate_items((1.5,), 10)


def test_answer_validation():
    m = gen_rid(4, 6, 0.5, seed=0)
    assert validate_answers(m, [1, 0, 1, 0]).dtype == np.uint8
    with pytest.raises(InputError):
        validate_answers(m, [1, 0, 1])
    with pytest.raises(InputError):
        validate_answers(m, [1, 0, 2, 0])


def reference_validate_answers(matrix, answers):
    """The validator that the compares by dtype replaced: membership by ``np.isin``."""
    arr = np.asarray(answers)
    if arr.ndim != 1 or len(arr) != matrix.m:
        raise InputError(f"answer vector must have length m={matrix.m}, got {arr.shape}")
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    if not np.isin(arr, (0, 1)).all():
        raise InputError("answers must be 0 or 1")
    return arr.astype(np.uint8)


def reference_answer_vector(matrix, items):
    """The answer vector built one item at a time, as before the one gather."""
    ans = np.zeros(matrix.m, dtype=np.uint8)
    for item in validate_items(items, matrix.n):
        i = item - 1
        ans |= (matrix.bits[:, i >> 3] >> (7 - (i & 7))) & 1
    return ans


_ANSWER_DTYPES = (bool, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                  np.uint64, np.float16, np.float32, np.float64, np.complex64, np.complex128,
                  object)
_ANSWER_VALUES = (0, 1, 2, -1, 0.0, -0.0, 1.0, 0.5, float("nan"), float("inf"), 1 + 0j, 1j,
                  255, 256, -255, 2**40, True, None, "1", "0", b"1", "x")


def _answer_inputs():
    """Length-4 answer inputs of every kind, each holding one drawn value
    among 0s and 1s, as arrays of every dtype the value casts to and as
    lists; then arrays of strings and bytes."""
    for value in _ANSWER_VALUES:
        answers = [1, 0, value, 1]
        yield answers
        for dtype in _ANSWER_DTYPES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    arr = np.array(answers, dtype=dtype)
                except (TypeError, ValueError, OverflowError):
                    continue
            # an object array holding a complex number: the old cast raised TypeError
            if not (dtype is object and isinstance(value, complex)):
                yield arr
    yield from (np.array(["1", "0", "0", "1"]), np.array([b"1", b"0", b"0", b"1"]),
                np.array(["1", "0", "1"]), [[1, 0, 0, 1]], np.ones((4, 1)), 1)


def _outcome(validate, matrix, answers):
    """(result dtype and values, or the InputError's message)."""
    try:
        out = validate(matrix, answers)
    except InputError as exc:
        return "InputError", str(exc)
    return out.dtype.str, out.tolist()


def test_answer_validation_accepts_and_rejects_as_the_isin_validator():
    matrix = gen_rid(4, 6, 0.5, seed=0)
    inputs = list(_answer_inputs())
    accepted = 0
    for answers in inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy 1.23 warns comparing text with numbers
            expected = _outcome(reference_validate_answers, matrix, answers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(validate_answers, matrix, answers) == expected, repr(answers)
        accepted += expected[0] == "|u1"
    assert len(inputs) > 250 and 50 < accepted < len(inputs) - 100


@pytest.mark.parametrize("answers", [[1, [0, 1], 1], [[1], [0, 1], [1]], [1, np.zeros(2), 1]])
def test_ragged_answers_raise_input_error(answers):
    # numpy refuses a ragged sequence with its own ValueError (1.24 on) or
    # warning (1.23); the decoders' callers catch the package's errors
    with pytest.raises(InputError, match="^answers must be a flat sequence of 0s and 1s$"):
        eliminate(TestMatrix.identity(3), answers)
    with pytest.raises(InputError, match="flat sequence"):
        validate_answers(TestMatrix.identity(3), answers)


def test_answer_validation_reads_complex_answers_without_warning():
    matrix = gen_rid(3, 6, 0.5, seed=0)
    for answers in (np.array([1, 0, 1 + 0j]), np.array([1, 0, 1 + 0j], dtype=object)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_answers(matrix, answers).tolist() == [1, 0, 1]
        with pytest.raises(InputError):
            validate_answers(matrix, answers + 1j)


def test_answer_validation_returns_a_new_array():
    matrix = gen_rid(3, 6, 0.5, seed=0)
    for answers in (np.array([1, 0, 1], np.uint8), np.array([True, False, True])):
        out = validate_answers(matrix, answers)
        out[0] = 0
        assert answers[0] == 1


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 70), n=st.integers(1, 130), density=st.sampled_from((0.02, 0.3, 0.9)),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_answer_vector_matches_the_per_item_loop(m, n, density, seed, data):
    matrix = gen_rid(m, n, 1 - density, seed)
    items = data.draw(st.sets(st.integers(1, n), max_size=min(n, 10)), label="items")
    assert np.array_equal(answer_vector(matrix, items), reference_answer_vector(matrix, items))
    assert answer_vector(matrix, items).dtype == np.uint8


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_or_monotone_and_union(data):
    m = data.draw(st.integers(1, 10))
    n = data.draw(st.integers(1, 10))
    seed = data.draw(st.integers(0, 2**32))
    matrix = gen_rid(m, n, 0.5, seed=seed)
    inner = data.draw(st.sets(st.integers(1, n)))
    extra = data.draw(st.sets(st.integers(1, n)))
    outer = inner | extra
    a_inner = answer_vector(matrix, sorted(inner))
    a_extra = answer_vector(matrix, sorted(extra))
    a_outer = answer_vector(matrix, sorted(outer))
    assert (a_inner <= a_outer).all()
    assert np.array_equal(a_outer, a_inner | a_extra)


# ---------------------------------------------------------------------------
# TestMatrix construction
# ---------------------------------------------------------------------------

def test_from_dense_and_accessors():
    dense = np.array([[1, 0, 1], [0, 1, 1]])
    m = TestMatrix.from_dense(dense)
    assert (m.dense() == dense).all()
    assert m.get(0, 1) == 1 and m.get(0, 2) == 0
    assert m.row_items(1) == (2, 3)
    assert m.row_weights().tolist() == [2, 2]


def test_matrix_equality():
    a = TestMatrix.from_dense([[1, 0], [0, 1]])
    b = TestMatrix.identity(2)
    assert a == b
    assert a != TestMatrix.from_dense([[1, 1], [0, 1]])


def test_matrix_rejects_bad_construction():
    with pytest.raises(InputError):
        TestMatrix.from_dense([[1, 2]])
    with pytest.raises(InputError):
        TestMatrix(m=1, n=3, bits=np.zeros((1, 2), dtype=np.uint8))
    with pytest.raises(InputError):
        TestMatrix(m=1, n=3, bits=np.array([[0b00011111]], dtype=np.uint8))
    with pytest.raises(InputError):
        TestMatrix(m=1, n=2, bits=np.zeros((1, 1), dtype=np.uint8), model_tag="weird")


def test_matrix_bits_are_frozen():
    m = TestMatrix.identity(2)
    with pytest.raises(ValueError):
        m.bits[0, 0] = 7


def test_matrix_does_not_share_the_callers_array():
    base = np.zeros((2, 2), dtype=np.uint8)
    view = base[:, :]
    from_view = TestMatrix(2, 16, base[:, :])
    from_base = TestMatrix(2, 16, base)
    base[0, 0] = 255
    view[1, 1] = 7
    for matrix in (from_view, from_base):
        assert not matrix.bits.any()
        with pytest.raises(ValueError):
            matrix.bits[0, 0] = 1
    assert base.flags.writeable and base[0, 0] == 255 and base[1, 1] == 7


def test_generators_and_reader_hand_over_their_arrays(monkeypatch, tmp_path):
    # the public constructor copies; the library's own fresh arrays are adopted
    path = tmp_path / "m.gtm1"
    path.write_bytes(b"GTM1 2 3 RID 4\n101\n011\n")

    def copying_constructor(self):
        raise AssertionError("a fresh array was copied")

    monkeypatch.setattr(TestMatrix, "__post_init__", copying_constructor)
    for matrix in (gen_rid(3, 20, 0.5, 1), gen_rrsd(3, 20, 4, 1), read_gtm1(path),
                   TestMatrix.from_dense([[1, 0], [0, 1]])):
        with pytest.raises(ValueError):
            matrix.bits[0, 0] = 1


# ---------------------------------------------------------------------------
# DesignSpec invariants
# ---------------------------------------------------------------------------

def test_design_spec_validation():
    ok = DesignSpec(n=10, d=2, delta=0.1, model="rid", property_name="separable",
                    m=5, zero_prob=0.5)
    assert ok.m == 5
    with pytest.raises(InputError):
        DesignSpec(n=10, d=1, delta=0.1, model="rid", property_name="separable",
                   m=5, zero_prob=0.5)
    with pytest.raises(InputError):
        DesignSpec(n=10, d=2, delta=1.5, model="rid", property_name="disjunct",
                   m=5, zero_prob=0.5)
    with pytest.raises(InputError):
        DesignSpec(n=10, d=2, delta=0.1, model="rid", property_name="disjunct", m=5)
    with pytest.raises(InputError):
        DesignSpec(n=10, d=2, delta=0.1, model="rrsd", property_name="disjunct",
                   m=5, row_weight=11)
    with pytest.raises(InputError):
        DesignSpec(n=10, d=11, delta=0.1, model="rid", property_name="disjunct",
                   m=5, zero_prob=0.5)


# every entry point that takes a probability or a delta in (0, 1)
OPEN_UNIT_ENTRY_POINTS = {
    "make_design delta": lambda v: make_design(100, 2, v, "disjunct"),
    "DesignSpec delta": lambda v: DesignSpec(
        n=10, d=2, delta=v, model="rid", property_name="disjunct", m=5, zero_prob=0.5),
    "DesignSpec zero_prob": lambda v: DesignSpec(
        n=10, d=2, delta=0.1, model="rid", property_name="disjunct", m=5, zero_prob=v),
    "gen_rid zero_prob": lambda v: gen_rid(3, 5, v, seed=1),
    "rid_equal_answer_prob p": lambda v: rid_equal_answer_prob(2, 2, 1, v),
    "nested_pair_rate p": lambda v: nested_pair_rate(3, 1, v),
}


@pytest.mark.parametrize("entry", OPEN_UNIT_ENTRY_POINTS)
@pytest.mark.parametrize("value", [0.5, np.float32(0.5), np.float64(0.25)])
def test_open_unit_values_accepted_everywhere(entry, value):
    OPEN_UNIT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", OPEN_UNIT_ENTRY_POINTS)
@pytest.mark.parametrize("value", ["0.5", True, None, 0.5j, np.int64(0)])
def test_open_unit_rejects_non_reals_everywhere(entry, value):
    with pytest.raises(InputError, match="must be a real number"):
        OPEN_UNIT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", OPEN_UNIT_ENTRY_POINTS)
@pytest.mark.parametrize("value", [0, 1, 0.0, 1.0, -0.25, 1.5, float("nan"), np.float32(1.5)])
def test_open_unit_rejects_values_outside_the_interval_everywhere(entry, value):
    with pytest.raises(InputError, match=r"must lie strictly inside \(0, 1\)"):
        OPEN_UNIT_ENTRY_POINTS[entry](value)


def test_float32_zero_prob_draws_the_float64_matrix():
    assert gen_rid(7, 30, np.float32(0.5), seed=4) == gen_rid(7, 30, 0.5, seed=4)


# ---------------------------------------------------------------------------
# GTM1 format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("matrix", [
    gen_rid(5, 12, 0.6, seed=11),
    gen_rrsd(4, 9, 3, seed=5),
    TestMatrix.identity(6),
])
def test_gtm1_round_trip(matrix, tmp_path):
    path = tmp_path / "m.gtm1"
    write_gtm1(matrix, path)
    back = read_gtm1(path)
    assert back == matrix
    # write(read(f)) must reproduce the file byte for byte
    assert dumps_gtm1(back) == path.read_text()


def test_gtm1_known_bytes():
    text = "GTM1 2 3 Explicit 0\n101\n010\n"
    m = parse_gtm1(text)
    assert m.dense().tolist() == [[1, 0, 1], [0, 1, 0]]
    assert dumps_gtm1(m) == text


@pytest.mark.parametrize("text,fragment", [
    ("GTM2 1 1 RID 0\n1\n", "line 1"),
    ("GTM1 1 1 RID\n1\n", "line 1"),
    ("GTM1 x 1 RID 0\n1\n", "line 1"),
    ("GTM1 1 1 Bogus 0\n1\n", "line 1"),
    ("GTM1 2 3 RID 0\n101\n", "expected 2 row lines"),
    ("GTM1 1 3 RID 0\n10\n", "line 2"),
    ("GTM1 1 3 RID 0\n1x1\n", "line 2, column 2"),
    ("GTM1 1 3 RID 0\n101", "missing trailing newline"),
    ("GTM1 2 3 RrSD 0\n110\n100\n", "line 3"),
    ("GTM1 1 3 RrSD 0\n000\n", "weight 0"),
    # header integers are canonical ASCII decimals, lines end in LF alone
    ("GTM1 0_2 3 Explicit 007\n101\n010\n", "line 1: m and n must be integers"),
    ("GTM1 2 3 Explicit 007\n101\n010\n", "line 1: seed must be an integer"),
    ("GTM1 \u0662 3 Explicit 7\n101\n010\n", "line 1: m and n must be integers"),
    ("GTM1 1 3 Explicit +7\n101\n", "line 1: seed must be an integer"),
    ("GTM1 1 3 Explicit -0\n101\n", "line 1: seed must be an integer"),
    ("GTM1 1 3 RID 0\r\n101\r\n", "line 1: seed must be an integer"),
    ("GTM1 0 3 RID 0\n", "line 1: m and n must be >= 1"),
    ("GTM1  1 3 RID 0\n101\n", "line 1: header must be"),
    ("", "line 1: empty file"),
    ("GTM1 1 3 RID 0", "line 1: missing trailing newline"),
    ("GTM1 1 3 RID 0\n101\r\n", "line 2, column 4: invalid character"),
    ("GTM1 2 3 RID 0\n101\n1\u00e91\n", "line 3, column 2: non-ASCII byte 0xc3"),
    ("GTM1 1 3 RID 0\n1011\n", "line 2, column 4: expected 3 characters, got 4"),
    ("GTM1 1 3 RID 0\n101\n\n", "line 3: expected 1 row lines, found more"),
    ("GTM1 2 3 RID 0\n101\n", "line 3: expected 2 row lines, found 1"),
    # a header that promises more than the file holds allocates nothing for it
    ("GTM1 99999999999 99999999999 RID 0\n", "line 2: expected 99999999999 row lines"),
    # with several defects the first one in file order is reported
    ("GTM1 3 3 RrSD 0\n110\n100\n1x1\n", "line 3: RrSD rows must share one weight"),
    ("GTM1 3 3 RID 0\n101\n1x1\n1", "line 3, column 2"),
])
def test_gtm1_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_gtm1(text)


def test_gtm1_reads_from_a_pipe(tmp_path):
    # a pipe cannot seek, so the reader buffers it before checking its size
    matrix = gen_rid(5, 12, 0.6, seed=11)
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(dumps_gtm1(matrix),), daemon=True)
    writer.start()
    try:
        assert read_gtm1(fifo) == matrix
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


# ---------------------------------------------------------------------------
# GTM1 codec against the per-row reference it replaced
# ---------------------------------------------------------------------------

def reference_dumps(matrix: TestMatrix) -> str:
    """The per-row encoder that the block codec replaced."""
    header = f"GTM1 {matrix.m} {matrix.n} {matrix.model_tag} {matrix.seed}\n"
    rows = []
    for j in range(matrix.m):
        line = (np.unpackbits(matrix.bits[j], count=matrix.n) + ord("0")).astype(np.uint8)
        rows.append(line.tobytes().decode("ascii"))
    return header + "\n".join(rows) + "\n"


def reference_parse(text: str) -> TestMatrix:
    """The per-row decoder that the block codec replaced."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    else:
        raise ParseError("missing trailing newline", line=len(lines))
    if not lines:
        raise ParseError("empty file", line=1)

    fields = lines[0].split(" ")
    if len(fields) != 5 or fields[0] != "GTM1":
        raise ParseError("header must be 'GTM1 <m> <n> <model_tag> <seed>'", line=1)
    try:
        m = int(fields[1])
        n = int(fields[2])
    except ValueError:
        raise ParseError("m and n must be integers", line=1) from None
    tag = fields[3]
    if tag not in MODEL_TAGS:
        raise ParseError(f"unknown model tag {tag!r}", line=1)
    try:
        seed = int(fields[4])
    except ValueError:
        raise ParseError("seed must be an integer", line=1) from None
    if m < 1 or n < 1:
        raise ParseError("m and n must be >= 1", line=1)
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} row lines, found {len(lines) - 1}", line=len(lines))

    bits = np.empty((m, (n + 7) // 8), dtype=np.uint8)
    for j in range(m):
        raw = lines[j + 1]
        lineno = j + 2
        try:
            arr = np.frombuffer(raw.encode("ascii"), dtype=np.uint8)
        except UnicodeEncodeError:
            raise ParseError("row contains non-ASCII characters", line=lineno) from None
        if len(arr) != n:
            raise ParseError(f"expected {n} characters, got {len(arr)}", line=lineno)
        bad = (arr != ord("0")) & (arr != ord("1"))
        if bad.any():
            col = int(np.flatnonzero(bad)[0]) + 1
            raise ParseError(f"invalid character {chr(arr[col - 1])!r}", line=lineno, column=col)
        bits[j] = np.packbits(arr - ord("0"))

    try:
        matrix = TestMatrix(m=m, n=n, bits=bits, model_tag=tag, seed=seed)
    except InputError as exc:
        raise ParseError(str(exc), line=1) from None

    if tag == "RrSD":
        weights = matrix.row_weights()
        if weights.min() < 1:
            raise ParseError("RrSD row has weight 0", line=int(np.argmin(weights)) + 2)
        if weights.min() != weights.max():
            j = int(np.flatnonzero(weights != weights[0])[0])
            raise ParseError(
                f"RrSD rows must share one weight: row 1 has {int(weights[0])}, "
                f"row {j + 1} has {int(weights[j])}",
                line=j + 2,
            )
    return matrix


@pytest.mark.parametrize("model", ["rid", "rrsd"])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 1000])
@pytest.mark.parametrize("block_rows", [1, 2, 3, None])
def test_gtm1_codec_matches_reference(model, n, block_rows, monkeypatch, tmp_path,
                                      codec_workers):
    # 7 rows in blocks of 1, 2 or 3 rows: every boundary, and a short last
    # block; a file on as many workers as blocks, a string on one
    if block_rows is not None:
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_rows * (n + 1))
    if model == "rid":
        matrix = gen_rid(7, n, 0.6, seed=n)
    else:
        matrix = gen_rrsd(7, n, max(1, n // 3), seed=n)
    text = reference_dumps(matrix)
    assert dumps_gtm1(matrix) == text
    path = tmp_path / "m.gtm1"
    write_gtm1(matrix, path)
    assert path.read_bytes() == text.encode("ascii")
    assert parse_gtm1(text) == reference_parse(text) == matrix
    assert read_gtm1(path) == matrix
    blocks = -(-7 // block_rows) if block_rows else 1
    # the generator's block loop, inline for a small matrix, then the codec's
    assert codec_workers == [1, 1, blocks, 1, blocks]


# 0.875 has one base-256 digit and takes 3 planes; 0.7 and 1/3 take 8 and
# leave ties for later rounds
DRAWN = [("rid", 0.875), ("rid", 0.7), ("rid", 1 / 3), ("rrsd", 3)]
# rows of 13 cells in a group of 16 raw words, by model and parameter
GROUP_ROWS = {("rid", 0.875): 5, ("rid", 0.7): 2, ("rid", 1 / 3): 2, ("rrsd", 3): 1}


@pytest.mark.parametrize("model,param", DRAWN)
@pytest.mark.parametrize("m,n", [(7, 13), (7, 161), (3, 161)])
@pytest.mark.parametrize("block_rows", [1, 2, 3])
@pytest.mark.parametrize("threaded", [False, True])
def test_drawn_matrix_writes_the_bytes_of_the_packed_one(model, param, m, n, block_rows, threaded,
                                                         monkeypatch, tmp_path, codec_workers):
    # 64-cell chunks split a 161-cell row in three; 13-cell rows are drawn
    # in groups of 16 raw words, two at a time at 8 planes, so a block of 3
    # rows takes a group of 2 and one of 1. A string is written inline, a
    # file on one worker per block, up to 8: 7 one-row blocks take 7
    # workers, and 3 rows, fewer than the workers, take 3. The packed matrix
    # is drawn inline, or on one worker per group.
    monkeypatch.setattr(randgen, "_CHUNK_CELLS", 64)
    monkeypatch.setattr(randgen, "_GROUP_WORDS", 16)
    monkeypatch.setattr(randgen, "_PARALLEL_CELLS", 1 if threaded else 10**9)
    monkeypatch.setattr(core, "_BLOCK_BYTES", block_rows * (n + 1))
    gen = gen_rid if model == "rid" else gen_rrsd
    packed = tmp_path / "packed.gtm1"
    write_gtm1(gen(m, n, param, 19), packed)
    expected = packed.read_bytes()
    assert expected == reference_dumps(gen(m, n, param, 19)).encode("ascii")
    drawn = randgen.seeded_matrix(model, m, n, param, 19)
    stream = io.BytesIO()
    core.dump_gtm1(drawn, stream)
    assert stream.getvalue() == expected
    path = tmp_path / "drawn.gtm1"
    write_gtm1(drawn, path)
    assert path.read_bytes() == expected
    assert read_gtm1(path) == drawn.draw()
    blocks = -(-m // block_rows)
    groups = -(-m // GROUP_ROWS[model, param]) if n == 13 else m
    gen_workers = groups if threaded else 1
    # the generator's loop, then a file, the generator's again, a string, a
    # file, the reader and the generator's
    assert codec_workers == [gen_workers, blocks, gen_workers, 1, blocks, blocks, gen_workers]


# ---------------------------------------------------------------------------
# GTM1 properties
# ---------------------------------------------------------------------------

@st.composite
def gtm1_matrices(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 20))
    tag = draw(st.sampled_from(MODEL_TAGS))
    seed = draw(st.integers(0, 2**70))
    if tag == "RrSD":
        weight = draw(st.integers(1, n))
        dense = np.zeros((m, n), dtype=bool)
        for j in range(m):
            dense[j, draw(st.permutations(range(n)))[:weight]] = True
    else:
        dense = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                       min_size=m, max_size=m)))
    return TestMatrix.from_dense(dense, model_tag=tag, seed=seed)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=gtm1_matrices(), block_rows=st.integers(1, 7))
def test_gtm1_file_round_trip_is_byte_exact(matrix, block_rows, tmp_path, monkeypatch,
                                            codec_workers):
    monkeypatch.setattr(core, "_BLOCK_BYTES", block_rows * (matrix.n + 1))
    first, second = tmp_path / "a.gtm1", tmp_path / "b.gtm1"
    write_gtm1(matrix, first)
    assert first.read_bytes() == reference_dumps(matrix).encode("ascii")
    back = read_gtm1(first)
    assert back == matrix
    write_gtm1(back, second)
    assert second.read_bytes() == first.read_bytes()


_VALID_HEADER = re.compile(rb"GTM1 [1-9][0-9]* [1-9][0-9]* (RID|RrSD|Explicit) (0|[1-9][0-9]*)\n")


@settings(max_examples=400, deadline=None)
@given(matrix=gtm1_matrices(), data=st.data())
def test_gtm1_single_byte_corruption_is_located_or_round_trips(matrix, data):
    original = dumps_gtm1(matrix).encode("ascii")
    pos = data.draw(st.integers(0, len(original) - 1), label="pos")
    value = data.draw(st.integers(0, 255), label="value")
    assume(value != original[pos])
    corrupted = original[:pos] + bytes([value]) + original[pos + 1:]
    try:
        back = core._decode(io.BytesIO(corrupted))
    except ParseError as exc:
        header_end = original.index(b"\n")
        if pos <= header_end:
            if _VALID_HEADER.fullmatch(corrupted[: corrupted.index(b"\n") + 1]) is None:
                assert exc.line == 1, str(exc)
            else:
                # the header still reads, with another m, n or seed (a newline
                # may split it or join row 1 to it), and the body disagrees
                assert exc.line >= 2, str(exc)
                with pytest.raises(ParseError):
                    reference_parse(corrupted.decode("ascii"))
            return
        line = original[:pos].count(b"\n") + 1
        if "weight" in str(exc):
            # RrSD: a flipped cell changes its row's weight. Row 1 sets the
            # shared weight, so a change there shows at row 2, against row 1.
            assert exc.line == line or (line, exc.line) == (2, 3), str(exc)
        else:
            # a cell byte or a row's newline: the column is its place in the row
            column = (pos - header_end - 1) % (matrix.n + 1) + 1
            assert (exc.line, exc.column) == (line, column), str(exc)
    else:
        assert dumps_gtm1(back).encode("ascii") == corrupted
        assert reference_parse(corrupted.decode("ascii")) == back


# ---------------------------------------------------------------------------
# GTM1 defects on several workers
# ---------------------------------------------------------------------------

# 40 rows of 9 cells in blocks of 2 rows: 20 blocks over 8 workers, so
# worker k reads blocks k, k + 8 and k + 16. Line L holds row L - 1, in
# block (L - 2) // 2: lines 8 and 9 are block 3 (worker 3), lines 26 and 27
# block 12 (worker 4), lines 34 and 35 block 16 (worker 0).
ROWS, COLS = 40, 9


def _reversed_workers(workers, job):
    """The workers one after another, the last first: every worker reads its
    blocks before any block of a lower-numbered worker is read."""
    for k in reversed(range(workers)):
        job(k)


@pytest.fixture(params=["threads", "reversed"])
def eight_workers(request, monkeypatch, codec_workers):
    monkeypatch.setattr(core, "_BLOCK_BYTES", 2 * (COLS + 1))
    if request.param == "reversed":
        monkeypatch.setattr(core, "_run_workers", _reversed_workers)
    return request.param


def _plant(text: bytes, line: int, column: int, value: bytes) -> bytes:
    """``text`` with the byte at 1-based ``line`` and ``column`` replaced."""
    start = 0
    for _ in range(line - 1):
        start = text.index(b"\n", start) + 1
    pos = start + column - 1
    return text[:pos] + value + text[pos + 1:]


def _read_error(path, data: bytes) -> str:
    path.write_bytes(data)
    with pytest.raises(ParseError) as file_error:
        read_gtm1(path)
    with pytest.raises(ParseError) as text_error:  # one worker, in file order
        core._decode(io.BytesIO(data))
    assert str(file_error.value) == str(text_error.value)
    return str(file_error.value)


def _flip(text: bytes, line: int, to: bytes) -> bytes:
    """Row at ``line`` with its first cell that is not ``to`` set to ``to``."""
    row = text.split(b"\n")[line - 1]
    return _plant(text, line, row.index(b"1" if to == b"0" else b"0") + 1, to)


# (line, column, byte) edits and the error each reports
GRAMMAR_DEFECTS = [
    ((9, 3, b"x"), "line 9, column 3: invalid character 'x'"),
    ((9, 4, b"\r"), "line 9, column 4: invalid character '\\r'"),
    ((9, 5, b"\xe9"), "line 9, column 5: non-ASCII byte 0xe9"),
    # the last row of block 3 runs into block 4: its length is read past the block
    ((9, 10, b"1"), "line 9, column 10: expected 9 characters, got 19"),
    ((8, 4, b"\n"), "line 8, column 4: expected 9 characters, got 3"),
]


@pytest.mark.parametrize("first,message", GRAMMAR_DEFECTS)
@pytest.mark.parametrize("later", [(27, 2, b"x"), (26, 10, b"0"), (35, 1, b"\n")])
def test_threaded_reader_reports_the_first_of_two_defects(first, message, later, tmp_path,
                                                          eight_workers):
    text = dumps_gtm1(gen_rid(ROWS, COLS, 0.5, 3)).encode("ascii")
    path = tmp_path / "m.gtm1"
    assert _read_error(path, _plant(_plant(text, *later), *first)) == message
    assert _read_error(path, _plant(text, *first)) == message


@pytest.mark.parametrize("edits,message", [
    # '/' is '0' - 1: checked in place, it wraps to 255 and back
    ([(21, 4, b"/")], "line 21, column 4: invalid character '/'"),
    ([(22, 2, b"\x80")], "line 22, column 2: non-ASCII byte 0x80"),
    ([(22, 2, b"\x80"), (21, 4, b"/")], "line 21, column 4: invalid character '/'"),
    ([(21, 9, b"\xff"), (22, 1, b"/")], "line 21, column 9: non-ASCII byte 0xff"),
])
def test_threaded_reader_reports_bytes_outside_the_cells_in_a_middle_block(edits, message,
                                                                           tmp_path, eight_workers):
    # lines 21 and 22 are block 9 of 20, on worker 1
    text = dumps_gtm1(gen_rid(ROWS, COLS, 0.5, 3)).encode("ascii")
    for edit in edits:
        text = _plant(text, *edit)
    assert _read_error(tmp_path / "m.gtm1", text) == message


@pytest.mark.parametrize("defects,message", [
    # a weight defect before a grammar defect, in another block or the same one
    ([(8, b"1"), (27, 2, b"x")], "line 8: RrSD rows must share one weight: row 1 has 3, row 7 has 4"),
    ([(8, b"0"), (9, 10, b"1")], "line 8: RrSD rows must share one weight: row 1 has 3, row 7 has 2"),
    # a grammar defect before a weight defect
    ([(9, 2, b"x"), (26, b"1")], "line 9, column 2: invalid character 'x'"),
    ([(8, 2, b"x"), (9, b"1")], "line 8, column 2: invalid character 'x'"),
    # a well-formed block whose rows share another weight
    ([(26, b"1"), (27, b"1"), (35, 2, b"x")],
     "line 26: RrSD rows must share one weight: row 1 has 3, row 25 has 4"),
    # row 1 sets the weight; a later block of the same other weight comes after it
    ([(2, b"1"), (34, 2, b"x")], "line 3: RrSD rows must share one weight: row 1 has 4, row 2 has 3"),
])
def test_threaded_reader_keeps_the_rrsd_weight_rule_in_row_order(defects, message, tmp_path,
                                                                 eight_workers):
    text = dumps_gtm1(gen_rrsd(ROWS, COLS, 3, 5)).encode("ascii")
    for defect in defects:
        text = _flip(text, *defect) if len(defect) == 2 else _plant(text, *defect)
    assert _read_error(tmp_path / "m.gtm1", text) == message


def test_threaded_reader_reports_a_row_of_weight_zero(tmp_path, eight_workers):
    text = dumps_gtm1(gen_rrsd(ROWS, COLS, 1, 5)).encode("ascii")
    text = _flip(_flip(text, 27, b"0"), 35, b"0")
    assert _read_error(tmp_path / "m.gtm1", text) == "line 27: RrSD row has weight 0"


@pytest.mark.parametrize("extra,message", [
    (b"101010101\n", "line 42: expected 40 row lines, found more"),
    (b"x", "line 42: expected 40 row lines, found more"),
])
def test_threaded_reader_rejects_rows_past_m(extra, message, tmp_path, eight_workers):
    text = dumps_gtm1(gen_rid(ROWS, COLS, 0.5, 3)).encode("ascii")
    assert _read_error(tmp_path / "m.gtm1", text + extra) == message


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=gtm1_matrices(), block_rows=st.integers(1, 3), data=st.data())
def test_threaded_reader_agrees_with_the_sequential_reader(matrix, block_rows, data, tmp_path,
                                                           monkeypatch, codec_workers):
    # up to three bytes changed, in blocks of up to 3 rows on up to 6 workers
    monkeypatch.setattr(core, "_BLOCK_BYTES", block_rows * (matrix.n + 1))
    text = bytearray(dumps_gtm1(matrix).encode("ascii"))
    header = text.index(b"\n") + 1
    for _ in range(data.draw(st.integers(1, 3), label="changes")):
        pos = data.draw(st.integers(header, len(text) - 1), label="pos")
        text[pos] = data.draw(st.sampled_from(b"01\nx\r\xe9"), label="value")
    path = tmp_path / "m.gtm1"
    path.write_bytes(text)
    try:
        expected = core._decode(io.BytesIO(bytes(text)))
    except ParseError as exc:
        with pytest.raises(ParseError) as threaded:
            read_gtm1(path)
        assert str(threaded.value) == str(exc)
    else:
        assert read_gtm1(path) == expected


@pytest.mark.parametrize("cut", [0, 1])
def test_reader_checks_the_rrsd_weight_rule_before_a_short_files_end(cut, tmp_path, codec_workers):
    # row 2 breaks the rule before the file ends, without row 3's LF or with it
    text = b"GTM1 3 4 RrSD 0\n1100\n1110\n0011\n"
    assert _read_error(tmp_path / "m.gtm1", text[: len(text) - cut]) == (
        "line 3: RrSD rows must share one weight: row 1 has 2, row 2 has 3")


def _truncation_cases(text: bytes, model: str):
    """(data, expected) for ``text`` cut at every byte of its body: the cut
    alone, then the cut after a defect planted two rows or more before it,
    which the uncut file reports the same way."""
    header = text.index(b"\n") + 1
    plants = [(3, b"x"), (5, b"\n"), (10, b"1"), (1, b"\xe9")]
    for cut in range(header, len(text)):
        line, column = divmod(cut - header, COLS + 1)
        line += 2
        if column:
            yield text[:cut], f"line {line}: missing trailing newline"
        else:
            yield text[:cut], f"line {line}: expected {ROWS} row lines, found {line - 2}"
        if line >= 4:
            at = 2 + cut % (line - 3)  # a line two or more before the cut
            kind = cut % (len(plants) + (model == "rrsd"))
            if kind < len(plants):
                planted = _plant(text, at, *plants[kind])
            else:  # RrSD: a row of another weight
                planted = _flip(text, at, b"1" if cut % 2 else b"0")
            yield planted[:cut], planted


@pytest.mark.parametrize("model", ["rid", "rrsd"])
def test_reader_reports_the_first_defect_of_a_file_cut_at_every_byte(model, tmp_path, monkeypatch,
                                                                     codec_workers):
    monkeypatch.setattr(core, "_BLOCK_BYTES", 2 * (COLS + 1))
    matrix = gen_rid(ROWS, COLS, 0.5, 3) if model == "rid" else gen_rrsd(ROWS, COLS, 3, 5)
    text = dumps_gtm1(matrix).encode("ascii")
    path = tmp_path / "m.gtm1"
    for data, expected in _truncation_cases(text, model):
        if isinstance(expected, bytes):  # the uncut file, on every worker
            expected = _read_error(path, expected)
        assert _read_error(path, data) == expected, data


def _peak_of_read(path) -> tuple[str, int]:
    """The error of reading ``path`` and the peak of memory traced while reading it."""
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            read_gtm1(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(exc.value), peak


_SMALL_BLOCK = 1 << 14


@pytest.mark.parametrize("model", ["rid", "rrsd"])
def test_short_file_is_checked_in_a_few_blocks_of_memory(model, tmp_path, monkeypatch, codec_workers):
    # 1 MiB of rows, 64 blocks of 16 KiB, cut one byte short
    monkeypatch.setattr(core, "_BLOCK_BYTES", _SMALL_BLOCK)
    m, n = 1 << 14, 63
    matrix = gen_rid(m, n, 0.5, 3) if model == "rid" else gen_rrsd(m, n, 9, 5)
    path = tmp_path / "m.gtm1"
    path.write_bytes(dumps_gtm1(matrix).encode("ascii")[:-1])
    message, peak = _peak_of_read(path)
    assert message == f"line {m + 1}: missing trailing newline"
    assert peak < 8 * _SMALL_BLOCK
    # a header that claims far more than the file holds costs no more
    path.write_bytes(b"GTM1 99999999999 99999999999 RrSD 0\n" + b"0110\n" * (1 << 10))
    message, peak = _peak_of_read(path)
    assert message == "line 2, column 5: expected 99999999999 characters, got 4"
    assert peak < 8 * _SMALL_BLOCK


def test_overlong_row_is_counted_in_a_few_blocks_of_memory(tmp_path, monkeypatch, codec_workers):
    monkeypatch.setattr(core, "_BLOCK_BYTES", _SMALL_BLOCK)
    path = tmp_path / "m.gtm1"
    path.write_bytes(b"GTM1 2 3 RID 0\n" + b"1" * (1 << 20) + b"\n101\n")
    message, peak = _peak_of_read(path)
    assert message == f"line 2, column 4: expected 3 characters, got {1 << 20}"
    assert peak < 8 * _SMALL_BLOCK


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix=gtm1_matrices(), block=st.integers(1, 20), data=st.data())
def test_rows_wider_than_a_block_read_in_pieces_as_whole_rows(matrix, block, data, tmp_path,
                                                             monkeypatch, codec_workers):
    # up to three bytes changed and the file maybe cut, read with blocks of
    # 1 to 20 bytes: pieces of 8 or 16 cells, or rows in blocks of their own
    text = bytearray(dumps_gtm1(matrix).encode("ascii"))
    header = text.index(b"\n") + 1
    for _ in range(data.draw(st.integers(0, 3), label="changes")):
        pos = data.draw(st.integers(header, len(text) - 1), label="pos")
        text[pos] = data.draw(st.sampled_from(b"01\nx\xe9"), label="value")
    if data.draw(st.booleans(), label="cut"):
        text = text[: data.draw(st.integers(header, len(text)), label="end")]
    text += b"1" * data.draw(st.sampled_from((0, 0, 1, 40)), label="extra")
    try:
        expected = core._decode(io.BytesIO(bytes(text)))
    except ParseError as exc:
        expected = str(exc)
    path = tmp_path / "m.gtm1"
    path.write_bytes(text)
    with monkeypatch.context() as patch:
        patch.setattr(core, "_BLOCK_BYTES", block)
        for read in (lambda: read_gtm1(path), lambda: core._decode(io.BytesIO(bytes(text)))):
            try:
                got = read()
            except ParseError as exc:
                got = str(exc)
            assert got == expected


@pytest.mark.parametrize("model", ["rid", "rrsd"])
@pytest.mark.parametrize("n", [96, 100])
@pytest.mark.parametrize("block", [1, 8, 15, 16, 40])
def test_rows_wider_than_a_block_round_trip(model, n, block, tmp_path, monkeypatch,
                                            codec_workers):
    # pieces of 8, 16 or 40 cells; at n = 96 the last piece of a row is its LF alone
    matrix = gen_rid(9, n, 0.5, 3) if model == "rid" else gen_rrsd(9, n, 37, 5)
    path = tmp_path / "m.gtm1"
    write_gtm1(matrix, path)
    monkeypatch.setattr(core, "_BLOCK_BYTES", block)
    assert read_gtm1(path) == matrix
    assert parse_gtm1(path.read_text()) == matrix


_WIDE = 1 << 25  # a 32 MiB row: 16 blocks


@pytest.mark.parametrize("case", ["rrsd", "bad byte"])
def test_a_row_wider_than_a_block_is_checked_in_a_few_blocks_of_memory(case, tmp_path):
    path = tmp_path / "m.gtm1"
    if case == "rrsd":  # row 1's weight is counted and the row checked a block at a time
        path.write_bytes(b"GTM1 2 %d RrSD 0\n" % _WIDE + b"1" * _WIDE)
        message = "line 2: missing trailing newline"
    else:  # a full-size file fails the packing pass near its end, then is named
        path.write_bytes(b"GTM1 1 %d RID 0\n" % _WIDE + b"0" * (_WIDE - 3) + b"x01\n")
        message = f"line 2, column {_WIDE - 2}: invalid character 'x'"
    got, peak = _peak_of_read(path)
    assert got == message
    assert peak < 8 * core._BLOCK_BYTES


@pytest.mark.parametrize("model,param", DRAWN)
@pytest.mark.parametrize("n", [96, 100, 161])
@pytest.mark.parametrize("block", [1, 8, 15, 16, 40])
def test_rows_wider_than_a_block_are_written_in_pieces(model, param, n, block, tmp_path,
                                                       monkeypatch, codec_workers):
    # pieces of 8, 16 or 40 cells, against whole rows in one block; at
    # n = 96 the last piece of a row is its LF alone
    matrix = randgen.seeded_matrix(model, 5, n, param, 23)
    whole_path, path = tmp_path / "whole.gtm1", tmp_path / "m.gtm1"
    write_gtm1(matrix, whole_path)
    whole = whole_path.read_bytes()
    assert whole == reference_dumps(matrix.draw()).encode("ascii")
    monkeypatch.setattr(core, "_BLOCK_BYTES", block)
    for source in (matrix, matrix.draw()):
        stream = io.BytesIO()
        core.dump_gtm1(source, stream)
        assert stream.getvalue() == whole
        write_gtm1(source, path)
        assert path.read_bytes() == whole


class _HashSink:
    """A binary file that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, data) -> int:
        self.hash.update(data)
        return len(data)


@pytest.mark.parametrize("source", ["packed", "rid"])
def test_a_row_wider_than_a_block_is_written_in_a_few_blocks_of_memory(source):
    # a 32 MiB row of text, 16 blocks: a packed row costs its copy and two
    # blocks, a drawn row the same
    if source == "packed":
        bits = np.random.default_rng(3).integers(0, 256, (1, _WIDE // 8), np.uint8)
        matrix = TestMatrix(1, _WIDE, bits)
    else:
        matrix = randgen.seeded_matrix("rid", 1, _WIDE, 0.75, 3)
        gen_rid(1, 1, 0.5, 5)  # numpy.random is imported on first use, not counted here
    sink = _HashSink()
    tracemalloc.start()
    try:
        core.dump_gtm1(matrix, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _WIDE // 8 + 3 * core._BLOCK_BYTES, peak
    whole = _HashSink()
    whole.write(reference_dumps(matrix if source == "packed" else matrix.draw()).encode("ascii"))
    assert sink.hash.digest() == whole.hash.digest()


def test_codec_moves_blocks_by_position_only_in_regular_files(tmp_path):
    path = tmp_path / "m.gtm1"
    with open(path, "wb") as f:
        assert core._positional(f) == (f.fileno() if hasattr(os, "preadv") else None)
    read, write = os.pipe()
    with open(read, "rb") as r, open(write, "wb") as w:
        assert core._positional(r) is None and core._positional(w) is None


# ---------------------------------------------------------------------------
# GTM1 answers read in one pass, without the matrix
# ---------------------------------------------------------------------------

def _answer_matrix(tag: str, m: int, n: int) -> TestMatrix:
    if tag == "RID":
        return gen_rid(m, n, 0.5, n)
    if tag == "RrSD":
        return gen_rrsd(m, n, max(1, n // 3), n)
    dense = np.random.default_rng(n).integers(0, 2, (m, n), dtype=np.uint8)
    return TestMatrix.from_dense(dense)


@pytest.mark.parametrize("tag", MODEL_TAGS)
@pytest.mark.parametrize("n", [7, 8, 9, 96, 100])
@pytest.mark.parametrize("block", [1, 8, 15, 16, 40, "2 rows", "3 rows", None])
def test_streamed_answers_are_the_answers_of_the_read_matrix(tag, n, block, tmp_path,
                                                             monkeypatch, codec_workers):
    # 7 rows in blocks of 2 or 3 rows, or wider than a block, in pieces of
    # 8, 16 or 40 cells; at n = 96 the last piece of a row is its LF alone
    matrix = _answer_matrix(tag, 7, n)
    path = tmp_path / "m.gtm1"
    write_gtm1(matrix, path)
    if isinstance(block, str):
        block = int(block[0]) * (n + 1)
    if block is not None:
        monkeypatch.setattr(core, "_BLOCK_BYTES", block)
    edges = {1, 8, 9, 15, 16, 17, 40, 41, n - 1, n}
    for items in [(), (1,), (n,), tuple(i for i in edges if 1 <= i <= n), range(1, n + 1)]:
        expected = answer_vector(read_gtm1(path), items)
        got = core._answer_gtm1(path, lambda _: items)
        assert got.dtype == np.uint8 and np.array_equal(got, expected), items
        # the same block loop on as many workers
        assert codec_workers[-1] == codec_workers[-2]


def _error_of(read) -> tuple[str, int | None, int | None]:
    with pytest.raises(ParseError) as exc:
        read()
    return str(exc.value), exc.value.line, exc.value.column


@pytest.mark.parametrize("model", ["rid", "rrsd"])
def test_streamed_answers_raise_the_readers_error_on_a_file_cut_at_every_byte(
        model, tmp_path, monkeypatch, codec_workers):
    # every cut and each uncut file with a planted defect, once each and
    # under a name of its own (rewriting one file can cost far more than
    # reading it); an item past n, which is reported only on a good matrix
    monkeypatch.setattr(core, "_BLOCK_BYTES", 2 * (COLS + 1))
    matrix = gen_rid(ROWS, COLS, 0.5, 3) if model == "rid" else gen_rrsd(ROWS, COLS, 3, 5)
    text = dumps_gtm1(matrix).encode("ascii")
    files = {data for case in _truncation_cases(text, model) for data in case
             if isinstance(data, bytes)}
    for i, data in enumerate(sorted(files)):
        path = tmp_path / f"{i}.gtm1"
        path.write_bytes(data)
        expected = _error_of(lambda: read_gtm1(path))
        assert _error_of(lambda: core._answer_gtm1(path, lambda n: (1, n + 1))) == expected, data


def test_streamed_answers_raise_an_item_error_once_the_matrix_has_passed(tmp_path):
    path = tmp_path / "m.gtm1"
    path.write_bytes(b"GTM1 2 3 RID 0\n010\n001\n")
    with pytest.raises(InputError, match="item index must be <= 3, got 4"):
        core._answer_gtm1(path, lambda n: (n + 1,))

    def missing(n):
        raise FileNotFoundError("no such file")

    with pytest.raises(FileNotFoundError):
        core._answer_gtm1(path, missing)
    path.write_bytes(b"GTM1 2 3 RID 0\n010\n002\n")
    assert _error_of(lambda: core._answer_gtm1(path, missing)) == (
        "line 3, column 3: invalid character '2'", 3, 3)


def test_streamed_answers_hold_a_few_blocks_of_memory(tmp_path, monkeypatch):
    # 1 MiB of packed bits in blocks of 64 KiB, on 2 workers: the reader
    # holds the bits, the answers only a block a worker
    block = 1 << 16
    monkeypatch.setattr(core, "_BLOCK_BYTES", block)
    monkeypatch.setattr(core, "_worker_count", lambda: 2)
    matrix = gen_rid(1 << 13, 1023, 0.5, 3)
    assert matrix.bits.nbytes > 8 * block
    path = tmp_path / "m.gtm1"
    write_gtm1(matrix, path)
    items = (1, 600, 1023)
    peaks = []
    for read in (lambda: answer_vector(read_gtm1(path), items),
                 lambda: core._answer_gtm1(path, lambda n: items)):
        tracemalloc.start()
        try:
            answers = read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(answers, answer_vector(matrix, items))
    assert peaks[0] > matrix.bits.nbytes and peaks[1] < 8 * block, peaks
