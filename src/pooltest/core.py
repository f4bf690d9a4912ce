"""Core domain types and answer semantics for pooled group testing.

A *test matrix* is an m x n boolean matrix: rows are pooled tests, columns
are items (1-based outside this module). A test answers positive (1) exactly
when its pool intersects the set of defective items, so the vector of
answers for a defective set I is the bitwise OR of the columns indexed by I.

Rows are stored bit-packed (one ``uint8`` holds 8 cells, most significant
bit first) because decoding is row-driven: elimination ORs whole rows, and
column bits are extracted on demand. All types here are immutable after
construction and safe to share across threads; every operation is a pure
function.

Matrix interchange uses the ``GTM1`` text format::

    GTM1 <m> <n> <model_tag> <seed>
    <row 1: exactly n characters, each '0' or '1'>
    ...
    <row m>

The grammar is strict, and the codec reads and writes bytes:

* the file is ASCII, and every line, including the last row, ends with a
  single LF (``\\n``); a CR is an invalid character, not part of a newline;
* the header has five fields separated by single spaces; m, n and seed are
  canonical decimal integers, ``0|[1-9][0-9]*``, with m and n at least 1;
* model_tag is one of ``RID``, ``RrSD`` or ``Explicit``; ``RrSD`` rows share
  one weight of at least 1;
* no byte follows row m.

A file that breaks a rule raises ``ParseError`` with the 1-based line, and
within a row the column, of its first defect in file order. ``write`` after
``read`` reproduces a valid file byte for byte.

The codec runs one block loop, ``_each_block``, over blocks of about 2 MiB
of rows. ``write_gtm1`` and ``dump_gtm1`` take a ``TestMatrix``, whose
packed blocks are copied, or a seeded matrix of ``pooltest.randgen``, whose
packed blocks are drawn as they are written, and unpack each block to text,
a row wider than a block in pieces of a block. The reader checks each block
in its read buffer and hands its 0/1 cells, a wide row in pieces too, to a
sink, which ``read_gtm1(path, sink_of)`` chooses:

* ``_packer``, the default, packs them into a ``TestMatrix``;
* ``_gatherer`` keeps a few columns, packed, or only each row's OR of them
  (``answer`` takes its items' OR; ``decode`` the survivors' columns for its
  exhaustive finish);
* ``_eliminator`` ORs the rows of the negative tests into an n-byte row per
  worker: the items left at 0 survive elimination.

The last two never hold the matrix. An ``InputError`` or ``OSError`` that
``sink_of`` raises, an error in the sink's own input (an item list, an
answers file), ``read_gtm1`` holds back until every block has been checked,
so that every matrix error comes first. A block only detects a defect. One
sequential pass, ``_first_defect``, from the first failing block on (from
row 1 for a file shorter than its header says), reports each defect, a
block or a piece at a time: a bad file of any size, or with rows of any
width, costs a few blocks of memory beyond what its sink keeps.
"""

from __future__ import annotations

import errno
import io
import math
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "PoolTestError",
    "InputError",
    "ParseError",
    "BudgetExceededError",
    "MODEL_TAGS",
    "MODELS",
    "PROPERTIES",
    "TestMatrix",
    "DesignSpec",
    "validate_items",
    "validate_answers",
    "answer_vector",
    "dump_gtm1",
    "dumps_gtm1",
    "parse_gtm1",
    "write_gtm1",
    "read_gtm1",
]


class PoolTestError(Exception):
    """Base error for this package."""


class InputError(PoolTestError, ValueError):
    """Inputs violate a documented contract (domain, range, shape)."""


class ParseError(InputError):
    """A text artifact (GTM1 matrix, answer line, item list) is malformed.

    ``line`` and ``column`` are 1-based positions when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(f"{where}{message}")
        self.line = line
        self.column = column


class BudgetExceededError(PoolTestError):
    """An exhaustive phase would exceed its configured work budget."""


MODEL_TAGS = ("RID", "RrSD", "Explicit")
MODELS = ("rid", "rrsd")
PROPERTIES = ("disjunct", "separable", "semidisjunct")

_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _require_int(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    v = int(value)
    if minimum is not None and v < minimum:
        raise InputError(f"{name} must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise InputError(f"{name} must be <= {maximum}, got {v}")
    return v


def _require_choice(value, name: str, choices: tuple) -> None:
    # a name is text: ``in`` compares an array element by element, which
    # would pass a one-name array and raise numpy's error on a longer one
    if not isinstance(value, str) or value not in choices:
        raise InputError(f"{name} must be one of {choices}, got {value!r}")


def _require_open_unit(value, name: str) -> float:
    """``value`` as a float strictly inside (0, 1): a probability or a delta."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
        raise InputError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not 0.0 < v < 1.0:  # NaN fails too
        raise InputError(f"{name} must lie strictly inside (0, 1), got {v}")
    return v


@dataclass(frozen=True, eq=False)
class TestMatrix:
    """Immutable bit-packed m x n test matrix.

    ``bits`` has shape ``(m, ceil(n/8))`` and dtype ``uint8``; cell (j, i)
    (0-based) lives in byte ``i // 8`` of row j at bit mask ``0x80 >> (i % 8)``.
    Padding bits past column n are always zero. ``seed`` records the
    generator seed the matrix was drawn from (0 for explicit matrices) so
    any derived quantity can name its source. The constructor stores a
    read-only copy of ``bits``, so writing to the caller's array, a view of
    it or its base leaves the matrix unchanged.
    """

    m: int
    n: int
    bits: np.ndarray
    model_tag: str = "Explicit"
    seed: int = 0

    def __post_init__(self):
        self._check()
        bits = self.bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _adopt(cls, m: int, n: int, bits: np.ndarray, model_tag: str, seed: int) -> "TestMatrix":
        """A matrix around ``bits``, an array its caller made and hands over: no copy."""
        matrix = cls.__new__(cls)
        for name, value in zip(("m", "n", "bits", "model_tag", "seed"), (m, n, bits, model_tag, seed)):
            object.__setattr__(matrix, name, value)
        matrix._check()
        bits.setflags(write=False)
        return matrix

    def _check(self) -> None:
        _require_int(self.m, "m", 1)
        _require_int(self.n, "n", 1)
        _require_int(self.seed, "seed", 0)
        _require_choice(self.model_tag, "model_tag", MODEL_TAGS)
        if not isinstance(self.bits, np.ndarray) or self.bits.dtype != np.uint8:
            raise InputError("bits must be a uint8 ndarray")
        nbytes = (self.n + 7) // 8
        if self.bits.shape != (self.m, nbytes):
            raise InputError(
                f"bits shape {self.bits.shape} does not match (m, ceil(n/8)) = {(self.m, nbytes)}"
            )
        pad = (-self.n) % 8
        if pad and int(self.bits[:, -1].max(initial=0)) & ((1 << pad) - 1):
            raise InputError("padding bits past column n must be zero")

    @classmethod
    def from_dense(cls, rows, model_tag: str = "Explicit", seed: int = 0) -> "TestMatrix":
        """Build a matrix from a dense 0/1 array of shape (m, n)."""
        dense = np.asarray(rows)
        if dense.ndim != 2:
            raise InputError("dense rows must be a 2-d array")
        if dense.dtype != bool:
            vals = np.unique(dense)
            if not np.isin(vals, (0, 1)).all():
                raise InputError("dense cells must be 0 or 1")
            dense = dense.astype(bool)
        m, n = dense.shape
        return cls._adopt(m, n, np.packbits(dense, axis=1), model_tag, seed)

    @classmethod
    def identity(cls, n: int) -> "TestMatrix":
        """The n x n identity design: test j contains exactly item j."""
        return cls.from_dense(np.eye(n, dtype=bool))

    def dense(self) -> np.ndarray:
        """Unpacked uint8 array of shape (m, n)."""
        return np.unpackbits(self.bits, axis=1, count=self.n)

    def get(self, row: int, item: int) -> int:
        """Cell value for 0-based ``row`` and 1-based ``item``."""
        _require_int(row, "row", 0, self.m - 1)
        _require_int(item, "item", 1, self.n)
        i = item - 1
        return (int(self.bits[row, i >> 3]) >> (7 - (i & 7))) & 1

    def row_items(self, row: int) -> tuple[int, ...]:
        """1-based items pooled in 0-based test ``row``."""
        _require_int(row, "row", 0, self.m - 1)
        return tuple((np.flatnonzero(np.unpackbits(self.bits[row], count=self.n)) + 1).tolist())

    def _fill_bits(self, r: int, k: int, out: np.ndarray) -> None:
        """The packed k rows from 0-based row r on, into the uint8 (k, ceil(n/8)) ``out``."""
        out[...] = self.bits[r : r + k]

    def row_weights(self) -> np.ndarray:
        """Number of items in each test."""
        return _POPCOUNT8[self.bits].sum(axis=1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TestMatrix):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self.model_tag == other.model_tag
            and self.seed == other.seed
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __repr__(self) -> str:
        return f"TestMatrix(m={self.m}, n={self.n}, model_tag={self.model_tag!r}, seed={self.seed})"


@dataclass(frozen=True)
class DesignSpec:
    """A resolved pool design: problem size plus derived test parameters.

    ``zero_prob`` is the probability that a cell is ZERO in the ``rid``
    model (so a cell is 1 with probability ``1 - zero_prob``); ``row_weight``
    is the exact number of items per test in the ``rrsd`` model. Exactly one
    of the two is set, matching ``model``.
    """

    n: int
    d: int
    delta: float
    model: str
    property_name: str
    m: int
    zero_prob: float | None = None
    row_weight: int | None = None

    def __post_init__(self):
        _require_int(self.n, "n", 2)
        _require_int(self.d, "d", 1)
        _require_int(self.m, "m", 1)
        if self.d > self.n:
            raise InputError(f"d must be <= n, got d={self.d}, n={self.n}")
        _require_open_unit(self.delta, "delta")
        _require_choice(self.model, "model", MODELS)
        _require_choice(self.property_name, "property", PROPERTIES)
        if self.property_name != "disjunct" and self.d < 2:
            raise InputError(f"d must be >= 2 for {self.property_name}")
        if self.model == "rid":
            _require_open_unit(self.zero_prob, "zero_prob")
            if self.row_weight is not None:
                raise InputError("rid model does not take row_weight")
        else:
            if self.row_weight is None:
                raise InputError("rrsd model requires row_weight")
            _require_int(self.row_weight, "row_weight", 1, self.n)
            if self.zero_prob is not None:
                raise InputError("rrsd model does not take zero_prob")


def validate_items(items: Iterable[int], n: int) -> tuple[int, ...]:
    """Normalize an item collection to a sorted duplicate-free 1-based tuple."""
    out = []
    for it in items:
        out.append(_require_int(it, "item index", 1, n))
    out.sort()
    for a, b in zip(out, out[1:]):
        if a == b:
            raise InputError(f"duplicate item index {a}")
    return tuple(out)


# What np.asarray raises for a ragged sequence: numpy 1.24 on refuses it with
# ValueError; 1.23 warns, and where the warning is an error, raises it.
_RAGGED = (ValueError, getattr(np, "exceptions", np).VisibleDeprecationWarning)


def validate_answers(matrix: TestMatrix, answers: Sequence[int] | np.ndarray) -> np.ndarray:
    """Normalize an answer vector to a length-m uint8 array of 0/1.

    A value is accepted when it compares equal to 0 or 1, so 1.0, -0.0 and
    1+0j are answers and 0.5, NaN and 2 are not. Text is never an answer:
    an array of strings is refused before any compare, as comparing one with
    a number is an error or a warning in some numpy versions. So is a ragged
    sequence, such as ``[1, [0, 1], 1]``.
    """
    try:
        arr = np.asarray(answers)
    except _RAGGED:
        raise InputError("answers must be a flat sequence of 0s and 1s") from None
    if arr.ndim != 1 or len(arr) != matrix.m:
        raise InputError(f"answer vector must have length m={matrix.m}, got {arr.shape}")
    if arr.dtype == bool:
        return arr.astype(np.uint8)
    if arr.dtype.kind in "US":
        raise InputError("answers must be 0 or 1")
    one = arr == 1
    if not (one | (arr == 0)).all():
        raise InputError("answers must be 0 or 1")
    return one.view(np.uint8)


# The bit of item i + 1 in byte i // 8 of a matrix row, by i % 8.
_BIT = np.array([0x80 >> b for b in range(8)], np.uint8)


def _cells(matrix: TestMatrix, items: Sequence[int]) -> np.ndarray:
    """The m x k cells of the 1-based ``items``, in order, one byte a cell: 0 if not pooled."""
    columns = np.asarray(items, dtype=np.intp) - 1
    return matrix.bits.take(columns >> 3, axis=1) & _BIT[columns & 7]


def answer_vector(matrix: TestMatrix, items: Iterable[int]) -> np.ndarray:
    """Answers of every test for defective set ``items``: OR of the columns.

    The empty set yields the all-zero vector.
    """
    return _cells(matrix, validate_items(items, matrix.n)).any(axis=1).view(np.uint8)


# ---------------------------------------------------------------------------
# Worker threads, shared by the GTM1 codec and the matrix generators
# ---------------------------------------------------------------------------

def _worker_count() -> int:
    """Worker threads for parallel work: one per CPU the process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def _run_workers(workers: int, job: Callable[[int], None]) -> None:
    """``job(0)`` ... ``job(workers - 1)``, each on a thread of its own; one
    worker runs on the calling thread."""
    if workers == 1:
        job(0)
        return
    # imported here, as it adds about a tenth to the package's import time
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(job, k) for k in range(workers)]:
            future.result()


# ---------------------------------------------------------------------------
# GTM1 text format
# ---------------------------------------------------------------------------

# Row bytes a worker encodes, or checks and packs, per block, in buffers of
# its own. A 2 MiB block stays in cache, and the codec's working memory is a
# few blocks per worker whatever the matrix size. One row wider than this is
# one block, which the writer and the reader take in pieces (``_row_piece``).
_BLOCK_BYTES = 1 << 21
# Cap on the header line, so a file without newlines is not read whole.
_HEADER_BYTES = 1 << 16
_HEADER_FORM = "header must be 'GTM1 <m> <n> <model_tag> <seed>'"
_ZERO, _ONE, _LF = ord("0"), ord("1"), ord("\n")


def _block_rows(m: int, n: int) -> int:
    return max(1, min(m, _BLOCK_BYTES // (n + 1)))


def _row_piece(n: int) -> int:
    """Bytes of a row the codec takes at a time: the whole row if it fits a
    block, else a block's whole bytes of bits (8 cells each), so that a row
    wider than a block, alone in its block, is read and written in pieces."""
    width = n + 1
    return width if width <= _BLOCK_BYTES else max(8, _BLOCK_BYTES & ~7)


def _positional(f: BinaryIO) -> int | None:
    """The descriptor of ``f``, a file the codec opened itself, if its blocks
    can move by position: a regular file, on a platform with ``preadv``."""
    fd = f.fileno()
    return fd if hasattr(os, "preadv") and stat.S_ISREG(os.fstat(fd).st_mode) else None


def _pwrite(fd: int, data: memoryview, offset: int) -> None:
    while data:
        done = os.pwrite(fd, data, offset)
        data, offset = data[done:], offset + done


def _pread(fd: int, data: memoryview, offset: int) -> int:
    """Fill ``data`` from ``offset`` on; the count of bytes read, short at the end of the file."""
    got = 0
    while got < len(data):
        done = os.preadv(fd, [data[got:]], offset + got)
        if not done:
            break
        got += done
    return got


def _each_block(m: int, rows: int, parallel: bool,
                make_step: Callable[[], Callable[[int, int], bool]]) -> int:
    """Run a step over m rows in blocks of ``rows`` rows: the one block loop
    of the GTM1 codec and of the matrix generators.

    ``make_step()`` gives each worker its step, with buffers of its own;
    ``step(r, k)`` does the k rows from 0-based row r on and returns False
    at a defect. Unless ``parallel``, one worker on the calling thread takes
    the blocks in order. If ``parallel``, one worker per CPU, at most one per
    block, takes every workers-th block, in order. A worker stops at a
    defect, or at a block past one where another stopped, so every block
    before the first stop is done. Returns the first row where a step
    stopped, or m.
    """
    workers = min(-(-m // rows), _worker_count()) if parallel else 1
    stops = [m] * workers  # each worker writes its own slot only

    def run(w: int) -> None:
        step = make_step()
        for r in range(w * rows, m, workers * rows):
            if r > min(stops):
                return
            if not step(r, min(rows, m - r)):
                stops[w] = r
                return

    _run_workers(workers, run)
    return min(stops)


def _dump(matrix, f: BinaryIO, fd: int | None) -> None:
    """Write ``matrix`` to ``f``, its blocks by position through ``fd`` if
    it is not None (see ``_each_block``).

    ``matrix`` is a ``TestMatrix`` or any other m x n matrix with a
    ``model_tag``, a ``seed`` and ``_fill_bits(r, k, out)``, which puts its
    k rows from row r on, packed as ``TestMatrix.bits`` holds them, into the
    uint8 (k, ceil(n/8)) array ``out``: a seeded matrix of
    ``pooltest.randgen`` draws them there, so it is written without ever
    being held whole. Each block, or each piece of a row wider than a
    block (``_row_piece``), is unpacked straight into the layout of its
    text, a 0 in each LF's place, then ORed with '0' and given its LFs in
    place. A file written by position is given its whole size before any
    row is drawn.
    """
    m, n = matrix.m, matrix.n
    width, piece = n + 1, _row_piece(n)
    header = f"GTM1 {m} {n} {matrix.model_tag} {matrix.seed}\n".encode("ascii")
    f.write(header)
    if fd is not None:
        f.flush()  # the blocks go around f, after the header
        try:  # the whole size first: ext4 then does no per-page delayed allocation
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fd, 0, len(header) + m * width)
        except OSError as exc:  # a file system that cannot is skipped, a full disk is not
            if exc.errno not in (errno.EINVAL, errno.EOPNOTSUPP):
                raise
    rows = _block_rows(m, n)

    def make_step():
        packed = np.empty((rows, (n + 7) // 8), dtype=np.uint8)

        def step(r: int, k: int) -> bool:
            matrix._fill_bits(r, k, packed[:k])
            for c in range(0, width, piece):  # one piece, unless a row is wider than a block
                w = min(piece, width - c)
                # w cells from column c on, with 0s past column n: the padding
                # bits, or unpackbits' zero fill when n % 8 == 0
                blk = np.unpackbits(packed[:k, c >> 3 : (c + w + 7) >> 3], axis=1, count=w)
                np.bitwise_or(blk, _ZERO, out=blk)
                if c + w > n:  # the rows' last piece, with their LFs
                    blk[:, n - c] = _LF
                if fd is None:
                    f.write(memoryview(blk))
                else:
                    _pwrite(fd, memoryview(blk).cast("B"), len(header) + r * width + c)
            return True

        return step

    _each_block(m, rows, fd is not None, make_step)


def dump_gtm1(matrix, f: BinaryIO) -> None:
    """Write ``matrix`` as GTM1 to the binary file ``f``, one block of rows at a time."""
    _dump(matrix, f, None)


def _canonical_int(raw: bytes) -> int | None:
    """``raw`` read as a canonical ASCII decimal, ``0|[1-9][0-9]*``, else None."""
    if raw.isdigit() and (raw == b"0" or not raw.startswith(b"0")):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    return None


# the one grammar of real numbers on the command line: ASCII, no sign
_REAL = re.compile(rb"(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def _canonical_real(raw: bytes) -> float | None:
    """``raw`` read as a finite ASCII decimal matching ``_REAL``, else None."""
    if _REAL.fullmatch(raw):
        value = float(raw)
        if math.isfinite(value):
            return value
    return None


def _header_int(raw: bytes, message: str) -> int:
    value = _canonical_int(raw)
    if value is None:
        raise ParseError(message, line=1)
    return value


def _read_header(f: BinaryIO) -> tuple[int, int, str, int]:
    line = f.readline(_HEADER_BYTES)
    if not line:
        raise ParseError("empty file", line=1)
    if not line.endswith(b"\n"):
        at_eof = len(line) < _HEADER_BYTES
        raise ParseError("missing trailing newline" if at_eof else _HEADER_FORM, line=1)
    fields = line[:-1].split(b" ")
    if len(fields) != 5 or fields[0] != b"GTM1":
        raise ParseError(_HEADER_FORM, line=1)
    m = _header_int(fields[1], "m and n must be integers")
    n = _header_int(fields[2], "m and n must be integers")
    tag = fields[3].decode("ascii", "backslashreplace")
    if tag not in MODEL_TAGS:
        raise ParseError(f"unknown model tag '{tag}'", line=1)
    seed = _header_int(fields[4], "seed must be an integer")
    if m < 1 or n < 1:
        raise ParseError("m and n must be >= 1", line=1)
    return m, n, tag, seed


def _first_defect(f: BinaryIO, body: int, row: int, m: int, n: int,
                  shared: int | None) -> ParseError:
    """The error for the first defect in the rows of ``f`` from 0-based row
    ``row`` on, whose rows before it are good.

    ``body`` is the offset of row 1 and ``shared`` row 1's weight in an RrSD
    file, else None. One block of rows, or one piece of a wide row
    (``_row_piece``), at a time, in file order, it names a malformed row, a
    break of the RrSD rule, missing rows or, past m good rows, bytes after
    row m; an overlong row is counted to its LF in blocks.
    """
    width, rows, piece = n + 1, _block_rows(m, n), _row_piece(n)
    end = f.seek(0, io.SEEK_END)
    f.seek(body + row * width)
    for r in range(row, m, rows):
        k = min(rows, m - r)
        weights = 0
        for c in range(0, width, piece):  # one piece, unless a row is wider than a block
            w = min(piece, width - c)
            data = f.read(min(k * w, end - f.tell()))
            arr = np.frombuffer(data, dtype=np.uint8)
            full = len(arr) // w
            blk = arr[: full * w].reshape(full, w)
            cells = blk[:, : n - c] - _ZERO  # uint8 wraps: a byte below '0' is > 1 too
            malformed = (cells > 1).any(axis=1)
            if c + w > n:  # the rows' last piece, with their LFs
                malformed |= blk[:, n - c] != _LF
            bad = malformed
            if shared is not None:
                weights = weights + cells.sum(axis=1)
                if c + w > n:  # RrSD: a well-formed row of weight 0 or not row 1's
                    bad = malformed | (weights == 0) | (weights != shared)
            i = int(np.argmax(bad)) if bad.any() else full
            if i == k:  # good rows
                continue
            line = r + i + 2
            if i < full and not malformed[i]:
                if not weights[i]:
                    return ParseError("RrSD row has weight 0", line=line)
                return ParseError(f"RrSD rows must share one weight: row 1 has {shared}, "
                                  f"row {r + i + 1} has {int(weights[i])}", line=line)
            cut = arr[i * w : (i + 1) * w]
            ok = (cut - _ZERO) <= 1
            ok[n - c :] = cut[n - c :] == _LF
            p = int(np.argmin(ok)) if not ok.all() else len(cut)
            column = c + p  # 0-based, in the row
            if p == len(cut):  # every byte is in place, but the file ends here
                if column == 0:
                    return ParseError(f"expected {m} row lines, found {line - 2}", line=line)
                return ParseError("missing trailing newline", line=line)
            byte = int(cut[p])
            if column == n and byte in (_ZERO, _ONE):  # the row runs on: count it to its LF
                length, stop = c - i * w, data.find(b"\n", i * w + p)
                while stop < 0 and data:
                    length += len(data)
                    data = f.read(_BLOCK_BYTES)
                    stop = data.find(b"\n")
                return ParseError(f"expected {n} characters, got {length + max(stop, 0)}",
                                  line=line, column=column + 1)
            if byte == _LF:
                return ParseError(f"expected {n} characters, got {column}", line=line,
                                  column=column + 1)
            if byte > 127:
                return ParseError(f"non-ASCII byte 0x{byte:02x}", line=line, column=column + 1)
            return ParseError(f"invalid character {chr(byte)!r}", line=line, column=column + 1)
    return ParseError(f"expected {m} row lines, found more", line=m + 2)


def _packer(m: int, n: int, tag: str, seed: int):
    """The sink of ``read_gtm1``: the cells packed into a ``TestMatrix``."""
    bits = np.empty((m, (n + 7) // 8), dtype=np.uint8)

    def pack(r: int, k: int, c: int, cells: np.ndarray) -> None:
        packed = np.packbits(cells, axis=1)
        bits[r : r + k, c >> 3 : (c >> 3) + packed.shape[1]] = packed

    return lambda: pack, lambda: TestMatrix._adopt(m, n, bits, tag, seed)


def _decode(f: BinaryIO, fd: int | None = None, sink_of: Callable = _packer):
    """The matrix in ``f``, its rows moved through ``fd`` if it is not None
    (see ``_each_block``). The blocks only detect a defect: ``_first_defect``
    names it. Each checked block's 0/1 cells, its k rows from 0-based row r
    on and columns c on, go to ``sink(r, k, c, cells)``, where ``new_sink,
    done = sink_of(m, n, tag, seed)`` and each worker's ``sink = new_sink()``;
    returns ``done()``. An ``InputError`` or ``OSError`` of ``sink_of`` is
    raised only once the whole file has passed, the pass keeping nothing."""
    if not f.seekable():
        f = io.BytesIO(f.read())
    m, n, tag, seed = _read_header(f)
    width, piece = n + 1, _row_piece(n)
    body = f.tell()
    size = f.seek(0, io.SEEK_END) - body
    f.seek(body)
    shared = None
    if tag == "RrSD":  # row 1's weight, a piece at a time
        shared = sum(f.read(min(piece, n - c)).count(b"1") for c in range(0, min(n, size), piece))
    # a short file allocates nothing for m x n; a row 1 of weight 0 would pass
    # the blocks' compare with it
    if size < m * width or shared == 0:
        raise _first_defect(f, body, 0, m, n, shared)
    f.seek(body)

    late = None  # an error in the sink's own input, raised after every matrix check
    try:
        new_sink, done = sink_of(m, n, tag, seed)
    except (InputError, OSError) as exc:
        late, new_sink, done = exc, (lambda: lambda r, k, c, cells: None), None
    rows = _block_rows(m, n)

    def make_step():
        buf = np.empty(rows * piece, dtype=np.uint8)
        sink = new_sink()

        def step(r: int, k: int) -> bool:
            weights = 0
            for c in range(0, width, piece):  # one piece, unless a row is wider than a block
                w = min(piece, width - c)
                blk = buf[: k * w].reshape(k, w)
                cells = blk[:, : n - c]
                view = memoryview(blk).cast("B")
                got = f.readinto(view) if fd is None else _pread(fd, view, body + r * width + c)
                np.subtract(cells, _ZERO, out=cells)  # in place: the cells become 0 and 1
                if (got < len(view) or c + w > n and (blk[:, n - c] != _LF).any()
                        or cells.size and cells.max() > 1):
                    return False
                if shared is not None:
                    weights = weights + cells.sum(axis=1)
                sink(r, k, c, cells)
            return shared is None or not (weights != shared).any()

        return step

    stop = _each_block(m, rows, fd is not None, make_step)
    f.seek(body + m * width)
    if stop < m or f.read(1):
        raise _first_defect(f, body, stop, m, n, shared)
    if late is not None:
        raise late
    return done()


def dumps_gtm1(matrix: TestMatrix) -> str:
    """The GTM1 document of ``matrix`` as a string (see ``write_gtm1``)."""
    out = io.BytesIO()
    dump_gtm1(matrix, out)
    return out.getvalue().decode("ascii")


def parse_gtm1(text: str) -> TestMatrix:
    """Parse a GTM1 document held in a string (see ``read_gtm1``).

    A character outside ASCII is a ParseError naming its line.
    """
    return _decode(io.BytesIO(text.encode("utf-8", "surrogatepass")))


def write_gtm1(matrix, path: str | Path) -> None:
    """Write ``matrix`` to ``path`` as GTM1, one block of rows at a time:
    a ``TestMatrix``, or a seeded matrix that each block draws (see ``_dump``)."""
    with open(path, "wb") as f:
        _dump(matrix, f, _positional(f))


def read_gtm1(path: str | Path, sink_of: Callable = _packer):
    """Read a GTM1 file. Strict: errors carry the 1-based line and column of
    the first defect in file order.

    ``sink_of`` (see ``_decode``) says what is kept of the checked cells: by
    default the ``TestMatrix``. ``_gatherer`` keeps a few columns and
    ``_eliminator`` elimination's survivors, never holding the matrix. An
    ``InputError`` or ``OSError`` that ``sink_of`` raises is held back until
    every block has been checked: a defect of the file is reported first."""
    with open(path, "rb") as f:
        return _decode(f, _positional(f), sink_of)


def _gatherer(columns_of: Callable[[int], np.ndarray], any_of: bool = False) -> Callable:
    """The ``read_gtm1`` sink of the k 0-based columns ``columns_of(n)``,
    ascending: their m x k cells packed as a ``TestMatrix`` packs its rows,
    uint8 (m, ceil(k/8)); or, if ``any_of``, each row's OR of them, m 0s and
    1s (``answer``). Each worker gathers a block's rows, a wide row's pieces
    too, into a buffer of its own, no bigger than a block, and keeps them at
    the rows' last piece. ``read_gtm1`` holds back an ``InputError`` or
    ``OSError`` of ``columns_of`` until the whole file has passed."""

    def sink_of(m: int, n: int, tag: str, seed: int):
        columns = columns_of(n)
        k = len(columns)
        out = np.empty(m if any_of else (m, (k + 7) // 8), dtype=np.uint8)
        rows = _block_rows(m, n)

        def new_sink():
            gathered = np.empty((rows, k), dtype=bool)  # at most a block: k <= n

            def gather(r: int, j: int, c: int, cells: np.ndarray) -> None:
                lo, hi = np.searchsorted(columns, (c, c + cells.shape[1]))
                gathered[:j, lo:hi] = cells[:, columns[lo:hi] - c]
                if c + cells.shape[1] == n:  # every column of these rows is in
                    block = gathered[:j]
                    out[r : r + j] = block.any(axis=1) if any_of else np.packbits(block, axis=1)

            return gather

        return new_sink, lambda: out

    return sink_of


def _eliminator(answers_of: Callable[[int], np.ndarray]) -> Callable:
    """The ``read_gtm1`` sink of the matrix's n, the answers ``answers_of(m)``,
    m 0s and 1s, and the 0-based items, ascending, in no negative test:
    ``eliminate``'s survivors. Each worker ORs its blocks' negative rows
    into an n-byte row of its own, and the survivors are the 0s of those
    rows' OR. ``read_gtm1`` holds back an ``InputError`` or ``OSError`` of
    ``answers_of`` until the whole file has passed."""

    def sink_of(m: int, n: int, tag: str, seed: int):
        answers = answers_of(m)
        negative = answers == 0
        blocked = []  # one row a worker

        def new_sink():
            row = np.zeros(n, dtype=np.uint8)
            blocked.append(row)

            def eliminate(r: int, k: int, c: int, cells: np.ndarray) -> None:
                part = row[c : c + cells.shape[1]]
                for j in np.flatnonzero(negative[r : r + k]).tolist():
                    np.bitwise_or(part, cells[j], out=part)

            return eliminate

        def done() -> tuple[int, np.ndarray, np.ndarray]:
            return n, answers, np.flatnonzero(np.bitwise_or.reduce(blocked, axis=0) == 0)

        return new_sink, done

    return sink_of
