"""Text file formats for Gram matrices and vector sets.

Gram file: optional '#' comment lines; first data line is n; then n lines of
n whitespace-separated rationals ("p/q" or integer).  Parsing is bit-exact:
decimal floats are rejected.

Vector-set file: header line "rank N min_norm"; then N lines of rank integers.
rank and N are positive and unsigned.

Every number is written in the ASCII digits 0-9, with an optional sign
where one is allowed: other Unicode digits, underscores and spaces inside
a number are refused, and so is one past the interpreter's str-to-int
limit (4300 digits by default), by an error naming its field.
"""

from __future__ import annotations

import re
import sys
from array import array
from fractions import Fraction
from pathlib import Path

from ._numpy import np
from .linalg import GramMatrix

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[1-9][0-9]*)?$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_COUNT_RE = re.compile(r"0*[1-9][0-9]*")
# a data line of ASCII integers of at most 18 digits (|x| < 10^18 < 2^63),
# which numpy's text parser reads exactly; such lines are parsed _BATCH
# at a time
_ROW_RE = re.compile(r"(?:[+-]?[0-9]{1,18}[ \t]+)*[+-]?[0-9]{1,18}")
_BATCH = 1024


class FormatError(ValueError):
    """Malformed Gram or vector-set file."""


def parse_rational(token: str) -> Fraction:
    """Exact rational from "p/q" or integer text; floats are not accepted."""
    if not _RATIONAL_RE.match(token):
        raise FormatError(f"not an exact rational: {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise FormatError(f"zero denominator: {token!r}") from None


def _checked(token: str, field: str) -> str:
    """token, unless int() would refuse a digit run of it, naming no field."""
    limit = sys.get_int_max_str_digits()
    if limit and max(map(len, token.lstrip("+-").split("/"))) > limit:
        raise FormatError(f"{field} has more than {limit} digits")
    return token


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_gram(text: str) -> GramMatrix:
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty Gram file")
    if not _INT_RE.match(lines[0]):
        raise FormatError(f"first data line must be the dimension, got {lines[0]!r}")
    n = int(_checked(lines[0], "Gram dimension"))
    if n <= 0:
        raise FormatError("dimension must be positive")
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise FormatError(f"expected {n} entries per row, got {len(tokens)}")
        rows.append(tuple(parse_rational(_checked(t, "Gram entry"))
                          for t in tokens))
    return GramMatrix.from_rows(rows)


def read_gram(path: str | Path) -> GramMatrix:
    return parse_gram(Path(path).read_text())


def write_gram(path: str | Path, g: GramMatrix, header: str | None = None) -> None:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.append(str(g.n))
    widths = [max(len(str(g[i, j])) for i in range(g.n)) for j in range(g.n)]
    for i in range(g.n):
        lines.append(" ".join(str(g[i, j]).rjust(widths[j]) for j in range(g.n)))
    Path(path).write_text("\n".join(lines) + "\n")


def _vector_row(line: str, rank: int, index: int) -> list[int]:
    """The rank integers of one stripped data line, vector index (from 1),
    with the file's checks.  An error names the vector and the coordinate,
    and quotes the token when its repr has at most 42 characters (up to 40
    printable ones), else gives its length."""
    tokens = line.split()
    if len(tokens) != rank:
        raise FormatError(f"expected {rank} coordinates per vector")
    # vector sets are stored as int64, with |x| representable too: a
    # coordinate of 20 digits or more is out of range before int() reads it
    for what, ok in (("vector coordinates must be integers", _INT_RE.match),
                     ("vector coordinate out of range (|x| < 2^63)",
                      lambda t: len(t.lstrip("+-0")) < 20
                      and abs(int(t)) < 2**63)):
        for j, t in enumerate(tokens, 1):
            if not ok(t):
                q = repr(t) if len(repr(t)) <= 42 else f"{len(t)} characters"
                raise FormatError(f"{what}: {q} at vector {index}, "
                                  f"coordinate {j}")
    return [int(t) for t in tokens]


def parse_vector_set(text: str) -> tuple[int, int, Fraction, np.ndarray]:
    """Returns (rank, count, min_norm, vectors), vectors a (count x rank)
    int64 array.

    The vector count is checked against the header before any row.  Rows
    are read _BATCH at a time: numpy parses a slice whose every line
    matches _ROW_RE with rank integers, and each line of any other slice
    gets the token-by-token checks of _vector_row, the first failure
    being raised.
    """
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty vector-set file")
    header = lines[0].split()
    if len(header) != 3:
        raise FormatError('header must be "rank N min_norm"')
    if not all(_COUNT_RE.fullmatch(t) for t in header[:2]):
        raise FormatError(
            "rank and vector count must be positive, in the digits 0-9, "
            f"got {header[0]!r} and {header[1]!r}")
    rank = int(_checked(header[0], "rank"))
    count = int(_checked(header[1], "vector count"))
    min_norm = parse_rational(_checked(header[2], "min_norm"))
    if len(lines) != count + 1:
        raise FormatError(f"expected {count} vectors, found {len(lines) - 1}")
    buf = array("q")
    for i in range(1, count + 1, _BATCH):
        batch = lines[i:i + _BATCH]
        if all(_ROW_RE.fullmatch(line) and len(line.split()) == rank
               for line in batch):
            ints = np.fromstring(" ".join(batch), dtype=np.int64, sep=" ")
            buf.frombytes(ints.tobytes())
        else:
            for k, line in enumerate(batch, i):
                buf.extend(_vector_row(line, rank, k))
    vectors = np.frombuffer(buf, np.int64).reshape(count, rank)
    return rank, count, min_norm, vectors


def read_vector_set(path: str | Path):
    return parse_vector_set(Path(path).read_text())


def write_vector_set(path: str | Path, rank: int, min_norm: Fraction,
                     vectors) -> None:
    """vectors: an integer array, or rows of Python ints, of width rank;
    rows of ints are written without numpy."""
    rows = vectors.tolist() if hasattr(vectors, "tolist") else vectors
    lines = [f"{rank} {len(rows)} {min_norm}"]
    fmt = " ".join(["%d"] * rank)
    lines.extend(fmt % tuple(v) for v in rows)
    Path(path).write_text("\n".join(lines) + "\n")
