"""Text file formats for Gram matrices and vector sets.

Gram file: optional '#' comment lines; first data line is n; then n lines of
n whitespace-separated rationals ("p/q" or integer).  Parsing is bit-exact:
decimal floats are rejected.

Vector-set file: header line "rank N min_norm"; then N lines of rank integers.
"""

from __future__ import annotations

import re
from array import array
from fractions import Fraction
from pathlib import Path

from ._numpy import np
from .linalg import GramMatrix

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")
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
    n = int(lines[0])
    if n <= 0:
        raise FormatError("dimension must be positive")
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise FormatError(f"expected {n} entries per row, got {len(tokens)}")
        rows.append(tuple(parse_rational(t) for t in tokens))
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


def _vector_row(line: str, rank: int) -> list[int]:
    """The rank integers of one stripped data line, with the file's checks."""
    tokens = line.split()
    if len(tokens) != rank:
        raise FormatError(f"expected {rank} coordinates per vector")
    if not all(_INT_RE.match(t) for t in tokens):
        raise FormatError(f"vector coordinates must be integers: {line!r}")
    vec = [int(t) for t in tokens]
    # vector sets are stored as int64, with |x| representable too
    if max(map(abs, vec), default=0) >= 2**63:
        raise FormatError(
            f"vector coordinate out of range (|x| < 2^63): {line!r}")
    return vec


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
    rank, count = int(header[0]), int(header[1])
    if rank < 1 or count < 1:
        raise FormatError(
            f"rank and vector count must be positive, got {rank} and {count}")
    min_norm = parse_rational(header[2])
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
            for line in batch:
                buf.extend(_vector_row(line, rank))
    vectors = np.frombuffer(buf, np.int64).reshape(count, rank)
    return rank, count, min_norm, vectors


def read_vector_set(path: str | Path):
    return parse_vector_set(Path(path).read_text())


def write_vector_set(path: str | Path, rank: int, min_norm: Fraction,
                     vectors) -> None:
    """vectors: an integer array, or rows of ints, of width rank."""
    rows = np.asarray(vectors, dtype=np.int64).reshape(-1, rank).tolist()
    lines = [f"{rank} {len(rows)} {min_norm}"]
    fmt = " ".join(["%d"] * rank)
    lines.extend(fmt % tuple(v) for v in rows)
    Path(path).write_text("\n".join(lines) + "\n")
