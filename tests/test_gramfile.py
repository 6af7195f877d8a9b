from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.gramfile import (
    FormatError,
    format_rational,
    parse_gram,
    parse_rational,
    parse_vector_set,
    read_gram,
    write_gram,
    write_vector_set,
    read_vector_set,
)
from sphdesign.linalg import GramMatrix


def test_parse_rational_forms():
    assert parse_rational("3") == F(3)
    assert parse_rational("-4/6") == F(-2, 3)
    for bad in ("1.5", "1e3", "", "x", "1/0"):
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_format_rational():
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-1, 3)) == "-1/3"


def test_parse_gram_with_comments():
    text = "# a comment\n2\n2 -1\n# interior comment\n-1 2\n"
    g = parse_gram(text)
    assert g.n == 2 and g[0, 1] == F(-1)


def test_parse_gram_errors():
    with pytest.raises(FormatError):
        parse_gram("2\n1 0\n")          # missing row
    with pytest.raises(FormatError):
        parse_gram("2\n1 0 0\n0 1\n")   # bad row width
    with pytest.raises(FormatError):
        parse_gram("1\n0.5\n")          # float rejected


def test_gram_roundtrip(tmp_path):
    g = GramMatrix.from_rows([[F(4, 3), F(-2, 3)], [F(-2, 3), F(4, 3)]])
    p = tmp_path / "x.gram"
    write_gram(p, g, header="test lattice")
    assert read_gram(p).entries == g.entries
    assert p.read_text().startswith("#")


def test_vector_set_roundtrip(tmp_path):
    p = tmp_path / "v.vecs"
    vecs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    write_vector_set(p, 2, F(1), vecs)
    rank, count, min_norm, out = read_vector_set(p)
    assert (rank, count, min_norm) == (2, 4, F(1))
    assert sorted(out) == sorted(vecs)


def test_vector_set_header_mismatch():
    with pytest.raises(FormatError):
        parse_vector_set("2 3 1\n1 0\n0 1\n")           # count mismatch
    with pytest.raises(FormatError):
        parse_vector_set("2 1 1\n1 0 0\n")              # rank mismatch


_rat = st.fractions(max_denominator=1000)


@given(_rat)
@settings(max_examples=200)
def test_rational_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=6))
@settings(max_examples=50)
def test_vector_roundtrip_property(tmp_path_factory, vecs):
    p = tmp_path_factory.mktemp("vs") / "v.vecs"
    uniq = sorted({tuple(v) for v in vecs})
    write_vector_set(p, 3, F(7, 2), uniq)
    rank, count, min_norm, out = read_vector_set(p)
    assert rank == 3 and count == len(uniq) and min_norm == F(7, 2)
    assert sorted(out) == uniq


def test_vector_coordinates_must_fit_int64():
    rank, _, _, vecs = parse_vector_set(f"1 2 1\n{2 ** 63 - 1}\n{1 - 2 ** 63}\n")
    assert vecs == [(2 ** 63 - 1,), (1 - 2 ** 63,)]
    for x in (2 ** 63, -2 ** 63):
        with pytest.raises(FormatError, match="out of range"):
            parse_vector_set(f"1 1 1\n{x}\n")
