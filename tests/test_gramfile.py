from __future__ import annotations

import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign.gramfile import (
    FormatError,
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
    # Fraction() itself reads "1_0" and any Unicode decimal digit
    for bad in ("1.5", "1e3", "", "x", "1/0", "1_0", "٣", "1/２"):
        with pytest.raises(FormatError):
            parse_rational(bad)


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
    assert sorted(out.tolist()) == sorted(map(list, vecs))


def test_vector_set_header_mismatch():
    with pytest.raises(FormatError):
        parse_vector_set("2 3 1\n1 0\n0 1\n")           # count mismatch
    with pytest.raises(FormatError):
        parse_vector_set("2 1 1\n1 0 0\n")              # rank mismatch


_rat = st.fractions(max_denominator=1000)


@given(_rat)
@settings(max_examples=200)
def test_rational_roundtrip(x):
    assert parse_rational(str(x)) == x


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=6))
@settings(max_examples=50)
def test_vector_roundtrip_property(tmp_path_factory, vecs):
    p = tmp_path_factory.mktemp("vs") / "v.vecs"
    uniq = sorted({tuple(v) for v in vecs})
    write_vector_set(p, 3, F(7, 2), uniq)
    rank, count, min_norm, out = read_vector_set(p)
    assert rank == 3 and count == len(uniq) and min_norm == F(7, 2)
    assert sorted(out.tolist()) == [list(v) for v in uniq]


def test_vector_coordinates_must_fit_int64():
    rank, _, _, vecs = parse_vector_set(f"1 2 1\n{2 ** 63 - 1}\n{1 - 2 ** 63}\n")
    assert vecs.tolist() == [[2 ** 63 - 1], [1 - 2 ** 63]]
    for x in (2 ** 63, -2 ** 63):
        with pytest.raises(FormatError, match="out of range"):
            parse_vector_set(f"1 1 1\n{x}\n")


_AT_1_1 = " at vector 1, coordinate 1"


@pytest.mark.parametrize("text, message", [
    ("1 1 1\n1.0\n", "vector coordinates must be integers: '1.0'" + _AT_1_1),
    ("1 1 1\n0x1\n", "vector coordinates must be integers: '0x1'" + _AT_1_1),
    ("1 1 1\n1_0\n", "vector coordinates must be integers: '1_0'" + _AT_1_1),
    ("1 1 1\n--1\n", "vector coordinates must be integers: '--1'" + _AT_1_1),
    ("1 1 1\n-\n", "vector coordinates must be integers: '-'" + _AT_1_1),
    ("2 1 1\n1\n", "expected 2 coordinates per vector"),
    ("2 1 1\n1 0 0\n", "expected 2 coordinates per vector"),
    (f"1 1 1\n{2 ** 63}\n",
     f"vector coordinate out of range (|x| < 2^63): '{2 ** 63}'" + _AT_1_1),
    (f"1 1 1\n{-2 ** 63}\n",
     f"vector coordinate out of range (|x| < 2^63): '{-2 ** 63}'" + _AT_1_1),
    # a bad row after good ones; a count mismatch is reported first
    ("2 2 1\n1 0\n0 x\n", "vector coordinates must be integers: 'x' at "
                          "vector 2, coordinate 2"),
    ("2 3 1\n1 0\n0 x\n", "expected 3 vectors, found 2"),
    # numbers in the ASCII digits alone, the header's rank and count unsigned
    ("1 1 1\n١\n", "vector coordinates must be integers: '١'" + _AT_1_1),
    ("٢ 1 1\n1 0\n", "rank and vector count must be positive, in the "
                     "digits 0-9, got '٢' and '1'"),
    ("1 +1 1\n1\n", "rank and vector count must be positive, in the "
                    "digits 0-9, got '1' and '+1'"),
])
def test_vector_set_hostile_rows(text, message):
    with pytest.raises(FormatError) as exc:
        parse_vector_set(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("token, shown", [
    ("x" * 40, repr("x" * 40)),
    ("x" * 41, "41 characters"),
    ("\0" * 30, "30 characters"),      # its quoted form has 122
    ("1" * 5000, "5000 characters"),
])
def test_vector_row_error_quotes_short_tokens_only(token, shown):
    # the error names the vector and the coordinate; a token is quoted only
    # up to 40 characters, so no such message reaches 200
    with pytest.raises(FormatError) as exc:
        parse_vector_set(f"2 2 1\n1 0\n0 {token}\n")
    assert str(exc.value).endswith(f": {shown} at vector 2, coordinate 2")
    assert len(str(exc.value)) < 200


def test_vector_set_long_and_padded_integers():
    # leading zeros past 18 digits, signs, tabs and comments parse exactly,
    # in file order around the rows the fast path takes
    text = ("2 3 5 # header\n+1 -2\n" + "0" * 20 + "3\t-4 # c\n\n"
            f"{2 ** 63 - 1}   {1 - 2 ** 63}\n")
    _, _, _, vecs = parse_vector_set(text)
    assert vecs.dtype == "int64"
    assert vecs.tolist() == [[1, -2], [3, -4], [2 ** 63 - 1, 1 - 2 ** 63]]


def test_vector_set_slice_read_line_by_line():
    # 2000 rows span two numpy slices; vector 1500, a zero-padded 20-digit
    # coordinate, sends the second slice through the token checks
    rows = [f"{i} {-i}" for i in range(2000)]
    rows[1499] = f"{1499:020d} -1499"
    _, _, _, vecs = parse_vector_set("2 2000 1\n" + "\n".join(rows) + "\n")
    assert vecs.tolist() == [[i, -i] for i in range(2000)]
    # a bad vector 1900 in that slice raises its own message ...
    rows[1899] = "1899 x"
    with pytest.raises(FormatError) as exc:
        parse_vector_set("2 2000 1\n" + "\n".join(rows) + "\n")
    assert str(exc.value) == ("vector coordinates must be integers: 'x' at "
                              "vector 1900, coordinate 2")
    # ... unless the vector count disagrees with the header
    with pytest.raises(FormatError) as exc:
        parse_vector_set("2 2001 1\n" + "\n".join(rows) + "\n")
    assert str(exc.value) == "expected 2001 vectors, found 2000"


def test_vector_set_header_count_allocates_nothing():
    # a header claiming 10^12 vectors fails on the count, with no
    # allocation sized from it
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="expected 10+ vectors"):
            parse_vector_set("2 1000000000000 1\n1 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
