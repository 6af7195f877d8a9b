"""CLI surface: exit codes, determinism, file outputs, error reporting."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sphdesign
from sphdesign.catalog import catalog
from sphdesign.cli import _decimal_str, build_parser, main
from fractions import Fraction as F


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattices_listing(capsys):
    code, out, _ = run(capsys, "lattices")
    assert code == 0
    assert "K10      data required  kissing 276" in out
    assert "Leech    available      kissing 196560" in out


def test_minvec_text(capsys):
    code, out, _ = run(capsys, "minvec", "--lattice", "A2")
    assert code == 0
    assert out.splitlines()[0] == "min_norm 2, 6 vectors"


def test_minvec_gram_file(tmp_path, capsys):
    p = tmp_path / "a2.gram"
    p.write_text("2\n2 1\n1 2\n")
    code, out, _ = run(capsys, "minvec", "--gram-file", str(p))
    assert code == 0 and "min_norm 2, 6 vectors" in out


def test_minvec_out_roundtrip(tmp_path, capsys):
    vecs = tmp_path / "d4.vecs"
    code, _, _ = run(capsys, "minvec", "--lattice", "D4", "--out", str(vecs))
    assert code == 0
    code, out, _ = run(capsys, "spectrum", "--lattice", "D4",
                       "--vectors", str(vecs))
    assert code == 0
    assert "pair spectrum of 24 points on S^3" in out


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--lattice", "E6dual")
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_fail_exit_one(tmp_path, capsys):
    octa = tmp_path / "octa.vecs"
    octa.write_text("3 6 1\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n")
    code, out, _ = run(capsys, "verify", "--vectors", str(octa))
    assert code == 1
    assert "verdict: FAIL" in out


def test_embed_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "embed", "--lattice", "A2")
    assert code == 0 and "3-design: True" in out
    octa = tmp_path / "octa.vecs"
    octa.write_text("3 6 1\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n")
    code, out, _ = run(capsys, "embed", "--vectors", str(octa))
    assert code == 1 and "3-design: False" in out


def test_missing_catalog_data_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--lattice", "K10")
    assert code == 2
    assert "catalog data required" in err and "supply a Gram file" in err


def test_unknown_lattice_exit_two(capsys):
    code, _, err = run(capsys, "spectrum", "--lattice", "Z9")
    assert code == 2
    assert "unknown lattice" in err


def test_both_sources_usage_error(capsys, tmp_path):
    p = tmp_path / "x.gram"
    p.write_text("1\n2\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lattice", "A2", "--gram-file", str(p)])
    assert exc.value.code == 2


def test_no_source_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])
    assert exc.value.code == 2


def test_malformed_gram_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.gram"
    p.write_text("2\n1 0.5\n0.5 1\n")
    code, _, err = run(capsys, "minvec", "--gram-file", str(p))
    assert code == 2
    assert "exact rational" in err


def test_reproduce_example_exit_zero(capsys):
    code, out, _ = run(capsys, "reproduce", "--example", "1")
    assert code == 0
    assert out.count("PASS") == 8 and out.count("DATA-REQUIRED") == 2


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--example", "1",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["lattice"] for r in rows][:3] == ["A2", "D4", "E6"]


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "verify", "--lattice", "E6", "--format", "json")
    _, out2, _ = run(capsys, "verify", "--lattice", "E6", "--format", "json")
    assert out1 == out2


def test_threads_do_not_change_output(capsys):
    _, base, _ = run(capsys, "spectrum", "--lattice", "E7", "--threads", "1")
    for n in ("2", "5"):
        _, out, _ = run(capsys, "spectrum", "--lattice", "E7", "--threads", n)
        assert out == base


def test_embed_rejects_seed(capsys):
    # embed reads no half-set, so it takes no --seed
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--lattice", "D4", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "embed", "export-coords"])
def test_zero_sphere_exit_two(tmp_path, capsys, command):
    # a rank-1 form puts its minimal vectors on S^0; every command that
    # needs d >= 1 says so in the same words
    p = tmp_path / "s0.gram"
    p.write_text("1\n2\n")
    code, out, err = run(capsys, command, "--gram-file", str(p))
    assert (code, out) == (2, "")
    assert err == "error: sphere dimension must be at least 1\n"


def test_t_max_below_one_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lattice", "E8", "--t-max", "0"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == ("sphdesign verify: error: argument "
                                    "--t-max: expected an int >= 1, got '0'")


def test_out_file_writing(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--lattice", "A2",
                       "--format", "json", "--out", str(dest))
    assert code == 0
    assert json.loads(dest.read_text())["verdict"] == "PASS"


def test_export_coords(tmp_path, capsys):
    dest = tmp_path / "coords.txt"
    code, out, _ = run(capsys, "export-coords", "--lattice", "A2",
                       "--out", str(dest))
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "2 6"
    assert len(lines) == 7
    assert all(len(ln.split()) == 2 for ln in lines[1:])


@pytest.mark.slow
def test_export_coords_bw16(capsys):
    # 2160 half-set rows, rank 135, inside the export limit with no flag:
    # each row is written from its Harm_2 image, and the check forms A in
    # blocks of 135 columns, never as a 2160 x 2160 block.  Measured at
    # 0.7-1.2 s on a 2-vCPU VM; the budget is 3x the slowest run
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "export-coords", "--lattice", "BW16")
    elapsed = time.perf_counter() - t0
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "135 4320"
    assert len(lines) == 4321
    assert all(len(ln.split()) == 135 for ln in lines[1:])
    assert elapsed < 3.5, f"{elapsed:.1f}s"


@pytest.mark.slow
def test_export_coords_leech_refused(capsys):
    # Leech's 98 280 half-set points pass the export limit: one error line
    # once the set is enumerated, before any coordinate is written
    code, out, err = run(capsys, "export-coords", "--lattice", "Leech")
    assert (code, out) == (2, "")
    assert err == ("error: 98280 points exceed the export limit 2160; use "
                   "the spectrum-only embedding (sphdesign embed) instead\n")


def test_export_coords_refuses_unreachable_precision(capsys):
    # no float export meets 1e-17: one error line, nothing on stdout
    code, out, err = run(capsys, "export-coords", "--lattice", "D4",
                         "--decimal", "17")
    assert (code, out) == (2, "")
    assert err.startswith("error: float realization error ")
    assert err.endswith(" exceeds 1e-17; lower the precision requirement\n")
    assert err.count("\n") == 1


def test_export_coords_independent_of_blas_threads():
    # every coordinate is elementwise float arithmetic, so the bytes do not
    # depend on how many threads the BLAS runs
    src = str(Path(sphdesign.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        r = subprocess.run(
            [sys.executable, "-m", "sphdesign.cli", "export-coords",
             "--lattice", "E8"], capture_output=True, env=env, timeout=120)
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]


def test_export_coords_decimal_controls_precision(capsys):
    code, out, _ = run(capsys, "export-coords", "--lattice", "A2",
                       "--decimal", "4")
    assert code == 0
    token = out.splitlines()[1].split()[0]
    assert len(token.split(".")[1]) == 4


def test_decimal_rendering(capsys):
    code, out, _ = run(capsys, "spectrum", "--lattice", "A2",
                       "--decimal", "3")
    assert code == 0
    assert "0.500 12" in out and "-0.500 12" in out


@pytest.mark.parametrize("command", ["spectrum", "embed", "export-coords"])
@pytest.mark.parametrize("places", ["-1", "x"])
def test_bad_decimal_usage_error(capsys, command, places):
    # K is a count of places: a bad one is a usage error naming --decimal,
    # caught before any format string sees it
    with pytest.raises(SystemExit) as exc:
        main([command, "--lattice", "A2", "--decimal", places])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --decimal: expected an int >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("threads", ["0", "-3", "x", "1_0", "+2", " 2"])
def test_bad_threads_usage_error(capsys, threads):
    # a worker count below 1 is a usage error, not a silent serial run;
    # so is one written with anything but the digits 0-9
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--lattice", "A2", "--threads", threads])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument --threads: expected an int >= 1, got '{threads}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t_max", ["0", "-1", "x", "1_1", "+7", " 7"])
def test_bad_t_max_usage_error(capsys, t_max):
    # a design strength is written in the digits 0-9 alone, like --threads
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lattice", "A2", "--t-max", t_max])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument --t-max: expected an int >= 1, got '{t_max}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("example, message", [
    (" 1", "expected an int >= 1, got ' 1'"),
    ("+2", "expected an int >= 1, got '+2'"),
    ("1_0", "expected an int >= 1, got '1_0'"),
    ("0", "expected an int >= 1, got '0'"),
    ("4", "invalid choice: 4 (choose from 1, 2, 3)"),
])
def test_bad_example_usage_error(capsys, example, message):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--example", example])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument --example: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "export-coords"])
@pytest.mark.parametrize("cap", ["-5", "-1", "x", "+5"])
def test_bad_matrix_cap_usage_error(capsys, command, cap):
    # --matrix-cap is gone, so every value of it is a usage error, the
    # ones that looked like negative numbers or were never ints included
    with pytest.raises(SystemExit) as exc:
        main([command, "--lattice", "A2", "--matrix-cap", cap])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"unrecognized arguments: --matrix-cap {cap}\n" in err
    assert "Traceback" not in err


def test_decimal_str_exact():
    assert _decimal_str(F(1, 3), 6) == "0.333333"
    assert _decimal_str(F(-5, 4), 3) == "-1.250"
    assert _decimal_str(F(7), 2) == "7.00"
    assert _decimal_str(F(2, 3), 0) == "0"


@pytest.mark.parametrize("places", [4000, 5000])
def test_decimal_long_expansion(capsys, places):
    # past Python's 4300-digit int-to-str limit the expansion is still
    # exact: D4's embedded products are +-1/3 and +-1
    code, out, err = run(capsys, "embed", "--lattice", "D4",
                         "--decimal", str(places))
    assert code == 0 and err == ""
    lines = out.splitlines()[2:]
    thirds = "3" * places
    assert lines == [f"1.{'0' * places} 24", f"0.{thirds} 72",
                     f"0.{'0' * places} 384", f"-0.{thirds} 72",
                     f"-1.{'0' * places} 24"]
    code, out, err = run(capsys, "spectrum", "--lattice", "A2",
                         "--decimal", str(places))
    assert code == 0 and err == ""
    assert f"-0.5{'0' * (places - 1)} 12" in out.splitlines()
    assert _decimal_str(F(-2, 7), places) == \
        "-0." + ("285714" * places)[:places]


@pytest.mark.parametrize("command", ["spectrum", "embed", "export-coords"])
@pytest.mark.parametrize("places", ["10001", "9" * 40])
def test_decimal_over_bound_usage_error(capsys, command, places):
    with pytest.raises(SystemExit) as exc:
        main([command, "--lattice", "A2", "--decimal", places])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --decimal: at most 10000 places" in err
    assert "Traceback" not in err


def test_threads_env_default(monkeypatch):
    # the default is 1, and no environment variable changes it
    for raw in ["3", "bogus", "0", "1_0", "+2", " 2"]:
        monkeypatch.setenv("SPHDESIGN_THREADS", raw)
        args = build_parser().parse_args(["spectrum", "--lattice", "A2"])
        assert args.threads == 1, raw


def test_t_max_default_eleven():
    args = build_parser().parse_args(["verify", "--lattice", "E8"])
    assert args.t_max == 11


def test_vectors_with_lattice_gram(tmp_path, capsys):
    # supplied coordinates are interpreted against the named form
    code, _, _ = run(capsys, "minvec", "--lattice", "A2",
                     "--out", str(tmp_path / "a2.vecs"))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--lattice", "A2",
                       "--vectors", str(tmp_path / "a2.vecs"))
    assert code == 0 and "verdict: PASS" in out


def test_vector_coordinate_past_int64_exit_two(tmp_path, capsys):
    vecs = tmp_path / "huge.vecs"
    vecs.write_text(f"2 2 1\n{2 ** 63} 0\n{-2 ** 63} 0\n")
    code, out, err = run(capsys, "verify", "--vectors", str(vecs))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "out of range" in err


def test_minimal_vector_past_int64_exit_two(tmp_path, capsys):
    # the minimal vectors +-(2^64, -1) of this unimodular form exist but
    # do not fit the int64 coordinates a vector set holds
    p = tmp_path / "huge.gram"
    p.write_text(f"2\n1 {2 ** 64}\n{2 ** 64} {2 ** 128 + 1}\n")
    code, out, err = run(capsys, "minvec", "--gram-file", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "int64" in err


@pytest.mark.slow
def test_minvec_uncertified_form_writes_bw16_rows(tmp_path, capsys):
    # BW16 with every entry times 2^70, plus 1 on the first diagonal entry,
    # has pivots past 2^52 that no gcd takes back, so it runs the
    # depth-first search: the rows are BW16's with first coordinate 0, the
    # norm 2^70 times
    g = catalog("BW16").gram
    gram = tmp_path / "big.gram"
    gram.write_text(f"{g.n}\n" + "".join(
        " ".join(str(g[i, j] * 2**70 + (i == j == 0)) for j in range(g.n))
        + "\n" for i in range(g.n)))
    big, small = tmp_path / "big.vecs", tmp_path / "bw16.vecs"
    code, out, _ = run(capsys, "minvec", "--gram-file", str(gram),
                       "--out", str(big))
    assert code == 0
    assert out.splitlines()[0] == f"min_norm {4 * 2**70}, 2340 vectors"
    code, _, _ = run(capsys, "minvec", "--lattice", "BW16", "--out",
                     str(small))
    assert code == 0
    big, small = big.read_text().splitlines(), small.read_text().splitlines()
    assert (big[0], small[0]) == (f"16 2340 {4 * 2**70}", "16 4320 4")
    assert big[1:] == [row for row in small[1:] if row.startswith("0 ")]


@pytest.mark.parametrize("command",
                         ["verify", "spectrum", "embed", "export-coords"])
@pytest.mark.parametrize("header", ["0 0 1", "-2 0 1", "2 0 1"])
def test_bad_vector_header_exit_two(tmp_path, capsys, header, command):
    # no rank or no vectors is a data error, not a numpy fault (exit 3)
    vecs = tmp_path / "bad.vecs"
    vecs.write_text(header + "\n")
    code, out, err = run(capsys, command, "--vectors", str(vecs))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be positive" in err


# each file was read as a valid input: the header as rank 10, the row as
# (1, 0), the Gram as A2's
_NON_ASCII_DIGITS = {
    "rank.vecs": ("spectrum", "1_0 1 1\n1 0 0 0 0 0 0 0 0 0\n",
                  "rank and vector count must be positive, in the digits "
                  "0-9, got '1_0' and '1'"),
    "count.vecs": ("spectrum", "2 +2 1\n1 0\n-1 0\n",
                   "rank and vector count must be positive, in the digits "
                   "0-9, got '2' and '+2'"),
    "row.vecs": ("spectrum", "2 2 1\n١ 0\n-1 0\n",
                 "vector coordinates must be integers: '١' at vector 1, "
                 "coordinate 1"),
    "a2.gram": ("minvec", "2\n٢ 1\n1 2\n",
                "not an exact rational: '٢'"),
}


@pytest.mark.parametrize("name", sorted(_NON_ASCII_DIGITS))
def test_numbers_in_ascii_digits_only_exit_two(tmp_path, capsys, name):
    command, text, message = _NON_ASCII_DIGITS[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    flag = "--gram-file" if name.endswith(".gram") else "--vectors"
    code, out, err = run(capsys, command, flag, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# one number of 5 000 digits per file, past the interpreter's str-to-int
# limit, whose own message names no field: the refusal names it
_LONG = "1" * 5000
_LONG_NUMBERS = {
    "dim.gram": ("verify", f"{_LONG}\n1\n",
                 "Gram dimension has more than 4300 digits"),
    "entry.gram": ("minvec", f"2\n{_LONG} 1\n1 2\n",
                   "Gram entry has more than 4300 digits"),
    "count.vecs": ("verify", f"2 {_LONG} 1\n1 0\n",
                   "vector count has more than 4300 digits"),
    "coord.vecs": ("spectrum", f"2 2 1\n{_LONG} 0\n-1 0\n",
                   "vector coordinate out of range (|x| < 2^63): 5000 "
                   "characters at vector 1, coordinate 1"),
}


@pytest.mark.parametrize("name", sorted(_LONG_NUMBERS))
def test_long_numbers_exit_two(tmp_path, capsys, name):
    command, text, message = _LONG_NUMBERS[name]
    path = tmp_path / name
    path.write_text(text)
    flag = "--gram-file" if name.endswith(".gram") else "--vectors"
    code, out, err = run(capsys, command, flag, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# one unbounded piece of input per file, each echoed in full by an
# earlier error: a 4 000-digit rank, dimension or count, a first line
# with 6 000 characters of junk, a 4 000-digit decimal, a 5 000-character
# header token.  The error gives the piece's length instead
_LONG_ECHOES = {
    "rank.vecs": ("verify", "9" * 4000 + " 1 4\n1 2\n",
                  "expected 4000 characters coordinates per vector"),
    "count.vecs": ("verify", "1 " + "9" * 4000 + " 1\n1\n",
                   "expected 4000 characters vectors, found 1"),
    "header.vecs": ("verify", "x" * 5000 + " 1 4\n1 2\n",
                    "rank and vector count must be positive, in the digits "
                    "0-9, got 5000 characters and '1'"),
    "dim.gram": ("verify", "9" * 4000 + "\n1\n",
                 "expected 4000 characters matrix rows, found 1"),
    "first.gram": ("verify", "2 " + "x" * 6000 + "\n1 0\n0 1\n",
                   "first data line must be the dimension, got 6002 "
                   "characters"),
    "entry.gram": ("verify", "1\n1." + "5" * 4000 + "\n",
                   "not an exact rational: 4002 characters"),
}


@pytest.mark.parametrize("name", sorted(_LONG_ECHOES))
def test_errors_never_echo_long_input(tmp_path, capsys, name):
    command, text, message = _LONG_ECHOES[name]
    path = tmp_path / name
    path.write_text(text)
    flag = "--gram-file" if name.endswith(".gram") else "--vectors"
    code, out, err = run(capsys, command, flag, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err) < 200


# D4's 24 vectors of norm 4, read against the D4 form of minimum 2: every
# other check passes, so the report must name the failed one
_D4_NORM_4 = """4 24 4
-2 -2 -1 -1
-1 -2 -2 -1
-1 -2 -1 -2
-1 -2 -1 0
-1 -2 0 -1
-1 0 -1 0
-1 0 0 -1
-1 0 0 1
-1 0 1 0
0 -2 -1 -1
0 0 -1 -1
0 0 -1 1
0 0 1 -1
0 0 1 1
0 2 1 1
1 0 -1 0
1 0 0 -1
1 0 0 1
1 0 1 0
1 2 0 1
1 2 1 0
1 2 1 2
1 2 2 1
2 2 1 1
"""


def test_verify_names_a_min_norm_mismatch(tmp_path, capsys):
    vecs = tmp_path / "d4n4.vecs"
    vecs.write_text(_D4_NORM_4)
    argv = ("verify", "--lattice", "D4", "--vectors", str(vecs))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[1:3] == ["  kissing count check: ok",
                          "  min norm check: MISMATCH (expected 2)"]
    assert lines[-1] == "verdict: FAIL"
    code, out, err = run(capsys, *argv, "--format", "json")
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert (report["min_norm"], report["min_norm_ok"],
            report["expected_min_norm"]) == ("4", False, "2")
    assert report["venkov5"]["holds"] and report["embedded"]["is_3design"]
    # a passing report carries no min norm fields
    code, out, _ = run(capsys, "verify", "--lattice", "D4", "--format", "json")
    assert code == 0 and "min_norm_ok" not in json.loads(out)


def test_huge_vector_count_exit_two(tmp_path, capsys):
    # the header's count is checked against the rows read, not allocated
    vecs = tmp_path / "count.vecs"
    vecs.write_text("2 1000000000000 1\n1 0\n")
    code, out, err = run(capsys, "verify", "--vectors", str(vecs))
    assert (code, out) == (2, "")
    assert err == "error: expected 1000000000000 vectors, found 1\n"


@pytest.mark.parametrize("command",
                         ["verify", "spectrum", "embed", "export-coords"])
def test_duplicate_vectors_exit_two(tmp_path, capsys, command):
    vecs = tmp_path / "dup.vecs"
    vecs.write_text("2 5 1\n1 0\n0 1\n-1 0\n0 -1\n1 0\n")
    code, out, err = run(capsys, command, "--vectors", str(vecs))
    assert code == 2 and out == ""
    assert err == "error: duplicate vectors present\n"


@pytest.mark.parametrize("command",
                         ["verify", "spectrum", "embed", "export-coords"])
def test_vector_rank_mismatch_exit_two(tmp_path, capsys, command):
    # rank-3 vectors on the rank-2 A2 form: one line naming both ranks,
    # not numpy's matmul message
    gram = tmp_path / "a2.gram"
    gram.write_text("2\n2 1\n1 2\n")
    vecs = tmp_path / "f.vecs"
    vecs.write_text("3 2 1\n1 0 0\n-1 0 0\n")
    code, out, err = run(capsys, command, "--gram-file", str(gram),
                         "--vectors", str(vecs))
    assert code == 2 and out == ""
    assert err == ("error: vectors have rank 3 but the Gram matrix has "
                   "rank 2\n")


# {e1, -e1, e2} in Z^3 and a half-set of Z^2's minimal vectors: neither
# is closed under negation, so neither is an antipodal set
_NOT_ANTIPODAL = {"mixed": ("3 3 1\n1 0 0\n-1 0 0\n0 1 0\n", "(0, 1, 0)",
                            [[1, 1, 3], [0, 1, 4], [-1, 1, 2]]),
                  "half": ("2 2 1\n1 0\n0 1\n", "(0, 1)",
                           [[1, 1, 2], [0, 1, 2]])}


@pytest.mark.parametrize("name", sorted(_NOT_ANTIPODAL))
@pytest.mark.parametrize("command, message", [
    ("verify", "moment criterion is stated for antipodal sets only"),
    ("embed", "the embedding is defined for antipodal sets only"),
    ("export-coords", "vector {} has no antipodal partner")])
def test_non_antipodal_set_exit_two(tmp_path, capsys, name, command,
                                    message):
    # embed and export-coords refuse what verify refuses, instead of
    # reading the set as a half-set: on {e1, -e1, e2} they printed a
    # 6-point code with count 10 at s = 1 and two equal rows
    text, unpaired, _ = _NOT_ANTIPODAL[name]
    vecs = tmp_path / f"{name}.vecs"
    vecs.write_text(text)
    code, out, err = run(capsys, command, "--vectors", str(vecs))
    assert code == 2 and out == ""
    assert err == f"error: {message.format(unpaired)}\n"


@pytest.mark.parametrize("name", sorted(_NOT_ANTIPODAL))
def test_spectrum_of_non_antipodal_set(tmp_path, capsys, name):
    # spectrum serves any set, and says whether it is antipodal
    text, _, entries = _NOT_ANTIPODAL[name]
    vecs = tmp_path / f"{name}.vecs"
    vecs.write_text(text)
    code, out, _ = run(capsys, "spectrum", "--vectors", str(vecs),
                       "--format", "json")
    assert code == 0
    got = json.loads(out)
    assert got["antipodal"] is False and got["entries"] == entries


def test_embed_z2_multiset(tmp_path, capsys):
    # Z^2's embedded code is a multiset on S^1, G_e1 = -G_e2, with counts
    # 8 and 8 at s = +-1 for 4 points: antipodal, and no 3-design
    gram = tmp_path / "z2.gram"
    gram.write_text("2\n1 0\n0 1\n")
    code, out, err = run(capsys, "embed", "--gram-file", str(gram))
    assert code == 1 and err == ""
    assert out == ("embedded code (2, 4, 0) on S^1\n"
                   "3-design: False (moment 1 vs 1/2)\n1 8\n-1 8\n")


@pytest.mark.parametrize("command", ["verify", "spectrum", "embed",
                                     "export-coords", "minvec"])
@pytest.mark.parametrize("rows", ["1 2\n2 1", "1 1\n1 1", "0 0\n0 0"],
                         ids=["indefinite", "singular", "zero"])
def test_non_positive_definite_gram_file_exit_two(tmp_path, capsys,
                                                   command, rows):
    # indefinite, singular PSD and zero forms are refused where the file
    # is read, with its name
    gram = tmp_path / "bad.gram"
    gram.write_text(f"2\n{rows}\n")
    code, out, err = run(capsys, command, "--gram-file", str(gram))
    assert code == 2 and out == ""
    assert err == "error: bad: gram matrix is not positive definite\n"


def test_unexpected_exception_exit_three(monkeypatch, capsys):
    # a fault of the program is one stderr line and exit 3, never exit 1
    # (a verification FAIL) and never a traceback
    import sphdesign.report as report

    def broken(*args, **kwargs):
        raise RuntimeError("stage broke\nsecond line")

    monkeypatch.setattr(report, "pair_spectrum", broken)
    code, out, err = run(capsys, "verify", "--lattice", "A2")
    assert code == 3
    assert out == ""
    assert err == "error: internal RuntimeError: stage broke second line\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("den", [10 ** 9, 10 ** 20])
def test_huge_denominator_spectrum_bounded_memory(tmp_path, den):
    # scaled min norm m = den: a dense histogram of all 2m + 1 possible
    # products would take 16 GB at 10^9, and products past 2^63 do not fit
    # int64; under a 1 GiB address-space cap both commands must still give
    # a verdict, not an internal error
    p = tmp_path / "huge.gram"
    p.write_text(f"3\n1 0 0\n0 1 0\n0 0 {den + 1}/{den}\n")
    cap = 1 << 30
    src = str(Path(sphdesign.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for cmd in ("spectrum", "verify"):
        r = subprocess.run(
            [sys.executable, "-m", "sphdesign.cli", cmd, "--gram-file", str(p)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        assert r.returncode in (0, 1), (cmd, r.stderr)
        assert "Traceback" not in r.stderr and "internal" not in r.stderr
