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
    code, out, err = run(capsys, "verify", "--lattice", "E8", "--t-max", "0")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "error: t_max must be >= 1"


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
    # 2160 half-set rows, rank 135: the export factors A against the kept
    # rows only, never as a 2160 x 2160 block.  Measured at 4.1 s on a
    # 2-vCPU VM; the budget is 3x that
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "export-coords", "--lattice", "BW16",
                       "--matrix-cap", "2160")
    elapsed = time.perf_counter() - t0
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "135 4320"
    assert len(lines) == 4321
    assert all(len(ln.split()) == 135 for ln in lines[1:])
    assert elapsed < 12.3, f"{elapsed:.1f}s"


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


@pytest.mark.parametrize("command", ["verify", "export-coords"])
@pytest.mark.parametrize("cap", ["-5", "-1", "x", "+5"])
def test_bad_matrix_cap_usage_error(capsys, command, cap):
    # a negative cap would silently drop the certificate (verify) or
    # refuse every set (export-coords)
    with pytest.raises(SystemExit) as exc:
        main([command, "--lattice", "A2", "--matrix-cap", cap])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument --matrix-cap: expected an int >= 0, got '{cap}'" in err
    assert "Traceback" not in err


def test_zero_matrix_cap_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--lattice", "A2",
                       "--matrix-cap", "0")
    assert code == 0 and "rank certificate" not in out


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
    monkeypatch.setenv("SPHDESIGN_THREADS", "3")
    args = build_parser().parse_args(["spectrum", "--lattice", "A2"])
    assert args.threads == 3
    monkeypatch.setenv("SPHDESIGN_THREADS", "bogus")
    args = build_parser().parse_args(["spectrum", "--lattice", "A2"])
    assert args.threads == 1


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
