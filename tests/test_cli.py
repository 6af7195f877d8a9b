"""CLI surface: exit codes, determinism, file outputs, error reporting."""

from __future__ import annotations

import json

import pytest

from sphdesign.cli import _decimal_str, build_parser, main
from fractions import Fraction as F


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattices_listing(capsys):
    code, out, _ = run(capsys, "lattices")
    assert code == 0
    assert "K10      data required" in out
    assert "Leech    available" in out


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


def test_seeded_halving_stable_output(capsys):
    _, base, _ = run(capsys, "embed", "--lattice", "D4")
    for seed in ("0", "1", "17"):
        _, out, _ = run(capsys, "embed", "--lattice", "D4", "--seed", seed)
        assert out == base


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


def test_decimal_str_exact():
    assert _decimal_str(F(1, 3), 6) == "0.333333"
    assert _decimal_str(F(-5, 4), 3) == "-1.250"
    assert _decimal_str(F(7), 2) == "7.00"
    assert _decimal_str(F(2, 3), 0) == "0"


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
