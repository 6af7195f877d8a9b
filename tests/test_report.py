from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

from sphdesign import report
from sphdesign.catalog import catalog
from sphdesign.embedding import embed
from sphdesign.enumeration import NotAntipodalError, halve_antipodal
from sphdesign.report import (
    _reproduce_row,
    code_params,
    report_text,
    reproduce_table,
    table_json,
    table_text,
    verify_lattice,
)
from sphdesign.reference_tables import REFERENCE_ROWS, ReferenceRow, rows_for_example
from sphdesign.spectrum import pair_spectrum

from conftest import lattice_vectors


def test_code_params_strips_antipodal_products(octahedron):
    cp = code_params(pair_spectrum(octahedron))
    assert cp.as_tuple() == (3, 6, F(0))
    assert cp.spectrum_abs == (F(0),)


def test_code_params_hexagon(hexagon):
    cp = code_params(pair_spectrum(hexagon))
    assert cp.as_tuple() == (2, 6, F(1, 2))


def test_code_params_embedded(hexagon):
    emb = embed(pair_spectrum(halve_antipodal(hexagon)))
    cp = code_params(emb)
    assert cp.as_tuple() == (2, 6, F(1, 2))


def test_code_params_requires_antipodal(hexagon):
    with pytest.raises(NotAntipodalError):
        code_params(pair_spectrum(halve_antipodal(hexagon)))


def test_verify_lattice_pass():
    rep = verify_lattice(catalog("D4"))
    assert rep["verdict"] == "PASS"
    assert rep["kissing_ok"] is True
    assert rep["design_strength"] == 5
    assert rep["embedded"]["code"] == [9, 24, "1/3"]
    assert rep["embedded"]["rank_certificate"] == {"is_psd": True, "rank": 9}
    assert rep["venkov5"]["moment2"] == "1/4"


def test_verify_skips_rank_over_cap():
    rep = verify_lattice(catalog("E6"), matrix_cap=10)
    assert "rank_certificate" not in rep["embedded"]
    assert rep["verdict"] == "PASS"


def test_verify_supplied_vectors(octahedron):
    from sphdesign.catalog import LatticeSpec

    spec = LatticeSpec(name="octahedron", gram=octahedron.gram)
    rep = verify_lattice(spec, vectors=octahedron)
    assert rep["verdict"] == "FAIL"
    assert rep["venkov5"]["holds"] is False
    assert rep["venkov5"]["moment4"] == "1/3"
    assert rep["embedded"]["is_3design"] is False
    assert rep["kissing_ok"] is None
    assert rep["design_strength"] == 3


def test_verify_seeded_halving_identical():
    base = verify_lattice(catalog("D4"))
    for seed in (0, 7):
        assert verify_lattice(catalog("D4"), seed=seed) == base


def test_report_text_renders():
    txt = report_text(verify_lattice(catalog("A2")))
    assert "verdict: PASS" in txt
    assert "embedded code (2, 6, 1/2)" in txt


def test_rows_for_example():
    assert [r.lattice for r in rows_for_example(2)] == ["BW16"]
    with pytest.raises(ValueError, match="choose"):
        rows_for_example(4)


def test_reference_rows_complete():
    assert len(REFERENCE_ROWS) == 12
    assert {r.example for r in REFERENCE_ROWS} == {1, 2, 3}
    assert [r.lattice for r in rows_for_example(1)] == [
        "A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8", "K10",
        "K10dual", "CT12"]


def test_reproduce_example_1():
    rows = reproduce_table(1)
    by_name = {r.lattice: r for r in rows}
    assert by_name["E7dual"].status == "PASS"
    assert by_name["E7dual"].computed_code == (27, 56, F(1, 27))
    assert by_name["K10"].status == "DATA-REQUIRED"
    assert "catalog data required" in by_name["K10"].detail
    assert by_name["CT12"].status == "PASS"
    assert all(r.status in ("PASS", "DATA-REQUIRED") for r in rows)


def test_reproduce_row_detects_mismatch():
    bad = ReferenceRow(1, "A2", 2, 8, F(1, 2), (F(1, 2),), (F(1, 2),))
    row = _reproduce_row(bad, threads=1)
    assert row.status == "FAIL"
    assert "kissing 6 != 8" in row.detail


def test_reproduce_row_detects_wrong_products():
    bad = ReferenceRow(1, "A2", 2, 6, F(1, 3), (F(1, 3),), (F(1, 3),))
    row = _reproduce_row(bad, threads=1)
    assert row.status == "FAIL"
    assert "products" in row.detail and "code" in row.detail


def test_table_text_layout():
    txt = table_text(reproduce_table(1))
    lines = txt.splitlines()
    assert lines[0].startswith("lattice")
    assert any("DATA-REQUIRED" in ln for ln in lines)
    assert sum("PASS" in ln for ln in lines) == 8


def test_table_json_schema():
    rows = json.loads(table_json(reproduce_table(1)))
    assert len(rows) == 10
    e8 = next(r for r in rows if r["lattice"] == "E8")
    assert e8["status"] == "PASS"
    assert e8["expected"]["code"] == [35, 240, "1/7"]
    assert e8["computed"]["code"] == [35, 240, "1/7"]
    assert e8["computed"]["embedded_abs"] == ["1/7"]
    k10 = next(r for r in rows if r["lattice"] == "K10")
    assert k10["status"] == "DATA-REQUIRED"
    assert "computed" not in k10


def test_verify_report_json_serializable():
    rep = verify_lattice(catalog("E6dual"))
    blob = json.dumps(rep)
    back = json.loads(blob)
    assert back["embedded"]["theorem_check"] == {"lhs": "1/20", "rhs": "1/20"}
    assert back["min_norm"] == "4/3"


def _count_spectrum_passes(monkeypatch) -> list:
    calls = []
    real = report.pair_spectrum

    def counting(*args, **kwargs):
        calls.append(args[0].count)
        return real(*args, **kwargs)

    monkeypatch.setattr(report, "pair_spectrum", counting)
    return calls


def test_verify_runs_one_spectrum_pass(monkeypatch):
    calls = _count_spectrum_passes(monkeypatch)
    rep = verify_lattice(catalog("E8"))
    assert rep["verdict"] == "PASS"
    assert calls == [240]


def test_reproduce_row_runs_one_spectrum_pass(monkeypatch):
    calls = _count_spectrum_passes(monkeypatch)
    e8 = next(r for r in rows_for_example(1) if r.lattice == "E8")
    assert _reproduce_row(e8, threads=1).status == "PASS"
    assert calls == [240]
