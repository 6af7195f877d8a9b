from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign import _arrays, embedding, report, spectrum
from sphdesign.catalog import LatticeSpec, catalog
from sphdesign.embedding import dim_harm, embed, harmonic_rank
from sphdesign.enumeration import (
    VectorSet,
    halve_antipodal,
    minimal_vector_set,
)
from sphdesign.linalg import GramMatrix
from sphdesign.report import (
    _reproduce_row,
    report_text,
    reproduce_table,
    table_json,
    table_text,
    verify_lattice,
)
from sphdesign.reference_tables import REFERENCE_ROWS, ReferenceRow, rows_for_example
from sphdesign.spectrum import pair_spectrum

from conftest import lattice_vectors, mirror, random_half


def test_code_params_strips_antipodal_products(octahedron):
    sp = pair_spectrum(octahedron)
    assert (sp.d + 1, sp.size, sp.a) == (3, 6, F(0))
    assert sp.abs_products == (F(0),)


def test_code_params_hexagon(hexagon):
    sp = pair_spectrum(hexagon)
    assert (sp.d + 1, sp.size, sp.a) == (2, 6, F(1, 2))


def test_code_params_embedded(hexagon):
    emb = embed(pair_spectrum(hexagon))
    assert (emb.d + 1, emb.size, emb.a) == (2, 6, F(1, 2))


def test_verify_lattice_pass():
    rep = verify_lattice(catalog("D4"))
    assert rep["verdict"] == "PASS"
    assert rep["kissing_ok"] is True
    assert rep["design_strength"] == 5
    assert rep["embedded"]["code"] == [9, 24, "1/3"]
    assert rep["embedded"]["rank_certificate"] == {"is_psd": True, "rank": 9}
    assert rep["venkov5"]["moment2"] == "1/4"


def test_certify_never_builds_the_half_set_block(monkeypatch):
    # the rank certificate runs in Harm_2 coordinates; the N/2 x N/2
    # embedded Gram block stays off the certify path
    def forbidden(*args, **kwargs):
        raise AssertionError("embedded_gram called by certify")

    monkeypatch.setattr(embedding, "embedded_gram", forbidden)
    monkeypatch.setattr(_arrays, "embedded_gram", forbidden)
    monkeypatch.setattr(report, "embedded_gram", forbidden, raising=False)
    cert = report.certify(catalog("CT12"))
    assert cert.rank == 77
    assert cert.passed


def test_verify_skips_rank_over_cap(monkeypatch):
    # E6's half-set has 36 points: the report carries the rank exactly
    # when that is within the limit
    for limit, rank in [(10, None), (35, None), (36, 20)]:
        monkeypatch.setattr(report, "_RANK_LINE_MAX", limit)
        rep = verify_lattice(catalog("E6"))
        assert rep["embedded"].get("rank_certificate") == (
            None if rank is None else {"is_psd": True, "rank": rank})
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
    # the report equals what any half-set gives: its spectrum mirrored,
    # and the rank certificate of its rows
    base = verify_lattice(catalog("D4"))
    vs = lattice_vectors("D4")
    for seed in (0, 7):
        half = random_half(vs, seed)
        assert mirror(pair_spectrum(half)).to_triples() \
            == base["source_spectrum"]
        assert base["embedded"]["rank_certificate"] == {
            "is_psd": True, "rank": harmonic_rank(half)}


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
    by_name = {r.expected.lattice: r for r in rows}
    assert by_name["E7dual"].status == "PASS"
    emb = by_name["E7dual"].certificate.embedded
    assert (emb.d + 1, emb.size, emb.a) == (27, 56, F(1, 27))
    assert by_name["K10"].certificate is None
    assert by_name["K10"].status == "DATA-REQUIRED"
    assert "catalog data required" in by_name["K10"].detail
    assert by_name["CT12"].status == "PASS"
    assert all(r.status in ("PASS", "DATA-REQUIRED") for r in rows)


def test_reproduce_row_detects_mismatch():
    bad = ReferenceRow(1, "A2", 2, 8, F(1, 2), (F(1, 2),), (F(1, 2),))
    row = _reproduce_row(bad, threads=1)
    assert row.status == "FAIL"
    # a wrong N is one problem, reported once, by the code comparison
    assert row.detail == "embedded code (2, 6, 1/2) != (2, 8, 1/2)"


def test_reproduce_row_detects_wrong_products():
    bad = ReferenceRow(1, "A2", 2, 6, F(1, 3), (F(1, 3),), (F(1, 3),))
    row = _reproduce_row(bad, threads=1)
    assert row.status == "FAIL"
    assert "products" in row.detail and "code" in row.detail


def test_reproduce_row_renders_a_failing_code_as_rationals():
    a2 = replace(rows_for_example(1)[0], a=F(1, 3))
    row = _reproduce_row(a2, threads=1)
    assert row.status == "FAIL"
    assert row.detail == "embedded code (2, 6, 1/2) != (2, 6, 1/3)"


@pytest.mark.parametrize("change", [
    {"ambient": 3}, {"a": F(1, 3)}, {"size": 8},
    {"source_abs": (F(1, 3),)}, {"embedded_abs": (F(0), F(1, 2))},
    {"source_strength": 3},
])
def test_reproduce_row_fail_details_are_rationals(change):
    # one reference field changed at a time: every mismatch is named,
    # and every value in it is printed as p/q, never as a repr
    a2 = rows_for_example(1)[0]
    assert a2.lattice == "A2"
    row = _reproduce_row(replace(a2, **change), threads=1)
    assert row.status == "FAIL"
    assert row.detail and "Fraction(" not in row.detail


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
    """Sizes of the sets passed to pair_spectrum and halve_antipodal,
    under every name certify reaches them by."""
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[0].count))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(report, "pair_spectrum")
    counting(spectrum, "halve_antipodal")
    return calls


def test_verify_runs_one_spectrum_pass(monkeypatch):
    # one spectrum pass, handed the whole set, which it halves itself;
    # certify halves nothing
    assert not hasattr(report, "halve_antipodal")
    calls = _count_spectrum_passes(monkeypatch)
    rep = verify_lattice(catalog("E8"))
    assert rep["verdict"] == "PASS"
    assert calls == [("pair_spectrum", 240), ("halve_antipodal", 240)]


def test_reproduce_row_runs_one_spectrum_pass(monkeypatch):
    calls = _count_spectrum_passes(monkeypatch)
    e8 = next(r for r in rows_for_example(1) if r.lattice == "E8")
    assert _reproduce_row(e8, threads=1).status == "PASS"
    assert calls == [("pair_spectrum", 240), ("halve_antipodal", 240)]


@pytest.mark.parametrize("name", ["D4", "E8", "E7dual"])
def test_any_half_set_mirrors_to_the_full_spectrum(name):
    vs = lattice_vectors(name)
    full = pair_spectrum(vs)
    assert mirror(pair_spectrum(halve_antipodal(vs))) == full
    for seed in (0, 7):
        assert mirror(pair_spectrum(random_half(vs, seed))) == full


# --- the rank read from the embedded 3-design, against harmonic_rank

_SMALL = ("A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8", "CT12")


@pytest.mark.parametrize("name", _SMALL)
def test_derived_rank_is_harmonic_rank(monkeypatch, name):
    vs = lattice_vectors(name)
    calls = []
    monkeypatch.setattr(report, "harmonic_rank",
                        lambda x: calls.append(x) or harmonic_rank(x))
    cert = report.certify(catalog(name), t_max=None)
    assert cert.theorem[0] and calls == []
    assert cert.rank == harmonic_rank(vs) == dim_harm(2, vs.sphere_dim)


def _skew(g: GramMatrix, seed: int, ops: int) -> GramMatrix:
    """U g U^T for a seeded product of ops elementary unimodular U."""
    rng = random.Random(seed)
    u = [[int(i == j) for j in range(g.n)] for i in range(g.n)]
    for _ in range(ops):
        i, j = rng.sample(range(g.n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    ug = [[sum(a * b for a, b in zip(row, col)) for col in zip(*g.entries)]
          for row in u]
    return GramMatrix(g.scale, tuple(
        tuple(sum(a * b for a, b in zip(row, urow)) for urow in u)
        for row in ug))


_ORBIT_BASES = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1),
                (2, 0, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0)]


def _signed_orbit(base) -> set[tuple[int, ...]]:
    return {tuple(s * x for s, x in zip(signs, perm))
            for perm in itertools.permutations(base)
            for signs in itertools.product((1, -1), repeat=len(base))}


@st.composite
def _antipodal_sets(draw):
    """Minimal vectors of a skewed small lattice, where the embedded
    3-design holds, or a union of signed-permutation orbits of vectors of
    one norm in R^4 (among them the 24-cell), which mostly fail it."""
    if draw(st.booleans()):
        g = _skew(catalog(draw(st.sampled_from(_SMALL[:-1]))).gram,
                  draw(st.integers(0, 2**16)), draw(st.integers(0, 12)))
        return minimal_vector_set(g)
    norm = draw(st.sampled_from([1, 2, 3, 4, 5, 6]))
    bases = [b for b in _ORBIT_BASES if sum(x * x for x in b) == norm]
    picked = draw(st.sets(st.sampled_from(bases), min_size=1))
    rows = set().union(*map(_signed_orbit, picked))
    return VectorSet(gram=GramMatrix.identity(4), min_norm=F(norm),
                     coords=tuple(sorted(rows)))


@given(_antipodal_sets())
@settings(max_examples=60, deadline=None)
def test_derived_rank_is_harmonic_rank_on_antipodal_sets(vs):
    spec = LatticeSpec(name="x", gram=vs.gram)
    cert = report.certify(spec, t_max=None, vectors=vs)
    assert cert.rank == harmonic_rank(vs)


def test_24_cell_rank_is_derived(monkeypatch):
    rows = _signed_orbit((2, 0, 0, 0)) | _signed_orbit((1, 1, 1, 1))
    vs = VectorSet(gram=GramMatrix.identity(4), min_norm=F(4),
                   coords=tuple(sorted(rows)))
    monkeypatch.setattr(report, "harmonic_rank", None)
    cert = report.certify(LatticeSpec(name="24-cell", gram=vs.gram),
                          t_max=None, vectors=vs)
    assert cert.theorem[0] and cert.rank == 9


@pytest.mark.parametrize("gram, rows, norm", [
    ([[1, 0], [0, 1]], ((-1, 0), (0, -1), (0, 1), (1, 0)), 1),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ((-1, -1, 0), (1, 1, 0)), 2),
], ids=["Z2", "pm110"])
def test_failing_sets_under_the_cap_compute_their_rank(gram, rows, norm):
    # the embedded 3-design fails, so the rank is harmonic_rank's, not D
    vs = VectorSet(gram=GramMatrix.from_rows(gram), min_norm=F(norm),
                   coords=rows)
    cert = report.certify(LatticeSpec(name="x", gram=vs.gram), t_max=None,
                          vectors=vs)
    assert not cert.theorem[0]
    assert cert.rank == harmonic_rank(vs) == 1
    assert cert.rank < cert.embedded.d + 1
