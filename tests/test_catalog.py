from __future__ import annotations

import importlib.util
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from sphdesign.catalog import (
    CatalogDataMissing,
    CatalogError,
    LatticeSpec,
    available_names,
    catalog,
    catalog_names,
    expectations,
    from_gram_file,
)
from sphdesign.enumeration import shortest_norm_and_vectors
from sphdesign.linalg import GramMatrix, PivotError, ldlt

from conftest import dual


NAMES = ["A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8",
         "K10", "K10dual", "CT12", "BW16", "Leech"]

# determinant and minimum of every shipped form
SHIPPED = {
    "A2": (F(3), F(2)),
    "D4": (F(4), F(2)),
    "E6": (F(3), F(2)),
    "E6dual": (F(1, 3), F(4, 3)),
    "E7": (F(2), F(2)),
    "E7dual": (F(1, 2), F(3, 2)),
    "E8": (F(1), F(2)),
    "CT12": (F(729), F(4)),
    "BW16": (F(256), F(4)),
    "Leech": (F(1), F(4)),
}


def det(g: GramMatrix) -> F:
    # the last pivot of the integer LDL^T of c*g is det(c*g) = c^n det g
    pivots, _ = ldlt(g.entries)
    return F(pivots[-1], g.scale ** g.n)


def test_names_and_availability():
    assert catalog_names() == NAMES
    avail = available_names()
    assert set(avail) == set(SHIPPED)
    assert "K10" not in avail and "K10dual" not in avail


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_form_invariants(name):
    spec = catalog(name)
    expected_det, expected_min = SHIPPED[name]
    assert det(spec.gram) == expected_det
    assert spec.expected_min_norm == expected_min
    # Sylvester: every leading principal minor is positive
    assert all(p > 0 for p in ldlt(spec.gram.entries)[0])


def test_missing_data_message():
    with pytest.raises(CatalogDataMissing, match="catalog data required"):
        catalog("K10")
    with pytest.raises(CatalogDataMissing, match="supply a Gram file"):
        catalog("K10dual")


def test_unknown_name_lists_alternatives():
    with pytest.raises(CatalogError, match="A2.*Leech"):
        catalog("E9")


def test_dual_roundtrip():
    e7 = catalog("E7")
    e7d = dual(e7)
    assert e7d.name == "E7dual"
    assert e7d.expected_kissing == 56
    back = dual(e7d)
    assert back.name == "E7"
    assert back.gram.entries == e7.gram.entries
    # unimodular forms are self-dual up to basis
    assert det(dual(catalog("E8")).gram) == F(1)
    assert det(dual(catalog("Leech")).gram) == F(1)


def test_dual_det_reciprocal():
    for name in ("A2", "D4", "E6", "CT12", "BW16"):
        spec = catalog(name)
        assert det(dual(spec).gram) == 1 / det(spec.gram)


def test_from_gram_file(tmp_path):
    p = tmp_path / "hex.gram"
    p.write_text("2\n2 1\n1 2\n")
    spec = from_gram_file(p)
    assert spec.name == "hex"
    assert spec.expected_kissing is None
    assert spec.gram[0, 1] == F(1)


def test_latticespec_rejects_indefinite(tmp_path):
    # a LatticeSpec holds a GramMatrix, which is refused where it is
    # built; from a file, the error names it
    with pytest.raises(PivotError, match="^gram matrix is not positive"):
        LatticeSpec(name="bad", gram=GramMatrix.from_rows([[1, 2], [2, 1]]))
    p = tmp_path / "bad.gram"
    p.write_text("2\n1 2\n2 1\n")
    with pytest.raises(PivotError,
                       match="^bad: gram matrix is not positive definite$"):
        from_gram_file(p)


BUILD_SCRIPT = Path(__file__).resolve().parents[1] / "scripts/build_catalog.py"
DATA_DIR = Path(__file__).resolve().parents[1] / "src/sphdesign/data"


@pytest.fixture(scope="module")
def build_catalog():
    # the generator as a module, without running main(), which rewrites
    # the shipped data files
    spec = importlib.util.spec_from_file_location("build_catalog",
                                                  BUILD_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def built(build_catalog):
    return build_catalog.build()


def test_build_catalog_determinant(build_catalog):
    for name, (expected_det, _) in SHIPPED.items():
        assert build_catalog.determinant(catalog(name).gram) == expected_det


def test_build_reproduces_shipped_files(build_catalog, built, tmp_path):
    assert sorted(built) == sorted(SHIPPED)
    for name, (g, header) in built.items():
        out = tmp_path / f"{name.lower()}.gram"
        build_catalog.write_gram(out, g, header=header)
        assert out.read_bytes() == (DATA_DIR / out.name).read_bytes()
    assert sorted(p.name for p in DATA_DIR.glob("*.gram")) == sorted(
        f"{name.lower()}.gram" for name in built)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_built_form_certifies_against_catalog(built, name):
    g, _ = built[name]
    kissing, min_norm = expectations(name)
    assert det(g) == SHIPPED[name][0]
    m, vecs = shortest_norm_and_vectors(g)
    assert (m, len(vecs)) == (min_norm, kissing)


def test_certify_raises_under_optimization(tmp_path):
    # python -O strips assert statements: a wrong determinant or kissing
    # number must still stop the build
    probe = tmp_path / "probe.py"
    probe.write_text(f"""
import importlib.util
import subprocess
import sys
from fractions import Fraction

spec = importlib.util.spec_from_file_location("build_catalog",
                                              {str(BUILD_SCRIPT)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
a2 = module.GramMatrix.from_rows([[2, 1], [1, 2]])
for det, kissing in ((Fraction(4), 6), (Fraction(3), 7)):
    try:
        module.certify("A2", a2, det, Fraction(2), kissing)
    except Exception as exc:
        print(exc)
""")
    proc = subprocess.run([sys.executable, "-O", str(probe)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["A2: determinant 3, expected 4",
                                        "A2: kissing number 6, expected 7"]
