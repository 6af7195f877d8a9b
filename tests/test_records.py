"""The package's frozen value records (sphdesign._record.Record): each
keeps the constructor of the dataclass it replaced, compares and hashes
by value, and refuses assignment."""

from __future__ import annotations

import copy
import inspect
import pickle
from fractions import Fraction as F

import pytest

from sphdesign.catalog import LatticeSpec
from sphdesign.enumeration import VectorSet
from sphdesign.linalg import GramMatrix
from sphdesign.reference_tables import REFERENCE_ROWS
from sphdesign.report import Certificate, TableRow
from sphdesign.spectrum import PairSpectrum

_A2_ROWS = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1))


def _a2() -> GramMatrix:
    return GramMatrix(1, ((2, -1), (-1, 2)))


def _spectrum() -> PairSpectrum:
    return PairSpectrum(1, 2, ((F(1), 2), (F(-1), 2)))


def _certificate() -> Certificate:
    return Certificate(F(2), True, True, _spectrum(), (True, F(1, 2), F(3, 8)),
                       5, _spectrum(), (True, F(1, 2)), 2)


# name -> (class, positional arguments, the same by keyword); every call
# builds fresh, equal field values
_CASES = {
    "GramMatrix": lambda: (GramMatrix, (1, ((2, -1), (-1, 2)))),
    "VectorSet": lambda: (VectorSet, (_a2(), F(2), _A2_ROWS)),
    "PairSpectrum": lambda: (PairSpectrum, (1, 2, ((F(1), 2), (F(-1), 2)))),
    "LatticeSpec": lambda: (LatticeSpec, ("A2", _a2(), 6, F(2))),
    "Certificate": lambda: (Certificate, (
        F(2), True, True, _spectrum(), (True, F(1, 2), F(3, 8)), 5,
        _spectrum(), (True, F(1, 2)), 2)),
    "TableRow": lambda: (TableRow, ("PASS", REFERENCE_ROWS[0],
                                    _certificate(), "")),
}

# the constructor parameters and their defaults, as the dataclasses had
_SIGNATURES = {
    "GramMatrix": ["scale", "entries"],
    "VectorSet": ["gram", "min_norm", "coords"],
    "PairSpectrum": ["d", "size", "entries"],
    "LatticeSpec": ["name", "gram", "expected_kissing=None",
                    "expected_min_norm=None"],
    "Certificate": ["min_norm", "kissing_ok", "min_norm_ok", "source",
                    "venkov5", "strength", "embedded", "theorem", "rank"],
    "TableRow": ["status", "expected", "certificate=None", "detail=''"],
}


def _build(name: str, by_keyword: bool):
    cls, args = _CASES[name]()
    if not by_keyword:
        return cls(*args)
    names = [p.split("=")[0] for p in _SIGNATURES[name]]
    return cls(**dict(zip(names, args)))


@pytest.mark.parametrize("name", _CASES)
def test_constructor_signature(name):
    cls = _CASES[name]()[0]
    params = inspect.signature(cls).parameters.values()
    assert [p.name + ("" if p.default is p.empty else f"={p.default!r}")
            for p in params] == _SIGNATURES[name]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("name", _CASES)
def test_positional_and_keyword_construction_agree(name):
    a, b = _build(name, False), _build(name, True)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", _CASES)
def test_equal_values_compare_and_hash_equal(name):
    a, b = _build(name, False), _build(name, False)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", _CASES)
def test_other_types_compare_unequal(name):
    a = _build(name, False)
    fields = tuple(getattr(a, f) for f in a.__slots__ if f[0] != "_")
    for other in (fields, object(), None, 0):
        assert a != other and not a == other
    others = [_build(n, False) for n in _CASES if n != name]
    assert all(a != o for o in others)


@pytest.mark.parametrize("name", _CASES)
def test_assignment_raises_attribute_error(name):
    a = _build(name, False)
    fields = [f for f in a.__slots__ if f[0] != "_"]
    before = [getattr(a, f) for f in fields]
    for field in fields + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert [getattr(a, f) for f in fields] == before


@pytest.mark.parametrize("name", _CASES)
def test_copy_and_pickle_keep_the_value(name):
    a = _build(name, False)
    for twin in (copy.copy(a), copy.deepcopy(a),
                 pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a
        with pytest.raises(AttributeError):
            setattr(twin, a.__slots__[0], None)


def test_different_values_compare_unequal():
    assert GramMatrix(1, ((1,),)) != GramMatrix(1, ((2,),))
    assert LatticeSpec("A2", _a2()) != LatticeSpec("A2", _a2(), 6)
    row = TableRow("PASS", REFERENCE_ROWS[0])
    assert row != TableRow("FAIL", REFERENCE_ROWS[0])
    assert (row.certificate, row.detail) == (None, "")


def test_vector_set_array_is_a_cache_not_a_field():
    a, b = _build("VectorSet", False), _build("VectorSet", False)
    arr = a.array
    assert arr is a.array and not arr.flags.writeable
    assert arr.tolist() == [list(r) for r in _A2_ROWS]
    # reading the array changes neither equality nor the hash
    assert a == b and hash(a) == hash(b)
    assert "_array" not in repr(a) and "min_norm=Fraction(2, 1)" in repr(a)


def test_validation_is_kept():
    with pytest.raises(ValueError, match="not symmetric"):
        GramMatrix(1, ((2, 1), (0, 2)))
    with pytest.raises(ValueError, match="rank 3 but the Gram"):
        VectorSet(_a2(), F(2), ((1, 0, 0), (-1, 0, 0)))
    with pytest.raises(ValueError, match="counts sum to 3"):
        PairSpectrum(1, 2, ((F(1), 2), (F(-1), 1)))
