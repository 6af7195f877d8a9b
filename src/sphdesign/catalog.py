"""Built-in lattice catalog backed by shipped Gram data files."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .gramfile import read_gram, parse_gram
from .linalg import GramMatrix, PivotError


class CatalogError(KeyError):
    def __str__(self):  # KeyError quotes its message; keep it plain
        return str(self.args[0]) if self.args else ""


class CatalogDataMissing(CatalogError):
    """A known name whose Gram data file is not shipped."""


@dataclass(frozen=True)
class LatticeSpec:
    name: str
    gram: GramMatrix
    expected_kissing: int | None = None
    expected_min_norm: Fraction | None = None


# name -> expected min norm, None where none is claimed; the Gram data
# of a name is <name.lower()>.gram, its kissing number its reference row's N
_CATALOG: dict[str, Fraction | None] = {
    "A2": Fraction(2),
    "D4": Fraction(2),
    "E6": Fraction(2),
    "E6dual": Fraction(4, 3),
    "E7": Fraction(2),
    "E7dual": Fraction(3, 2),
    "E8": Fraction(2),
    "K10": None,
    "K10dual": None,
    "CT12": Fraction(4),
    "BW16": Fraction(4),
    "Leech": Fraction(4),
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


def _data_file(name: str):
    return resources.files("sphdesign.data").joinpath(f"{name.lower()}.gram")


def available_names() -> list[str]:
    """Catalog names whose Gram data actually ships."""
    return [name for name in _CATALOG if _data_file(name).is_file()]


def expectations(name: str) -> tuple[int, Fraction | None]:
    """(kissing number, min norm) the catalog expects of a catalog name."""
    # imported on first use: importing catalog loads only the Gram readers
    from .reference_tables import REFERENCE_ROWS
    [kissing] = [r.size for r in REFERENCE_ROWS if r.lattice == name]
    return kissing, _CATALOG[name]


def catalog(name: str) -> LatticeSpec:
    """Look up a shipped lattice by name.

    Unknown names list the alternatives; known names without shipped data
    raise CatalogDataMissing.
    """
    if name not in _CATALOG:
        raise CatalogError(
            f"unknown lattice {name!r}; available: {', '.join(_CATALOG)}")
    kissing, min_norm = expectations(name)
    res = _data_file(name)
    if not res.is_file():
        raise CatalogDataMissing(
            f"{name}: catalog data required (no {res.name} shipped); "
            f"supply a Gram file to use this lattice")
    gram = parse_gram(res.read_text())
    return LatticeSpec(name=name, gram=gram,
                       expected_kissing=kissing, expected_min_norm=min_norm)


def from_gram_file(path: str | Path) -> LatticeSpec:
    """LatticeSpec for a user-supplied Gram file (no expectations attached);
    a form that is not positive definite raises PivotError naming it."""
    p = Path(path)
    try:
        gram = read_gram(p)
    except PivotError as exc:
        raise PivotError(f"{p.stem}: {exc}") from None
    return LatticeSpec(name=p.stem, gram=gram)

