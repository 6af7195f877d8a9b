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


# name -> (data file stem, expected kissing, expected min norm)
_CATALOG: dict[str, tuple[str, int | None, Fraction | None]] = {
    "A2": ("a2", 6, Fraction(2)),
    "D4": ("d4", 24, Fraction(2)),
    "E6": ("e6", 72, Fraction(2)),
    "E6dual": ("e6dual", 54, Fraction(4, 3)),
    "E7": ("e7", 126, Fraction(2)),
    "E7dual": ("e7dual", 56, Fraction(3, 2)),
    "E8": ("e8", 240, Fraction(2)),
    "K10": ("k10", 276, None),
    "K10dual": ("k10dual", 54, None),
    "CT12": ("ct12", 756, Fraction(4)),
    "BW16": ("bw16", 4320, Fraction(4)),
    "Leech": ("leech", 196560, Fraction(4)),
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


def available_names() -> list[str]:
    """Catalog names whose Gram data actually ships."""
    out = []
    for name, (stem, _, _) in _CATALOG.items():
        if resources.files("sphdesign.data").joinpath(f"{stem}.gram").is_file():
            out.append(name)
    return out


def catalog(name: str) -> LatticeSpec:
    """Look up a shipped lattice by name.

    Unknown names list the alternatives; known names without shipped data
    raise CatalogDataMissing.
    """
    if name not in _CATALOG:
        raise CatalogError(
            f"unknown lattice {name!r}; available: {', '.join(_CATALOG)}")
    stem, kissing, min_norm = _CATALOG[name]
    res = resources.files("sphdesign.data").joinpath(f"{stem}.gram")
    if not res.is_file():
        raise CatalogDataMissing(
            f"{name}: catalog data required (no {stem}.gram shipped); "
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

