#!/usr/bin/env python3
"""Offline generator for the shipped lattice Gram files.

Every matrix is constructed from first principles (Cartan matrices, exact
inverses, code-based constructions) and then certified before any file is
written: positive definiteness (checked by every GramMatrix as it is
built), determinant, minimal norm and kissing number are all checked in
exact arithmetic.  The script states only the determinants; each minimal
norm and kissing number is read from `sphdesign.catalog.expectations`,
the facts `verify` checks a lattice against.  A construction slip or a
wrong fact exits 1 with one line naming the lattice, and nothing is
written.  K10 and K10dual have no construction here and ship no file.

Run from the repository root:  python3 scripts/build_catalog.py
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphdesign.catalog import expectations  # noqa: E402
from sphdesign.enumeration import shortest_norm_and_vectors  # noqa: E402
from sphdesign.gramfile import write_gram  # noqa: E402
from sphdesign.linalg import GramMatrix, invert, ldlt  # noqa: E402

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "sphdesign" / "data"


class BuildError(Exception):
    """A construction or a certified fact came out wrong."""


def require(ok: bool, message: str) -> None:
    # raised explicitly, so `python -O` never skips a certification
    if not ok:
        raise BuildError(message)


# ---------------------------------------------------------------- integer HNF

def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form basis of the lattice spanned by rows."""
    rows = [list(r) for r in rows if any(r)]
    r = 0
    for col in range(len(rows[0])):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(rows[i][col]))
            rows[r], rows[i0] = rows[i0], rows[r]
            if rows[r][col] < 0:
                rows[r] = [-x for x in rows[r]]
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][col]:
                    q = rows[i][col] // rows[r][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if rows[i][col]:
                        done = False
            if done:
                r += 1
                break
    return [row for row in rows if any(row)]


def gram_of(basis: list[list[int]], form: list[list[Fraction]] | None = None,
            scale: Fraction = Fraction(1)) -> GramMatrix:
    """Gram matrix scale * B Q B^T (Q defaults to identity)."""
    n = len(basis)
    m = len(basis[0])
    if form is None:
        form = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    rows = []
    for bi in basis:
        bq = [sum(Fraction(bi[k]) * form[k][j] for k in range(m)) for j in range(m)]
        rows.append([scale * sum(bq[j] * bj[j] for j in range(m)) for bj in basis])
    return GramMatrix.from_rows(rows)


def determinant(g: GramMatrix) -> Fraction:
    """det g: the last pivot of the integer LDL^T of c*g is det(c*g) = c^n det g."""
    pivots, _ = ldlt(g.entries)
    return Fraction(pivots[-1], g.scale ** g.n)


# ------------------------------------------------------------- root lattices

def cartan(adjacency: list[tuple[int, int]], n: int) -> GramMatrix:
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in adjacency:
        rows[i][j] = rows[j][i] = -1
    return GramMatrix.from_rows(rows)


def root_lattices() -> dict[str, GramMatrix]:
    a2 = GramMatrix.from_rows([[2, 1], [1, 2]])
    d4 = cartan([(0, 1), (1, 2), (1, 3)], 4)
    e6 = cartan([(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)], 6)
    e7 = cartan([(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)], 7)
    e8 = cartan([(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)], 8)
    return {"A2": a2, "D4": d4, "E6": e6, "E7": e7, "E8": e8}


# ----------------------------------------------------------------- BW16

def bw16_gram() -> GramMatrix:
    # v in Z^16 with v mod 2 in RM(1,4) and sum(v) = 0 mod 4; Gram halved.
    # RM(1,4) is spanned by all-ones and the four coordinate forms
    gens = [[1] * 16] + [[(i >> bit) & 1 for i in range(16)]
                         for bit in range(4)]
    gens += [[2 if j == i else 0 for j in range(16)] for i in range(16)]
    basis_a = hnf_rows(gens)
    require(len(basis_a) == 16, f"BW16: {len(basis_a)} basis rows, not 16")
    phi = [sum(row) % 4 for row in basis_a]
    # the 2e_i give rows of sum 2 mod 4: keep differences of two such rows,
    # and twice one of them
    r, *rest = [i for i, p in enumerate(phi) if p == 2]
    gens_b = [row for row, p in zip(basis_a, phi) if p == 0]
    gens_b += [[x - y for x, y in zip(basis_a[i], basis_a[r])] for i in rest]
    gens_b.append([2 * x for x in basis_a[r]])
    basis = hnf_rows(gens_b)
    require(len(basis) == 16, f"BW16: {len(basis)} basis rows, not 16")
    return gram_of(basis, scale=Fraction(1, 2))


# ----------------------------------------------------------------- Leech

GOLAY_POLY = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]  # x^11+x^10+x^6+x^5+x^4+x^2+1, low degree first


def golay_generators() -> list[list[int]]:
    """Twelve generator rows of the extended binary Golay code.

    Cyclic shifts of the degree-11 generator polynomial, parity-extended;
    certified by spanning the code and checking its weight enumerator.
    """
    gens = []
    for shift in range(12):
        word = [0] * 23
        for i, c in enumerate(GOLAY_POLY):
            word[i + shift] = c
        word.append(sum(word) % 2)
        gens.append(word)
    words = {tuple([0] * 24)}
    for g in gens:
        words |= {tuple((a + b) % 2 for a, b in zip(w, g)) for w in words}
    require(len(words) == 4096,
            "Leech: the Golay polynomial did not span a [24,12] code")
    weights: dict[int, int] = {}
    for w in words:
        weights[sum(w)] = weights.get(sum(w), 0) + 1
    require(weights == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1},
            f"Leech: Golay weight enumerator {weights}")
    return gens


def leech_gram() -> GramMatrix:
    gens = [[2 * x for x in c] for c in golay_generators()]
    for i in range(1, 24):
        for e_i in (4, -4):
            gens.append([4] + [e_i if j == i else 0 for j in range(1, 24)])
    gens.append([8] + [0] * 23)
    gens.append([-3] + [1] * 23)
    basis = hnf_rows(gens)
    require(len(basis) == 24, f"Leech: {len(basis)} basis rows, not 24")
    return gram_of(basis, scale=Fraction(1, 8))


# ----------------------------------------------------------------- CT12

# F4 = {0, 1, w, w2} encoded 0..3 with w2 = w^2 = w + 1
F4_ADD = [[a ^ b for b in range(4)] for a in range(4)]
_F4M = {(0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (1, 1): 1, (1, 2): 2, (1, 3): 3, (2, 2): 3, (2, 3): 1, (3, 3): 2}
F4_MUL = [[_F4M[(min(a, b), max(a, b))] for b in range(4)] for a in range(4)]
F4_CONJ = [0, 1, 3, 2]  # Frobenius x -> x^2


def hexacode() -> list[list[int]]:
    """Generator matrix [I | M] of a [6,3,4] Hermitian self-dual F4 code."""
    def weight_ok(gens):
        for coeffs in itertools.product(range(4), repeat=3):
            if coeffs == (0, 0, 0):
                continue
            word = [0] * 6
            for c, g in zip(coeffs, gens):
                for i in range(6):
                    word[i] = F4_ADD[word[i]][F4_MUL[c][g[i]]]
            if sum(1 for x in word if x) < 4:
                return False
        return True

    def self_dual(gens):
        for g in gens:
            for h in gens:
                s = 0
                for x, y in zip(g, h):
                    s = F4_ADD[s][F4_MUL[x][F4_CONJ[y]]]
                if s:
                    return False
        return True

    for m in itertools.product(range(1, 4), repeat=9):
        gens = [[1, 0, 0, m[0], m[1], m[2]],
                [0, 1, 0, m[3], m[4], m[5]],
                [0, 0, 1, m[6], m[7], m[8]]]
        if self_dual(gens) and weight_ok(gens):
            return gens
    raise BuildError("CT12: no hexacode generator of the searched shape")


# integer pair (a, b) encodes a + b*w, w a primitive cube root of unity
F4_LIFT = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}


def _times_w(ab: tuple[int, int]) -> tuple[int, int]:
    a, b = ab
    return (-b, a - b)


def ct12_gram() -> GramMatrix:
    """Coxeter-Todd lattice: preimage of the hexacode in (Z[w]/2)^6."""
    gens: list[list[int]] = []
    for word in hexacode():
        lift = [F4_LIFT[x] for x in word]
        for vec in (lift, [_times_w(ab) for ab in lift]):
            gens.append([x for ab in vec for x in ab])
    gens += [[2 if j == i else 0 for j in range(12)] for i in range(12)]
    basis = hnf_rows(gens)
    require(len(basis) == 12, f"CT12: {len(basis)} basis rows, not 12")
    # |a + bw|^2 = a^2 - ab + b^2 per complex coordinate
    form = [[Fraction(0)] * 12 for _ in range(12)]
    for i in range(6):
        form[2 * i][2 * i] = Fraction(1)
        form[2 * i + 1][2 * i + 1] = Fraction(1)
        form[2 * i][2 * i + 1] = Fraction(-1, 2)
        form[2 * i + 1][2 * i] = Fraction(-1, 2)
    return gram_of(basis, form=form)


# ----------------------------------------------------------------- driver

# the determinant of each shipped form; its minimal norm and kissing number
# are the catalog's own, the facts `verify` checks a lattice against
DETERMINANTS = {
    "A2": Fraction(3), "D4": Fraction(4), "E6": Fraction(3),
    "E6dual": Fraction(1, 3), "E7": Fraction(2), "E7dual": Fraction(1, 2),
    "E8": Fraction(1), "CT12": Fraction(3**6), "BW16": Fraction(2**8),
    "Leech": Fraction(1),
}


def facts(name: str) -> tuple[Fraction, Fraction, int]:
    """(determinant, minimal norm, kissing number) of a shipped form."""
    kissing, min_norm = expectations(name)
    return DETERMINANTS[name], min_norm, kissing


def certify(name: str, g: GramMatrix, det: Fraction, min_norm: Fraction,
            kissing: int) -> None:
    d = determinant(g)
    require(d == det, f"{name}: determinant {d}, expected {det}")
    m, vecs = shortest_norm_and_vectors(g)
    require(m == min_norm, f"{name}: minimal norm {m}, expected {min_norm}")
    require(len(vecs) == kissing,
            f"{name}: kissing number {len(vecs)}, expected {kissing}")
    print(f"  {name}: rank {g.n}, det {d}, min {m}, kissing {len(vecs)}  ok")


def build() -> dict[str, tuple[GramMatrix, str]]:
    """Each shipped form by catalog name, with the header of its file."""
    grams = root_lattices()
    grams["E6dual"] = invert(grams["E6"])
    grams["E7dual"] = invert(grams["E7"])
    grams["CT12"] = ct12_gram()
    grams["BW16"] = bw16_gram()
    grams["Leech"] = leech_gram()
    built = {}
    for name, g in grams.items():
        det, min_norm, kissing = facts(name)
        built[name] = (g, f"{name.lower()}: rank {g.n}, det {det}, "
                          f"min norm {min_norm}, kissing number {kissing}")
    return built


def main() -> int:
    try:
        built = build()
        for name, (g, _) in built.items():
            certify(name, g, *facts(name))
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, (g, header) in built.items():
        write_gram(DATA_DIR / f"{name.lower()}.gram", g, header=header)
    print(f"wrote {len(built)} gram files to {DATA_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
