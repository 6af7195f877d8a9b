#!/usr/bin/env python3
"""Offline generator for the shipped lattice Gram files.

Every matrix is constructed from first principles (Cartan matrices, exact
inverses, code-based constructions) and then certified before writing:
positive definiteness, determinant, minimal norm, and kissing number are
all checked in exact arithmetic.  A construction slip fails loudly here
instead of shipping a wrong catalog.

Run from the repository root:  python3 scripts/build_catalog.py
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sphdesign.enumeration import shortest_norm_and_vectors  # noqa: E402
from sphdesign.gramfile import write_gram  # noqa: E402
from sphdesign.linalg import GramMatrix, invert, ldlt  # noqa: E402

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "sphdesign" / "data"


# ---------------------------------------------------------------- integer HNF

def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form basis of the lattice spanned by rows."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    r = 0
    for col in range(ncols):
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
    basis = [row for row in rows if any(row)]
    return basis


def kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """Basis of {x integer : x . row = 0 for every row of a} (saturated)."""
    m = len(a)
    n = len(a[0])
    # track a unimodular transform while reducing the n x m matrix a^T
    work = [[a[j][i] for j in range(m)] for i in range(n)]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for col in range(m):
        while True:
            nz = [i for i in range(r, n) if work[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(work[i][col]))
            work[r], work[i0] = work[i0], work[r]
            u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, n):
                if work[i][col]:
                    q = work[i][col] // work[r][col]
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if work[i][col]:
                        done = False
            if done:
                r += 1
                break
    return [u[i] for i in range(n) if not any(work[i])]


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
    c, a = g.integer_entries()
    pivots, _ = ldlt(a)
    return Fraction(pivots[-1], c ** g.n)


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
    return {"a2": a2, "d4": d4, "e6": e6, "e7": e7, "e8": e8}


# ----------------------------------------------------------------- BW16

def reed_muller_1_4() -> list[list[int]]:
    """Generator rows of RM(1,4): all-ones plus the four coordinate forms."""
    rows = [[1] * 16]
    for bit in range(4):
        rows.append([(i >> bit) & 1 for i in range(16)])
    return rows


def bw16_gram() -> GramMatrix:
    # v in Z^16 with v mod 2 in RM(1,4) and sum(v) = 0 mod 4; Gram halved
    gens = [row[:] for row in reed_muller_1_4()]
    gens += [[2 if j == i else 0 for j in range(16)] for i in range(16)]
    basis_a = hnf_rows(gens)
    assert len(basis_a) == 16
    phi = [sum(row) % 4 for row in basis_a]
    pivots = [i for i, p in enumerate(phi) if p == 2]
    if pivots:
        r = pivots[0]
        gens_b = [row for row, p in zip(basis_a, phi) if p == 0]
        gens_b += [[x - y for x, y in zip(basis_a[i], basis_a[r])]
                   for i in pivots[1:]]
        gens_b.append([2 * x for x in basis_a[r]])
        basis = hnf_rows(gens_b)
    else:
        basis = basis_a
    assert len(basis) == 16
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
    assert len(words) == 4096, "generator polynomial did not span a [24,12] code"
    weights: dict[int, int] = {}
    for w in words:
        weights[sum(w)] = weights.get(sum(w), 0) + 1
    assert weights == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}, weights
    return gens


def leech_gram() -> GramMatrix:
    gens: list[list[int]] = []
    for c in golay_generators():
        gens.append([2 * x for x in c])
    for i in range(1, 24):
        e = [0] * 24
        e[0] = 4
        e[i] = 4
        gens.append(e[:])
        e[i] = -4
        gens.append(e[:])
    gens.append([8] + [0] * 23)
    gens.append([-3] + [1] * 23)
    basis = hnf_rows(gens)
    assert len(basis) == 24
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
    raise AssertionError("no hexacode generator of the searched shape")


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
            row = []
            for a, b in vec:
                row += [a, b]
            gens.append(row)
    for i in range(12):
        e = [0] * 12
        e[i] = 2
        gens.append(e)
    basis = hnf_rows(gens)
    assert len(basis) == 12
    # |a + bw|^2 = a^2 - ab + b^2 per complex coordinate
    form = [[Fraction(0)] * 12 for _ in range(12)]
    for i in range(6):
        form[2 * i][2 * i] = Fraction(1)
        form[2 * i + 1][2 * i + 1] = Fraction(1)
        form[2 * i][2 * i + 1] = Fraction(-1, 2)
        form[2 * i + 1][2 * i] = Fraction(-1, 2)
    return gram_of(basis, form=form)


def k10_gram(ct12: GramMatrix) -> GramMatrix | None:
    """Search for a 10-dim cross-section of CT12 with 276 minimal vectors."""
    min_norm, vecs = shortest_norm_and_vectors(ct12)
    gi = [[int(ct12[i, j]) for j in range(12)] for i in range(12)]
    form = [[Fraction(x) for x in row] for row in gi]
    vlist = [list(map(int, v)) for v in vecs]
    u = vlist[0]
    gu = [sum(gi[i][j] * u[j] for j in range(12)) for i in range(12)]
    tried = 0
    for v in vlist:
        prod = sum(a * b for a, b in zip(gu, v))
        if prod != -2:
            continue
        gv = [sum(gi[i][j] * v[j] for j in range(12)) for i in range(12)]
        kb = kernel_basis([gu, gv])
        if len(kb) != 10:
            continue
        sub = gram_of(kb, form=form)
        m, w = shortest_norm_and_vectors(sub)
        tried += 1
        if m == 4 and w.shape[0] == 276:
            return sub
        if tried >= 20:
            break
    return None


# ----------------------------------------------------------------- driver

def certify(name: str, g: GramMatrix, det: Fraction, min_norm: Fraction,
            kissing: int) -> None:
    assert g.is_positive_definite(), f"{name}: not positive definite"
    d = determinant(g)
    assert d == det, f"{name}: det {d} != {det}"
    m, vecs = shortest_norm_and_vectors(g)
    assert m == min_norm, f"{name}: min {m} != {min_norm}"
    assert vecs.shape[0] == kissing, f"{name}: kissing {vecs.shape[0]} != {kissing}"
    print(f"  {name}: rank {g.n}, det {d}, min {m}, kissing {vecs.shape[0]}  ok")


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    roots = root_lattices()
    expected = {
        "a2": (Fraction(3), Fraction(2), 6),
        "d4": (Fraction(4), Fraction(2), 24),
        "e6": (Fraction(3), Fraction(2), 72),
        "e7": (Fraction(2), Fraction(2), 126),
        "e8": (Fraction(1), Fraction(2), 240),
    }
    grams: dict[str, GramMatrix] = dict(roots)
    grams["e6dual"] = invert(roots["e6"])
    grams["e7dual"] = invert(roots["e7"])
    expected["e6dual"] = (Fraction(1, 3), Fraction(4, 3), 54)
    expected["e7dual"] = (Fraction(1, 2), Fraction(3, 2), 56)

    print("building bw16 ...")
    grams["bw16"] = bw16_gram()
    expected["bw16"] = (Fraction(2**8), Fraction(4), 4320)
    print("building ct12 ...")
    grams["ct12"] = ct12_gram()
    expected["ct12"] = (Fraction(3**6), Fraction(4), 756)
    print("building leech ...")
    grams["leech"] = leech_gram()
    expected["leech"] = (Fraction(1), Fraction(4), 196560)

    print("searching k10 cross-section ...")
    k10 = k10_gram(grams["ct12"])
    if k10 is not None:
        grams["k10"] = k10
        d = determinant(k10)
        expected["k10"] = (d, Fraction(4), 276)
        grams["k10dual"] = invert(k10)
        md, vd = shortest_norm_and_vectors(grams["k10dual"])
        print(f"  k10 found: det {d}; dual min {md}, dual kissing {vd.shape[0]}")
        expected["k10dual"] = (1 / d, md, vd.shape[0])
    else:
        print("  no k10 cross-section found; k10/k10dual stay data-required")

    for name, g in grams.items():
        det, mn, kiss = expected[name]
        certify(name, g, det, mn, kiss)
        write_gram(DATA_DIR / f"{name}.gram", g,
                   header=f"{name}: rank {g.n}, det {det}, min norm {mn}, "
                          f"kissing number {kiss}")
    print(f"wrote {len(grams)} gram files to {DATA_DIR}")


if __name__ == "__main__":
    main()
