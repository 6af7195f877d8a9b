"""Degree-2 harmonic embedding: spectrum transport, the quadratic moment
identity, exact rank certification in Harm_2 coordinates, and float
coordinate realization."""

from __future__ import annotations

import random
from fractions import Fraction as F
from functools import lru_cache
from math import comb, gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign import _arrays
from sphdesign._arrays import harmonic_frame, realize_coordinates
from sphdesign.catalog import catalog
from sphdesign.designs import moment_target, venkov_3design
from sphdesign.embedding import (
    EmbeddingError,
    dim_harm,
    embed,
    embedded_gram,
    g2_coefficients,
    harmonic_rank,
)
from sphdesign.enumeration import (
    NotAntipodalError,
    VectorSet,
    exact_matmul,
    halve_antipodal,
    minimal_vector_set,
)
from sphdesign.linalg import GramMatrix, PivotError, invert, psd_rank
from sphdesign.spectrum import SpectrumError, pair_spectrum

from conftest import (
    as_tuples,
    congruent,
    embedded_block,
    gegenbauer,
    harmonic_gram,
    lattice_vectors,
    mirror,
    random_half,
    random_unimodular,
    reference_ldlt,
    spectrum_from_counts,
)


def harm_dim_reference(k: int, d: int) -> int:
    # dim of degree-k harmonics on S^d = C(n+k-1, k) - C(n+k-3, k-2), n = d+1
    n = d + 1
    return comb(n + k - 1, k) - (comb(n + k - 3, k - 2) if k >= 2 else 0)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 9, 11, 15, 23])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_dim_harm_matches_binomial_formula(k, d):
    assert dim_harm(k, d) == harm_dim_reference(k, d)


def test_dim_harm_quadratic_values():
    assert [dim_harm(2, d) for d in (1, 3, 5, 6, 7, 9, 11, 15, 23)] == \
        [2, 9, 20, 27, 35, 54, 77, 135, 299]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 9, 11, 15, 23])
def test_g2_coefficients_match_recurrence(d):
    # the closed form is the recurrence's g_{2,d} over the lcm of its
    # coefficient denominators, so embedded_gram's integers are unchanged
    coeffs = gegenbauer(2, d).coefficients
    lden = lcm(*(c.denominator for c in coeffs))
    c0, c1, c2 = (c * lden for c in coeffs)
    assert c1 == 0
    assert g2_coefficients(d) == (c0, c2, lden)


def test_g2_coefficients_reject_zero_sphere():
    with pytest.raises(ValueError, match="sphere dimension"):
        g2_coefficients(0)


def test_embed_full_spectrum_equals_halved():
    # the kernel is even: folding the antipodal spectrum gives the same
    # embedded code as embedding X' union -X' for any half-set X'
    for name in ("A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8"):
        vs = lattice_vectors(name)
        full = embed(pair_spectrum(vs))
        for seed in (None, 0, 1, 7):
            half = embed(mirror(pair_spectrum(_half(name, seed))))
            assert half == full, (name, seed)


def test_embed_rejects_odd_antipodal_count():
    # c(-1) = c(1) reads as antipodal, but no antipodal set has 5 points:
    # the spectrum is refused where it is built, before any embedding
    with pytest.raises(SpectrumError, match="odd count 5 at s = 1"):
        spectrum_from_counts(2, {F(1): 5, F(0): 15, F(-1): 5})


def test_embed_rejects_non_antipodal_spectrum(hexagon):
    # a half-set is refused, not read as half of an antipodal set
    with pytest.raises(NotAntipodalError, match="antipodal sets only"):
        embed(pair_spectrum(halve_antipodal(hexagon)))


def test_hexagon_embeds_to_hexagon(hexagon):
    emb = embed(pair_spectrum(hexagon))
    assert emb.d + 1 == 2
    assert dict(emb.entries) == {F(1): 6, F(1, 2): 12, F(-1, 2): 12, F(-1): 6}
    ok, lhs = venkov_3design(emb)
    assert ok and lhs == moment_target(emb.d, 2) == F(1, 2)


def test_hexagon_embedding_iterates():
    # the embedded hexagon is again a hexagon on S^1; iterating is stable
    emb = embed(pair_spectrum(lattice_vectors("A2")))
    emb2 = embed(emb)
    assert emb2.entries == emb.entries


def test_octahedron_embedding_fails_theorem(octahedron):
    emb = embed(pair_spectrum(octahedron))
    assert emb.d + 1 == 5
    ok, lhs = venkov_3design(emb)
    assert not ok and lhs == F(1, 2) and moment_target(emb.d, 2) == F(1, 5)


def test_d4_embedded_spectrum(d4_vectors):
    emb = embed(pair_spectrum(d4_vectors))
    assert emb.d + 1 == 9
    assert dict(emb.entries) == {
        F(1): 24, F(1, 3): 72, F(0): 384, F(-1, 3): 72, F(-1): 24}
    ok, lhs = venkov_3design(emb)
    assert ok and lhs == moment_target(emb.d, 2) == F(1, 9)


def test_e8_embedded_spectrum(e8_vectors):
    emb = embed(pair_spectrum(e8_vectors))
    assert emb.d + 1 == 35
    # +-1/2 sources land on +1/7, the 0 products land on -1/7, and the
    # sign closure symmetrizes: 13440 + 30240/2 on each side
    assert dict(emb.entries) == {F(1): 240, F(1, 7): 28560,
                                 F(-1, 7): 28560, F(-1): 240}
    ok, lhs = venkov_3design(emb)
    assert ok and lhs == moment_target(emb.d, 2) == F(1, 35)


def test_embedded_size_doubles(e8_vectors):
    emb = embed(pair_spectrum(e8_vectors))
    assert emb.size == 240
    assert emb.antipodal


@pytest.mark.parametrize("name,rank", [("A2", 2), ("D4", 9), ("E6", 20),
                                       ("E6dual", 20), ("E7", 27),
                                       ("E7dual", 27)])
def test_rank_certificates_small(name, rank):
    half = halve_antipodal(lattice_vectors(name))
    assert harmonic_rank(half) == rank


FRAME_LATTICES = ["A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8", "CT12"]


@lru_cache(maxsize=None)
def _half(name, seed):
    """The canonical half-set of a catalog lattice (seed None), else a
    seeded random one."""
    vs = lattice_vectors(name)
    return halve_antipodal(vs) if seed is None else random_half(vs, seed)


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("name", FRAME_LATTICES)
def test_harmonic_frame_reproduces_embedded_gram(name, seed):
    # Psi W Psi^T = s^2 c^2 n (n-1) m^2 A exactly, A = block / scale
    half = _half(name, seed)
    psi = harmonic_frame(half)
    w = harmonic_gram(half.gram.entries)
    n, c, m = half.rank, half.gram.scale, half.m
    assert psi.shape == (half.count, n * (n + 1) // 2)
    kappa = invert(half.gram).scale ** 2 * c * c * n * (n - 1) * m * m
    block = embedded_block(half)
    scale = block[0][0]
    got = exact_matmul(psi, w, psi.T).astype(object) * scale
    assert got.tolist() == [[kappa * x for x in row] for row in block]


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("name", FRAME_LATTICES)
def test_harmonic_rank_equals_block_rank(name, seed):
    half = _half(name, seed)
    assert harmonic_rank(half) == psd_rank(embedded_block(half))
    # and the block is PSD: it is Psi W Psi^T / kappa
    # (test_harmonic_frame_reproduces_embedded_gram), W positive definite
    assert _definite(harmonic_gram(half.gram.entries))


@pytest.mark.parametrize("name", FRAME_LATTICES)
def test_harmonic_rank_full_set_equals_half(name):
    # Psi_x = Psi_(-x): the whole set gives twice the Psi^T Psi of its
    # canonical half, the same matrix after the gcd reduction
    vs, half = lattice_vectors(name), _half(name, None)
    psi, psi_half = harmonic_frame(vs), harmonic_frame(half)
    assert (exact_matmul(psi.T, psi) == 2 * exact_matmul(psi_half.T,
                                                         psi_half)).all()
    assert harmonic_rank(vs) == harmonic_rank(half)


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E8", "CT12"])
def test_frame_without_inverse_correction_raises(monkeypatch, name):
    # s c n x x^T alone is not traceless: the minimal vectors of a perfect
    # lattice span every symmetric matrix, one more than dim Harm_2
    half = _half(name, None)
    n = half.rank
    scn = invert(half.gram).scale * half.gram.scale * n
    iu, ju = np.triu_indices(n)
    x = half.array.astype(object)
    bare = scn * x[:, iu] * x[:, ju]
    target = dim_harm(2, half.sphere_dim)
    assert psd_rank(exact_matmul(bare.T, bare).tolist()) == target + 1
    monkeypatch.setattr(_arrays, "harmonic_frame", lambda h: bare)
    with pytest.raises(EmbeddingError, match="exceeds dim Harm"):
        harmonic_rank(half)


def test_frame_rejects_wrong_inverse(monkeypatch):
    half = _half("D4", None)
    monkeypatch.setattr(_arrays, "invert",
                        lambda g: GramMatrix.identity(g.n))
    with pytest.raises(EmbeddingError, match="inverse"):
        harmonic_rank(half)


def _definite(rows) -> bool:
    """Whether a symmetric matrix is positive definite, by the Fraction
    reference LDL^T."""
    try:
        return min(reference_ldlt(rows)[1]) > 0
    except PivotError:
        return False


def test_harmonic_rank_indefinite_form():
    # on this indefinite form the four vectors have norm 8 and Psi has
    # rank 3, but A (all ones) has rank 1: off positive definite forms the
    # rank of Psi is not that of A.  The form is refused where it is
    # built, so no vector set on it reaches harmonic_rank
    import sympy

    rows = [[-2, 2, 3], [2, 0, 0], [3, 0, 2]]
    x = [[0, -3, 2], [0, -1, 2], [0, 0, -2], [0, -2, -2]]
    g, v = sympy.Matrix(rows), sympy.Matrix(x)
    p = v * g * v.T
    assert [p[i, i] for i in range(4)] == [8] * 4
    assert p.applyfunc(lambda t: (3 * (t / 8) ** 2 - 1) / 2).rank() == 1
    psi = [[s[i, j] for i in range(3) for j in range(i, 3)]
           for s in (3 * v[k, :].T * v[k, :] - 8 * g.inv() for k in range(4))]
    assert sympy.Matrix(psi).rank() == 3
    with pytest.raises(PivotError, match="not positive definite"):
        VectorSet(gram=GramMatrix.from_rows(rows), min_norm=8,
                  coords=np.array(x))
    with pytest.raises(PivotError, match="not positive definite"):
        GramMatrix(1, tuple(map(tuple, rows)))


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def _forms(draw):
    """Rows of symmetric integer forms of side 1 to 4: arbitrary ones,
    mostly indefinite, and B^T B, singular when B has fewer rows than
    columns and positive definite when the identity is added."""
    n = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["any", "singular", "definite"]))
    if kind == "any":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = draw(_small)
    else:
        r = n - 1 if kind == "singular" else n
        b = [[draw(_small) for _ in range(n)] for _ in range(r)]
        rows = [[sum(b[k][i] * b[k][j] for k in range(r))
                 + (kind == "definite" and i == j) for j in range(n)]
                for i in range(n)]
    return rows


@given(_forms())
@settings(max_examples=150, deadline=None)
def test_harmonic_gram_definite_exactly_when_form_is(rows):
    # <S, S> = tr(cG S cG S) is |R S R^T|_F^2 for cG = R^T R, and also for
    # cG = -R^T R: W is positive definite exactly when cG is definite.  A
    # vector of norm m > 0 rules out the negative definite forms, so for a
    # vector set W is positive definite exactly when cG is, which every
    # GramMatrix is (harmonic_rank's inner product)
    neg = [[-x for x in row] for row in rows]
    assert _definite(harmonic_gram(rows)) == \
        (_definite(rows) or _definite(neg))


def test_harmonic_gram_negative_definite_form():
    rows = [[-2, 1], [1, -2]]
    w = harmonic_gram(rows)
    assert _definite(w) and psd_rank(w) == 3
    with pytest.raises(PivotError, match="not positive definite"):
        GramMatrix.from_rows(rows)


@pytest.mark.parametrize("k", [2 ** 30, 2 ** 30 + 1])
def test_harmonic_frame_both_sides_of_bound(k):
    # Psi is int64 while s c n max|x|^2 + m max|E| = 2 k^2 + m
    # = 4 k^2 - 2 k + 1 < 2^62, which holds up to k = 2^30
    j = k - 1
    m = k * k + j * j
    half = VectorSet(gram=GramMatrix.identity(2), min_norm=m,
                     coords=np.array([[k, j], [j, k], [j, -k]]))
    half.validate()
    psi = harmonic_frame(half)
    assert psi.dtype == (np.int64 if k <= 2 ** 30 else object)
    # s = c = 1, E = I: Psi_x = 2 x x^T - m I, upper triangle
    want = [[2 * a * a - m, 2 * a * b, 2 * b * b - m]
            for a, b in as_tuples(half)]
    assert psi.tolist() == want
    block = embedded_block(half)
    assert min(reference_ldlt(block)[1]) >= 0       # PSD
    assert harmonic_rank(half) == psd_rank(block) == 2


@pytest.mark.parametrize("k", [2 ** 30 - 1, 2 ** 30])
def test_embedded_gram_both_sides_of_bound(k):
    # v G v^T is certified in int64 while n^2 max|G| max|v|^2 = 4 k^2 < 2^62
    j = k - 1
    half = VectorSet(gram=GramMatrix.identity(2), min_norm=k * k + j * j,
                     coords=np.array([[k, j], [j, k], [j, -k]]))
    half.validate()
    g = gegenbauer(2, 1)
    rows = as_tuples(half)
    want = [[g(F(v[0] * w[0] + v[1] * w[1], k * k + j * j)) for w in rows]
            for v in rows]
    block = embedded_block(half)
    assert [[F(x, block[0][0]) for x in row] for row in block] == want


@pytest.mark.parametrize("m, k, j", [(1239850258, 28867, 20163),
                                     (1239850273, 35208, 497)])
def test_embedded_gram_int64_both_sides_of_bound(m, k, j):
    # on S^1, g(t) = 2 t^2 - 1: the block is int64 while
    # 2 max|P|^2 + m^2 = 3 m^2 < 2^62, up to m = 1239850262
    half = VectorSet(gram=GramMatrix.identity(2), min_norm=m,
                     coords=np.array([[k, j], [j, k], [j, -k]]))
    half.validate()
    every = np.arange(3)
    block = embedded_gram(half, every, every)
    assert block.dtype == (np.int64 if 3 * m * m < 2 ** 62 else object)
    g = gegenbauer(2, 1)
    rows = as_tuples(half)
    assert [[F(int(x), int(block[0, 0])) for x in row] for row in block] == \
        [[g(F(v[0] * w[0] + v[1] * w[1], m)) for w in rows] for v in rows]


@pytest.mark.parametrize("name, factor", [
    ("A2", 2), ("D4", 4), ("E6", 2), ("E6dual", 2), ("E7", 1),
    ("E7dual", 2), ("E8", 4), ("CT12", 4)])
def test_embedded_gram_reduced(name, factor):
    # factor is the common factor of the whole block at scale l m^2; the
    # block is divided by k = gcd(c2, c0 m^2), the factor every value of
    # c2 p^2 + c0 m^2 shares whatever the products p.  That is all of it
    # but on E7dual, whose products are all odd, as is m = 3: there
    # 7 p^2 - 9 is even, but 7 and 9 share nothing
    half = halve_antipodal(lattice_vectors(name))
    block = embedded_block(half)
    coeffs = gegenbauer(2, half.sphere_dim).coefficients
    lden = lcm(*(c.denominator for c in coeffs))
    c0, _, c2 = (int(c * lden) for c in coeffs)
    k = gcd(c2, c0 * half.m ** 2)
    assert block[0][0] * k == lden * half.m ** 2
    assert gcd(*(x for row in block for x in row)) * k == factor
    assert (k == factor) == (name != "E7dual")


def test_rank_certificate_ct12():
    half = _half("CT12", None)
    assert half.count == 378
    assert harmonic_rank(half) == 77
    assert dim_harm(2, half.sphere_dim) == 77


def _mirrored(a):
    """[[A, -A], [-A, A]]: the Gram matrix of G_X' union -G_X'."""
    top = [list(row) + [-x for x in row] for row in a]
    bottom = [[-x for x in row] + list(row) for row in a]
    return top + bottom


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E6dual", "E7",
                                  "E7dual", "E8"])
def test_half_block_certificate_equals_mirrored(name):
    # [[1, -1], [-1, 1]] (x) A has the rank of A
    vs = lattice_vectors(name)
    for seed in (None, 0, 7):
        block = embedded_block(_half(name, seed))
        assert 2 * len(block) == vs.count
        assert psd_rank(block) == psd_rank(_mirrored(block)), (name, seed)


@pytest.mark.parametrize("name", ["A2", "D4", "E6dual"])
def test_realize_coordinates_halves_antipodal_input(name):
    # an antipodal set is exported through its canonical half-set, one row
    # per point, the negated half last; any half-set is refused
    vs = lattice_vectors(name)
    rows = realize_coordinates(vs)
    half = len(rows) // 2
    assert len(rows) == vs.count
    assert rows[half:] == [tuple(0.0 - x for x in row) for row in rows[:half]]
    for alt in (halve_antipodal(vs), random_half(vs, 7)):
        with pytest.raises(NotAntipodalError, match="no antipodal partner"):
            realize_coordinates(alt)


def test_realize_coordinates_cap(monkeypatch, e8_vectors):
    monkeypatch.setattr(_arrays, "_EXPORT_MAX", 100)
    with pytest.raises(EmbeddingError,
                       match="120 points exceed the export limit 100"):
        realize_coordinates(e8_vectors)
    monkeypatch.setattr(_arrays, "_EXPORT_MAX", 120)
    assert len(realize_coordinates(e8_vectors)) == 240


def test_halving_invariance_ten_seeds(d4_vectors):
    base = embed(pair_spectrum(d4_vectors))
    for seed in range(10):
        alt = embed(mirror(pair_spectrum(random_half(d4_vectors, seed))))
        assert alt.entries == base.entries


def test_realize_coordinates_hexagon_exact_products():
    pts = realize_coordinates(lattice_vectors("A2"), precision=12)
    assert len(pts) == 6 and len(pts[0]) == 2
    arr = np.array(pts)
    g = arr @ arr.T
    assert abs(g[0, 0] - 1.0) < 1e-12
    vals = {round(x, 6) for x in np.unique(np.round(g, 6))}
    assert vals == {-1.0, -0.5, 0.5, 1.0}


def _cholesky_y(half: VectorSet) -> np.ndarray:
    """y = x L for cG = L L^T (numpy.linalg.cholesky)."""
    return half.array @ np.linalg.cholesky(np.array(half.gram.entries, float))


def _exact_y(half: VectorSet) -> np.ndarray:
    """y_k = sqrt(D_k) (L^T x)_k for cG = L D L^T (the Fraction LDL^T),
    each (L^T x)_k exact before it is rounded.  A skewed basis has
    ill-conditioned cG (about 2e8 for a 12-move skew of A2), where the
    float Cholesky above is itself off by up to 5e-9."""
    L, D = reference_ldlt(half.gram.entries)
    n = half.rank
    return np.array([[float(sum(L[i][k] * x[i] for i in range(n)))
                      * float(D[k]) ** 0.5 for k in range(n)]
                     for x in half.array.tolist()])


def _oracle_export(vs: VectorSet, factor) -> np.ndarray:
    """The export from its definition: the traceless part of y y^T, y from
    factor(half), in the orthonormal basis of Helmert columns for the
    diagonal and sqrt(2) y_i y_j (i < j) off it, over m sqrt((n - 1)/n);
    then the negated half."""
    half = halve_antipodal(vs)
    n, m = half.rank, half.m
    y = factor(half)
    helmert = np.zeros((n, n - 1))
    for k in range(1, n):
        helmert[:k + 1, k - 1] = [1] * k + [-k]
        helmert[:, k - 1] /= np.sqrt(k * (k + 1))
    iu, ju = np.triu_indices(n, 1)
    top = np.hstack([(y * y) @ helmert, np.sqrt(2) * y[:, iu] * y[:, ju]])
    top /= m * np.sqrt((n - 1) / n)
    return np.vstack([top, -top])


def _assert_oracle_export(vs: VectorSet, factor) -> None:
    got = np.array(realize_coordinates(vs))
    assert got.shape == (vs.count, dim_harm(2, vs.sphere_dim))
    assert np.abs(got - _oracle_export(vs, factor)).max() < 1e-12


@pytest.mark.parametrize("name", ["A2", "D4", "E6dual"])
def test_realize_coordinates_equal_cholesky_oracle(name):
    _assert_oracle_export(lattice_vectors(name), _cholesky_y)
    _assert_oracle_export(lattice_vectors(name), _exact_y)


@given(st.sampled_from(["A2", "D4", "E6dual"]), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_realize_coordinates_skewed_equal_oracle(name, seed):
    # the same lattice in a unimodular skew of its catalog basis
    g = catalog(name).gram
    u = random_unimodular(g.n, random.Random(seed), 6 * g.n)
    _assert_oracle_export(minimal_vector_set(congruent(u, g)), _exact_y)


def test_realize_coordinates_blocks_at_most_dim_harm_wide(monkeypatch):
    # the check forms the exact A (embedded_gram) in column blocks of at
    # most D = dim Harm_2, never as the N/2 x N/2 block
    vs = lattice_vectors("CT12")
    dim = dim_harm(2, vs.sphere_dim)
    want = realize_coordinates(vs)
    widths = []
    real_gram = _arrays.embedded_gram

    def gram(h, rows, cols):
        block = real_gram(h, rows, cols)
        widths.append(block.shape[1])
        return block

    monkeypatch.setattr(_arrays, "embedded_gram", gram)
    assert realize_coordinates(vs) == want
    assert max(widths) == dim == 77


def test_realize_coordinates_indefinite_form_raises():
    # x^2 - 2 y^2 = 1 on three vectors: the form is refused where it is
    # built, so no square root of a negative pivot is ever taken
    with pytest.raises(PivotError, match="not positive definite"):
        realize_coordinates(VectorSet(
            gram=GramMatrix.from_rows([[1, 0], [0, -2]]), min_norm=1,
            coords=np.array([[1, 0], [3, 2], [3, -2]])))


def test_realize_coordinates_default_precision_e8(e8_vectors):
    pts = realize_coordinates(e8_vectors)
    assert len(pts) == 240 and len(pts[0]) == 35


def test_iterate_embedding_divisibility(d4_vectors):
    emb = embed(pair_spectrum(d4_vectors))
    emb2 = embed(emb)
    ok, _ = venkov_3design(emb2)
    assert emb2.d + 1 == dim_harm(2, 8)
    assert not ok  # a 3-design is not automatically a 5-design; the
    # iterated embedding needs the source to be 4-design strength


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_halving_invariance_property(seed):
    vs = lattice_vectors("A2")
    emb = embed(mirror(pair_spectrum(random_half(vs, seed))))
    assert dict(emb.entries) == {F(1): 6, F(1, 2): 12, F(-1, 2): 12, F(-1): 6}
