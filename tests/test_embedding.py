"""Degree-2 harmonic embedding: spectrum transport, the quadratic moment
identity, exact rank certification in Harm_2 coordinates, and float
coordinate realization."""

from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache
from math import comb, gcd, lcm, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphdesign import embedding
from sphdesign.designs import moment_target, venkov_3design
from sphdesign.embedding import (
    EmbeddingError,
    dim_harm,
    embed,
    embedded_gram,
    g2_coefficients,
    harmonic_frame,
    harmonic_rank,
    realize_coordinates,
)
from sphdesign.enumeration import (
    VectorSet,
    exact_matmul,
    halve_antipodal,
)
from sphdesign.linalg import GramMatrix, invert, ldlt, psd_rank
from sphdesign.spectrum import pair_spectrum

from conftest import (
    as_tuples,
    embedded_block,
    gegenbauer,
    harmonic_gram,
    lattice_vectors,
    random_half,
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
    # embedded code as embedding any half-set
    for name in ("A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8"):
        vs = lattice_vectors(name)
        full = embed(pair_spectrum(vs))
        for seed in (None, 0, 1, 7):
            half = embed(pair_spectrum(_half(name, seed)))
            assert half == full, (name, seed)


def test_embed_rejects_odd_antipodal_count():
    # a valid antipodal spectrum of 5 points, which no antipodal set has
    odd = spectrum_from_counts(2, {F(1): 5, F(0): 15, F(-1): 5},
                               antipodal=True)
    with pytest.raises(EmbeddingError, match="odd count"):
        embed(odd)


def test_hexagon_embeds_to_hexagon(hexagon):
    emb = embed(pair_spectrum(halve_antipodal(hexagon)))
    assert emb.d + 1 == 2
    assert emb.counts() == {F(1): 6, F(1, 2): 12, F(-1, 2): 12, F(-1): 6}
    ok, lhs = venkov_3design(emb)
    assert ok and lhs == moment_target(emb.d, 2) == F(1, 2)


def test_hexagon_embedding_iterates():
    # the embedded hexagon is again a hexagon on S^1; iterating is stable
    emb = embed(pair_spectrum(halve_antipodal(lattice_vectors("A2"))))
    emb2 = embed(emb)
    assert emb2.counts() == emb.counts()


def test_octahedron_embedding_fails_theorem(octahedron):
    emb = embed(pair_spectrum(halve_antipodal(octahedron)))
    assert emb.d + 1 == 5
    ok, lhs = venkov_3design(emb)
    assert not ok and lhs == F(1, 2) and moment_target(emb.d, 2) == F(1, 5)


def test_d4_embedded_spectrum(d4_vectors):
    emb = embed(pair_spectrum(halve_antipodal(d4_vectors)))
    assert emb.d + 1 == 9
    assert emb.counts() == {
        F(1): 24, F(1, 3): 72, F(0): 384, F(-1, 3): 72, F(-1): 24}
    ok, lhs = venkov_3design(emb)
    assert ok and lhs == moment_target(emb.d, 2) == F(1, 9)


def test_e8_embedded_spectrum(e8_vectors):
    emb = embed(pair_spectrum(halve_antipodal(e8_vectors)))
    assert emb.d + 1 == 35
    # +-1/2 sources land on +1/7, the 0 products land on -1/7, and the
    # sign closure symmetrizes: 13440 + 30240/2 on each side
    assert emb.counts() == {F(1): 240, F(1, 7): 28560,
                            F(-1, 7): 28560, F(-1): 240}
    ok, lhs = venkov_3design(emb)
    assert ok and lhs == moment_target(emb.d, 2) == F(1, 35)


def test_embedded_size_doubles(e8_vectors):
    emb = embed(pair_spectrum(halve_antipodal(e8_vectors)))
    assert emb.size == 240
    assert emb.antipodal


@pytest.mark.parametrize("name,rank", [("A2", 2), ("D4", 9), ("E6", 20),
                                       ("E6dual", 20), ("E7", 27),
                                       ("E7dual", 27)])
def test_rank_certificates_small(name, rank):
    half = halve_antipodal(lattice_vectors(name))
    is_psd, r = harmonic_rank(half)
    assert is_psd and r == rank


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
    w = harmonic_gram(half.gram)
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
    x = half.coords.astype(object)
    bare = scn * x[:, iu] * x[:, ju]
    target = dim_harm(2, half.sphere_dim)
    assert psd_rank(exact_matmul(bare.T, bare).tolist())[1] == target + 1
    monkeypatch.setattr(embedding, "harmonic_frame", lambda h: bare)
    with pytest.raises(EmbeddingError, match="exceeds dim Harm"):
        harmonic_rank(half)


def test_frame_rejects_wrong_inverse(monkeypatch):
    half = _half("D4", None)
    monkeypatch.setattr(embedding, "invert",
                        lambda g: GramMatrix.identity(g.n))
    with pytest.raises(EmbeddingError, match="inverse"):
        harmonic_rank(half)


def _indefinite_half():
    """x^2 - 2 y^2 = 1 on three vectors, products 3, 3 and 17."""
    half = VectorSet(gram=GramMatrix.from_rows([[1, 0], [0, -2]]),
                     min_norm=1, coords=np.array([[1, 0], [3, 2], [3, -2]]),
                     antipodal=False)
    half.validate()
    return half


def test_harmonic_rank_indefinite_form():
    # W is indefinite, so there is no PSD certificate, and A is not PSD
    # either
    half = _indefinite_half()
    assert harmonic_rank(half)[0] is False
    assert psd_rank(embedded_block(half))[0] is False


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def _forms(draw):
    """Symmetric integer forms of side 1 to 4: arbitrary ones, mostly
    indefinite, and B^T B, singular when B has fewer rows than columns
    and positive definite when the identity is added."""
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
    return GramMatrix.from_rows(rows)


@given(_forms())
@settings(max_examples=150, deadline=None)
def test_harmonic_gram_definite_exactly_when_form_is(g):
    # <S, S> = tr(cG S cG S) is |R S R^T|_F^2 for cG = R^T R, and also for
    # cG = -R^T R: W is positive definite exactly when cG is definite.  A
    # vector of norm m > 0 rules out the negative definite forms, so for a
    # vector set W is positive definite exactly when cG is
    # (harmonic_rank's verdict)
    w = harmonic_gram(g)
    is_psd, rank = psd_rank(w)
    neg = GramMatrix(g.scale, tuple(tuple(-x for x in row)
                                    for row in g.entries))
    assert (is_psd and rank == len(w)) == \
        (g.is_positive_definite() or neg.is_positive_definite())


def test_harmonic_gram_negative_definite_form():
    g = GramMatrix.from_rows([[-2, 1], [1, -2]])
    assert psd_rank(harmonic_gram(g)) == (True, 3)
    assert not g.is_positive_definite()


@pytest.mark.parametrize("k", [2 ** 30, 2 ** 30 + 1])
def test_harmonic_frame_both_sides_of_bound(k):
    # Psi is int64 while s c n max|x|^2 + m max|E| = 2 k^2 + m
    # = 4 k^2 - 2 k + 1 < 2^62, which holds up to k = 2^30
    j = k - 1
    m = k * k + j * j
    half = VectorSet(gram=GramMatrix.identity(2), min_norm=m,
                     coords=np.array([[k, j], [j, k], [j, -k]]),
                     antipodal=False)
    half.validate()
    psi = harmonic_frame(half)
    assert psi.dtype == (np.int64 if k <= 2 ** 30 else object)
    # s = c = 1, E = I: Psi_x = 2 x x^T - m I, upper triangle
    want = [[2 * a * a - m, 2 * a * b, 2 * b * b - m]
            for a, b in as_tuples(half)]
    assert psi.tolist() == want
    assert harmonic_rank(half) == psd_rank(embedded_block(half)) \
        == (True, 2)


@pytest.mark.parametrize("k", [2 ** 30 - 1, 2 ** 30])
def test_embedded_gram_both_sides_of_bound(k):
    # v G v^T is certified in int64 while n^2 max|G| max|v|^2 = 4 k^2 < 2^62
    j = k - 1
    half = VectorSet(gram=GramMatrix.identity(2), min_norm=k * k + j * j,
                     coords=np.array([[k, j], [j, k], [j, -k]]),
                     antipodal=False)
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
                     coords=np.array([[k, j], [j, k], [j, -k]]),
                     antipodal=False)
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
    assert harmonic_rank(half) == (True, 77)
    assert dim_harm(2, half.sphere_dim) == 77


def _mirrored(a):
    """[[A, -A], [-A, A]]: the Gram matrix of G_X' union -G_X'."""
    top = [list(row) + [-x for x in row] for row in a]
    bottom = [[-x for x in row] + list(row) for row in a]
    return top + bottom


@pytest.mark.parametrize("name", ["A2", "D4", "E6", "E6dual", "E7",
                                  "E7dual", "E8"])
def test_half_block_certificate_equals_mirrored(name):
    # [[1, -1], [-1, 1]] (x) A has the PSD verdict and the rank of A
    vs = lattice_vectors(name)
    for seed in (None, 0, 7):
        block = embedded_block(_half(name, seed))
        assert 2 * len(block) == vs.count
        assert psd_rank(block) == psd_rank(_mirrored(block)), (name, seed)


@pytest.mark.parametrize("name", ["A2", "D4", "E6dual"])
def test_realize_coordinates_halves_antipodal_input(name):
    # an antipodal set is exported through its canonical half-set
    vs = lattice_vectors(name)
    assert realize_coordinates(vs) == realize_coordinates(halve_antipodal(vs))


def test_realize_coordinates_cap(e8_vectors):
    half = halve_antipodal(e8_vectors)
    with pytest.raises(EmbeddingError, match="spectrum-only"):
        realize_coordinates(half, cap=100)


def test_halving_invariance_ten_seeds(d4_vectors):
    base = embed(pair_spectrum(halve_antipodal(d4_vectors)))
    for seed in range(10):
        alt = embed(pair_spectrum(random_half(d4_vectors, seed)))
        assert alt.entries == base.entries


def test_realize_coordinates_hexagon_exact_products():
    half = halve_antipodal(lattice_vectors("A2"))
    pts = realize_coordinates(half, precision=12)
    assert len(pts) == 6 and len(pts[0]) == 2
    arr = np.array(pts)
    g = arr @ arr.T
    assert abs(g[0, 0] - 1.0) < 1e-12
    vals = {round(x, 6) for x in np.unique(np.round(g, 6))}
    assert vals == {-1.0, -0.5, 0.5, 1.0}


@pytest.mark.parametrize("name", ["A2", "D4", "E6dual"])
def test_realize_coordinates_equal_mirrored_ldlt(name):
    # rows of LDL^T of [[A, -A], [-A, A]], scaled by sqrt(D): the bottom
    # half is the negated top half and the pivots after A's are zero
    half = halve_antipodal(lattice_vectors(name))
    block = embedded_block(half)
    pivots, lam = ldlt(_mirrored(block))
    # D[j] = p[j] / (p_prev * scale) for A = block / scale; L unit lower
    # triangular with L[i][j] = lam[i][j] / p[j]
    roots, prev = {}, 1
    for j, p in enumerate(pivots):
        if p:
            roots[j] = sqrt(F(p, prev * block[0][0]))
            prev = p

    def lmat(i, j):
        return F(int(i == j)) if j >= i else F(lam[i][j], pivots[j])

    want = [tuple([float(lmat(i, j)) * r for j, r in roots.items()]
                  + [0.0] * (dim_harm(2, half.sphere_dim) - len(roots)))
            for i in range(len(pivots))]
    got = realize_coordinates(half)
    assert [[x.hex() for x in row] for row in got] == \
        [[x.hex() for x in row] for row in want]


def test_realize_coordinates_blocks_at_most_dim_harm_wide(monkeypatch):
    # A is formed and factored only against the kept rows, at most
    # D = dim Harm_2 of them: no block the export builds (embedded_gram)
    # or factors (ldlt_row, whose last entry is the diagonal) is wider
    half = _half("CT12", None)
    dim = dim_harm(2, half.sphere_dim)
    want = realize_coordinates(half)
    widths = []
    real_gram, real_row = embedding.embedded_gram, embedding.ldlt_row

    def gram(h, rows, cols):
        block = real_gram(h, rows, cols)
        widths.append(block.shape[1])
        return block

    def row(a, lam, d):
        widths.append(len(a) - 1)
        return real_row(a, lam, d)

    monkeypatch.setattr(embedding, "embedded_gram", gram)
    monkeypatch.setattr(embedding, "ldlt_row", row)
    assert realize_coordinates(half) == want
    assert max(widths) == dim == 77


def test_realize_coordinates_indefinite_form_raises():
    # cG is checked first: no PivotError and no square root of a negative
    with pytest.raises(EmbeddingError, match="not positive definite"):
        realize_coordinates(_indefinite_half())


def test_realize_coordinates_default_precision_e8(e8_vectors):
    pts = realize_coordinates(halve_antipodal(e8_vectors))
    assert len(pts) == 240 and len(pts[0]) == 35


def test_iterate_embedding_divisibility(d4_vectors):
    emb = embed(pair_spectrum(halve_antipodal(d4_vectors)))
    emb2 = embed(emb)
    ok, _ = venkov_3design(emb2)
    assert emb2.d + 1 == dim_harm(2, 8)
    assert not ok  # a 3-design is not automatically a 5-design; the
    # iterated embedding needs the source to be 4-design strength


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_halving_invariance_property(seed):
    vs = lattice_vectors("A2")
    emb = embed(pair_spectrum(random_half(vs, seed)))
    assert emb.counts() == {F(1): 6, F(1, 2): 12, F(-1, 2): 12, F(-1): 6}
