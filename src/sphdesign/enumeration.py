"""Exact short-vector enumeration and vector-set handling.

Enumeration first LLL-reduces the Gram matrix exactly (size_reduce, an
integral LLL that keeps the unimodular transform), runs Fincke-Pohst in the
reduced basis, where far fewer search nodes die, and maps the vectors back
through the transform.  The Fincke-Pohst search runs breadth-first over
numpy arrays in one of two tiers.  Where an a priori bound eps on every
float error is certified small (_float_levels), it prunes in float64
against the bound plus eps, with intervals widened outward by the
matching center error: a certified filter in the sense of Shewchuk
(*Adaptive precision floating-point arithmetic*, DCG 18, 1997), which
keeps every vector of norm <= the bound and maybe a few more.  Otherwise
every pruning decision is exact: integer pivots and multipliers of the
fraction-free LDL^T (linalg.ldlt) and integer square roots.  Either way
the result is decided by exact integer norms (exact_norms), so a rounding
error can add work but never drop or add a vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import inf, isqrt, lcm, nextafter, prod

from ._numpy import np
from .linalg import GramMatrix, LinalgError, invert, ldlt, ldlt_row


class EnumerationError(ValueError):
    pass


class NotAntipodalError(ValueError):
    """Raised when an operation requires a sign-symmetric set."""


@dataclass(frozen=True)
class VectorSet:
    """Finite set of integer coordinate vectors with constant norm.

    coords is an (N x rank) integer array, rows in canonical (lexicographic)
    order; every row v satisfies v^T gram v == min_norm exactly.  m is the
    scaled min norm c * min_norm (c = gram.scale), a positive int: every
    row has v^T (c gram) v == m, and every scaled product lies in [-m, m].
    antipodal defaults to whether the rows are closed under negation.
    """

    gram: GramMatrix
    min_norm: Fraction
    coords: np.ndarray
    antipodal: bool | None = None
    m: int = field(init=False, repr=False)

    def __post_init__(self):
        # own copy, read-only: the order and sign checks run in chunks,
        # so the copy is the only full-size array the constructor keeps
        c = np.array(self.coords, dtype=np.int64)
        if c.ndim != 2:
            raise ValueError("coords must be a 2-d integer array")
        if not _lex_sorted(c):
            c = c[np.lexsort(c.T[::-1])]
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)
        if self.antipodal is None:
            object.__setattr__(self, "antipodal", is_sign_symmetric(c))
        min_norm = Fraction(self.min_norm)
        m = min_norm * self.gram.scale
        if m.denominator != 1 or m <= 0:
            raise ValueError(
                f"min_norm {min_norm} is not a positive multiple of "
                f"1/{self.gram.scale}, the Gram matrix's scale")
        object.__setattr__(self, "min_norm", min_norm)
        object.__setattr__(self, "m", int(m))

    @property
    def rank(self) -> int:
        return self.coords.shape[1]

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def sphere_dim(self) -> int:
        """Dimension d of the sphere S^d the normalized set lives on."""
        return self.rank - 1

    def validate(self) -> None:
        """Check the constant-norm and uniqueness invariants exactly,
        _CHECK_ROWS rows at a time."""
        c = self.coords
        for s in range(0, len(c), _CHECK_ROWS):
            norms = exact_norms(self.gram, c[s:s + _CHECK_ROWS])
            if not np.all(norms == self.m):
                raise ValueError("vector with norm != min_norm present")
        # coords are sorted lexicographically, so duplicates are adjacent
        for s in range(0, len(c) - 1, _CHECK_ROWS):
            hi = c[s + 1:s + 1 + _CHECK_ROWS]
            if np.any(np.all(hi == c[s:s + len(hi)], axis=1)):
                raise ValueError("duplicate vectors present")


# every partial sum of an int64 product certified below this stays in range
I64_SAFE = 2**62
I64_MAX = 2**63 - 1


def exact_matmul(*factors) -> np.ndarray:
    """Exact integer chain product factors[0] @ factors[1] @ ...

    Runs in int64 when k_1 * ... * k_r * max|F_0| * ... * max|F_r| < 2**62
    (k_i the inner dimensions) proves no partial sum can overflow and every
    factor fits in int64 (a zero factor makes the product bound 0);
    otherwise in Python integers (object dtype), the only fallback.
    Factors are integer arrays or nested lists of Python ints.
    """
    arrs = [f if isinstance(f, np.ndarray) else np.array(f, dtype=object)
            for f in factors]
    big = [int(np.abs(f).max(initial=0)) for f in arrs]
    bound = prod(f.shape[-1] for f in arrs[:-1]) * prod(big)
    dtype = np.int64 if bound < I64_SAFE and max(big) < I64_SAFE else object
    return reduce(np.matmul, (f.astype(dtype, copy=False) for f in arrs))


def exact_norms(gram: GramMatrix, coords: np.ndarray) -> np.ndarray:
    """Integer-scaled norms v^T (c*gram) v for all rows, computed exactly."""
    v = np.asarray(coords)
    return exact_matmul(v[:, None, :], gram.entries, v[:, :, None])[:, 0, 0]


def size_reduce(g: GramMatrix) -> tuple[GramMatrix, list[list[int]]]:
    """Exact integral LLL reduction (delta = 3/4) at Gram level.

    LLL includes size reduction, hence the name.  This is the integral LLL
    of Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 2.6.7, run on the integer entries c * g of g.  The loop
    holds only integers: the Gram entries of the current basis, d[i] (the
    Gram determinant of the first i basis vectors) and
    lam[k][j] = d[j + 1] * mu_kj, so no Fraction and no float enters it.

    Returns (reduced_gram, transform) with transform unimodular and
    reduced_gram == T * g * T^T exactly, at the scale c of g: a unimodular
    T keeps the Z-span of the Gram entries, so c stays minimal.  The
    Gram-Schmidt coefficients of the result satisfy |mu_kj| <= 1/2 and the
    Lovasz condition |b*_k|^2 >= (3/4 - mu_{k,k-1}^2) |b*_{k-1}|^2.
    Raises LinalgError when some d[k] <= 0, i.e. g is not positive
    definite.
    """
    n = g.n
    a = [list(row) for row in g.entries]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k: int) -> None:
        u = ldlt_row(a[k][:k + 1], lam, d)
        if u[k] <= 0:
            raise LinalgError("gram matrix is not positive definite")
        lam[k][:k], d[k + 1] = u[:k], u[k]

    def reduce_pair(k: int, l: int) -> None:
        # b_k <- b_k - q b_l with q the integer nearest mu_kl
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)
        t[k] = [x - q * y for x, y in zip(t[k], t[l])]
        akk = a[k][k] - 2 * q * a[k][l] + q * q * a[l][l]
        for i in range(n):
            a[k][i] -= q * a[l][i]
            a[i][k] = a[k][i]
        a[k][k] = akk
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k: int, kmax: int) -> None:
        # exchange b_{k-1} and b_k; lam[k][k-1] is unchanged
        t[k - 1], t[k] = t[k], t[k - 1]
        a[k - 1], a[k] = a[k], a[k - 1]
        for row in a:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            ti = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * ti) // d[k]
            lam[i][k - 1] = (b * ti + lk * lam[i][k]) // d[k + 1]
        d[k] = b

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce_pair(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_pair(k, l)
            k += 1
    return GramMatrix(g.scale, a), t


# frontier rows expanded at once: a piece of parents with more than
# 2 _CHUNK children is split where the count passes multiples of _CHUNK.
# On Leech, minimal_vector_set took 1.2-1.3 s and 159-166 MB peak RSS at
# 2^14, against 1.3 s and 177 MB at 2^12 and 2.1 s and 160 MB at 2^16
_CHUNK = 2**14

_U = Fraction(1, 2**53)     # unit roundoff of float64


def _gamma(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _U / (1 - k * _U)


def _sqrt_up(q: Fraction) -> Fraction:
    """A rational upper bound on sqrt(q), q >= 0, within 2^-64."""
    return Fraction(isqrt(-(-q.numerator * 4**64 // q.denominator)) + 1,
                    2**64)


def _float_up(q: Fraction) -> float:
    """The least float64 >= q."""
    f = float(q)
    return f if Fraction(f) >= q else nextafter(f, inf)


def _float_certificate(g: GramMatrix, p: list[int], lam, bound: Fraction):
    """(X, eta, eps) certifying the float64 sweep step, or None, for the
    integer LDL^T (p, lam) of c * g, c = g.scale.

    The step finds, per live row, the x_i with T_{i+1} + D_i (x_i + c_i)^2
    <= B (B the bound, c_i = sum_{j>i} mu_ji x_j, T_i the partial sum of
    the levels >= i), in float64 with unit roundoff u = 2^-53.  A node is
    *valid* when its exact T_i <= B.  On a valid node |x_j| <= X_j =
    isqrt(floor(B (g^-1)_jj)) (a real vector extending the node has norm
    T_i, and x^T g x <= B bounds |x_j| by sqrt(B (g^-1)_jj)),
    |y_i| = |x_i + c_i| <= Y_i >= sqrt(B / D_i) and |c_i| <= M_i =
    sum_{j>i} |mu_ji| X_j.  With Higham's gamma_k (*Accuracy and Stability
    of Numerical Algorithms*, 2002, section 3.1; the dot-product bound
    holds in any summation order, so for any BLAS), on a valid node:

    - the center, a dot product of n-1-i rounded mu with exact x, errs
      by at most delta_i = gamma_{n-i} M_i;
    - y = fl(x + center) by e_i = delta_i + u (Y_i + delta_i);
    - the term fl(D fl(y y)) by tau_i = D_i (e_i (2 Y_i + e_i)
      + gamma_3 (Y_i + e_i)^2);
    - the partial sum fl(T_{i+1} + term) by E_i = E_{i+1} + tau_i
      + u (B + E_{i+1} + tau_i), E_n = 0; eps = E_0 bounds every E_i.

    The radius r = sqrt(fl(fl(B+ - T_{i+1}) / D_i)) (B+ the least float
    >= B) is at most 2 Y_i and short of the exact one by at most
    gamma_4 r + sqrt(E_{i+1} / D_i) (sqrt is subadditive), and the two
    endpoint additions err by gamma_3 (2 Y_i + M_i + delta_i + 1).  So
    widening both endpoints outward by eta_i = delta_i + 2 gamma_4 Y_i
    + sqrt(E_{i+1} / D_i) + gamma_3 (2 Y_i + M_i + delta_i + 1) keeps
    every valid child, and so does the filter T_i <= fl_up(B + eps).
    Clipping to [-X_i, X_i] drops no valid child and bounds every node.
    The sweep thus returns every vector of norm <= B and maybe a few more.

    Certified (else None) when:
    - B, every D_i and every nonzero |mu_ji| lie in [2^-64, 2^64] and
      every X_j < 2^31.  Then every value on a valid node is 0 or a
      normal float (between 2^-412 and 2^400 in magnitude), so every
      operation has relative error at most u, and coordinates are exact;
    - every eta_i <= 1, which the endpoint bound assumes;
    - eps <= 2^-20 B.  Not needed for completeness: past it the slack
      lets through more nodes above the bound, and the exact tier is used.
    """
    n, c = len(p), g.scale
    d = [Fraction(p[i], c * (p[i - 1] if i else 1)) for i in range(n)]
    lo, hi = Fraction(1, 2**64), Fraction(2**64)
    if not all(lo <= x <= hi for x in [bound, *d]) or not all(
            p[i] <= abs(lam[j][i]) << 64 and abs(lam[j][i]) <= p[i] << 64
            for j in range(n) for i in range(j) if lam[j][i]):
        return None
    inv = invert(g)
    xmax = [isqrt(bound.numerator * inv.entries[j][j]
                  // (bound.denominator * inv.scale)) for j in range(n)]
    if max(xmax) >= 2**31:
        return None
    u, g3, g4 = _U, _gamma(3), _gamma(4)
    big_e, eta = Fraction(0), [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        m_i = Fraction(sum(abs(lam[j][i]) * xmax[j] for j in range(i + 1, n)),
                       p[i])
        y_i = _sqrt_up(bound / d[i])
        delta = _gamma(n - i) * m_i
        e = delta + u * (y_i + delta)
        tau = d[i] * (e * (2 * y_i + e) + g3 * (y_i + e) ** 2)
        eta[i] = (delta + 2 * g4 * y_i + _sqrt_up(big_e / d[i])
                  + g3 * (2 * y_i + m_i + delta + 1))
        big_e += tau + u * (bound + big_e + tau)
    if max(eta) > 1 or big_e > bound / 2**20:
        return None
    return xmax, eta, big_e


def _float_levels(g: GramMatrix, p, lam, bound: Fraction):
    """The float64 sweep step where _float_certificate certifies it."""
    cert = _float_certificate(g, p, lam, bound)
    if cert is None:
        return None
    xmax, eta, eps = cert
    n, c = len(p), g.scale
    mu = np.array([[lam[j][i] / p[i] if j > i else 0.0 for i in range(n)]
                   for j in range(n)])
    d = [p[i] / (c * (p[i - 1] if i else 1)) for i in range(n)]
    eta = [_float_up(x) for x in eta]
    b_up, b_eps = _float_up(bound), _float_up(bound + eps)

    def step(i, x, t):
        cen = x @ mu[i + 1:, i]
        r = np.sqrt(np.maximum((b_up - t) / d[i], 0.0))
        lo = np.ceil(np.maximum(-cen - r - eta[i], -xmax[i]))
        hi = np.floor(np.minimum(-cen + r + eta[i], xmax[i]))

        def child(idx, xi):
            y = xi + cen[idx]
            t_child = t[idx] + d[i] * (y * y)
            return t_child, t_child <= b_eps
        return lo.astype(np.int64), hi.astype(np.int64), child

    return step, np.float64, np.zeros(1)


def _exact_levels(g: GramMatrix, p, lam, bound: Fraction):
    """The exact sweep step: every pruning decision in integers.

    With w[i] = c p[i-1] p[i], Q(x) = sum_i (p[i] x_i + C_i)^2 / w[i]
    with C_i = sum_{j>i} lam[j][i] x_j.  mscale[i] clears the
    denominators of levels i.., so a row carries T_{i+1} mscale[i+1] as
    an integer, and the interval endpoints come from integer square roots.
    """
    n = len(p)
    w = [g.scale * x * y for x, y in zip([1] + p, p)]
    ucol = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    mscale = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        mscale[i] = lcm(mscale[i + 1], w[i])
    bn, bd = bound.numerator, bound.denominator
    isqrt_ = np.frompyfunc(isqrt, 1, 1)

    def step(i, x, ts):
        # (q x_i + C)^2 / w_i <= bound - T_{i+1}, q = p_i; every live row
        # has T_{i+1} <= bound, so the radicand is never negative
        cen = exact_matmul(x, ucol[i]).astype(object)
        den = bd * mscale[i + 1]
        s = isqrt_(w[i] * den * (bn * mscale[i + 1] - bd * ts))
        a, q = -cen * den, p[i] * den
        hi = (a + s) // q
        lo = -((s - a) // q)
        f_i, g_i = mscale[i] // mscale[i + 1], mscale[i] // w[i]

        def child(idx, xi):
            t = xi.astype(object) * p[i] + cen[idx]
            return ts[idx] * f_i + g_i * t * t, None
        return lo.astype(np.int64), hi.astype(np.int64), child

    return step, np.int64, np.zeros(1, dtype=object)


def _fincke_pohst(reduced: GramMatrix, bound: Fraction) -> np.ndarray:
    """One vector of each +-pair with v^T reduced v <= bound, and possibly
    a few of larger norm, as unsorted int64 rows in the basis of
    ``reduced`` (the LLL-reduced Gram); callers filter by exact norm.

    Breadth-first: each level fixes x_i for every live row of a piece at
    once, in the float64 tier where _float_levels certifies it, else in
    the exact tier.  Pieces wait on a stack, so the sweep is depth-first
    over pieces and holds only the pieces not yet expanded.  The sign rule
    keeps x_i >= 0 while every coordinate above is zero, and x_0 >= 1 at
    level 0.
    """
    n = reduced.n
    p, lam = ldlt(reduced.entries)
    args = (reduced, p, lam, bound)
    step, dtype, root = _float_levels(*args) or _exact_levels(*args)
    out = []
    stack = [(n - 1, np.zeros((1, 0), dtype), root, np.zeros(1, bool))]
    while stack:
        i, x, state, nonzero = stack.pop()
        lo, hi, child = step(i, x, state)
        lo = np.where(nonzero, lo, np.maximum(lo, int(i == 0)))
        counts = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(counts)
        if len(x) > 1 and ends[-1] > 2 * _CHUNK:
            # split the parents where the children count passes a multiple
            # of _CHUNK (else in half), into at least two pieces that are
            # expanded when popped, the first one first
            cuts = np.flatnonzero(np.diff((ends - counts) // _CHUNK)) + 1
            cuts = [0, *(cuts.tolist() or [len(x) // 2]), len(x)]
            stack += [(i, x[a:b], state[a:b], nonzero[a:b])
                      for a, b in zip(cuts[-2::-1], cuts[:0:-1])]
            continue
        idx = np.repeat(np.arange(len(x)), counts)
        xi = lo[idx] + (np.arange(idx.size) - (ends - counts)[idx])
        state, keep = child(idx, xi)
        xc = np.empty((idx.size, n - i), dtype)
        xc[:, 0] = xi
        xc[:, 1:] = x[idx]
        nz = nonzero[idx] | (xi != 0)
        if keep is not None:
            xc, state, nz = xc[keep], state[keep], nz[keep]
        if not i:
            out.append(xc.astype(np.int64, copy=False))
        elif len(xc):
            stack.append((i - 1, xc, state, nz))
    if not out:
        return np.zeros((0, n), np.int64)
    return np.concatenate(out)


def _both_signs(half: np.ndarray, trans: list[list[int]]) -> np.ndarray:
    """Rows half @ trans and their negations, sorted lexicographically.

    The map back to input coordinates is an exact_matmul; a coordinate
    that does not fit in int64 (with its negation) raises EnumerationError.
    Each row takes the sign that makes its first nonzero coordinate
    positive, and only that half is sorted: negation reverses the order
    and puts every such row last, so the set is -half[::-1], then half,
    both written straight into the output.
    """
    half = exact_matmul(half, trans)
    if half.dtype == object:
        big = max((abs(x) for x in half.flat), default=0)
        if big > I64_MAX:
            raise EnumerationError(
                f"vector coordinate of magnitude {big} does not fit in int64")
        half = half.astype(np.int64)
    first = half[np.arange(len(half)), np.argmax(half != 0, axis=1)]
    np.negative(half, out=half, where=(first < 0)[:, None])
    n = len(half)
    out = np.empty((2 * n, half.shape[1]), np.int64)
    # the default mode="raise" would buffer a full-size copy of out
    np.take(half, np.lexsort(half.T[::-1]), axis=0, out=out[n:], mode="clip")
    np.negative(out[n:][::-1], out=out[:n])
    return out


def shortest_norm_and_vectors(gram: GramMatrix) -> tuple[Fraction, np.ndarray]:
    """Minimal nonzero norm of the lattice and all vectors attaining it.

    Reduces once, enumerates at the smallest diagonal entry of the reduced
    Gram (the shortest reduced basis vector's norm, at most 2^(n-1) times
    the minimal norm), keeps the vectors of the smallest norm found and
    maps only those back to input coordinates.
    """
    reduced, trans = size_reduce(gram)
    bound = min(reduced[i, i] for i in range(reduced.n))
    half = _fincke_pohst(reduced, bound)
    if half.shape[0] == 0:
        raise EnumerationError("no nonzero vectors at the basis-diagonal bound")
    norms = exact_norms(reduced, half)
    m = norms.min()
    half = half[norms == m]     # drops the larger array before the map back
    return Fraction(int(m), reduced.scale), _both_signs(half, trans)


def minimal_vector_set(gram: GramMatrix) -> VectorSet:
    """VectorSet of all minimal vectors."""
    min_norm, vecs = shortest_norm_and_vectors(gram)
    return VectorSet(gram=gram, min_norm=min_norm, coords=vecs, antipodal=True)


def halve_antipodal(vs: VectorSet) -> VectorSet:
    """One representative per antipodal pair: the canonical half-set.

    Rows are sorted lexicographically and negation reverses that order, so
    a zero-free set is sign-symmetric exactly when its count is even and
    coords[::-1] == -coords, and the partner of row i is row N-1-i.  The
    rule keeps the vector whose first nonzero coordinate is positive, i.e.
    the upper half coords[N//2:].  Raises NotAntipodalError naming an
    unpaired vector.
    """
    c = vs.coords
    n = vs.count
    if n % 2 or not is_sign_symmetric(c):
        raise NotAntipodalError(
            f"vector {_unpaired(c)} has no antipodal partner")
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm, coords=c[n // 2:],
                     antipodal=False)


# rows per chunk of the order and sign checks, so their temporaries stay
# small next to the set itself
_CHECK_ROWS = 2**12


def _lex_sorted(c: np.ndarray) -> bool:
    """Whether the rows are in non-decreasing lexicographic order: each
    adjacent pair is equal or first differs upward.  Checked _CHECK_ROWS
    pairs at a time."""
    for s in range(0, len(c) - 1, _CHECK_ROWS):
        hi = c[s + 1:s + 1 + _CHECK_ROWS]
        lo = c[s:s + len(hi)]
        rows = np.arange(len(hi))
        first = np.argmax(hi != lo, axis=1)
        if np.any(hi[rows, first] < lo[rows, first]):
            return False
    return True


def is_sign_symmetric(coords: np.ndarray) -> bool:
    """Whether lexicographically sorted, duplicate-free rows are closed
    under negation: negation reverses lexicographic order, so exactly
    when coords[::-1] == -coords.  Row i is compared with row N-1-i for
    the first half of the rows, _CHECK_ROWS at a time."""
    n = len(coords)
    for s in range(0, (n + 1) // 2, _CHECK_ROWS):
        e = min(s + _CHECK_ROWS, (n + 1) // 2)
        if not np.array_equal(coords[s:e], -coords[n - e:n - s][::-1]):
            return False
    return True


def _unpaired(coords: np.ndarray) -> tuple[int, ...]:
    """A row with no antipodal partner: one whose negation is absent, else
    the middle row, the zero vector when an odd count passes the identity."""
    rows = [tuple(row) for row in coords.tolist()]
    present = set(rows)
    return next((v for v in rows if tuple(-x for x in v) not in present),
                rows[len(rows) // 2])

