"""Exact short-vector enumeration and vector-set handling.

Enumeration first LLL-reduces the Gram matrix exactly (size_reduce, an
integral LLL that keeps the unimodular transform), runs Fincke-Pohst in the
reduced basis, where far fewer search nodes die, and maps the vectors back
through the transform.  It runs one of two searches.  The depth-first
search (_depth_first) visits one node at a time in Python ints, and every
pruning decision is exact: integer pivots and multipliers of the
fraction-free LDL^T of the reduced Gram, which the integral LLL leaves
behind, and integer square roots.  The set it finds keeps its rows as a
sorted tuple of int tuples, so the shipped lattices up to CT12 are found
without importing numpy.  From _SCALAR_NODES on, by the Gaussian-heuristic
node count read from the exact LDL^T pivots of the reduced Gram
(_estimated_nodes), a breadth-first sweep over numpy arrays
(_arrays._fincke_pohst) runs instead, wherever an a priori bound eps on
every float error is certified small (_arrays._float_certificate).  It
prunes in float64 against the bound plus eps, with intervals widened
outward by the matching center error: a certified filter in the sense of
Shewchuk (*Adaptive precision floating-point arithmetic*, DCG 18, 1997),
which keeps every vector of norm <= the bound and maybe a few more.  A
form the certificate refuses runs the depth-first search.  Either way the
result is decided by exact integer norms, so a rounding error can add
work but never drop or add a vector.  The sweep, its certificate and its
map back (_arrays._both_signs) live in sphdesign._arrays, imported on
first use, so a small lattice's command neither compiles nor loads them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import exp, inf, isqrt, lcm, lgamma, log, pi, prod
from operator import mul

from ._numpy import np
from ._record import Record
from .linalg import GramMatrix, ldlt_row


class EnumerationError(ValueError):
    pass


class NotAntipodalError(ValueError):
    """Raised when an operation requires a sign-symmetric set."""


class VectorSet(Record):
    """Finite set of integer coordinate vectors with constant norm.

    coords holds N rows of rank = gram.n integers in canonical
    (lexicographic) order, in one of two forms: a read-only (N x rank)
    int64 array, or a tuple of tuples of Python ints, the form of the
    small sets minimal_vector_set finds by its depth-first search (array
    gives either as an array).  Every row v satisfies v^T gram v ==
    min_norm exactly.  m is the scaled min norm c * min_norm
    (c = gram.scale), a positive int: every row has v^T (c gram) v == m,
    and every scaled product lies in [-m, m].  antipodal is read from
    the rows: an even count closed under negation (is_sign_symmetric).
    """

    __slots__ = ("gram", "min_norm", "coords", "antipodal", "m", "_array")

    def __init__(self, gram: GramMatrix, min_norm: Fraction,
                 coords: np.ndarray | tuple[tuple[int, ...], ...]):
        c = coords
        if isinstance(c, tuple):
            if not all(type(row) is tuple and all(type(x) is int for x in row)
                       for row in c):
                raise ValueError("coords rows must be tuples of ints")
            widths = {len(row) for row in c} or {gram.n}
        else:
            # a read-only array that no writable array shares memory with
            # is kept as it is: the fresh array _both_signs builds and a
            # slice of one; anything else is copied, so the rows cannot
            # change under the set
            if not (_frozen(c) and c.dtype == np.int64):
                c = np.array(c, dtype=np.int64)
            if c.ndim != 2:
                raise ValueError("coords must be a 2-d integer array")
            widths = {c.shape[1]}
        if widths != {gram.n}:
            raise ValueError(f"vectors have rank {max(widths)} but the Gram "
                             f"matrix has rank {gram.n}")
        if isinstance(c, tuple):
            c = c if _lex_sorted(c) else tuple(sorted(c))
        else:
            if not _lex_sorted(c):
                c = c[np.lexsort(c.T[::-1])]
            c.setflags(write=False)
        min_norm = Fraction(min_norm)
        m = min_norm * gram.scale
        if m.denominator != 1 or m <= 0:
            raise ValueError(
                f"min_norm {min_norm} is not a positive multiple of "
                f"1/{gram.scale}, the Gram matrix's scale")
        self._set("gram", gram)
        self._set("min_norm", min_norm)
        self._set("coords", c)
        self._set("antipodal", len(c) % 2 == 0 and is_sign_symmetric(c))
        self._set("m", int(m))
        self._set("_array", None if isinstance(c, tuple) else c)

    @property
    def rank(self) -> int:
        return self.gram.n

    @property
    def count(self) -> int:
        return len(self.coords)

    @property
    def sphere_dim(self) -> int:
        """Dimension d of the sphere S^d the normalized set lives on."""
        return self.rank - 1

    @property
    def array(self) -> np.ndarray:
        """The rows as a read-only (N x rank) int64 array: coords itself,
        or built on first read from the Python-int rows and kept."""
        if self._array is None:
            c = np.array(self.coords, dtype=np.int64).reshape(self.count,
                                                              self.rank)
            c.setflags(write=False)
            self._set("_array", c)
        return self._array

    def validate(self) -> None:
        """Check the constant-norm and uniqueness invariants exactly,
        _CHECK_ROWS rows at a time."""
        c = self.array
        for s in range(0, len(c), _CHECK_ROWS):
            norms = exact_norms(self.gram, c[s:s + _CHECK_ROWS])
            if not np.all(norms == self.m):
                raise ValueError("vector with norm != min_norm present")
        # coords are sorted lexicographically, so duplicates are adjacent
        for s in range(0, len(c) - 1, _CHECK_ROWS):
            hi = c[s + 1:s + 1 + _CHECK_ROWS]
            if np.any(np.all(hi == c[s:s + len(hi)], axis=1)):
                raise ValueError("duplicate vectors present")


def _frozen(a) -> bool:
    """Whether a is an ndarray that neither it nor any array it views can
    write."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


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


def size_reduce(g: GramMatrix):
    """Exact integral LLL reduction (delta = 3/4) at Gram level.

    LLL includes size reduction, hence the name.  This is the integral LLL
    of Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 2.6.7, run on the integer entries c * g of g.  The loop
    holds only integers: the Gram entries of the current basis, d[i] (the
    Gram determinant of the first i basis vectors) and
    lam[k][j] = d[j + 1] * mu_kj, so no Fraction and no float enters it.

    Returns (reduced_gram, transform, p, lam) with transform unimodular
    and reduced_gram == T * g * T^T exactly, at the scale c of g: a
    unimodular T keeps the Z-span of the Gram entries, so c stays minimal.
    The Gram-Schmidt coefficients of the result satisfy |mu_kj| <= 1/2 and
    the Lovasz condition |b*_k|^2 >= (3/4 - mu_{k,k-1}^2) |b*_{k-1}|^2.
    g is positive definite, so every d[k] is positive.  (p, lam) are the
    final d[1:] and lam, the Gram determinants and scaled multipliers of
    the reduced basis: exactly linalg.ldlt(reduced_gram.entries), which
    the search then need not compute again.
    """
    n = g.n
    a = [list(row) for row in g.entries]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k: int) -> None:
        u = ldlt_row(a[k][:k + 1], lam, d)
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
    return (GramMatrix(g.scale, a), t, d[1:],
            [row[:k] for k, row in enumerate(lam)])


# the depth-first search runs below this many estimated nodes
# (_estimated_nodes), the breadth-first sweep from it on where the float
# certificate holds.  In ms, depth-first / breadth-first with numpy
# already imported (medians of 3-5 in-process runs; BW16[:k] is the
# leading k x k block of the BW16 Gram):
# E8 (183 nodes) 0.3 / 1.8, CT12 (1 212) 2.8 / 3.2, BW16[:13] (1 606)
# 3.8 / 3.2, BW16[:14] (2 934) 8.0 / 3.2, BW16[:15] (5 513) 12.0 / 3.9,
# BW16 (11 615) 25.7 / 5.5.  Below the cut a command on a lattice of
# that size need never import numpy, which takes 60 ms; the shipped BW16
# and its skewed bases (10 956 nodes and up) stay on the sweep.
_SCALAR_NODES = 4096


def _estimated_nodes(p: list[int], c: int, bound: Fraction) -> float:
    """Gaussian-heuristic node count of the search at bound, halved for
    the sign rule, from the pivots p of the LDL^T of c * g.

    The nodes at depth k number about vol(B_k(sqrt(bound))) / sqrt(D_{n-k}
    ... D_{n-1}), with D_i = p[i] / (c p[i-1]) the pivots of g, a product
    that telescopes to p[n-1] / (c^k p[n-k-1]) (p[-1] = 1).  A count
    past the float range is inf."""
    n, total = len(p), 0.0
    for k in range(1, n + 1):
        log_det = (log(p[-1]) - k * log(c)
                   - (log(p[n - k - 1]) if k < n else 0.0))
        try:
            total += exp(k / 2 * log(pi * bound) - lgamma(k / 2 + 1)
                         - log_det / 2)
        except OverflowError:
            return inf
    return total / 2


def _depth_first(reduced: GramMatrix, p, lam,
                 bound: Fraction) -> tuple[int, list[tuple[int, ...]]]:
    """(m, rows): the least scaled norm m = v^T (c reduced) v of a nonzero
    v with v^T reduced v <= bound, and one row of each +-pair attaining
    it, as int tuples in the basis of reduced.

    Depth-first in Python ints, one node at a time, with every pruning
    decision exact.  With w[i] = c p[i-1] p[i] (p[-1] = 1),
    Q(x) = sum_i (p[i] x_i + C_i)^2 / w[i], C_i = sum_{j>i} lam[j][i] x_j.
    ms[i], the lcm of w[i..], clears the denominators of levels i.., so a
    node at level i carries its partial sum T_{i+1} as the integer
    T_{i+1} ms[i+1], and the interval of x_i, where every child has
    T_i <= bound exactly, comes from an integer square root.  A leaf's
    T_0 ms[0] is its norm times ms[0] / c.  The sign rule keeps x_i >= 0
    while every coordinate above is zero, and x_0 >= 1 at level 0.  The
    open levels are held in a list, not on the call stack, so any rank
    runs.
    """
    n, c = len(p), reduced.scale
    w = [c * x * y for x, y in zip([1] + p, p)]
    ms = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        ms[i] = lcm(ms[i + 1], w[i])
    bn, bd = bound.numerator, bound.denominator
    ucol = [[lam[j][i] for j in range(i + 1, n)] for i in range(n)]
    den = [bd * ms[i + 1] for i in range(n)]
    q = [p[i] * den[i] for i in range(n)]
    f = [ms[i] // ms[i + 1] for i in range(n)]
    g = [ms[i] // w[i] for i in range(n)]
    x = [0] * n
    best, rows = bn * ms[0] // bd + 1, []

    def level(i: int, ts: int, free: bool):
        # the open level i: its x_i still to visit, C_i, and what it got
        # from above (T_{i+1} ms[i+1]; free: every coordinate above is 0)
        cen = sum(map(mul, ucol[i], x[i + 1:]))
        s = isqrt(w[i] * den[i] * (bn * ms[i + 1] - bd * ts))
        a = -cen * den[i]
        lo, hi = -((s - a) // q[i]), (a + s) // q[i]
        if free:
            lo = max(lo, int(i == 0))
        return i, iter(range(lo, hi + 1)), cen, ts, free

    levels = [level(n - 1, 0, True)]
    while levels:
        i, todo, cen, ts, free = levels[-1]
        for xi in todo:
            x[i] = xi
            u = xi * p[i] + cen
            t = ts * f[i] + g[i] * u * u
            if i:
                # descend; this level's iterator resumes when i - 1 closes
                levels.append(level(i - 1, t, free and not xi))
                break
            if t <= best:
                if t < best:
                    best, rows = t, []
                rows.append(tuple(x))
        else:
            levels.pop()
    return c * best // ms[0], rows


def _int64_checked(big: int) -> None:
    if big > I64_MAX:
        raise EnumerationError(
            f"vector coordinate of magnitude {big} does not fit in int64")


def _int_both_signs(half, trans) -> tuple[tuple[int, ...], ...]:
    """_both_signs on int tuples: the rows half @ trans, each with its
    first nonzero coordinate positive, sorted, after their negations in
    reverse order, as a tuple of int tuples."""
    cols = list(zip(*trans))
    out = []
    for x in half:
        v = [sum(map(mul, x, col)) for col in cols]
        if next(filter(None, v)) < 0:
            v = [-y for y in v]
        out.append(tuple(v))
    _int64_checked(max((abs(y) for v in out for y in v), default=0))
    out.sort()
    return tuple(tuple(-y for y in v) for v in reversed(out)) + tuple(out)


def shortest_norm_and_vectors(gram: GramMatrix):
    """Minimal nonzero norm of the lattice and all vectors attaining it.

    Reduces once, enumerates at the smallest diagonal entry of the reduced
    Gram (the shortest reduced basis vector's norm, at most 2^(n-1) times
    the minimal norm, so that vector is found), keeps the vectors of the
    smallest norm found and maps only those back to input coordinates:
    by _depth_first, as a sorted tuple of int tuples, below _SCALAR_NODES
    estimated nodes or where the float certificate refuses the form, else
    by the breadth-first sweep (_arrays.shortest_by_sweep), as a read-only
    int64 array.
    """
    reduced, trans, p, lam = size_reduce(gram)
    bound = min(reduced[i, i] for i in range(reduced.n))
    if _estimated_nodes(p, reduced.scale, bound) >= _SCALAR_NODES:
        from . import _arrays   # imported on first use, before numpy is
        found = _arrays.shortest_by_sweep(reduced, trans, p, lam, bound)
        if found is not None:
            return found
    m, half = _depth_first(reduced, p, lam, bound)
    return Fraction(m, reduced.scale), _int_both_signs(half, trans)


def minimal_vector_set(gram: GramMatrix) -> VectorSet:
    """VectorSet of all minimal vectors."""
    min_norm, vecs = shortest_norm_and_vectors(gram)
    return VectorSet(gram=gram, min_norm=min_norm, coords=vecs)


def halve_antipodal(vs: VectorSet) -> VectorSet:
    """One representative per antipodal pair: the canonical half-set.

    Rows are sorted lexicographically and negation reverses that order, so
    in an antipodal set (VectorSet.antipodal) the partner of row i is row
    N-1-i.  The rule keeps the vector whose first nonzero coordinate is
    positive, i.e. the upper half coords[N//2:].  Raises NotAntipodalError
    naming an unpaired vector.
    """
    if not vs.antipodal:
        raise NotAntipodalError(
            f"vector {_unpaired(vs.coords)} has no antipodal partner")
    return VectorSet(gram=vs.gram, min_norm=vs.min_norm,
                     coords=vs.coords[vs.count // 2:])


# rows per chunk of the order and sign checks, so their temporaries stay
# small next to the set itself
_CHECK_ROWS = 2**12


def _lex_sorted(c: np.ndarray) -> bool:
    """Whether the rows are in non-decreasing lexicographic order: each
    adjacent pair is equal or first differs upward.  Checked _CHECK_ROWS
    pairs at a time (tuples compare lexicographically themselves)."""
    if isinstance(c, tuple):
        return all(a <= b for a, b in zip(c, c[1:]))
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
    if isinstance(coords, tuple):
        return all(a == tuple(-x for x in b)
                   for a, b in zip(coords[:(n + 1) // 2], reversed(coords)))
    for s in range(0, (n + 1) // 2, _CHECK_ROWS):
        e = min(s + _CHECK_ROWS, (n + 1) // 2)
        if not np.array_equal(coords[s:e], -coords[n - e:n - s][::-1]):
            return False
    return True


def _unpaired(coords: np.ndarray) -> tuple[int, ...]:
    """A row with no antipodal partner: one whose negation is absent, else
    the middle row, the zero vector when an odd count passes the identity."""
    rows = (list(coords) if isinstance(coords, tuple)
            else [tuple(row) for row in coords.tolist()])
    present = set(rows)
    return next((v for v in rows if tuple(-x for x in v) not in present),
                rows[len(rows) // 2])

