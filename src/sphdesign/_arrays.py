"""Array-only code, imported on its first use.

The parts of the pipeline that only an input held as numpy arrays
reaches live here, so a command on a small lattice, whose rows stay
Python ints, neither compiles nor loads them:

- enumeration's breadth-first sweep (shortest_by_sweep: its set-up
  _sweep_levels, which certifies float64 for the form, the sweep
  _fincke_pohst, and _both_signs, which maps the rows found back to input
  coordinates), run from _SCALAR_NODES estimated search nodes on;
- spectrum's blocked pair count over int64 arrays (_hist_blocks), for a
  set held as an array or of more than _INT_ROWS rows to count;
- embedding's integer Harm_2 frame (harmonic_frame), read by
  harmonic_rank only for a set failing the embedded 3-design, and the
  float coordinate export (realize_coordinates) of export-coords.

enumeration.shortest_norm_and_vectors and the CLI's vector-file reader
import this module before numpy, so the transient memory of compiling it
does not add to numpy's heap at the command's peak RSS.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, isqrt, sqrt

from ._numpy import np
from .embedding import EmbeddingError, embedded_gram
from .enumeration import (
    I64_MAX,
    I64_SAFE,
    VectorSet,
    _int64_checked,
    exact_matmul,
    exact_norms,
    halve_antipodal,
)
from .linalg import GramMatrix, invert, ldlt


# ---------------------------------------------------------------------------
# enumeration: the breadth-first sweep

# frontier rows expanded at once: a piece of parents with more than
# 2 _CHUNK children is split where the count crosses each k _CHUNK.
# On Leech, minimal_vector_set took 1.2-1.3 s and 159-166 MB peak RSS at
# 2^14, against 1.3 s and 177 MB at 2^12 and 2.1 s and 160 MB at 2^16
_CHUNK = 2**14


def _sweep_levels(g: GramMatrix, p, lam, bound: Fraction):
    """The sweep's level data (p, lam, w, b) for the integer LDL^T
    (p, lam) of c g (c = g.scale) at bound, or None where float64 is not
    certified for the form.

    With k the gcd of the entries of c g, the form c g / k has pivots
    p_i / k^(i+1) and multipliers lam_ji / k^(i+1) (both are minors of
    order i + 1), and v^T g v <= bound exactly when the integer
    v^T (c g / k) v is at most B = floor(bound c / k).  In those units, as
    in _depth_first, the norm is Q(x) = sum_i u_i^2 / w_i with
    u_i = p_i x_i + C_i, C_i = sum_{j>i} lam_ji x_j and w_i = p_{i-1} p_i
    (p_-1 = 1).  Returned as float64: the lists p and w, lam as an n x n
    array with lam[j, i] below the diagonal and zeros elsewhere, and
    b = fl(fl(B) (1 + 2^-39)).

    Certified (else None) when n < 2^10 and, at every level from the top,
    S_i + M_i + p_i < 2^52 and X_i = floor((S_i + M_i) / p_i) + 1 < 2^30,
    with S_i an integer above sqrt(B w_i (1 + 2^-38)) >= sqrt(b w_i) and
    M_i = sum_{j>i} |lam_ji| X_j.  Then, by induction from the top, every
    coordinate the sweep visits has |x_i| <= X_i (an interval end rounds
    by less than 2^-21), so every C_i, p_i x_i and u_i is an integer
    below 2^52, exact in float64 in any summation order.  Each term
    fl(fl(u_i^2) / fl(w_i)) of a partial sum is non-negative, so by
    Higham's gamma_k (*Accuracy and Stability of Numerical Algorithms*,
    2002, section 3.1) every computed partial sum is within
    gamma_{n+3} T_i < 2^-42 T_i of the exact T_i, while b > (1 + 2^-40) B.
    So a node with T_i <= B passes the filter T_i <= b, and the computed
    radius r = sqrt(fl(b - T_{i+1}) w_i) is at least the exact
    sqrt((B - T_{i+1}) w_i).  Rounding is monotone and C_i and p_i x_i
    are exact, so the interval fl((-C_i -+ r) / p_i) holds every x_i with
    T_i <= B, and needs no widening.  The sweep thus returns every vector
    of norm <= bound and maybe a few more.
    """
    n = len(p)
    if n >= 2**10:
        return None
    k = gcd(*(x for row in g.entries for x in row))
    p = [x // k ** (i + 1) for i, x in enumerate(p)]
    lam = [[x // k ** (i + 1) for i, x in enumerate(row)] for row in lam]
    big_b = bound.numerator * g.scale // (bound.denominator * k)
    w = [x * y for x, y in zip([1, *p], p)]
    xmax = [0] * n
    for i in range(n - 1, -1, -1):
        bw = big_b * w[i]
        s = isqrt(bw + (bw >> 38) + 1) + 1 + sum(
            abs(lam[j][i]) * xmax[j] for j in range(i + 1, n))
        xmax[i] = s // p[i] + 1
        if s + p[i] >= 2**52 or xmax[i] >= 2**30:
            return None
    lam = np.array([row + [0] * (n - j) for j, row in enumerate(lam)], float)
    return ([float(x) for x in p], lam, [float(x) for x in w],
            float(big_b) * (1 + 2**-39))


def _fincke_pohst(levels) -> np.ndarray:
    """One vector of each +-pair with norm <= the bound, and possibly a
    few of larger norm, as unsorted int64 rows in the basis of the
    reduced form whose level data _sweep_levels returned; callers filter
    by exact norm.

    Breadth-first in float64: each level fixes x_i for every live row of a
    piece at once, over the interval of the depth-first search, and a
    child survives while its partial sum is at most b_up, the padded
    bound b.  Pieces wait on a stack, so the sweep is depth-first over
    pieces and holds only the pieces not yet expanded.  The sign rule
    keeps x_i >= 0 while every coordinate above is zero, and x_0 >= 1 at
    level 0.
    """
    p, lam, w, b_up = levels
    n = len(p)
    out = []
    stack = [(n - 1, np.zeros((1, 0)), np.zeros(1), np.zeros(1, bool))]
    while stack:
        i, x, t, nonzero = stack.pop()
        cen = x @ lam[i + 1:, i]
        r = np.sqrt((b_up - t) * w[i])
        lo = np.ceil((-cen - r) / p[i]).astype(np.int64)
        hi = np.floor((r - cen) / p[i]).astype(np.int64)
        lo = np.where(nonzero, lo, np.maximum(lo, int(i == 0)))
        counts = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(counts)
        if len(x) > 1 and ends[-1] > 2 * _CHUNK:
            # split the parents where the children count crosses k _CHUNK
            # for an integer k (else in half), into at least two pieces
            # that are expanded when popped, the first one first
            cuts = np.flatnonzero(np.diff((ends - counts) // _CHUNK)) + 1
            cuts = [0, *(cuts.tolist() or [len(x) // 2]), len(x)]
            stack += [(i, x[a:b], t[a:b], nonzero[a:b])
                      for a, b in zip(cuts[-2::-1], cuts[:0:-1])]
            continue
        idx = np.repeat(np.arange(len(x)), counts)
        xi = lo[idx] + (np.arange(idx.size) - (ends - counts)[idx])
        u = xi * p[i] + cen[idx]
        t = t[idx] + u * u / w[i]
        keep = t <= b_up
        xc = np.empty((idx.size, n - i))
        xc[:, 0] = xi
        xc[:, 1:] = x[idx]
        nz = nonzero[idx] | (xi != 0)
        xc, t, nz = xc[keep], t[keep], nz[keep]
        if not i:
            out.append(xc.astype(np.int64))
        elif len(xc):
            stack.append((i - 1, xc, t, nz))
    if not out:
        return np.zeros((0, n), np.int64)
    return np.concatenate(out)


def shortest_by_sweep(reduced: GramMatrix, trans: list[list[int]], p,
                      lam, bound: Fraction):
    """(min_norm, vectors) as enumeration.shortest_norm_and_vectors returns
    them, found by the breadth-first sweep in the basis of ``reduced``
    (integer LDL^T (p, lam), unimodular transform trans), the vectors a
    read-only int64 array; None where _sweep_levels refuses the form,
    which then runs the depth-first search."""
    levels = _sweep_levels(reduced, p, lam, bound)
    if levels is None:
        return None
    half = _fincke_pohst(levels)
    norms = exact_norms(reduced, half)
    m = norms.min()
    half = half[norms == m]     # drops the larger array before the map back
    return Fraction(int(m), reduced.scale), _both_signs(half, trans)


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
        _int64_checked(max((abs(x) for x in half.flat), default=0))
        half = half.astype(np.int64)
    first = half[np.arange(len(half)), np.argmax(half != 0, axis=1)]
    np.negative(half, out=half, where=(first < 0)[:, None])
    n = len(half)
    out = np.empty((2 * n, half.shape[1]), np.int64)
    # the default mode="raise" would buffer a full-size copy of out
    np.take(half, np.lexsort(half.T[::-1]), axis=0, out=out[n:], mode="clip")
    np.negative(out[n:][::-1], out=out[:n])
    out.setflags(write=False)     # so a VectorSet keeps it without a copy
    return out


# ---------------------------------------------------------------------------
# spectrum: the blocked pair count

# rows per product block: a float32 block, its int64 bin indices and the
# row and column stripes it pairs stay inside a core's L2 cache
_BLOCK = 256
# row stripes per worker: np.bincount holds the interpreter lock, so a
# second worker pays only from 64 stripes on and below that just adds its
# block buffers.  The pass of `sphdesign spectrum --threads 2` over the
# first 256 s rows of the Leech half-set took, in ms with one worker /
# two (medians of 11-15 runs):
# s = 9: 13.1 / 14.1, 32: 119 / 117, 48: 312 / 314, 56: 417 / 415,
# 64: 528 / 367, 80: 881 / 535, 96: 1134 / 752
_STRIPES_PER_WORKER = 32
# any partial sum of a dot product below these is an exactly represented
# float32 / float64 integer, so BLAS matmul is bit-exact
_F32_SAFE = 2**24
_F64_SAFE = 2**53




def _hist_blocks(a: np.ndarray, v: np.ndarray, off: int,
                 threads: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of all pairwise products a[i] . v[j] (a = V G precomputed)
    as (products, counts), products ascending and counts positive.

    Counts ordered pairs one way only; caller owns any doubling.  The rows
    are cut into stripes of _BLOCK rows, and one product block pairs a row
    stripe with a column stripe at or right of it, so it stays cache-sized
    and is reused for every block a worker computes.  Each of the
    max(1, min(threads, stripes // _STRIPES_PER_WORKER)) workers owns
    every workers-th row stripe (the triangle of blocks then splits about
    evenly) and counts into its own histogram, with off-diagonal blocks
    counted twice; the worker histograms are summed once at the end.  The
    calling thread runs worker 0 and one plain threading.Thread runs each
    other worker; once every worker is joined, the exception of the
    lowest-numbered failing worker, if any, is re-raised.

    a is rebound to its float copy, so an a the caller no longer holds is
    freed before any block is computed.

    Products come from float32 BLAS when k max|a| max|v| < 2^24, from
    float64 BLAS when it is below 2^53 (either bound makes every partial
    sum an exactly represented integer, so the product is bit-exact), and
    else from exact_matmul on each block.  Every product p has |p| <= off.
    When the 2 off + 1 possible values are no more than a block's
    products, a worker bincounts p + off into a dense int64 histogram;
    otherwise it sorts the values each block realizes, as Python ints once
    off is past int64, so memory never grows with off.
    """
    n, k = a.shape
    # max and -min rather than abs, which would copy the operand
    amax = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    vmax = max(int(v.max(initial=0)), -int(v.min(initial=0)))
    bound = k * amax * vmax
    ftype = (np.float32 if bound < _F32_SAFE
             else np.float64 if bound < _F64_SAFE else None)
    if ftype is not None:
        a = a.astype(ftype)
        vt = np.ascontiguousarray(v.T, dtype=ftype)
    else:
        vt = v.T
    side = min(_BLOCK, n)
    bins = 2 * off + 1
    dense = bins <= side * side
    stripes = range(0, n, _BLOCK)
    workers = max(1, min(threads, len(stripes) // _STRIPES_PER_WORKER))

    def run(first: int) -> np.ndarray | list[tuple[np.ndarray, np.ndarray]]:
        if ftype is not None:
            buf = np.empty(side * side, dtype=ftype)
        if dense:
            index = np.empty(side * side, dtype=np.int64)
            hist = np.zeros(bins, dtype=np.int64)
        else:
            parts = []
        for i in stripes[first::workers]:
            rows = a[i:i + _BLOCK]
            for j in range(i, n, _BLOCK):
                cols = vt[:, j:j + _BLOCK]
                size = rows.shape[0] * cols.shape[1]
                if ftype is not None:
                    p = np.matmul(rows, cols, out=buf[:size].reshape(
                        rows.shape[0], cols.shape[1])).ravel()
                else:
                    p = exact_matmul(rows, cols).ravel()
                if dense:
                    h = np.bincount(np.add(p, off, out=index[:size],
                                           dtype=np.int64, casting="unsafe"),
                                    minlength=bins)
                    hist += h
                    if i != j:
                        # mirror block: products are symmetric
                        hist += h
                else:
                    vals, cnt = np.unique(
                        p.astype(np.int64 if off <= I64_MAX else object,
                                 copy=False),
                        return_counts=True)
                    parts.append((vals, cnt if i == j else 2 * cnt))
        return hist if dense else parts

    results: list = [None] * workers
    errors: list = [None] * workers

    def work(first: int) -> None:
        try:
            results[first] = run(first)
        except BaseException as exc:
            errors[first] = exc

    pool = [threading.Thread(target=work, args=(first,))
            for first in range(1, workers)]
    try:
        for thread in pool:
            thread.start()
        work(0)
    finally:
        for thread in pool:
            if thread.ident is not None:
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    if dense:
        hist = sum(results)
        vals = np.flatnonzero(hist)
        return vals - off, hist[vals]
    parts = [part for worker in results for part in worker]
    vals, where = np.unique(np.concatenate([p for p, _ in parts]),
                            return_inverse=True)
    total = np.zeros(len(vals), dtype=np.int64)
    np.add.at(total, where, np.concatenate([c for _, c in parts]))
    return vals, total


# ---------------------------------------------------------------------------
# embedding: the Harm_2 frame and the float coordinate export

# the largest half-set exported: the float check against the exact A grows
# as N^2 D, about 3e12 flops for Leech's 98 280; BW16's 2 160 points take
# 0.8 s on a 2-vCPU VM
_EXPORT_MAX = 2160

def harmonic_frame(vs: VectorSet) -> np.ndarray:
    """Integer Harm_2 coordinates Psi of the rows of vs.

    With c*G = vs.gram.entries, m = vs.m, n = vs.rank and
    G^-1 = E / s (linalg.invert), row x maps to the symmetric integer
    matrix Psi_x = s c n x x^T - m E, the image of x x^T - (m/cn) G^-1
    scaled by s c n.  Psi holds its upper triangle, one row per vector and
    n(n+1)/2 columns, ordered as numpy.triu_indices(n); (cG) E = c s I is
    checked exactly (EmbeddingError otherwise).  On symmetric matrices
    take <S, T> = tr(cG S cG T).  Because x^T (cG) x = m for every row,
        <Psi_x, Psi_y> = s^2 c^2 n (n - 1) m^2 g(P_xy / m),
    with P = V (cG) V^T the integer products and g the normalized
    degree-2 Gegenbauer polynomial: the embedded Gram matrix A
    (embedded_gram) times a positive constant, entrywise.  Every Psi_x has
    tr(cG Psi_x) = 0, so rank Psi <= n(n+1)/2 - 1 = dim Harm_2.  With
    cG = R^T R, R Psi_x R^T = s c n (y y^T - (m/n) I), y = R x: the export
    (realize_coordinates) is R Psi_x R^T up to scale.

    Psi is int64 when s c n max|x|^2 + m max|E| < 2**62 proves every
    entry and every intermediate in range, else Python ints (object
    dtype).
    """
    g = vs.gram
    n, c, m = vs.rank, g.scale, vs.m
    inv = invert(g)
    s, e = inv.scale, inv.entries
    ge = exact_matmul(g.entries, e).tolist()
    if any(x != (c * s if i == j else 0)
           for i, row in enumerate(ge) for j, x in enumerate(row)):
        raise EmbeddingError("(cG) E != c s I: the inverse Gram is wrong")
    iu, ju = np.triu_indices(n)
    me = [m * e[i][j] for i, j in zip(iu.tolist(), ju.tolist())]
    x = vs.array
    big = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    scn = s * c * n
    dtype = (np.int64 if scn * big * big + max(map(abs, me)) < I64_SAFE
             else object)
    x = x.astype(dtype)
    return scn * x[:, iu] * x[:, ju] - np.array(me, dtype=dtype)


def realize_coordinates(vs: VectorSet,
                        precision: int = 12) -> list[tuple[float, ...]]:
    """Unit vectors in R^D reproducing the embedded Gram to 10^-precision.

    Rows are the Harm_2 images G_x of the canonical half X' of the
    antipodal vs (enumeration.halve_antipodal refuses any other set),
    then their negatives.  With cG = R^T R and y = R x (|y|^2 = m), G_x is
    the traceless part of y y^T over its norm m sqrt((n - 1)/n), written
    in an orthonormal basis of the symmetric matrices: the n - 1 Helmert
    coordinates of the diagonal, then sqrt(2) y_i y_j for i < j in
    numpy.triu_indices(n, 1) order; <G_x, G_y> is A's entry g((x, y)).
    y_k is the exact integer p_k (L^T x)_k (linalg.ldlt of cG) over p_k,
    times sqrt(p_k / p_(k-1)).  Every coordinate comes from elementwise
    float operations, not a BLAS product, so it does not depend on the
    BLAS; the check against the exact A (embedded_gram), on blocks of at
    most D columns, does.  A half-set over _EXPORT_MAX points is refused.
    """
    half = halve_antipodal(vs)
    npts = half.count
    if npts > _EXPORT_MAX:
        raise EmbeddingError(
            f"{npts} points exceed the export limit {_EXPORT_MAX}; use the "
            f"spectrum-only embedding (sphdesign embed) instead")
    # the diagonal entry of scale * A; embedded_gram refuses a set on S^0
    scale = embedded_gram(half, [0], [0])[0, 0] if npts else 1
    n, m = half.rank, half.m
    p, lam = ldlt(half.gram.entries)
    # p_k on the diagonal and lam[i][k] below it: x @ it is p_k (L^T x)_k
    low = [[lam[i][k] if k < i else p[k] if k == i else 0 for k in range(n)]
           for i in range(n)]
    y = (exact_matmul(half.array, low).astype(object)
         / np.array(p, dtype=object)).astype(float)
    y *= np.sqrt([a / b for a, b in zip(p, [1, *p])])
    z, k = y * y, np.arange(1, n)
    diag = (np.cumsum(z, axis=1)[:, :-1] - k * z[:, 1:]) / np.sqrt(k * k + k)
    iu, ju = np.triu_indices(n, 1)
    top = (np.hstack([diag, sqrt(2) * y[:, iu] * y[:, ju]])
           / (m * sqrt((n - 1) / n)))
    dim, err = top.shape[1], 0.0
    for j in range(0, npts, dim):
        cols = np.arange(j, min(j + dim, npts))
        want = embedded_gram(half, slice(None), cols) / scale
        err = max(err, float(np.abs(top @ top[cols].T - want).max()))
    if err > 10.0 ** (-precision):
        raise EmbeddingError(
            f"float realization error {err:.3e} exceeds 1e-{precision}; "
            f"lower the precision requirement")
    # negate exactly, so a zero stays +0.0
    return [tuple(row) for row in np.vstack([top, 0.0 - top]).tolist()]
