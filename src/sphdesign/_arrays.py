"""Array-only code, imported on its first use.

The parts of the pipeline that only an input held as numpy arrays
reaches live here, so a command on a small lattice, whose rows stay
Python ints, neither compiles nor loads them:

- enumeration's breadth-first sweep (shortest_by_sweep: the float
  certificate _float_certificate, the sweep _fincke_pohst, and
  _both_signs, which maps the rows found back to input coordinates),
  run from _SCALAR_NODES estimated search nodes on;
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
from math import inf, isqrt, nextafter, sqrt

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
      lets through more nodes above the bound, and the form runs the
      depth-first search instead.
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


def _fincke_pohst(reduced: GramMatrix, p, lam, bound: Fraction,
                  cert) -> np.ndarray:
    """One vector of each +-pair with v^T reduced v <= bound, and possibly
    a few of larger norm, as unsorted int64 rows in the basis of
    ``reduced`` (the LLL-reduced Gram, with integer LDL^T (p, lam));
    callers filter by exact norm.

    Breadth-first in float64: each level fixes x_i for every live row of a
    piece at once, with cert = (X, eta, eps) from _float_certificate (a
    form it refuses runs _depth_first instead): the interval is widened
    outward by eta_i and clipped to [-X_i, X_i], and a child survives while
    its partial sum is at most the bound plus eps.  Pieces wait on a
    stack, so the sweep is depth-first over pieces and holds only the
    pieces not yet expanded.  The sign rule keeps x_i >= 0 while every
    coordinate above is zero, and x_0 >= 1 at level 0.
    """
    xmax, eta, eps = cert
    n, c = len(p), reduced.scale
    mu = np.array([[lam[j][i] / p[i] if j > i else 0.0 for i in range(n)]
                   for j in range(n)])
    d = [p[i] / (c * (p[i - 1] if i else 1)) for i in range(n)]
    eta = [_float_up(x) for x in eta]
    b_up, b_eps = _float_up(bound), _float_up(bound + eps)
    out = []
    stack = [(n - 1, np.zeros((1, 0)), np.zeros(1), np.zeros(1, bool))]
    while stack:
        i, x, t, nonzero = stack.pop()
        cen = x @ mu[i + 1:, i]
        r = np.sqrt(np.maximum((b_up - t) / d[i], 0.0))
        lo = np.ceil(np.maximum(-cen - r - eta[i], -xmax[i])).astype(np.int64)
        hi = np.floor(np.minimum(-cen + r + eta[i], xmax[i])).astype(np.int64)
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
        y = xi + cen[idx]
        t = t[idx] + d[i] * (y * y)
        keep = t <= b_eps
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
    read-only int64 array; None where _float_certificate refuses the
    form, which then runs the depth-first search."""
    cert = _float_certificate(reduced, p, lam, bound)
    if cert is None:
        return None
    half = _fincke_pohst(reduced, p, lam, bound, cert)
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
