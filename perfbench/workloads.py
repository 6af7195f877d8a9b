"""Workload command sequences and the seeded skewed-basis generator.

A workload is a fixed sequence of CLI commands, each paired with the exact
check of its output.  Every command gets ``--threads 2``; the CLI itself
is the unit of load, one command at a time (a closed loop with one client).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

DATA = checks.ROOT / "src" / "sphdesign" / "data"
THREADS = "2"
SMALL = ("A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8", "CT12")

# The skewed basis: SKEW_OPS elementary operations b_i <- b_i +- b_j, then
# a permutation.  Larger coefficients make the cost explode, and even at
# |c| = 1 the Fincke-Pohst cost spans three orders of magnitude across
# seeds.  So a
# candidate is kept only if it keeps the shortest basis vector (the
# enumeration bound is the smallest diagonal entry) and its estimated node
# count lies within SKEW_TOLERANCE of SKEW_NODES.  Each BW16 basis then
# enumerates in about 2 s instead of 0.08 s on the shipped basis, and
# SKEW_BASES of them average out what the estimate misses.
SKEW_OPS = 40
SKEW_NODES = 3.8e5
SKEW_TOLERANCE = 0.05
SKEW_BASES = 14
SKEW_ATTEMPTS = 100_000


@dataclass(frozen=True)
class Op:
    """One CLI command and the check of its (stdout, exit code)."""

    argv: list[str]
    check: Callable[[str, int], list[str]]


def lattices_op(exp: checks.Expectations) -> Op:
    return Op(["lattices", "--format", "json"],
              partial(checks.check_lattices, exp))


def verify_op(exp: checks.Expectations, lattice: str, *source: str,
              same_as: dict | None = None) -> Op:
    source = source or ("--lattice", lattice)
    return Op(["verify", *source, "--format", "json", "--threads", THREADS],
              partial(checks.check_verify, exp, lattice, same_as=same_as))


def reproduce_op(exp: checks.Expectations, example: int) -> Op:
    return Op(["reproduce", "--example", str(example), "--format", "json",
               "--threads", THREADS],
              partial(checks.check_reproduce, exp, example))


def roundtrip_ops(exp: checks.Expectations, lattice: str, gram: Path,
                  same_as: dict) -> list[Op]:
    """minvec --gram-file G --out F, then verify --gram-file G --vectors F;
    the output must match the reference row of ``lattice``."""
    vecs = gram.with_suffix(".vecs")
    source = ("--gram-file", str(gram))
    return [
        Op(["minvec", *source, "--out", str(vecs), "--format", "json",
            "--threads", THREADS],
           partial(checks.check_minvec, exp, lattice, gram.stem, vecs)),
        verify_op(exp, lattice, *source, "--vectors", str(vecs),
                  same_as=same_as),
    ]


# ---------------------------------------------------------------------------
# skewed bases

def read_gram(path: Path) -> list[list[int]]:
    """An integral Gram file: '#' comments, the dimension, then the rows."""
    lines = [ln.split("#", 1)[0].split()
             for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0][0])
    rows = [[Fraction(t) for t in ln] for ln in lines[1:n + 1]]
    if any(x.denominator != 1 for row in rows for x in row):
        raise ValueError(f"{path}: the skew generator needs an integral Gram")
    return [[int(x) for x in row] for row in rows]


def write_gram(path: Path, g: list[list[int]], header: str) -> None:
    rows = [" ".join(str(x) for x in row) for row in g]
    path.write_text(f"# {header}\n{len(g)}\n" + "\n".join(rows) + "\n")


def _skew(g0: list[list[int]], rng: random.Random, ops: int):
    """(U g0 U^T, U) for U = P E_ops ... E_1, E = I +- e_i e_j^T, P a
    permutation."""
    n = len(g0)
    g = [row[:] for row in g0]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    perm = list(range(n))
    rng.shuffle(perm)
    return ([[g[a][b] for b in perm] for a in perm], [u[a] for a in perm])


def estimated_nodes(g: list[list[int]]) -> float:
    """Gaussian-heuristic Fincke-Pohst node count at the enumeration bound.

    With g = L D L^T the search fixes x_{n-1} first; the nodes at depth k
    number about vol(B_k(sqrt(bound))) / sqrt(d_{n-k} ... d_{n-1}).  Size
    reduction leaves D unchanged, so this holds for the basis the program
    enumerates in.  Halved for the sign symmetry the search skips.
    """
    n = len(g)
    low = [[0.0] * n for _ in range(n)]
    d = [0.0] * n
    for j in range(n):
        d[j] = g[j][j] - sum(low[j][k] ** 2 * d[k] for k in range(j))
        for i in range(j + 1, n):
            low[i][j] = (g[i][j] - sum(low[i][k] * low[j][k] * d[k]
                                       for k in range(j))) / d[j]
    bound = min(g[i][i] for i in range(n))
    total, log_det = 0.0, 0.0
    for k in range(1, n + 1):
        log_det += math.log(d[n - k])
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1)
        total += ball * math.exp(k / 2 * math.log(bound) - log_det / 2)
    return total / 2


def _det(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def basis_change_problems(g0, g, u) -> list[str]:
    """Exact check that g = U g0 U^T with U unimodular."""
    n = len(g0)
    ug = [[sum(u[i][k] * g0[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    ugut = [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    problems = []
    if ugut != g:
        problems.append("skewed Gram != U G U^T")
    if abs(_det(u)) != 1:
        problems.append(f"det U = {_det(u)}, not +-1")
    if _det(g) != _det(g0):
        problems.append(f"det(U G U^T) = {_det(g)} != det G = {_det(g0)}")
    return problems


def skewed_bases(g0, seed: int, count: int, ops: int = SKEW_OPS,
                 nodes: float | None = SKEW_NODES):
    """``count`` seeded (g, U) pairs; with ``nodes`` set, only candidates in
    the cost band are kept.  The same seed gives the same bases."""
    rng = random.Random(seed)
    shortest = min(g0[i][i] for i in range(len(g0)))
    out = []
    for _ in range(SKEW_ATTEMPTS):
        g, u = _skew(g0, rng, ops)
        if min(g[i][i] for i in range(len(g))) != shortest:
            continue
        if nodes is not None and \
                abs(estimated_nodes(g) / nodes - 1) > SKEW_TOLERANCE:
            continue
        out.append((g, u))
        if len(out) == count:
            return out
    raise RuntimeError(f"seed {seed}: no {count} skewed bases in "
                       f"{SKEW_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# workloads: (runner, expectations, seed) -> command sequence.  The runner
# supplies a scratch directory and runs checked commands during set-up.

def certify_small(runner, exp: checks.Expectations, seed: int) -> list[Op]:
    return ([verify_op(exp, name) for name in SMALL]
            + [reproduce_op(exp, 1), reproduce_op(exp, 2)])


def skewed(runner, exp: checks.Expectations, seed: int, lattice: str = "BW16",
           count: int = SKEW_BASES, **band) -> list[Op]:
    """A vector-file round trip on each seeded skewed basis of ``lattice``;
    each must verify exactly as the shipped basis does.  Only the generated
    Gram files reach the program."""
    stem = lattice.lower()
    g0 = read_gram(DATA / f"{stem}.gram")
    shipped = runner.checked(verify_op(exp, lattice))
    try:
        reference = json.loads(shipped.stdout)
    except ValueError:
        reference = {}          # every skewed basis then fails its check
    ops = []
    for i, (g, u) in enumerate(skewed_bases(g0, seed, count, **band)):
        problems = basis_change_problems(g0, g, u)
        if problems:
            raise RuntimeError(f"skew generator, seed {seed}: {problems}")
        path = runner.workdir / f"{stem}-skew{i}.gram"
        write_gram(path, g, f"{lattice} in a skewed basis, seed {seed}")
        ops += roundtrip_ops(exp, lattice, path, same_as=reference)
    return ops


WORKLOADS = {
    "certify-small": certify_small,
    "skewed-bw16": skewed,
}
