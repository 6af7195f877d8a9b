"""Exact checks of the sphdesign CLI's JSON output.

Every expected value comes from the published reference rows in
``src/sphdesign/reference_tables.py`` (loaded as a plain file, so the
checker does not import the package it checks), plus the few design
strengths that table leaves implicit.  A check returns a list of problems;
an empty list means the command's output is exactly right.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_FILE = ROOT / "src" / "sphdesign" / "reference_tables.py"

# Source design strengths the reference table records only for BW16 and
# Leech: the minimal vectors of every other shipped lattice form a
# spherical 5-design, and those of E8 a 7-design.
STRENGTH = {"A2": 5, "D4": 5, "E6": 5, "E6dual": 5, "E7": 5, "E7dual": 5,
            "E8": 7, "CT12": 5}
# (rank, minimal norm) of the lattices whose vector files are checked.
SHAPE = {"E8": (8, "2"), "BW16": (16, "4")}
UNSHIPPED = ("K10", "K10dual")   # listed in the catalog, data not shipped
MATRIX_CAP = 512                 # verify's default --matrix-cap


def load_reference_rows() -> tuple:
    spec = importlib.util.spec_from_file_location("_reference_tables",
                                                  REFERENCE_FILE)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod        # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod.REFERENCE_ROWS


class Expectations:
    """Reference rows by lattice name; the self-test builds corrupted ones."""

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.by_name = {r.lattice: r for r in self.rows}

    def strength(self, lattice: str) -> int:
        ref = self.by_name[lattice]
        return ref.source_strength if ref.source_strength is not None \
            else STRENGTH[lattice]


def _abs_products(triples) -> tuple[Fraction, ...]:
    """|s| over a spectrum's [p, q, count] triples, excluding s = +-1."""
    return tuple(sorted({abs(Fraction(p, q)) for p, q, _ in triples} - {1}))


def _diff(want: dict) -> list[str]:
    return [f"{key}: got {got!r}, want {exp!r}"
            for key, (got, exp) in want.items() if got != exp]


def _parse(stdout: str):
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_lattices(exp: Expectations, stdout: str, rc: int) -> list[str]:
    rows, problems = _parse(stdout)
    if problems:
        return problems
    got = [(r["name"], r["available"], r["expected_kissing"]) for r in rows]
    want = [(r.lattice, r.lattice not in UNSHIPPED, r.size) for r in exp.rows]
    return _diff({"exit code": (rc, 0), "catalog": (got, want)})


def check_verify(exp: Expectations, lattice: str, stdout: str, rc: int,
                 same_as: dict | None = None) -> list[str]:
    """verify --format json against the reference row of ``lattice``.

    ``same_as`` is a report the output must equal apart from the lattice
    name and the kissing check, which only catalog inputs carry; it ties a
    basis-changed Gram file to the shipped basis.
    """
    report, problems = _parse(stdout)
    if problems:
        return problems
    ref = exp.by_name[lattice]
    emb = report["embedded"]
    rank = ({"is_psd": True, "rank": ref.ambient}
            if ref.size // 2 <= MATRIX_CAP else None)
    want = {
        "exit code": (rc, 0),
        "verdict": (report["verdict"], "PASS"),
        "N": (report["N"], ref.size),
        "ordered pairs": (sum(c for *_, c in report["source_spectrum"]),
                          ref.size ** 2),
        "moment criteria": (report["venkov5"]["holds"], True),
        "source |products|": (_abs_products(report["source_spectrum"]),
                              ref.source_abs),
        "design strength": (report["design_strength"], exp.strength(lattice)),
        "embedded D": (emb["D"], ref.ambient),
        "embedded code": (emb["code"], [ref.ambient, ref.size, str(ref.a)]),
        "embedded |products|": (_abs_products(emb["spectrum"]),
                                ref.embedded_abs),
        "3-design": (emb["is_3design"], True),
        "rank certificate": (emb.get("rank_certificate"), rank),
    }
    if same_as is not None:
        basis_free = {k: v for k, v in report.items()
                      if k not in ("lattice", "kissing_ok")}
        want["same as shipped basis"] = (basis_free, {
            k: v for k, v in same_as.items()
            if k not in ("lattice", "kissing_ok")})
    else:
        want["kissing check"] = (report["kissing_ok"], True)
    return _diff(want)


def check_reproduce(exp: Expectations, example: int, stdout: str,
                    rc: int) -> list[str]:
    rows, problems = _parse(stdout)
    if problems:
        return problems
    refs = [r for r in exp.rows if r.example == example]
    problems = _diff({"exit code": (rc, 0),
                      "rows": ([r["lattice"] for r in rows],
                               [r.lattice for r in refs])})
    for row, ref in zip(rows, refs):
        if ref.lattice in UNSHIPPED:
            problems += _diff({f"{ref.lattice} status":
                               (row["status"], "DATA-REQUIRED")})
            continue
        computed = {
            "code": [ref.ambient, ref.size, str(ref.a)],
            "source_abs": [str(v) for v in ref.source_abs],
            "embedded_abs": [str(v) for v in ref.embedded_abs],
        }
        if ref.source_strength is not None:
            computed["source_strength"] = ref.source_strength
        problems += _diff({
            f"{ref.lattice} status": (row["status"], "PASS"),
            f"{ref.lattice} computed": (row.get("computed"), computed),
        })
    return problems


def check_minvec(exp: Expectations, lattice: str, name: str, out: Path,
                 stdout: str, rc: int) -> list[str]:
    """minvec --format json --out FILE: the summary and the file written.

    ``name`` is the name the CLI reports (a Gram file's stem)."""
    payload, problems = _parse(stdout)
    if problems:
        return problems
    rank, min_norm = SHAPE[lattice]
    count = exp.by_name[lattice].size
    try:
        lines = out.read_text().splitlines()
    except OSError as exc:
        return [f"vector file unreadable: {exc}"]
    body = [ln.split() for ln in lines[1:]]
    return _diff({
        "exit code": (rc, 0),
        "summary": (payload, {"lattice": name, "rank": rank,
                              "min_norm": min_norm, "count": count,
                              "out": str(out)}),
        "file header": (lines[:1], [f"{rank} {count} {min_norm}"]),
        "file rows": ((len(body), {len(r) for r in body}), (count, {rank})),
    })
