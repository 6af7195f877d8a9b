"""The certify pipeline and its two views.

certify() runs every stage once per lattice and returns exact quantities
only; the embedded code is a plain PairSpectrum, whose code (D, N, a) and
moment criterion are read as the source's are.  The verification report
renders them, with JSON writing every rational as a "p/q" string so
nothing is rounded on the way out; a min-norm check shows only when it
fails.  Table reproduction compares them to the stored reference rows with exact equality and emits PASS/FAIL (or
DATA-REQUIRED when a catalog Gram file is not shipped).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from ._record import Record
from .catalog import CatalogDataMissing, LatticeSpec, catalog
from .designs import (
    design_strength,
    moment_target,
    venkov_3design,
    venkov_5design,
)
from .embedding import embed, harmonic_rank
from .enumeration import VectorSet, minimal_vector_set
from .spectrum import PairSpectrum, pair_spectrum

if TYPE_CHECKING:
    from .reference_tables import ReferenceRow

_RANK_LINE_MAX = 512    # the largest half-set whose report has the rank


def code_str(ambient, size, a) -> str:
    """The spherical code (D, N, a) as text, a as rendered by str()."""
    return f"({ambient}, {size}, {a})"


class Certificate(Record):
    """Exact results of the certify pipeline for one lattice.

    kissing_ok is None when no count is expected; venkov5 is (holds,
    moment2, moment4); strength is None when not requested; embedded is
    the code on S^(D-1) and theorem its (is_3design, moment2); rank is
    the embedded Gram rank, None over _RANK_LINE_MAX half-set points.
    """

    __slots__ = ("min_norm", "kissing_ok", "min_norm_ok", "source",
                 "venkov5", "strength", "embedded", "theorem", "rank")

    def __init__(self, min_norm: Fraction, kissing_ok: bool | None,
                 min_norm_ok: bool, source: PairSpectrum,
                 venkov5: tuple[bool, Fraction, Fraction],
                 strength: int | None, embedded: PairSpectrum,
                 theorem: tuple[bool, Fraction], rank: int | None):
        self._set("min_norm", min_norm)
        self._set("kissing_ok", kissing_ok)
        self._set("min_norm_ok", min_norm_ok)
        self._set("source", source)
        self._set("venkov5", venkov5)
        self._set("strength", strength)
        self._set("embedded", embedded)
        self._set("theorem", theorem)
        self._set("rank", rank)

    @property
    def passed(self) -> bool:
        # the rank is not read: it is D whenever the 3-design holds
        return (self.kissing_ok is not False and self.min_norm_ok
                and self.venkov5[0] and self.theorem[0])


def certify(spec: LatticeSpec, t_max: int | None = 11, threads: int = 1,
            vectors: VectorSet | None = None) -> Certificate:
    """Every stage, once: enumerate minimal vectors (unless supplied), one
    pair-spectrum pass, the source moment criteria, design strength up to
    t_max (skipped when None), the embedded spectrum folded from the same
    spectrum, its 3-design identity, and an exact rank certificate
    when the half-set has at most _RANK_LINE_MAX points.  Each stage reads
    the whole set: pair_spectrum halves an antipodal set itself, and
    harmonic_rank gives the same rank on it as on any half-set.

    The rank needs no arithmetic when the embedded 3-design holds.  For
    the N embedded unit vectors a_x in Harm_2, of dimension D, and
    S = sum a_x a_x^T (tr S = N), sum (a_x . a_y)^2 = tr S^2 >=
    (tr S)^2 / rank S, the frame-potential bound (Benedetto and Fickus,
    *Finite normalized tight frames*, 2003).  The 3-design identity is
    sum (a_x . a_y)^2 = N^2 / D, so rank S >= D, and rank S <= D as the
    a_x lie in Harm_2 (Delsarte, Goethals and Seidel 1977): the rank is
    D.  harmonic_rank computes it only for a set failing the identity."""
    vs = minimal_vector_set(spec.gram) if vectors is None else vectors
    src = pair_spectrum(vs, threads=threads)
    venkov5 = venkov_5design(src)   # first: it rejects non-antipodal sets
    strength = None if t_max is None else design_strength(src, t_max)
    emb = embed(src)
    theorem = venkov_3design(emb)
    rank = (None if vs.count // 2 > _RANK_LINE_MAX
            else emb.d + 1 if theorem[0] else harmonic_rank(vs))
    return Certificate(
        min_norm=vs.min_norm,
        kissing_ok=(None if spec.expected_kissing is None
                    else vs.count == spec.expected_kissing),
        min_norm_ok=(spec.expected_min_norm is None
                     or vs.min_norm == spec.expected_min_norm),
        source=src, venkov5=venkov5, strength=strength, embedded=emb,
        theorem=theorem, rank=rank)


def embedded_report(emb: PairSpectrum, theorem: tuple[bool, Fraction]) -> dict:
    """JSON-ready embedded code and its 3-design check."""
    is3, lhs = theorem
    return {
        "D": emb.d + 1,
        "code": [emb.d + 1, emb.size, str(emb.a)],
        "spectrum": emb.to_triples(),
        "theorem_check": {"lhs": str(lhs),
                          "rhs": str(moment_target(emb.d, 2))},
        "is_3design": is3,
    }


def verify_lattice(spec: LatticeSpec, t_max: int = 11, threads: int = 1,
                   vectors: VectorSet | None = None) -> dict:
    """The certify pipeline on one lattice as a JSON-ready report dict.

    verdict is PASS only if every certified property holds; the kissing
    count is checked only when the spec expects one.
    """
    cert = certify(spec, t_max=t_max, threads=threads, vectors=vectors)
    d = cert.source.d
    v5, moment2, moment4 = cert.venkov5
    embedded = embedded_report(cert.embedded, cert.theorem)
    if cert.rank is not None:
        # cG is positive definite, so the embedded Gram matrix A is PSD
        # (embedding.harmonic_rank): only its rank is computed
        embedded["rank_certificate"] = {"is_psd": True, "rank": cert.rank}
    return {
        "lattice": spec.name,
        "d": d,
        "N": cert.source.size,
        "min_norm": str(cert.min_norm),
        "kissing_ok": cert.kissing_ok,
        **({} if cert.min_norm_ok else {
            "min_norm_ok": False,
            "expected_min_norm": str(spec.expected_min_norm)}),
        "source_spectrum": cert.source.to_triples(),
        "venkov5": {
            "holds": v5,
            "moment2": str(moment2),
            "moment4": str(moment4),
            "target2": str(moment_target(d, 2)),
            "target4": str(moment_target(d, 4)),
        },
        "design_strength": cert.strength,
        "embedded": embedded,
        "verdict": "PASS" if cert.passed else "FAIL",
    }


class TableRow(Record):
    """One reproduced reference row: status is PASS, FAIL or DATA-REQUIRED,
    and certificate is None when DATA-REQUIRED."""

    __slots__ = ("status", "expected", "certificate", "detail")

    def __init__(self, status: str, expected: ReferenceRow,
                 certificate: Certificate | None = None, detail: str = ""):
        self._set("status", status)
        self._set("expected", expected)
        self._set("certificate", certificate)
        self._set("detail", detail)


def _reproduce_row(ref: ReferenceRow, threads: int) -> TableRow:
    try:
        spec = catalog(ref.lattice)
    except CatalogDataMissing as exc:
        return TableRow(status="DATA-REQUIRED", expected=ref, detail=str(exc))
    # strength only where the table claims one
    t_max = None if ref.source_strength is None else ref.source_strength + 1
    cert = certify(spec, t_max=t_max, threads=threads)
    problems = []
    if not cert.venkov5[0]:
        problems.append("source moment criteria fail")
    src_abs = cert.source.abs_products
    if src_abs != ref.source_abs:
        problems.append(
            f"source products {_abs_str(src_abs)} != "
            f"{_abs_str(ref.source_abs)}")
    is3, lhs = cert.theorem
    if not is3:
        problems.append(f"embedded moment {lhs} != "
                        f"{moment_target(cert.embedded.d, 2)}")
    emb = cert.embedded
    code = (emb.d + 1, emb.size, emb.a)
    if code != (ref.ambient, ref.size, ref.a):
        problems.append(f"embedded code {code_str(*code)} != "
                        f"{code_str(ref.ambient, ref.size, ref.a)}")
    if emb.abs_products != ref.embedded_abs:
        problems.append(
            f"embedded products {_abs_str(emb.abs_products)} != "
            f"{_abs_str(ref.embedded_abs)}")
    if t_max is not None and cert.strength != ref.source_strength:
        problems.append(
            f"design strength {cert.strength} != {ref.source_strength}")

    return TableRow(
        status="FAIL" if problems else "PASS",
        expected=ref,
        certificate=cert,
        detail="; ".join(problems),
    )


def reproduce_table(example: int, threads: int = 1) -> list[TableRow]:
    """Recompute one published table; exact comparison per row."""
    # imported on first use, as by catalog.expectations: verify loads no
    # reference rows
    from .reference_tables import rows_for_example
    return [_reproduce_row(ref, threads) for ref in rows_for_example(example)]


def _abs_str(vals) -> str:
    return "{" + ", ".join(str(v) for v in vals) + "}"


def table_text(rows: list[TableRow]) -> str:
    """Plain-text rendering mirroring the three-column table layout."""
    out = []
    header = f"{'lattice':<9} {'(D, N, a) code':<22} {'|(x,y)|':<22} {'|<Gx,Gy>|':<22} verdict"
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        if row.status == "DATA-REQUIRED":
            out.append(f"{row.expected.lattice:<9} {'':<22} {'':<22} "
                       f"{'':<22} DATA-REQUIRED")
            continue
        src, emb = row.certificate.source, row.certificate.embedded
        code = code_str(emb.d + 1, emb.size, emb.a)
        out.append(
            f"{row.expected.lattice:<9} {code:<22} "
            f"{_abs_str(src.abs_products):<22} "
            f"{_abs_str(emb.abs_products):<22} {row.status}")
        if row.detail:
            out.append(f"          {row.detail}")
    return "\n".join(out)


def table_json(rows: list[TableRow]) -> str:
    payload = []
    for row in rows:
        entry: dict = {
            "lattice": row.expected.lattice,
            "status": row.status,
            "expected": {
                "code": [row.expected.ambient, row.expected.size,
                         str(row.expected.a)],
                "source_abs": [str(v) for v in row.expected.source_abs],
                "embedded_abs": [str(v) for v in row.expected.embedded_abs],
            },
        }
        if row.expected.source_strength is not None:
            entry["expected"]["source_strength"] = row.expected.source_strength
        cert = row.certificate
        if cert is not None:
            emb = cert.embedded
            entry["computed"] = {
                "code": [emb.d + 1, emb.size, str(emb.a)],
                "source_abs": [str(v) for v in cert.source.abs_products],
                "embedded_abs": [str(v) for v in emb.abs_products],
            }
            if cert.strength is not None:
                entry["computed"]["source_strength"] = cert.strength
        if row.detail:
            entry["detail"] = row.detail
        payload.append(entry)
    return json.dumps(payload, indent=2)


def report_text(report: dict) -> str:
    """Human-oriented rendering of a verify_lattice report."""
    lines = [
        f"lattice {report['lattice']}: {report['N']} minimal vectors of "
        f"norm {report['min_norm']} on S^{report['d']}",
    ]
    if report["kissing_ok"] is not None:
        lines.append(f"  kissing count check: "
                     f"{'ok' if report['kissing_ok'] else 'MISMATCH'}")
    if "min_norm_ok" in report:
        lines.append(f"  min norm check: MISMATCH "
                     f"(expected {report['expected_min_norm']})")
    v5 = report["venkov5"]
    lines.append(
        f"  moment criteria: holds={v5['holds']} "
        f"(s^2: {v5['moment2']} vs {v5['target2']}, "
        f"s^4: {v5['moment4']} vs {v5['target4']})")
    lines.append(f"  design strength: {report['design_strength']}")
    emb = report["embedded"]
    lines.append(
        f"  embedded code {code_str(*emb['code'])} in R^{emb['D']}")
    tc = emb["theorem_check"]
    lines.append(
        f"  embedded 3-design: {emb['is_3design']} "
        f"(moment {tc['lhs']} vs {tc['rhs']})")
    if "rank_certificate" in emb:
        rc = emb["rank_certificate"]
        lines.append(
            f"  rank certificate: psd={rc['is_psd']} rank={rc['rank']} "
            f"(dim bound {emb['D']})")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines)
