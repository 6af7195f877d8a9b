"""Spherical-code parameters, the certify pipeline and its two views.

certify() runs every stage once per lattice and returns exact quantities
only.  The verification report renders them, with JSON writing every
rational as a "p/q" string so nothing is rounded on the way out.  Table
reproduction compares them to the stored reference rows with exact
equality and emits PASS/FAIL (or DATA-REQUIRED when a catalog Gram file is
not shipped).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .catalog import CatalogDataMissing, LatticeSpec, catalog
from .designs import design_strength, moment_target, venkov_5design
from .embedding import (
    MATRIX_CAP,
    EmbeddedSpectrum,
    embed,
    embedded_gram,
    theorem_check,
)
from .enumeration import (
    NotAntipodalError,
    VectorSet,
    halve_antipodal,
    minimal_vector_set,
)
from .reference_tables import ReferenceRow, rows_for_example
from .spectrum import PairSpectrum, pair_spectrum


@dataclass(frozen=True)
class CodeParams:
    """Antipodal spherical code parameters (ambient dim, N, max product)."""

    ambient: int
    size: int
    a: Fraction
    spectrum_abs: tuple[Fraction, ...]
    antipodal: bool = True

    def as_tuple(self) -> tuple[int, int, Fraction]:
        return (self.ambient, self.size, self.a)


def code_params(spec: PairSpectrum | EmbeddedSpectrum) -> CodeParams:
    """Code parameters of an antipodal set: s = +-1 pairs (self/antipodal)
    are excluded, the rest enter by absolute value."""
    if isinstance(spec, EmbeddedSpectrum):
        spec = spec.spectrum
    if not spec.antipodal:
        raise NotAntipodalError("code parameters are defined for antipodal sets")
    vals = sorted({abs(s) for s, _ in spec.entries if abs(s) != 1})
    a = max(vals, default=Fraction(0))
    return CodeParams(ambient=spec.d + 1, size=spec.size, a=a,
                      spectrum_abs=tuple(vals))


def _frac(x: Fraction) -> str:
    return str(Fraction(x))


@dataclass(frozen=True)
class Certificate:
    """Exact results of the certify pipeline for one lattice."""

    min_norm: Fraction
    kissing_ok: bool | None                   # None when no count is expected
    min_norm_ok: bool
    source: PairSpectrum
    source_code: CodeParams
    venkov5: tuple[bool, Fraction, Fraction]  # (holds, moment2, moment4)
    strength: int | None                      # None when not requested
    embedded: EmbeddedSpectrum
    embedded_code: CodeParams
    theorem: tuple[bool, Fraction, Fraction]  # (is_3design, lhs, rhs)
    rank: tuple[bool, int] | None             # (is_psd, rank); None over cap

    @property
    def passed(self) -> bool:
        # rank_certificate() raises when the rank exceeds dim Harm
        return (self.kissing_ok is not False and self.min_norm_ok
                and self.venkov5[0] and self.theorem[0]
                and (self.rank is None or self.rank[0]))


def certify(spec: LatticeSpec, t_max: int | None = 11, threads: int = 1,
            matrix_cap: int = MATRIX_CAP, vectors: VectorSet | None = None,
            seed: int | None = None) -> Certificate:
    """Every stage, once: enumerate minimal vectors (unless supplied), one
    pair-spectrum pass, the source moment criteria, design strength up to
    t_max (skipped when None), the embedded spectrum folded from the same
    spectrum, its 3-design identity, and an exact PSD rank certificate
    when the half-set (picked by seed) fits the matrix cap."""
    vs = minimal_vector_set(spec.gram) if vectors is None else vectors
    src = pair_spectrum(vs, threads=threads)
    venkov5 = venkov_5design(src)   # first: it rejects non-antipodal sets
    strength = None if t_max is None else design_strength(src, t_max)
    emb = embed(src)
    rank = None
    if vs.count // 2 <= matrix_cap:
        eg = embedded_gram(halve_antipodal(vs, seed=seed), cap=matrix_cap)
        rank = eg.rank_certificate()
    return Certificate(
        min_norm=vs.min_norm,
        kissing_ok=(None if spec.expected_kissing is None
                    else vs.count == spec.expected_kissing),
        min_norm_ok=(spec.expected_min_norm is None
                     or vs.min_norm == spec.expected_min_norm),
        source=src, source_code=code_params(src), venkov5=venkov5,
        strength=strength, embedded=emb, embedded_code=code_params(emb),
        theorem=theorem_check(emb), rank=rank)


def embedded_report(emb: EmbeddedSpectrum, code: CodeParams,
                    theorem: tuple[bool, Fraction, Fraction]) -> dict:
    """JSON-ready embedded code and its 3-design check."""
    is3, lhs, rhs = theorem
    return {
        "D": emb.target_D,
        "code": [code.ambient, code.size, _frac(code.a)],
        "spectrum": emb.spectrum.to_triples(),
        "theorem_check": {"lhs": _frac(lhs), "rhs": _frac(rhs)},
        "is_3design": is3,
    }


def verify_lattice(spec: LatticeSpec, t_max: int = 11, threads: int = 1,
                   matrix_cap: int = MATRIX_CAP,
                   vectors: VectorSet | None = None,
                   seed: int | None = None) -> dict:
    """The certify pipeline on one lattice as a JSON-ready report dict.

    verdict is PASS only if every certified property holds; the kissing
    count is checked only when the spec expects one.
    """
    cert = certify(spec, t_max=t_max, threads=threads, matrix_cap=matrix_cap,
                   vectors=vectors, seed=seed)
    d = cert.source.d
    v5, moment2, moment4 = cert.venkov5
    embedded = embedded_report(cert.embedded, cert.embedded_code,
                               cert.theorem)
    if cert.rank is not None:
        is_psd, rank = cert.rank
        embedded["rank_certificate"] = {"is_psd": is_psd, "rank": rank}
    return {
        "lattice": spec.name,
        "d": d,
        "N": cert.source.size,
        "min_norm": _frac(cert.min_norm),
        "kissing_ok": cert.kissing_ok,
        "source_spectrum": cert.source.to_triples(),
        "venkov5": {
            "holds": v5,
            "moment2": _frac(moment2),
            "moment4": _frac(moment4),
            "target2": _frac(moment_target(d, 2)),
            "target4": _frac(moment_target(d, 4)),
        },
        "design_strength": cert.strength,
        "embedded": embedded,
        "verdict": "PASS" if cert.passed else "FAIL",
    }


@dataclass(frozen=True)
class TableRow:
    lattice: str
    status: str                      # PASS | FAIL | DATA-REQUIRED
    expected: ReferenceRow
    computed_code: tuple[int, int, Fraction] | None = None
    computed_source_abs: tuple[Fraction, ...] | None = None
    computed_embedded_abs: tuple[Fraction, ...] | None = None
    computed_strength: int | None = None
    detail: str = ""


def _reproduce_row(ref: ReferenceRow, threads: int) -> TableRow:
    try:
        spec = catalog(ref.lattice)
    except CatalogDataMissing as exc:
        return TableRow(lattice=ref.lattice, status="DATA-REQUIRED",
                        expected=ref, detail=str(exc))
    # strength only where the table claims one; no rank certificate
    t_max = None if ref.source_strength is None else ref.source_strength + 1
    cert = certify(spec, t_max=t_max, threads=threads, matrix_cap=0)
    problems = []
    if cert.source.size != ref.size:
        problems.append(f"kissing {cert.source.size} != {ref.size}")
    if not cert.venkov5[0]:
        problems.append("source moment criteria fail")
    src_abs = cert.source_code.spectrum_abs
    if src_abs != ref.source_abs:
        problems.append(
            f"source products {_abs_str(src_abs)} != "
            f"{_abs_str(ref.source_abs)}")
    is3, lhs, rhs = cert.theorem
    if not is3:
        problems.append(f"embedded moment {lhs} != {rhs}")
    emb_code = cert.embedded_code
    if emb_code.as_tuple() != (ref.ambient, ref.size, ref.a):
        problems.append(
            f"embedded code {emb_code.as_tuple()} != "
            f"({ref.ambient}, {ref.size}, {ref.a})")
    if emb_code.spectrum_abs != ref.embedded_abs:
        problems.append(
            f"embedded products {_abs_str(emb_code.spectrum_abs)} != "
            f"{_abs_str(ref.embedded_abs)}")
    if t_max is not None and cert.strength != ref.source_strength:
        problems.append(
            f"design strength {cert.strength} != {ref.source_strength}")

    return TableRow(
        lattice=ref.lattice,
        status="FAIL" if problems else "PASS",
        expected=ref,
        computed_code=emb_code.as_tuple(),
        computed_source_abs=src_abs,
        computed_embedded_abs=emb_code.spectrum_abs,
        computed_strength=cert.strength,
        detail="; ".join(problems),
    )


def reproduce_table(example: int, threads: int = 1) -> list[TableRow]:
    """Recompute one published table; exact comparison per row."""
    return [_reproduce_row(ref, threads) for ref in rows_for_example(example)]


def _abs_str(vals) -> str:
    return "{" + ", ".join(str(v) for v in vals) + "}"


def _code_str(code) -> str:
    ambient, size, a = code
    return f"({ambient}, {size}, {a})"


def table_text(rows: list[TableRow]) -> str:
    """Plain-text rendering mirroring the three-column table layout."""
    out = []
    header = f"{'lattice':<9} {'(D, N, a) code':<22} {'|(x,y)|':<22} {'|<Gx,Gy>|':<22} verdict"
    out.append(header)
    out.append("-" * len(header))
    for row in rows:
        if row.status == "DATA-REQUIRED":
            out.append(f"{row.lattice:<9} {'':<22} {'':<22} {'':<22} DATA-REQUIRED")
            continue
        out.append(
            f"{row.lattice:<9} {_code_str(row.computed_code):<22} "
            f"{_abs_str(row.computed_source_abs):<22} "
            f"{_abs_str(row.computed_embedded_abs):<22} {row.status}")
        if row.detail:
            out.append(f"          {row.detail}")
    return "\n".join(out)


def table_json(rows: list[TableRow]) -> str:
    payload = []
    for row in rows:
        entry: dict = {
            "lattice": row.lattice,
            "status": row.status,
            "expected": {
                "code": [row.expected.ambient, row.expected.size,
                         _frac(row.expected.a)],
                "source_abs": [_frac(v) for v in row.expected.source_abs],
                "embedded_abs": [_frac(v) for v in row.expected.embedded_abs],
            },
        }
        if row.expected.source_strength is not None:
            entry["expected"]["source_strength"] = row.expected.source_strength
        if row.computed_code is not None:
            entry["computed"] = {
                "code": [row.computed_code[0], row.computed_code[1],
                         _frac(row.computed_code[2])],
                "source_abs": [_frac(v) for v in row.computed_source_abs],
                "embedded_abs": [_frac(v) for v in row.computed_embedded_abs],
            }
            if row.computed_strength is not None:
                entry["computed"]["source_strength"] = row.computed_strength
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
    v5 = report["venkov5"]
    lines.append(
        f"  moment criteria: holds={v5['holds']} "
        f"(s^2: {v5['moment2']} vs {v5['target2']}, "
        f"s^4: {v5['moment4']} vs {v5['target4']})")
    lines.append(f"  design strength: {report['design_strength']}")
    emb = report["embedded"]
    lines.append(
        f"  embedded code ({emb['code'][0]}, {emb['code'][1]}, {emb['code'][2]}) "
        f"in R^{emb['D']}")
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
