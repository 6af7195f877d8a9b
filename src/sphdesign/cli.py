"""Command-line front end.

Subcommands: lattices, minvec, spectrum, verify, embed, reproduce,
export-coords.  Exit codes: 0 success or PASS, 1 verification FAIL,
2 usage or data error.  All numeric output is exact rational notation
unless --decimal is given.  Output is deterministic: the same flags and
seed produce byte-identical output, and --threads never changes results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .catalog import (
    _CATALOG,
    CatalogError,
    LatticeSpec,
    available_names,
    catalog,
    catalog_names,
    from_gram_file,
)
from .embedding import MATRIX_CAP, embed, realize_coordinates, theorem_check
from .enumeration import VectorSet, halve_antipodal, minimal_vector_set
from .gramfile import format_rational, read_vector_set, write_vector_set
from .report import (
    code_params,
    embedded_report,
    report_text,
    reproduce_table,
    table_json,
    table_text,
    verify_lattice,
)
from .spectrum import pair_spectrum

_THREADS_ENV = "SPHDESIGN_THREADS"


def _default_threads() -> int:
    raw = os.environ.get(_THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return n if n >= 1 else 1


def _decimal_str(x: Fraction, places: int) -> str:
    """Fixed-point decimal expansion of x, exact integer arithmetic."""
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    whole, rem = divmod(num, den)
    digits = (rem * 10 ** places) // den
    return f"{sign}{whole}.{digits:0{places}d}" if places else f"{sign}{whole}"


def _render(x: Fraction, decimal: int | None) -> str:
    if decimal is None:
        return format_rational(x)
    return _decimal_str(x, decimal)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


# ---------------------------------------------------------------------------
# input resolution

def _load_vector_file(path: str, gram=None) -> VectorSet:
    rank, _, min_norm, vecs = read_vector_set(path)
    if gram is None:
        from .linalg import GramMatrix
        gram = GramMatrix.identity(rank)
    coords = np.array(vecs, dtype=np.int64).reshape(len(vecs), rank)
    seen = {tuple(v) for v in vecs}
    antipodal = all(tuple(-x for x in v) in seen for v in seen)
    vs = VectorSet(gram=gram, min_norm=min_norm, coords=coords,
                   antipodal=antipodal)
    vs.validate()
    return vs


def _resolve_input(args) -> tuple[LatticeSpec, VectorSet | None]:
    """Apply the one-input-source rule and return (spec, optional vectors).

    A vector-set file given alone is interpreted in the standard basis
    (identity form); given next to a lattice source it supplies
    pre-enumerated coordinates for that form.
    """
    lattice = getattr(args, "lattice", None)
    gram_file = getattr(args, "gram_file", None)
    vectors = getattr(args, "vectors", None)
    if lattice and gram_file:
        raise UsageError("--lattice and --gram-file are mutually exclusive")
    if not (lattice or gram_file or vectors):
        raise UsageError("one of --lattice, --gram-file or --vectors is required")
    if lattice:
        spec = catalog(lattice)
    elif gram_file:
        spec = from_gram_file(gram_file)
    else:
        vs = _load_vector_file(vectors)
        spec = LatticeSpec(name=Path(vectors).stem, gram=vs.gram)
        return spec, vs
    vs = _load_vector_file(vectors, gram=spec.gram) if vectors else None
    return spec, vs


def _vector_set(args) -> tuple[LatticeSpec, VectorSet]:
    spec, vs = _resolve_input(args)
    if vs is None:
        vs = minimal_vector_set(spec.gram, expected_kissing=None)
    return spec, vs


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# subcommands

def _cmd_lattices(args) -> int:
    rows = []
    have = set(available_names())
    for name in catalog_names():
        _, kissing, min_norm = _CATALOG[name]
        rows.append({
            "name": name,
            "available": name in have,
            "expected_kissing": kissing,
            "expected_min_norm": format_rational(min_norm) if min_norm else None,
        })
    if args.format == "json":
        _write_or_print(json.dumps(rows, indent=2), args.out)
    else:
        lines = []
        for r in rows:
            status = "available" if r["available"] else "data required"
            kiss = f"kissing {r['expected_kissing']}" if r["expected_kissing"] else ""
            lines.append(f"{r['name']:<8} {status:<14} {kiss}".rstrip())
        _write_or_print("\n".join(lines), args.out)
    return 0


def _cmd_minvec(args) -> int:
    spec, vs = _vector_set(args)
    if args.out:
        write_vector_set(args.out, vs.rank, vs.min_norm, vs.as_tuples())
    if args.format == "json":
        payload = {
            "lattice": spec.name,
            "rank": vs.rank,
            "min_norm": format_rational(vs.min_norm),
            "count": vs.count,
        }
        if args.out:
            payload["out"] = args.out
        print(json.dumps(payload, indent=2))
    else:
        print(f"min_norm {format_rational(vs.min_norm)}, {vs.count} vectors")
        if args.out:
            print(f"wrote {vs.count} vectors to {args.out}")
    return 0


def _spectrum_lines(entries, decimal) -> list[str]:
    return [f"{_render(s, decimal)} {c}" for s, c in entries]


def _cmd_spectrum(args) -> int:
    spec, vs = _vector_set(args)
    sp = pair_spectrum(vs, threads=args.threads)
    if args.format == "json":
        payload = {
            "lattice": spec.name,
            "d": sp.d,
            "size": sp.size,
            "antipodal": sp.antipodal,
            "entries": sp.to_triples(),
        }
        _write_or_print(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"pair spectrum of {sp.size} points on S^{sp.d}"]
        lines += _spectrum_lines(sp.entries, args.decimal)
        _write_or_print("\n".join(lines), args.out)
    return 0


def _cmd_verify(args) -> int:
    spec, vs = _resolve_input(args)
    report = verify_lattice(spec, t_max=args.t_max, threads=args.threads,
                            matrix_cap=args.matrix_cap, vectors=vs,
                            seed=args.seed)
    if args.format == "json":
        _write_or_print(json.dumps(report, indent=2), args.out)
    else:
        _write_or_print(report_text(report), args.out)
    return 0 if report["verdict"] == "PASS" else 1


def _cmd_embed(args) -> int:
    spec, vs = _vector_set(args)
    emb = embed(pair_spectrum(vs, threads=args.threads))
    ok, lhs, rhs = theorem = theorem_check(emb)
    cp = code_params(emb)
    if args.format == "json":
        payload = {"lattice": spec.name, **embedded_report(emb, cp, theorem)}
        _write_or_print(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"embedded code ({cp.ambient}, {cp.size}, "
            f"{_render(cp.a, args.decimal)}) on S^{emb.target_D - 1}",
            f"3-design: {ok} (moment {_render(lhs, args.decimal)} vs "
            f"{_render(rhs, args.decimal)})",
        ]
        lines += _spectrum_lines(emb.spectrum.entries, args.decimal)
        _write_or_print("\n".join(lines), args.out)
    return 0 if ok else 1


def _cmd_reproduce(args) -> int:
    rows = reproduce_table(args.example, threads=args.threads)
    if args.format == "json":
        _write_or_print(table_json(rows), args.out)
    else:
        _write_or_print(table_text(rows), args.out)
    return 1 if any(r.status == "FAIL" for r in rows) else 0


def _cmd_export_coords(args) -> int:
    spec, vs = _vector_set(args)
    halved = halve_antipodal(vs, seed=args.seed) if vs.antipodal else vs
    precision = args.decimal if args.decimal is not None else 12
    coords = realize_coordinates(halved, precision=precision,
                                 cap=args.matrix_cap)
    dim = len(coords[0]) if coords else 0
    lines = [f"{dim} {len(coords)}"]
    lines += [" ".join(f"{x:.{precision}f}" for x in row) for row in coords]
    body = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(body + "\n")
        print(f"wrote {len(coords)} coordinate rows ({spec.name}) to {args.out}")
    else:
        print(body)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_input_flags(p: argparse.ArgumentParser, with_vectors: bool = True) -> None:
    p.add_argument("--lattice", metavar="NAME",
                   help="catalog lattice name (see: sphdesign lattices)")
    p.add_argument("--gram-file", metavar="PATH",
                   help="Gram matrix file (rational entries)")
    if with_vectors:
        p.add_argument("--vectors", metavar="PATH",
                       help="vector-set file; alone it implies the identity form")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH", help="write output to a file")
    p.add_argument("--threads", type=int, default=_default_threads(),
                   metavar="N", help=f"worker threads (env {_THREADS_ENV})")
    p.add_argument("--decimal", type=int, metavar="K", default=None,
                   help="render decimals with K places instead of rationals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphdesign",
        description="Exact certification of spherical designs from lattice "
                    "minimal vectors and their quadratic-harmonic embedding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattices", help="list the built-in lattice catalog")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_lattices)

    p = sub.add_parser("minvec", help="enumerate minimal vectors")
    _add_input_flags(p, with_vectors=False)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_minvec)

    p = sub.add_parser("spectrum", help="exact pairwise inner-product spectrum")
    _add_input_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="full design certification report")
    _add_input_flags(p)
    _add_common_flags(p)
    p.add_argument("--t-max", type=int, default=11, metavar="T",
                   help="largest design strength to test (default 11)")
    p.add_argument("--seed", type=int, default=None,
                   help="randomize the half-set of the rank certificate")
    p.add_argument("--matrix-cap", type=int, default=MATRIX_CAP, metavar="M",
                   help="max point count for the exact rank certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("embed", help="embed the set and test the 3-design")
    _add_input_flags(p)
    _add_common_flags(p)
    p.add_argument("--seed", type=int, default=None,
                   help="unused: the embedded code is the same for any half-set")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("reproduce", help="recompute a published example table")
    p.add_argument("--example", type=int, required=True, choices=(1, 2, 3))
    _add_common_flags(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("export-coords",
                       help="write verified unit-vector coordinates for the "
                            "embedded code")
    _add_input_flags(p)
    _add_common_flags(p)
    p.add_argument("--seed", type=int, default=None,
                   help="randomize the antipodal halving")
    p.add_argument("--matrix-cap", type=int, default=MATRIX_CAP, metavar="M")
    p.set_defaults(func=_cmd_export_coords)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (CatalogError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
