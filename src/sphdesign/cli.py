"""Command-line front end.

Subcommands: lattices, minvec, spectrum, verify, embed, reproduce,
export-coords.  Exit codes: 0 success or PASS, 1 verification FAIL,
2 usage or data error, 3 unexpected internal error (one line, no
traceback).  All numeric output is exact rational notation
unless --decimal is given.  Output is deterministic: the same flags
produce byte-identical output, and --threads never changes results.
Every setting is a flag; the CLI reads no environment variable.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from pathlib import Path

# eager on purpose: perfbench/traced_cli.py wraps every module after importing cli
from .catalog import (
    CatalogError,
    LatticeSpec,
    available_names,
    catalog,
    catalog_names,
    expectations,
    from_gram_file,
)
from .designs import moment_target, venkov_3design
from .embedding import embed
from .enumeration import VectorSet, minimal_vector_set
from .gramfile import read_vector_set, write_vector_set
from .report import (
    code_str,
    embedded_report,
    report_text,
    reproduce_table,
    table_json,
    table_text,
    verify_lattice,
)
from .spectrum import pair_spectrum

# --decimal bounds the output: K digits per rendered number
MAX_PLACES = 10_000
# digits per int-to-str conversion, under the interpreter's smallest
# nonzero int_max_str_digits (640), so no K trips that limit
_DIGIT_CHUNK = 600


def _int_at_least(lo: int, hi: int | None = None):
    """Type of an int flag written in the digits 0-9 alone: --threads
    N >= 1 (a worker count), --t-max T >= 1 (a design strength),
    --example N >= 1 (a table, then checked against its choices) and
    --decimal K, lo <= K <= hi (a count of places)."""
    def parse(text: str) -> int:
        digits = text.isascii() and text.isdecimal()
        # int() of a digit string past the interpreter's str-to-int limit
        # raises, so a bound is tested on the length first
        if digits and hi is not None and (
                len(text.lstrip("0")) > len(str(hi)) or int(text) > hi):
            raise argparse.ArgumentTypeError(
                f"at most {hi} places, got {text!r}")
        try:
            n = int(text) if digits else lo - 1
        except ValueError:
            n = lo - 1
        if n < lo:
            raise argparse.ArgumentTypeError(
                f"expected an int >= {lo}, got {text!r}")
        return n
    return parse


def _decimal_str(x: Fraction, places: int) -> str:
    """Fixed-point decimal expansion of x truncated to places digits,
    exact integer long division, _DIGIT_CHUNK digits at a time."""
    sign = "-" if x < 0 else ""
    num, den = abs(x.numerator), x.denominator
    whole, rem = divmod(num, den)
    out = [f"{sign}{whole}", "." if places else ""]
    while places:
        k = min(places, _DIGIT_CHUNK)
        digits, rem = divmod(rem * 10 ** k, den)
        out.append(f"{digits:0{k}d}")
        places -= k
    return "".join(out)


def _render(x: Fraction, decimal: int | None) -> str:
    if decimal is None:
        return str(x)
    return _decimal_str(x, decimal)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + "\n")


# ---------------------------------------------------------------------------
# input resolution

def _load_vector_file(path: str, gram=None) -> VectorSet:
    # the set is held as an array, so the array code will run: compiled
    # before numpy's import, its transient memory stays off the peak RSS
    from . import _arrays   # noqa: F401
    rank, _, min_norm, coords = read_vector_set(path)
    if gram is None:
        from .linalg import GramMatrix
        gram = GramMatrix.identity(rank)
    vs = VectorSet(gram=gram, min_norm=min_norm, coords=coords)
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
        vs = minimal_vector_set(spec.gram)
    return spec, vs


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# subcommands

def _cmd_lattices(args) -> int:
    rows = []
    have = set(available_names())
    for name in catalog_names():
        kissing, min_norm = expectations(name)
        rows.append({
            "name": name,
            "available": name in have,
            "expected_kissing": kissing,
            "expected_min_norm": str(min_norm) if min_norm else None,
        })
    if args.format == "json":
        _write_or_print(json.dumps(rows, indent=2), args.out)
    else:
        lines = []
        for r in rows:
            status = "available" if r["available"] else "data required"
            lines.append(f"{r['name']:<8} {status:<14} "
                         f"kissing {r['expected_kissing']}")
        _write_or_print("\n".join(lines), args.out)
    return 0


def _cmd_minvec(args) -> int:
    spec, vs = _vector_set(args)
    if args.out:
        write_vector_set(args.out, vs.rank, vs.min_norm, vs.coords)
    if args.format == "json":
        payload = {
            "lattice": spec.name,
            "rank": vs.rank,
            "min_norm": str(vs.min_norm),
            "count": vs.count,
        }
        if args.out:
            payload["out"] = args.out
        print(json.dumps(payload, indent=2))
    else:
        print(f"min_norm {vs.min_norm}, {vs.count} vectors")
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
                            vectors=vs)
    if args.format == "json":
        _write_or_print(json.dumps(report, indent=2), args.out)
    else:
        _write_or_print(report_text(report), args.out)
    return 0 if report["verdict"] == "PASS" else 1


def _cmd_embed(args) -> int:
    spec, vs = _vector_set(args)
    emb = embed(pair_spectrum(vs, threads=args.threads))
    ok, lhs = theorem = venkov_3design(emb)
    if args.format == "json":
        payload = {"lattice": spec.name, **embedded_report(emb, theorem)}
        _write_or_print(json.dumps(payload, indent=2), args.out)
    else:
        code = code_str(emb.d + 1, emb.size, _render(emb.a, args.decimal))
        lines = [
            f"embedded code {code} on S^{emb.d}",
            f"3-design: {ok} (moment {_render(lhs, args.decimal)} vs "
            f"{_render(moment_target(emb.d, 2), args.decimal)})",
        ]
        lines += _spectrum_lines(emb.entries, args.decimal)
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
    from ._arrays import realize_coordinates    # imported on first use
    spec, vs = _vector_set(args)
    precision = args.decimal
    coords = realize_coordinates(vs, precision=precision)
    dim = len(coords[0]) if coords else 0
    lines = [f"{dim} {len(coords)}"]
    lines += [" ".join(f"{x:.{precision}f}" for x in row) for row in coords]
    _write_or_print("\n".join(lines), args.out)
    if args.out is not None:
        print(f"wrote {len(coords)} coordinate rows ({spec.name}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    """Add the named shared flags to subparser p."""
    defs = {
        "--lattice": dict(metavar="NAME",
                          help="catalog lattice name (see: sphdesign lattices)"),
        "--gram-file": dict(metavar="PATH",
                            help="Gram matrix file (rational entries)"),
        "--vectors": dict(metavar="PATH", help="vector-set file; alone it "
                                               "implies the identity form"),
        "--format": dict(choices=("text", "json"), default="text"),
        "--out": dict(metavar="PATH", help="write output to a file"),
        "--threads": dict(type=_int_at_least(1), metavar="N", default=1,
                          help="worker threads (default 1)"),
        "--decimal": dict(type=_int_at_least(0, MAX_PLACES), metavar="K",
                          help="render decimals with K places instead of "
                               "rationals"),
    }
    for flag in flags:
        p.add_argument(flag, **defs[flag])


_INPUT = ("--lattice", "--gram-file", "--vectors")
_REPORT = ("--format", "--out", "--threads")


def build_parser() -> argparse.ArgumentParser:
    """Each subparser takes only the flags its handler reads
    (tests/test_cli_options.py), save minvec --threads: perfbench passes
    it on its minvec command lines, so it is accepted and unused."""
    parser = argparse.ArgumentParser(
        prog="sphdesign",
        description="Exact certification of spherical designs from lattice "
                    "minimal vectors and their quadratic-harmonic embedding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattices", help="list the built-in lattice catalog")
    _add_flags(p, "--format", "--out")
    p.set_defaults(func=_cmd_lattices)

    p = sub.add_parser("minvec", help="enumerate minimal vectors")
    _add_flags(p, "--lattice", "--gram-file", *_REPORT)
    p.set_defaults(func=_cmd_minvec)

    p = sub.add_parser("spectrum", help="exact pairwise inner-product spectrum")
    _add_flags(p, *_INPUT, *_REPORT, "--decimal")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="full design certification report")
    _add_flags(p, *_INPUT, *_REPORT)
    p.add_argument("--t-max", type=_int_at_least(1), default=11, metavar="T",
                   help="largest design strength to test (default 11)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("embed", help="embed the set and test the 3-design")
    _add_flags(p, *_INPUT, *_REPORT, "--decimal")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("reproduce", help="recompute a published example table")
    p.add_argument("--example", type=_int_at_least(1), required=True,
                   choices=(1, 2, 3))
    _add_flags(p, *_REPORT)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("export-coords",
                       help="write verified unit-vector coordinates for the "
                            "embedded code")
    _add_flags(p, *_INPUT, "--out")
    p.add_argument("--decimal", type=_int_at_least(0, MAX_PLACES),
                   metavar="K", default=12,
                   help="places per coordinate, and the realization "
                        "tolerance 10^-K (default 12)")
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
    except Exception as exc:
        # a fault of the program, not of the input: exit 1 is kept for a
        # verification FAIL, so report it on one line as exit 3
        detail = " ".join(str(exc).split())
        print(f"error: internal {type(exc).__name__}"
              + (f": {detail}" if detail else ""), file=sys.stderr)
        return 3


def run() -> None:
    """main() as a whole process, the `sphdesign` command and
    `python -m sphdesign.cli`: the cyclic collector is off for the run
    and the heap is frozen before the interpreter finalizes.

    A command leaves a few hundred cyclic objects (the argparse parser)
    whatever the lattice, so the collector has nothing to reclaim in a
    one-shot process; its passes over numpy's and the package's objects,
    during numpy's import and again at finalization, cost tens of ms per
    command.  tests/test_imports.py bounds that residue.  main() itself
    leaves the collector alone, so tests and importers keep it."""
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
