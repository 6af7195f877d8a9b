"""Run one sphdesign CLI command in-process with span wrappers installed.

    python perfbench/traced_cli.py SPANS_FILE -- CLI ARGS...

Each public function listed in LAYERS is replaced, under every name the
package's modules bind it to (``report.pair_spectrum``,
``cli.minimal_vector_set``, ``enumeration.size_reduce``, ...), by a wrapper
that records a span: name, thread, start, end, parent span and an
optional work count.  Spans stay in memory and are written to SPANS_FILE
as JSON when the command ends.  No file under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time


def _count_rows(args, result):
    return result.count


def _pairs(args, result):
    return args[0].count ** 2


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, work count derived from arguments/result)
LAYERS = (
    ("catalog", "catalog", "catalog.load", None),
    ("catalog", "from_gram_file", "catalog.load", None),
    ("gramfile", "parse_gram", "gramfile.parse_gram", None),
    ("gramfile", "read_vector_set", "gramfile.read_vectors", None),
    ("gramfile", "write_vector_set", "gramfile.write_vectors",
     _file_bytes),
    ("linalg", "ldlt", "linalg.ldlt", None),
    ("linalg", "psd_rank", "linalg.psd_rank", None),
    ("enumeration", "minimal_vector_set", "enumeration.enumerate",
     _count_rows),
    ("enumeration", "size_reduce", "enumeration.reduce", None),
    ("enumeration", "halve_antipodal", "enumeration.halve", None),
    ("enumeration", "VectorSet.validate", "enumeration.validate", None),
    ("spectrum", "pair_spectrum", "spectrum.pair_spectrum", _pairs),
    ("designs", "venkov_5design", "designs.moments", None),
    ("designs", "design_strength", "designs.strength", None),
    ("embedding", "embed", "embedding.embed", None),
    ("embedding", "embedded_gram", "embedding.embedded_gram", _pairs),
    ("report", "verify_lattice", "report.verify", None),
    ("report", "reproduce_table", "report.reproduce", None),
)


class Tracer:
    """In-memory span store; the open-span stack is per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span = {"id": len(self.spans), "name": name,
                        "thread": threading.get_ident(),
                        "parent": stack[-1]["id"] if stack else None}
                self.spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                span["count"] = count(args, result)
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS entry under each name a sphdesign module binds."""
    from sphdesign import cli  # noqa: F401  (imports every module)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "sphdesign" or n.startswith("sphdesign.")]
    for module, attr, name, count in LAYERS:
        owner = sys.modules[f"sphdesign.{module}"]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = tracer.wrap(original, name, count)
        setattr(owner, leaf, wrapper)
        if path:        # a method: the class attribute is the only binding
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def main(argv: list[str]) -> int:
    spans_file, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE -- CLI ARGS...")
    tracer = Tracer()
    install(tracer)
    from sphdesign import cli
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
