"""Import contract: the CLI loads every traced package module but no
array-only code (sphdesign._arrays), no reference rows and no
dataclasses; numpy and the array module load only when a command
computes on arrays, and the spectrum workers need no thread pool.  The
small lattices, from A2 to CT12, run without either: every command of
the certify-small benchmark workload but `reproduce --example 2`, which
enumerates BW16.
Process contract: the CLI process runs without the cyclic collector,
main() in any other process leaves it as it was.

Each case runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphdesign
from sphdesign.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(sphdesign.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")

# runs the CLI on argv[2:] and prints, as the last stdout line, the exit
# code, the numpy modules loaded, the pool and logging modules loaded, the
# number of threads started and whether the array module was loaded.
# argv[1] is "-", or the rows per spectrum stripe, set with one stripe per
# worker (so a tiny set can span several workers), which loads the array
# module first
_PROBE = """
import json, sys, threading
from sphdesign import cli
if sys.argv[1] != "-":
    from sphdesign import _arrays
    _arrays._BLOCK = int(sys.argv[1])
    _arrays._STRIPES_PER_WORKER = 1
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: (started.append(self), start(self))[1]
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
loaded = lambda name: sorted(m for m in sys.modules
                             if m == name or m.startswith(name + "."))
print(json.dumps([code, loaded("numpy"),
                  loaded("concurrent.futures") + loaded("logging"),
                  len(started), loaded("sphdesign._arrays")]))
"""

# modules a small command has no use for: dataclasses (and the inspect
# module it imports), the reference rows, and the array-only code
_SMALL_UNUSED = ("dataclasses", "inspect", "sphdesign.reference_tables",
                 "sphdesign._arrays")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=ENV,
                          timeout=120)


def _cli(*args: str,
         block: int | None = None) -> tuple[int, list, list, int, list]:
    r = _python(_PROBE, "-" if block is None else str(block), *args)
    assert r.returncode == 0, r.stderr
    return tuple(json.loads(r.stdout.splitlines()[-1]))


def _perfbench(name: str, monkeypatch):
    """A module of perfbench/, loaded by path and listed in sys.modules
    for the test, where its imports and dataclasses look modules up."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _traced_modules(monkeypatch) -> set[str]:
    traced_cli = _perfbench("traced_cli", monkeypatch)
    return {f"sphdesign.{module}" for module, *_ in traced_cli.LAYERS}


def test_cli_import_loads_every_traced_module_and_no_numpy(monkeypatch):
    wanted = _traced_modules(monkeypatch)
    r = _python("import json, sys, sphdesign.cli; "
                "print(json.dumps(sorted(sys.modules)))")
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout))
    assert wanted <= loaded, sorted(wanted - loaded)
    unwanted = [m for m in loaded
                if m.split(".")[0] in ("numpy", "logging")
                or m.startswith("concurrent.futures")]
    assert unwanted == []


@pytest.mark.parametrize("args, code", [
    (["lattices"], 0),
    (["lattices", "--format", "json"], 0),
    (["--help"], 0),
    (["verify"], 2),
    (["verify", "--lattice", "NOPE"], 2),
], ids=["lattices", "lattices-json", "help", "verify-no-input",
        "verify-unknown-lattice"])
def test_commands_that_compute_nothing_never_load_numpy(args, code):
    assert _cli(*args) == (code, [], [], 0, [])


def test_a_computing_command_loads_numpy_but_no_pool(tmp_path):
    # a vector file is held as an array; one-row stripes split the twelve
    # halved rows of the D4 roots +-e_i +- e_j between two workers
    roots = [v for v in itertools.product((-1, 0, 1), repeat=4)
             if sum(map(abs, v)) == 2]
    path = tmp_path / "d4.vecs"
    path.write_text(f"4 {len(roots)} 2\n"
                    + "".join(" ".join(map(str, v)) + "\n" for v in roots))
    code, numpy, pool, threads, _ = _cli("verify", "--vectors", str(path),
                                         "--threads", "2", block=1)
    assert code == 0
    assert "numpy" in numpy
    assert pool == [] and threads == 1


def test_certify_small_runs_without_numpy(monkeypatch):
    # the benchmark's own command lines, read from perfbench/workloads.py
    checks = _perfbench("checks", monkeypatch)
    workloads = _perfbench("workloads", monkeypatch)
    exp = checks.Expectations(checks.load_reference_rows())
    argvs = [op.argv for op in workloads.certify_small(None, exp, 0)]
    assert len(argvs) == 10
    # BW16 is enumerated and counted by numpy
    heavy = ["reproduce", "--example", "2"]
    assert sum(argv[:3] == heavy for argv in argvs) == 1
    for argv in argvs:
        if argv[:3] != heavy:
            assert _cli(*argv) == (0, [], [], 0, []), argv
        else:
            assert _cli(*argv)[4] == ["sphdesign._arrays"]


def test_small_lattice_commands_run_without_numpy(tmp_path):
    from test_golden import VECTOR_FILES
    out = tmp_path / "E8.vecs"
    for args in (["minvec", "--lattice", "E8", "--out", str(out)],
                 ["spectrum", "--lattice", "E8", "--format", "json"],
                 ["embed", "--lattice", "E8"]):
        assert _cli(*args) == (0, [], [], 0, []), args
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == VECTOR_FILES["E8"]


def test_cli_import_loads_no_dataclasses_reference_rows_or_array_code():
    r = _python("import json, sys, sphdesign.cli; "
                "print(json.dumps(sorted(sys.modules)))")
    assert r.returncode == 0, r.stderr
    assert set(_SMALL_UNUSED).isdisjoint(json.loads(r.stdout))


def test_gram_file_verify_loads_no_dataclasses(tmp_path):
    # a Gram file carries no reference row, so nothing loads dataclasses
    path = tmp_path / "a2.gram"
    path.write_text("2\n2 -1\n-1 2\n")
    r = _python("""
import json, sys
from sphdesign import cli
code = cli.main(["verify", "--gram-file", sys.argv[1]])
print(json.dumps([code, sorted(set(sys.argv[2:]) & set(sys.modules))]))
""", str(path), *_SMALL_UNUSED)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1]) == [0, []]


def test_reference_rows_load_standalone_and_take_replace(monkeypatch):
    # perfbench/checks.py loads reference_tables.py as a plain file, and
    # the self-test of perfbench/run.py builds a corrupted row with
    # dataclasses.replace: both need ReferenceRow to stay a dataclass
    checks = _perfbench("checks", monkeypatch)
    rows = checks.load_reference_rows()
    a2 = rows[0]
    assert type(a2).__module__ == "_reference_tables"
    assert (a2.lattice, a2.size) == ("A2", 6)
    bad = dataclasses.replace(a2, size=a2.size + 1)
    assert (bad.lattice, bad.size) == ("A2", 7) and bad != a2


def test_first_numpy_use_from_two_threads_at_once():
    r = _python("""
import threading
from sphdesign._numpy import np
gate, sums, errors = threading.Barrier(2), [], []
def first_use():
    gate.wait()
    try:
        sums.append(int(np.arange(5).sum()))
    except BaseException as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_use) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(sums, errors)
""")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[10, 10] []"


def test_main_leaves_the_collector_on_and_the_heap_unfrozen():
    r = _python("""
import contextlib, gc, io
from sphdesign import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--lattice", "A2"])
print(code, gc.isenabled(), gc.get_freeze_count())
""")
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "True", "0"]


@pytest.mark.parametrize("args, code", [
    (["verify", "--lattice", "E8", "--format", "json"], 0),
    (["verify", "--lattice", "NOPE"], 2),
    (["verify"], 2),
    (["--help"], 0),
], ids=["verify-json", "verify-unknown-lattice", "verify-no-input", "help"])
def test_the_process_prints_what_main_prints(capsys, args, code):
    try:
        in_process = main(args)
    except SystemExit as exc:
        in_process = exc.code
    out = capsys.readouterr()
    r = subprocess.run([sys.executable, "-m", "sphdesign.cli", *args],
                       capture_output=True, text=True, env=ENV, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (in_process, out.out,
                                                  out.err)
    assert r.returncode == code


@pytest.mark.parametrize("args", [
    ["verify", "--lattice", "A2"],
    ["verify", "--lattice", "CT12"],
    pytest.param(["reproduce", "--example", "2"], marks=pytest.mark.slow),
], ids=["A2", "CT12", "BW16"])
def test_a_command_leaves_a_constant_cyclic_residue(args):
    # the CLI process never collects (cli.run), which is safe only while
    # what a command leaves in reference cycles does not grow with N
    r = _python("""
import contextlib, gc, io, sys
from sphdesign import cli
gc.collect()
gc.disable()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(gc.collect())
""", *args)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 1000


def test_the_console_script_runs_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")    # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["sphdesign"] == "sphdesign.cli:run"
