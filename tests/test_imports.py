"""Import contract: every package module loads with the CLI, numpy only
when a command computes, and the spectrum workers need no thread pool.

Each case runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphdesign

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(sphdesign.__file__).resolve().parents[1])

# runs the CLI on argv[2:] with argv[1] rows per spectrum stripe (so a
# tiny set can span several workers) and prints, as the last stdout line,
# the exit code, the numpy modules loaded, the pool and logging modules
# loaded, and the number of threads started
_PROBE = """
import json, sys, threading
from sphdesign import cli, spectrum
spectrum._BLOCK = int(sys.argv[1])
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
                  len(started)]))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def _cli(*args: str, block: int = 256) -> tuple[int, list, list, int]:
    r = _python(_PROBE, str(block), *args)
    assert r.returncode == 0, r.stderr
    return tuple(json.loads(r.stdout.splitlines()[-1]))


def _traced_modules() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "traced_cli", ROOT / "perfbench/traced_cli.py")
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    return {f"sphdesign.{module}" for module, *_ in traced_cli.LAYERS}


def test_cli_import_loads_every_traced_module_and_no_numpy():
    wanted = _traced_modules()
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
    assert _cli(*args) == (code, [], [], 0)


def test_a_computing_command_loads_numpy_but_no_pool():
    # one-row stripes split A2's three halved rows between two workers
    code, numpy, pool, threads = _cli("verify", "--lattice", "A2",
                                      "--threads", "2", block=1)
    assert code == 0
    assert "numpy" in numpy
    assert pool == [] and threads == 1


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
