"""Benchmark of the sphdesign certifier: time to a certified verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Runs the real CLI (``python -m sphdesign.cli`` with ``PYTHONPATH=src``) as
one subprocess per command, one command at a time, and checks every output
exactly against the published reference rows.  The last line of stdout is
one JSON object: ``correct``, ``attempted`` and ``failed`` (one operation is
one CLI command; it fails on a wrong exit code or on any output that differs
from the exact reference, so failed / attempted is the error rate), and
``metrics``.  Commands not started before DEADLINE_S count as attempted and
failed, so a run that overruns still ends with its result line.

Workloads (why each was chosen is in BENCHMARK.json):
  certify-small  verify A2 ... CT12, then reproduce --example 1 and 2
  skewed-bw16    per seeded skewed BW16 basis G: minvec --gram-file G
                 --out F, then verify --gram-file G --vectors F

End-to-end metrics (``--trace 0``), medians over the command sequences run
in ``--seconds``:
  wall_s       wall time of the whole command sequence
  peak_rss_mb  largest peak RSS of any command in the sequence
  setup_s      wall time of ``sphdesign lattices`` (interpreter start,
               numpy import, catalog scan), median of SETUP_REPEATS

Per-layer metrics (``--trace 1``) come from a separate run in which every
command runs under ``traced_cli.py``.  Each metric, and the end-to-end
metric it should move:
  enumeration.enumerate_s/reduce_s/vectors/vectors_per_s
                         wall_s on skewed-bw16 (about three quarters of it);
                         none on certify-small
  enumeration.halve_s/validate_s
                         wall_s on skewed-bw16
  spectrum.pair_spectrum_s/calls/pairs/pairs_per_s
                         wall_s and peak_rss_mb on skewed-bw16 (two passes per
                         basis, coordinates up to about 15); near zero on
                         certify-small (pairs: ordered pairs N^2 per call)
  embedding.embedded_gram_s/gram_entries, linalg.psd_rank_s
                         wall_s on certify-small only (CT12)
  gramfile.write_vectors_s/read_vectors_s/vector_bytes
                         wall_s and peak_rss_mb on skewed-bw16 (vector_bytes:
                         size of the files written)
  catalog.load_s, gramfile.parse_gram_s, linalg.ldlt_s
                         wall_s everywhere (small)
  designs.strength_s/moments_s, embedding.embed_s
                         predicted to move nothing; kept so a regression shows
  report.verify_s/verify_self_s, report.reproduce_s/reproduce_self_s
                         *_self_s is the span minus its child spans
  trace.wall_s           traced sequence wall time
  trace.overhead_s       trace.wall_s minus the wall_s of untraced sequences
                         run in turn with the traced ones
  trace.outside_spans_s  traced wall time outside every span (interpreter
                         start, imports, argument parsing, rendering)
  trace.outside_spans_pct
                         the same as a share of trace.wall_s: what the named
                         layers leave unexplained
Every traced command's spans are checked to nest (see span_problems), so
the span self times plus trace.outside_spans_s make up trace.wall_s; a
command whose spans do not nest counts as failed.

Per-layer metrics of a layer a workload does not reach are 0 on it:
gramfile.* and enumeration.validate_s on certify-small;
embedding.embedded_gram_s, embedding.gram_entries and linalg.psd_rank_s (BW16
is over the rank certificate's cap) and report.reproduce_s/reproduce_self_s
on skewed-bw16.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks
import traced_cli
import workloads as wl

ROOT = checks.ROOT
SRC = ROOT / "src"
TRACED_CLI = Path(traced_cli.__file__).resolve()
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
DEADLINE_S = 165.0      # stop starting commands; the run must end by 180 s

ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")

LAYER_METRICS = (
    ("enumeration.enumerate_s", "s", "lower"),
    ("enumeration.reduce_s", "s", "lower"),
    ("enumeration.vectors", "count", "higher"),
    ("enumeration.vectors_per_s", "1/s", "higher"),
    ("enumeration.halve_s", "s", "lower"),
    ("enumeration.validate_s", "s", "lower"),
    ("spectrum.pair_spectrum_s", "s", "lower"),
    ("spectrum.calls", "count", "lower"),
    ("spectrum.pairs", "count", "lower"),
    ("spectrum.pairs_per_s", "1/s", "higher"),
    ("embedding.embedded_gram_s", "s", "lower"),
    ("embedding.gram_entries", "count", "lower"),
    ("linalg.psd_rank_s", "s", "lower"),
    ("gramfile.write_vectors_s", "s", "lower"),
    ("gramfile.read_vectors_s", "s", "lower"),
    ("gramfile.vector_bytes", "B", "lower"),
    ("catalog.load_s", "s", "lower"),
    ("gramfile.parse_gram_s", "s", "lower"),
    ("linalg.ldlt_s", "s", "lower"),
    ("designs.strength_s", "s", "lower"),
    ("designs.moments_s", "s", "lower"),
    ("embedding.embed_s", "s", "lower"),
    ("report.verify_s", "s", "lower"),
    ("report.verify_self_s", "s", "lower"),
    ("report.reproduce_s", "s", "lower"),
    ("report.reproduce_self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.outside_spans_s", "s", "lower"),
    ("trace.outside_spans_pct", "%", "lower"),
)
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


# ---------------------------------------------------------------------------
# running commands

@dataclass
class Result:
    wall: float
    rss_mb: float
    rc: int | None          # None: not run, the deadline had passed
    stdout: str
    stderr: str
    spans: list | None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


class Runner:
    """Runs CLI commands as subprocesses and checks their output."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.tally = Tally()
        self._n = 0

    def run(self, argv: list[str], traced: bool = False) -> Result:
        self._n += 1
        out = self.workdir / f"cmd{self._n}.out"
        err = self.workdir / f"cmd{self._n}.err"
        spans = self.workdir / f"cmd{self._n}.spans"
        cmd = ([sys.executable, str(TRACED_CLI), str(spans), "--", *argv]
               if traced else [sys.executable, "-m", "sphdesign.cli", *argv])
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return Result(wall=0.0, rss_mb=0.0, rc=None, stdout="",
                          stderr="not run: the run's deadline had passed",
                          spans=None)
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=fo,
                                    stderr=fe, stdin=subprocess.DEVNULL)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Result(wall=wall, rss_mb=usage.ru_maxrss / 1024,
                        rc=proc.returncode, stdout=out.read_text(),
                        stderr=err.read_text(),
                        spans=json.loads(spans.read_text())
                        if traced and spans.exists() else None)
        for path in (out, err, spans):
            path.unlink(missing_ok=True)
        return result

    def checked(self, op: wl.Op, traced: bool = False) -> Result:
        """Run ``op`` and count it; a failed check is reported on stderr."""
        result = self.run(op.argv, traced)
        try:
            problems = op.check(result.stdout, result.rc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"unexpected output shape: {exc!r}"]
        if traced and result.spans is None:
            problems.append("traced command wrote no spans")
        elif traced:
            problems += span_problems(result.wall, result.spans)
        self.tally.attempted += 1
        if problems:
            self.tally.failed += 1
            print(f"FAILED {' '.join(op.argv)}: " + "; ".join(problems)
                  + f"\n  stderr: {result.stderr[-400:]}", file=sys.stderr)
        return result


@dataclass
class Sequence:
    wall: float = 0.0
    rss_mb: float = 0.0
    traced: list = field(default_factory=list)   # (wall, spans) per command


def run_sequence(runner: Runner, ops: list[wl.Op],
                 traced: bool = False) -> Sequence:
    seq = Sequence()
    for op in ops:
        r = runner.checked(op, traced)
        seq.wall += r.wall
        seq.rss_mb = max(seq.rss_mb, r.rss_mb)
        if traced and r.spans is not None:
            seq.traced.append((r.wall, r.spans))
    return seq


def repeat(runner: Runner, ops, seconds: float, modes=(False,)):
    """Closed loop: run the sequence once per mode (untraced/traced, in
    turn) at least once, and again while another round, as long as the
    last, still ends within ``seconds``.  Returns the sequences per mode."""
    rounds: list[list[Sequence]] = []
    start = time.perf_counter()
    while True:
        rounds.append([run_sequence(runner, ops, traced) for traced in modes])
        last = sum(seq.wall for seq in rounds[-1])
        now = time.perf_counter()
        if now - start + last > seconds or now > runner.deadline:
            return [list(per_mode) for per_mode in zip(*rounds)]


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def span_problems(wall: float, spans: list[dict]) -> list[str]:
    """Spans must nest: each child within its parent's interval, siblings
    on one thread disjoint, and the top-level spans within the command's
    wall time.  Only then do self times and the time outside spans add up
    to the wall time."""
    by_id = {s["id"]: s for s in spans}
    last_end: dict[tuple, tuple[float, str]] = {}
    problems = []
    for s in sorted(spans, key=lambda s: (s["start"], s["id"])):
        name, parent = s["name"], by_id.get(s["parent"])
        if s["end"] < s["start"]:
            problems.append(f"span {name} ends before it starts")
        if s["parent"] is not None and parent is None:
            problems.append(f"span {name} has no parent span {s['parent']}")
        elif parent is not None and not (parent["start"] <= s["start"]
                                         and s["end"] <= parent["end"]):
            problems.append(f"span {name} lies outside its parent "
                            f"{parent['name']}")
        key = (s["parent"], s["thread"])
        if key in last_end and s["start"] < last_end[key][0]:
            problems.append(f"span {name} overlaps its sibling "
                            f"{last_end[key][1]}")
        if key not in last_end or s["end"] > last_end[key][0]:
            last_end[key] = (s["end"], name)
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    if covered > wall:
        problems.append(f"top-level spans cover {covered:.6f} s of a "
                        f"{wall:.6f} s command")
    return problems


def layer_metrics(seq: Sequence) -> dict[str, float]:
    total, self_time, calls, count = (defaultdict(float), defaultdict(float),
                                      defaultdict(int), defaultdict(int))
    outside = 0.0
    for wall, spans in seq.traced:
        children = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            dur = s["end"] - s["start"]
            total[s["name"]] += dur
            self_time[s["name"]] += dur - children[s["id"]]
            calls[s["name"]] += 1
            count[s["name"]] += s.get("count", 0)
        outside += wall - sum(s["end"] - s["start"] for s in spans
                              if s["parent"] is None)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {
        "enumeration.enumerate_s": total["enumeration.enumerate"],
        "enumeration.reduce_s": total["enumeration.reduce"],
        "enumeration.vectors": count["enumeration.enumerate"],
        "enumeration.vectors_per_s": rate(count["enumeration.enumerate"],
                                          total["enumeration.enumerate"]),
        "enumeration.halve_s": total["enumeration.halve"],
        "enumeration.validate_s": total["enumeration.validate"],
        "spectrum.pair_spectrum_s": total["spectrum.pair_spectrum"],
        "spectrum.calls": calls["spectrum.pair_spectrum"],
        "spectrum.pairs": count["spectrum.pair_spectrum"],
        "spectrum.pairs_per_s": rate(count["spectrum.pair_spectrum"],
                                     total["spectrum.pair_spectrum"]),
        "embedding.embedded_gram_s": total["embedding.embedded_gram"],
        "embedding.gram_entries": count["embedding.embedded_gram"],
        "linalg.psd_rank_s": total["linalg.psd_rank"],
        "gramfile.write_vectors_s": total["gramfile.write_vectors"],
        "gramfile.read_vectors_s": total["gramfile.read_vectors"],
        "gramfile.vector_bytes": count["gramfile.write_vectors"],
        "catalog.load_s": total["catalog.load"],
        "gramfile.parse_gram_s": total["gramfile.parse_gram"],
        "linalg.ldlt_s": total["linalg.ldlt"],
        "designs.strength_s": total["designs.strength"],
        "designs.moments_s": total["designs.moments"],
        "embedding.embed_s": total["embedding.embed"],
        "report.verify_s": total["report.verify"],
        "report.verify_self_s": self_time["report.verify"],
        "report.reproduce_s": total["report.reproduce"],
        "report.reproduce_self_s": self_time["report.reproduce"],
        "trace.wall_s": seq.wall,
        "trace.outside_spans_s": outside,
        "trace.outside_spans_pct": 100 * rate(outside, seq.wall),
    }
    return m


# ---------------------------------------------------------------------------
# a run

def environment(seed: int) -> dict:
    probe = ("import json, os, sys, numpy\n"
             "try:\n"
             "    blas = numpy.show_config(mode='dicts')['Build Dependencies']"
             "['blas']['version']\n"
             "except (AttributeError, KeyError, TypeError):\n"
             "    blas = 'unknown'\n"
             "print(json.dumps({'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'openblas': blas}))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=60)
    info = json.loads(proc.stdout) if proc.returncode == 0 else {}
    return {"nproc": os.cpu_count(), **info, "threads": int(wl.THREADS),
            "OPENBLAS_NUM_THREADS": ENV["OPENBLAS_NUM_THREADS"], "seed": seed}


def measure_setup(runner: Runner, exp: checks.Expectations) -> float:
    op = wl.lattices_op(exp)
    runner.checked(op)           # warm the bytecode cache first
    return statistics.median(runner.checked(op).wall
                             for _ in range(SETUP_REPEATS))


def median_metrics(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, start + DEADLINE_S)
        exp = checks.Expectations(checks.load_reference_rows())
        print("environment " + json.dumps(environment(seed)))
        ops = wl.WORKLOADS[workload](runner, exp, seed)
        setup = measure_setup(runner, exp)
        if not trace:
            [seqs] = repeat(runner, ops, seconds)
            metrics = {
                "wall_s": statistics.median(s.wall for s in seqs),
                "peak_rss_mb": statistics.median(s.rss_mb for s in seqs),
                "setup_s": setup,
            }
            units = dict(END_TO_END)
        else:
            untraced, seqs = repeat(runner, ops, seconds, (False, True))
            metrics = median_metrics([layer_metrics(s) for s in seqs])
            metrics["trace.overhead_s"] = (
                metrics["trace.wall_s"]
                - statistics.median(s.wall for s in untraced))
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        print(f"{workload}: {len(seqs)} sequence(s) of {len(ops)} command(s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = runner.tally
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


# ---------------------------------------------------------------------------
# self-test

def self_test() -> int:
    """Every harness path on a tiny configuration, in seconds: A2, D4, E8,
    reproduce --example 1 and a vector-file round trip on one mildly skewed
    E8, traced and untraced; then a corrupted expectation must count as a
    failure."""
    workdir = WORK / f"self-test-{os.getpid()}"
    workdir.mkdir(parents=True)
    ok = True

    def expect(cond: bool, what: str) -> None:
        nonlocal ok
        ok &= cond
        print(f"[self-test] {'ok  ' if cond else 'FAIL'} {what}")

    try:
        runner = Runner(workdir, time.perf_counter() + DEADLINE_S)
        exp = checks.Expectations(checks.load_reference_rows())
        ops = ([wl.verify_op(exp, name) for name in ("A2", "D4", "E8")]
               + [wl.reproduce_op(exp, 1)]
               + wl.skewed(runner, exp, 1, "E8", count=1, ops=8,
                           nodes=None))
        setup = measure_setup(runner, exp)
        plain = run_sequence(runner, ops)
        traced = run_sequence(runner, ops, traced=True)
        m = layer_metrics(traced)
        expect(runner.tally.failed == 0,
               f"{runner.tally.attempted} commands, all outputs exact")
        expect(setup > 0 and plain.wall > 0 and plain.rss_mb > 0,
               f"untraced: setup {setup:.3f} s, wall {plain.wall:.3f} s, "
               f"peak RSS {plain.rss_mb:.1f} MB")
        spans = {s["name"] for _, cmd in traced.traced for s in cmd}
        missing = {name for _, _, name, _ in traced_cli.LAYERS} - spans
        expect(not missing, f"every layer traced (missing: {sorted(missing)})")
        nested = [span_problems(wall, cmd) for wall, cmd in traced.traced]
        expect(len(nested) == len(ops) and not any(nested),
               f"spans nest in all {len(nested)} traced commands; "
               f"{m['trace.outside_spans_pct']:.1f}% of the traced wall "
               f"lies outside every span")
        wall, cmd = max(traced.traced, key=lambda t: len(t[1]))
        child = next(s for s in cmd if s["parent"] is not None)
        broken = {      # what: (wall, spans)
            "a child past its parent's end":
                (wall, [dict(s, end=s["end"] + wall) if s is child else s
                        for s in cmd]),
            "two overlapping siblings":
                (wall, cmd + [dict(child, id=len(cmd))]),
            "spans longer than the command": (0.0, cmd),
        }
        caught = [what for what, (w, spans) in broken.items()
                  if span_problems(w, spans)]
        expect(len(caught) == len(broken),
               f"broken spans are caught: {caught}")
        expect(m["spectrum.pairs"] > 0 and m["enumeration.vectors"] > 0,
               f"counts: {m['spectrum.pairs']} pairs, "
               f"{m['enumeration.vectors']} vectors")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        expect([x["name"] for x in declared["per_layer"]]
               == [name for name, _, _ in LAYER_METRICS]
               and [x["name"] for x in declared["end_to_end"]]
               == [name for name, _ in END_TO_END],
               "BENCHMARK.json declares exactly the metrics reported")
        a2 = exp.by_name["A2"]
        corrupted = checks.Expectations(
            replace(r, size=a2.size + 1) if r is a2 else r for r in exp.rows)
        before = runner.tally.failed
        run_sequence(runner, [wl.verify_op(corrupted, "A2")])
        expect(runner.tally.failed == before + 1,
               "a corrupted expectation counts as a failure")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"[self-test] {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "sphdesign" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'sphdesign'} is missing",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
