"""Every option a subcommand accepts is read by its handler, and the
README lists exactly those options.

Each subcommand runs once on a small input, parsed into a namespace that
records attribute reads.  An option its handler never reads cannot change
what the command prints, so the parser should not accept it.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from sphdesign.cli import build_parser, main

# a default text run of each subcommand on A2
RUNS = {
    "lattices": [],
    "minvec": ["--lattice", "A2"],
    "spectrum": ["--lattice", "A2"],
    "verify": ["--lattice", "A2"],
    "embed": ["--lattice", "A2"],
    "reproduce": ["--example", "1"],
    "export-coords": ["--lattice", "A2"],
}

# accepted and never read: perfbench/workloads.py passes --threads on its
# minvec command lines, and those must keep parsing
UNREAD_ALLOWED = {"minvec.threads"}

REMOVED = [
    ["verify", "--lattice", "A2", "--seed", "1"],
    ["verify", "--lattice", "A2", "--decimal", "3"],
    ["reproduce", "--example", "1", "--decimal", "3"],
    ["minvec", "--lattice", "A2", "--decimal", "3"],
    ["export-coords", "--lattice", "A2", "--seed", "1"],
    ["export-coords", "--lattice", "A2", "--format", "json"],
    ["export-coords", "--lattice", "A2", "--threads", "2"],
    ["verify", "--lattice", "A2", "--matrix-cap", "10"],
    ["export-coords", "--lattice", "A2", "--matrix-cap", "10"],
]


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            self.__dict__.setdefault("_reads", set()).add(name)
        return super().__getattribute__(name)


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    action, = (a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _option_dests(sub: argparse.ArgumentParser) -> list[str]:
    return [a.dest for a in sub._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


def test_every_subcommand_is_probed():
    assert set(_subparsers(build_parser())) == set(RUNS)


def test_every_option_is_read(capsys):
    parser = build_parser()
    unread = set()
    for command, sub in _subparsers(parser).items():
        args = parser.parse_args([command, *RUNS[command]],
                                 namespace=ReadRecorder())
        args.__dict__["_reads"] = set()     # drop the parser's own reads
        args.func(args)
        reads = args.__dict__["_reads"]
        unread |= {f"{command}.{dest}" for dest in _option_dests(sub)
                   if dest not in reads}
    capsys.readouterr()
    assert unread == UNREAD_ALLOWED, \
        f"options no handler reads: {sorted(unread - UNREAD_ALLOWED)}"


@pytest.mark.parametrize("argv", REMOVED, ids=" ".join)
def test_removed_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_flags(text: str) -> dict[str, set[str]]:
    """Each subcommand's flags as the bullet list of the README's "CLI"
    section names them, a bullet's "input" expanded as the sentence
    "Input is ..." defines it: the backquoted flags up to its first
    ")." with --vectors dropped for the subcommands it says take none."""
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(r"Input is (.+?)\)\.", section, re.S).group(1)
    input_flags = set(re.findall(r"`(--[a-z-]+)", sentence))
    no_vectors = set(re.findall(r"`([a-z-]+)` takes no `--vectors`",
                                sentence))
    out = {}
    for bullet in re.findall(r"^- (.+\n(?:  .+\n)*)", section, re.M):
        head, body = bullet.split(":", 1)
        flags = set(re.findall(r"`(--[a-z-]+)", body))
        for name in re.findall(r"`([a-z-]+)`", head):
            out[name] = flags | (
                input_flags - ({"--vectors"} if name in no_vectors else set())
                if re.search(r"\binput\b", body) else set())
    return out


def parser_flags() -> dict[str, set[str]]:
    return {command: {opt for a in sub._actions for opt in a.option_strings
                      if not isinstance(a, argparse._HelpAction)}
            for command, sub in _subparsers(build_parser()).items()}


def test_readme_lists_each_subcommands_flags():
    readme, parser = readme_flags(README.read_text()), parser_flags()
    drift = {command: sorted(readme.get(command, set())
                             ^ parser.get(command, set()))
             for command in readme.keys() | parser.keys()}
    assert not any(drift.values()), f"README and parser differ: {drift}"
