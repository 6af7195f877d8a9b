"""No public name of the package exists for the tests alone.

Every public module-level function and class in src/sphdesign must be
referenced by the program itself: the package, scripts/ or perfbench/,
as a name, an attribute or an imported alias, somewhere other than its
own definition.  A helper only the tests need belongs in conftest.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sphdesign"
PROGRAM = [path for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
           for path in sorted(folder.glob("*.py"))]


def _referenced(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def unreferenced_exports(files=PROGRAM, package=PACKAGE) -> list[str]:
    """module.name of every public top-level def or class of package that
    no top-level statement of files references outside its own body."""
    defined = []                    # (path, name)
    refs = []                       # (path, statement's own name, names)
    for path in files:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if path.parent == package and not own.startswith("_"):
                    defined.append((path, own))
            refs.append((path, own, _referenced(stmt)))
    return [f"{path.stem}.{name}" for path, name in defined
            if not any(name in names and (p, own) != (path, name)
                       for p, own, names in refs)]


def test_every_public_name_is_used_by_the_program():
    assert unreferenced_exports() == []


def test_guard_flags_a_test_only_function(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "class Lonely:\n    pass\n\n"
        "def _private():\n    pass\n")
    (tmp_path / "tool.py").write_text("from pkg.mod import used\n")
    files = [pkg / "mod.py", tmp_path / "tool.py"]
    assert unreferenced_exports(files, pkg) == ["mod.recursive", "mod.Lonely"]
