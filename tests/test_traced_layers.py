"""The traced benchmark harness wraps package functions by name; every
name it lists must still exist, or each traced command would fail."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench/traced_cli.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    assert traced_cli.LAYERS
    for module, attr, _, _ in traced_cli.LAYERS:
        owner = importlib.import_module(f"sphdesign.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"sphdesign.{module}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner)
