"""The benchmark's traced boundaries still exist in the package.

perfbench/layers.py names each traced function by owner (`module` or
`module:Class` under coinprune) and attribute; the tracer wraps them
from outside the package. A rename or a move would make `--trace 1`
fail only when the benchmark runs, so this checks every name here.
The benchmark's files are read, never written.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        layers = importlib.import_module("layers")
        targets = layers.TARGETS
    finally:
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)
    for target in targets:
        module_name, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(f"coinprune.{module_name}")
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(vars(owner).get(target.attr)), target.span
