"""The benchmark's traced boundaries still exist in the package.

perfbench/layers.py names each traced function by owner (`module` or
`module:Class` under coinprune) and attribute; the tracer wraps them
from outside the package. A rename or a move would make `--trace 1`
fail only when the benchmark runs, so this checks every name here.
The tracer finds each owner module in `sys.modules` after importing
`coinprune.cli` alone, so the CLI must import every one of them.
The benchmark's files are read, never written.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import coinprune

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        return importlib.import_module("layers").TARGETS
    finally:
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)


def test_every_trace_target_resolves(monkeypatch):
    for target in _targets(monkeypatch):
        module_name, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(f"coinprune.{module_name}")
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(vars(owner).get(target.attr)), target.span


def test_cli_import_loads_every_traced_module_and_no_sweep_dependency(monkeypatch):
    # a fresh interpreter: this one has numpy loaded by other test modules
    owners = sorted({f"coinprune.{t.owner.partition(':')[0]}"
                     for t in _targets(monkeypatch)})
    code = ("import json, sys; import coinprune.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    src = str(Path(coinprune.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "numpy" not in loaded
    assert "concurrent.futures.process" not in loaded
    assert [name for name in owners if name not in loaded] == []
