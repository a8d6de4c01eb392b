"""The benchmark's traced boundaries still exist in the package.

perfbench/layers.py names each traced function by owner (`module` or
`module:Class` under coinprune) and attribute; the tracer wraps them
from outside the package. A rename or a move would make `--trace 1`
fail only when the benchmark runs, so this checks every name here.
The tracer finds each owner module in `sys.modules` after importing
`coinprune.cli` alone, so the CLI must import every one of them.
The benchmark's files are read, never written.
"""

import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import coinprune
from coinprune import netsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(monkeypatch, name: str):
    """The perfbench module `name`, imported from its file; it and the
    perfbench modules it imports are then dropped from `sys.modules`."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        for module in ("layers", "tracer", "harness", name):
            sys.modules.pop(module, None)


def _targets(monkeypatch):
    return _perfbench(monkeypatch, "layers").TARGETS


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
    # -B: a bytecode cache left in src/ would change what later
    # benchmark runs of this checkout compile and measure
    code = ("import json, sys; import coinprune.cli; "
            "print(json.dumps([sys.dont_write_bytecode, sorted(sys.modules)]))")
    src = str(Path(coinprune.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-B", "-c", code],
                          env={"PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    dont_write_bytecode, loaded = json.loads(proc.stdout)
    assert dont_write_bytecode is True
    loaded = set(loaded)
    assert "numpy" not in loaded
    assert "concurrent.futures.process" not in loaded
    assert [name for name in owners if name not in loaded] == []


def test_a_sim_bootstrap_run_keeps_what_its_check_reads(monkeypatch):
    # the check reads the last accepted pulse's genuine snapshot id and
    # every joiner's set; this is its scenario cut to three pulses, the
    # last one's window still open, so the first one's snapshots drop
    bench = _perfbench(monkeypatch, "sim_bootstrap")
    scenario = dataclasses.replace(
        netsim.parse_scenario(bench.SCENARIO.format(seed=1)), chain_length=620)
    sim, _ = netsim.run_simulation(scenario)
    accepted = [rec for _, rec in sorted(sim.pulses.items())
                if rec.outcome is not None and rec.outcome.accepted]
    assert [rec.index for rec in accepted] == [1, 2] and len(sim.pulses) == 3
    assert accepted[0].genuine_snap is None
    assert accepted[-1].genuine_snap is sim.nodes[bench.PRUNED_NODE].held[0]
    assert all(outcome.accepted for outcome in sim.join_results.values())
    assert sorted(sim.join_utxo) == sorted(cfg.name for cfg in sim.joiners)
