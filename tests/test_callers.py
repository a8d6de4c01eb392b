"""Every public function in the package runs on a command path.

A public module-level function or public method that no command or
simulation path uses is dead weight with its own tests. This runs the
README's commands in-process on small inputs under `sys.setprofile` and
records every code object that executes: each public function or
method defined in `src/coinprune` (found with `ast`) must be among
them, or be listed below with the reason it stays.
"""

import argparse
import ast
import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from coinprune import chain, cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coinprune"

# called by perfbench/, whose files a benchmark change alone may edit;
# each goes once perfbench stops calling it
PINNED_BY_BENCHMARK = {
    "chain.UtxoSet.add": "snapshot-bulk's set-up inserts its 300,000 "
                         "synthetic coins through it",
    "chain.UtxoSet.entries": "snapshot-bulk's set-up samples leak payloads "
                             "from the held coins",
    "snapshot.serialize_utxo_set": "sim-bootstrap and snapshot-bulk compare "
                                   "joined and applied states with it",
    "netsim.Trace.lines": "sim-bootstrap's traced pass counts the trace "
                          "lines through it",
}

ALLOWED = {**PINNED_BY_BENCHMARK}

# small enough to run in about a second under the profiler; the joiner's
# eclipsed first attempt is offered the forged snapshot and re-requests a
# bogus chunk before it aborts, and the legacy joiner falls back to a
# full sync
SCENARIO = """\
seed = 1
blocks = 100
roles = miner:2:coinprune full:1:coinprune full:1:legacy \
full:1:adversarial joining:1:coinprune joining:1:legacy
params = delta_p=40 delta_r=10 delta_d=2 k=3
faults = bogus_chunks eclipse bogus_snapshot
obfuscate = true
"""


def _commands(d: Path) -> list[list[str]]:
    """The README's commands, in an order where each finds its inputs;
    snapshot verify's id is filled in from snapshot id's output."""
    out = ["--out-dir", str(d)]
    sec = ["sim", "security", "--delta-r", "20", "--k", "5", "--trials",
           "20", "--step", "50", "--prefix", "sec"]
    return [
        ["chain", "gen", "--blocks", "40", "--seed", "5", "--out", "chain.blk",
         "--headers", "chain.hdr"] + out,
        ["snapshot", "create", "--chain", str(d / "chain.blk"),
         "--height", "30", "--out", "state.snap"] + out,
        ["snapshot", "id", "--snap", str(d / "state.snap")],
        ["snapshot", "verify", "--snap", str(d / "state.snap"), "--id"],
        ["sim", "bootstrap", "--scenario", str(d / "probe.scn"), "--trace",
         "--prefix", "run"] + out,
        sec + out,
        sec + ["--mode", "blockwise"] + out,
        ["report", "--sweep", str(d / "sec_sweep.csv"),
         "--storage", str(d / "run_storage.csv"), "--prefix", "rep"] + out,
    ]


def _leaf_commands(parser: argparse.ArgumentParser, prefix=()):
    """Every runnable subcommand path of the parser, e.g. ("snapshot", "id")."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_commands(child, prefix + (name,))


def _public_functions():
    """(module.qualified name, (file, first line of its code object))."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defs += [(f"{cls.name}.{item.name}", item) for item in cls.body
                         if isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef))]
        for qualified, node in defs:
            if not node.name.startswith("_"):
                # a decorated function's code starts at its first decorator
                line = min([d.lineno for d in node.decorator_list]
                           + [node.lineno])
                yield f"{path.stem}.{qualified}", (str(path), line)


@pytest.fixture(scope="module")
def executed(tmp_path_factory):
    """(file, first line) of every package code object the commands ran."""
    d = tmp_path_factory.mktemp("probe")
    (d / "probe.scn").write_text(SCENARIO)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # a cached function's body runs only on a miss
    chain.genesis_block.cache_clear()
    snap_id = None
    for argv in _commands(d):
        if argv[-1] == "--id":
            argv = argv + [snap_id]
        stdout = io.StringIO()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        finally:
            sys.setprofile(previous)
        assert code == 0, (argv, code)
        if argv[:2] == ["snapshot", "id"]:
            snap_id = stdout.getvalue().split()[-1]
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
            for c in seen}


def _uncalled(executed) -> set[str]:
    return {name for name, where in _public_functions()
            if where not in executed}


def test_commands_cover_every_subcommand(tmp_path):
    commands = _commands(tmp_path)
    missing = [" ".join(leaf) for leaf in _leaf_commands(cli.build_parser())
               if not any(tuple(argv[:len(leaf)]) == leaf
                          for argv in commands)]
    assert not missing, f"subcommands the probe never runs: {missing}"


def test_every_public_function_has_a_caller(executed):
    uncalled = sorted(_uncalled(executed) - ALLOWED.keys())
    assert not uncalled, f"public functions no command runs: {uncalled}"


def test_allowlist_holds_only_uncalled_functions(executed):
    # an allowlisted name that was deleted or gained a caller goes too
    stale = sorted(ALLOWED.keys() - _uncalled(executed))
    assert not stale, f"allowlisted but run by a command, or gone: {stale}"


def test_benchmark_still_calls_every_pinned_name():
    # a pinned name perfbench no longer calls has lost its reason to stay;
    # a property is called by reading it as an attribute
    bench = "".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))

    def called(name):
        attr = re.escape(name.rsplit(".", 1)[-1])
        return re.search(rf"\b{attr}\(|\.{attr}\b", bench)

    stale = sorted(name for name in PINNED_BY_BENCHMARK if not called(name))
    assert not stale, f"pinned by the benchmark but not called there: {stale}"
