"""Golden pins: frozen hash256 digests of one small seeded run's artifacts.

Criterion 8 checks that two runs agree with each other; these pins check
that they agree with a run frozen in the source. A change that moves any
byte of the trace, the reports, the chain, the snapshot file or the
charts fails here until its pins are re-frozen on purpose (and the
re-freeze is recorded in CHANGES.md). `chain gen`'s block and header
files are pinned the same way.

The scenario passes through every join path: snapshot joins, a legacy
full sync, a bogus-chunk re-request, an eclipsed first attempt that
aborts before a later attempt succeeds, and an adversary that serves a
forged snapshot. `test_scenario_reaches_every_join_path` keeps it so.
"""

import hashlib

import pytest

from coinprune.chain import write_block_file
from coinprune.cli import OUT_DIR_ENV, main
from coinprune.netsim import parse_scenario, run_simulation
from coinprune.snapshot import wire_size

SCENARIO = """\
seed = 1
blocks = 460
roles = miner:2:coinprune full:1:coinprune full:1:legacy \
full:1:adversarial joining:2:coinprune joining:1:legacy
params = delta_p=200 delta_r=50 delta_d=6 k=5
faults = eclipse bogus_chunks bogus_snapshot
"""

SIM_PINS = {
    "trace":
        "162eae6ff1eb0d31af574690839d47ce87db8ee217d8f0f261f574301a48f34c",
    "storage_csv":
        "3ce3d66d1a4c0c4ce242ccb9d58930e850a96813b45f050a57ebffd3b41718a8",
    "breakdown_csv":
        "5e95fed69acc4d426c892e39fedbae30c8ef048c3a0f2f140eb8c01578bb436e",
    "outcomes":
        "2b55641cb3fa2e585e0fe189a0d8083c3663c66a1b8b553afde38ccbf8826571",
    "chain":
        "05cb98f6e5fc369e75600e32a38fd78642f79e57fd02be1a7c13279c75fb1cd4",
}

CLI_PINS = {
    "run_breakdown.csv":
        "5e95fed69acc4d426c892e39fedbae30c8ef048c3a0f2f140eb8c01578bb436e",
    "run_joins.csv":
        "af5f5acd7e7b371c6f4cfdcb0460933b15ba1d1a993277b10d275adf2f80cc80",
    "run_meta.json":
        "ce2148c2c976e6a93e141d946cb3b3c89e6df609442a8946bb4a812893cea4fa",
    "run_pulses.csv":
        "5a59a81c1fd7bad276e0474d4ac6a3e14b9b03a7242072119acc4619f93cff52",
    "run_storage.csv":
        "3ce3d66d1a4c0c4ce242ccb9d58930e850a96813b45f050a57ebffd3b41718a8",
    "run_trace.txt":
        "162eae6ff1eb0d31af574690839d47ce87db8ee217d8f0f261f574301a48f34c",
    "state.snap":
        "23ee56394130bbea31668b02beaac489b840759a409d4af52866479f7b592032",
    "state.snap.hashes":
        "043d903c3c2fb9bf73ed915ff4041bb73112c8ff66f3e36a1b183031739ee3ae",
    "sec_meta.json":
        "0824cd5b031ef0372e47aa8a4d646136e95ebdb2678ac6a97f04cb3abb740e28",
    "sec_skip.svg":
        "fb9b66dc18b636b7bdc154576ef0268b3fb69bb0de014f2b35c59221e97d63dc",
    "sec_sweep.csv":
        "63746857a60214fabe2f2d9757093c434886232622979805cc32eefbfb9301fc",
    "sec_thresholds.csv":
        "73d583deb48426a759e46b4c68c08e01486479b2f3d736d1e27dc36ab2aa21cb",
    "sec_thresholds.svg":
        "fe166922c4cba0232ba88894f8179cc81b7553b9274c9d192c73c7f7f90c15d7",
    "rep_skip.svg":
        "5e5464b23c520e9b00c331675f637e1587aac0c7b86cc87039d4b502c09aa6fb",
    "rep_storage.svg":
        "98ef61acfa8d96ab15553cf5564b133efae30874f2fa3dd552ac6b7973f768ee",
    "rep_thresholds.svg":
        "1dd1e798e224483f2244df9728c2e0bc49491e7d3324454b841e28bae369a06f",
}

# `chain gen --blocks 300 --seed 5 --headers`: the block file and the
# header records a pruned node keeps
CHAIN_GEN_PINS = {
    "chain.blk":
        "d57950d03dbe0404ee14286d220b250a1d53f333738b9f46d1e7d96ed1b1d8e7",
    "chain.hdr":
        "33a6faffccd5f7d892cbe0a0f86ed1709499c216bcf92c761c0eb71d52f7bee0",
}


def _hash256(data: bytes) -> str:
    return hashlib.sha256(hashlib.sha256(data).digest()).hexdigest()


@pytest.fixture(scope="module")
def golden_run():
    return run_simulation(parse_scenario(SCENARIO))


def test_scenario_reaches_every_join_path(golden_run):
    sim, report = golden_run
    lines = sim.trace.lines
    joins = sim.join_results
    assert all(o.accepted and o.attempts == 2 for o in joins.values())
    assert joins["join0"].via_snapshot and joins["join1"].via_snapshot
    assert not joins["join2"].via_snapshot
    assert "join join2 full sync fallback" in lines
    # one chunk fetched twice from the adversary before the retry budget ran out
    mismatches = [line for line in lines if line.endswith("mismatch from adv0")]
    assert len(mismatches) > len(set(mismatches))
    assert "join join0 aborted: chunk retry budget exhausted" in lines
    assert "join join0 accepted after 2 attempts" in lines
    # the adversary holds and serves its forged snapshot
    snap, _ = sim.nodes["join0"].held
    rec = sim.pulses[snap.header.height // sim.scenario.params.delta_p]
    stored = {row[0]: row[3] for row in report.breakdown}
    assert stored["adv0"] == wire_size(rec.bogus_snap) != stored["full0"]


def test_simulation_artifacts_match_pins(golden_run, tmp_path):
    sim, report = golden_run
    write_block_file(tmp_path / "chain.blk", sim.builder.blocks)
    got = {
        "trace": _hash256(sim.trace.to_text().encode()),
        "storage_csv": _hash256(report.to_csv().encode()),
        "breakdown_csv": _hash256(report.breakdown_csv().encode()),
        "outcomes": _hash256(repr((report.pulse_outcomes,
                                   report.join_outcomes)).encode()),
        "chain": _hash256((tmp_path / "chain.blk").read_bytes()),
    }
    assert got == SIM_PINS


def test_cli_artifacts_match_pins(golden_run, tmp_path, monkeypatch, capsys):
    sim, _ = golden_run
    # relative paths keep the tmp directory out of the charts' metadata
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    (tmp_path / "golden.scn").write_text(SCENARIO)
    write_block_file(tmp_path / "chain.blk", sim.builder.blocks)
    accepted = max(rec.height for rec in sim.pulses.values()
                   if rec.outcome is not None and rec.outcome.accepted)
    assert main(["sim", "bootstrap", "--scenario", "golden.scn", "--trace",
                 "--prefix", "run"]) == 0
    assert main(["snapshot", "create", "--chain", "chain.blk",
                 "--height", str(accepted), "--out", "state.snap"]) == 0
    assert main(["sim", "security", "--delta-r", "100", "--k", "5", "10",
                 "--trials", "200", "--step", "10", "--seed", "7",
                 "--prefix", "sec"]) == 0
    assert main(["report", "--sweep", "sec_sweep.csv",
                 "--storage", "run_storage.csv", "--prefix", "rep"]) == 0
    capsys.readouterr()
    got = {name: _hash256((tmp_path / name).read_bytes()) for name in CLI_PINS}
    assert got == CLI_PINS
    # the CLI writes the same trace bytes the simulation holds
    assert got["run_trace.txt"] == SIM_PINS["trace"]
    assert got["run_storage.csv"] == SIM_PINS["storage_csv"]


def test_chain_gen_files_match_pins(tmp_path, capsys):
    assert main(["chain", "gen", "--blocks", "300", "--seed", "5",
                 "--out", "chain.blk", "--headers", "chain.hdr",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {name: _hash256((tmp_path / name).read_bytes())
           for name in CHAIN_GEN_PINS}
    assert got == CHAIN_GEN_PINS
