"""sim-bootstrap: a simulated network mines 3000 blocks, then 13 nodes join.

Ten coinprune joiners bootstrap from the reaffirmed snapshot plus the
chaintail; three legacy joiners replay every block from genesis. The
pass then runs `coinprune snapshot create` on the chain's block file at
the last accepted pulse height.
"""

from coinprune import chain, netsim, snapshot

from harness import Checks, Stopwatch, cli, digest
from layers import mining_phase
from tracer import Tracer, median

BLOCKS = 3000
DELTA_P, DELTA_R, DELTA_D = 200, 50, 6
SNAPSHOT_JOINERS, FULL_SYNC_JOINERS = 10, 3
SCENARIO = f"""\
seed = {{seed}}
blocks = {BLOCKS}
roles = miner:3:coinprune full:1:coinprune full:2:legacy \
joining:{SNAPSHOT_JOINERS}:coinprune joining:{FULL_SYNC_JOINERS}:legacy
params = delta_p={DELTA_P} delta_r={DELTA_R} delta_d={DELTA_D} k=5
faults =
obfuscate = false
appdata = true
txs_per_block = 8
"""
PRUNED_NODE = "full0"  # the coinprune full node; it prunes at every pulse

UNITS = {
    "sim_blocks_per_s": "blocks/s",
    "snapshot_join_s.p50": "s",
    "full_sync_join_s.p50": "s",
    "snapshot_create_s": "s",
}


class Inputs:
    def __init__(self, seed: int, out_dir) -> None:
        self.scenario = netsim.parse_scenario(SCENARIO.format(seed=seed))
        self.out_dir = out_dir



def execute(inputs: Inputs) -> dict:
    """The timed pass: simulate, write the block file, snapshot create."""
    out_dir = inputs.out_dir
    chain_path = out_dir / "chain.blk"
    clock = Stopwatch()
    with clock.timed():
        sim, report = netsim.run_simulation(inputs.scenario)
        chain.write_block_file(chain_path, sim.builder.blocks)
    accepted = [rec for _, rec in sorted(sim.pulses.items())
                if rec.outcome is not None and rec.outcome.accepted]
    height = accepted[-1].height if accepted else 0
    with clock.timed():
        code, out = cli(["snapshot", "create", "--chain", str(chain_path),
                         "--height", str(height), "--out", "state.snap",
                         "--out-dir", str(out_dir)])
    return {"clock": clock, "create_s": clock.last, "sim": sim,
            "report": report, "accepted": accepted, "create": (code, out),
            "chain_path": chain_path, "snap_path": out_dir / "state.snap"}


def check(inputs: Inputs, work: dict, checks: Checks, memo: dict) -> dict:
    """Output checks; returns the artifact digests. `memo` lives for the
    whole run: the first pass's chain digest and its replay oracle."""
    sim, report = work["sim"], work["report"]
    digests = {
        "sim_trace": digest(sim.trace.to_text().encode()),
        "report_csvs": digest((report.to_csv() + report.breakdown_csv()
                               + repr(report.pulse_outcomes)
                               + repr(report.join_outcomes)).encode()),
        "chain": digest(work["chain_path"].read_bytes()),
    }
    if not memo:
        memo["chain"] = digests["chain"]
        memo["oracle"] = _replay_from_wire(sim.builder.blocks)
    checks.expect(digests["chain"] == memo["chain"],
                  "the chain is byte-identical in every pass")
    for name, outcome in sorted(sim.join_results.items()):
        checks.expect(outcome.accepted, f"join {name} is accepted")
        checks.expect(name in sim.join_utxo and snapshot.serialize_utxo_set(
                          sim.join_utxo[name]) == memo["oracle"],
                      f"join {name} holds the from-genesis replay's state")
    accepted = work["accepted"]
    genuine = accepted[-1].genuine_snap.id.hex() if accepted else "00" * 32
    code, out = work["create"]
    checks.expect(code == 0 and f"snapshot id {genuine}\n" in out,
                  "snapshot create prints the simulation's snapshot id")
    verify_code, _ = cli(["snapshot", "verify", "--snap",
                          str(work["snap_path"]), "--id", genuine])
    checks.expect(verify_code == 0, "snapshot verify exits 0")
    return digests


def _replay_from_wire(blocks) -> bytes:
    """Independent oracle: reparse every block and replay from genesis."""
    params = chain.ChainParams()
    utxo = chain.UtxoSet()
    prev = b"\x00" * 32
    for height, block in enumerate(blocks):
        reparsed, _ = chain.Block.parse(block.serialize(), 0)
        chain.validate_and_apply_block(utxo, reparsed, height, prev, params)
        prev = reparsed.block_id()
    return snapshot.serialize_utxo_set(utxo)


def _joins(work: dict, tracer: Tracer) -> tuple[list[float], list[float]]:
    """Bootstrap durations of the snapshot joiners and the full syncs."""
    sim = work["sim"]
    durations = tracer.durations("netsim.bootstrap")
    via_snapshot = [sim.join_results[cfg.name].via_snapshot
                    for cfg in sim.joiners]
    snap = [d for d, v in zip(durations, via_snapshot) if v]
    full = [d for d, v in zip(durations, via_snapshot) if not v]
    return snap, full


def pass_metrics(work: dict, tracer: Tracer) -> dict[str, float]:
    start, end = mining_phase(tracer)
    snap, full = _joins(work, tracer)
    return {
        "wall_s": work["clock"].total,
        "sim_blocks_per_s": BLOCKS / (end - start),
        "snapshot_join_s.p50": median(snap),
        "full_sync_join_s.p50": median(full),
        "snapshot_create_s": work["create_s"],
    }


def predicted_counts(inputs: Inputs) -> dict[str, int]:
    """Span counts of one pass, from the scenario alone."""
    pulse = (BLOCKS - DELTA_D - DELTA_R) // DELTA_P * DELTA_P  # last closed
    closed = pulse // DELTA_P
    joiners = SNAPSHOT_JOINERS + FULL_SYNC_JOINERS
    return {
        # builder (genesis + every block), chaintails, full syncs, create
        "chain.validate_and_apply_block":
            1 + BLOCKS + SNAPSHOT_JOINERS * (BLOCKS - pulse)
            + FULL_SYNC_JOINERS * (BLOCKS + 1) + pulse + 1,
        "chaingen.next_block": BLOCKS,
        "chain.mine_header": BLOCKS,
        "chain.verify_headerchain": joiners,
        "chain.read_block_file": 1,
        "netsim.bootstrap": joiners,
        "snapshot.build_snapshot": BLOCKS // DELTA_P + 1,
        "snapshot.apply_snapshot": SNAPSHOT_JOINERS,
        "snapshot.write_snapshot_file": 1,
        "appdata.snapshot_at": BLOCKS // DELTA_P,
        "appdata.parse_store": SNAPSHOT_JOINERS,
        "appdata.add_block": 1 + BLOCKS + SNAPSHOT_JOINERS * (BLOCKS - pulse)
            + FULL_SYNC_JOINERS * (BLOCKS + 1),
        "coordination.tally_window": closed + SNAPSHOT_JOINERS,
        "coordination.parse_coinbase_tag": DELTA_R * (closed + SNAPSHOT_JOINERS),
        "cli.main": 1,
    }


def layer_metrics(inputs: Inputs, work: dict, tracer: Tracer, checks: Checks,
                  untraced: dict) -> dict[str, float]:
    """The per-layer metrics that need the simulation's own report."""
    sim, report = work["sim"], work["report"]
    outcomes = sim.join_results
    rx = {name: rx_bytes for name, _, _, _, rx_bytes in report.join_outcomes}
    inside = tracer.inside("netsim.bootstrap")
    join_hash_bytes = sum(tracer.spans[i][5]
                          for i in tracer.indices("hashing.hash256")
                          if inside[i])
    attempts = sum(o.attempts for o in outcomes.values())
    stored = {row[0]: row[1] for row in report.rows}
    return {
        "chaingen.wallet_size": len(sim.builder.wallet),
        "netsim.join_hashed_bytes_per_rx_byte":
            join_hash_bytes / sum(rx.values()),
        "netsim.bootstrap_attempts": attempts,
        "netsim.bootstrap_aborts":
            attempts - sum(o.accepted for o in outcomes.values()),
        "netsim.snapshot_join_rx_bytes":
            sum(rx[n] for n, o in outcomes.items() if o.via_snapshot),
        "netsim.full_sync_rx_bytes":
            sum(rx[n] for n, o in outcomes.items() if not o.via_snapshot),
        "netsim.pruned_node_bytes_stored": stored[PRUNED_NODE],
        "netsim.trace_lines": len(sim.trace.lines),
        "cli.snapshot_create_self_s": tracer.self_s("cli.main"),
    }
