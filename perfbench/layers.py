"""The traced boundaries and the per-layer metrics read from them.

BENCHMARK.json names and orders the per-layer metrics. Every workload
prints all of them; a layer a workload never enters reads 0 there,
which is the measurement, not a gap.
"""

from tracer import Target, Tracer, percentile

# Enough to time the phases the end-to-end metrics are made of; the
# untraced runs install only these (a few dozen calls per pass).
PHASES = (
    Target("netsim.run", "netsim:Simulation", "run"),
    Target("netsim.bootstrap", "netsim:Simulation", "bootstrap", op_root=True),
    Target("cli.main", "cli", "main", op_root=True),
)

TARGETS = PHASES + (
    Target("hashing.hash256", "hashing", "hash256",
           meter=lambda args, result: len(args[0])),
    Target("scripts.validate_spend", "scripts", "validate_spend"),
    Target("scripts.compress", "scripts", "compress"),
    Target("scripts.obfuscate", "scripts", "obfuscate"),
    Target("chain.validate_and_apply_block", "chain", "validate_and_apply_block"),
    Target("chain.txid", "chain:Transaction", "txid",
           meter=lambda args, result: result),
    Target("chain.mine_header", "chain", "mine_header"),
    Target("chain.verify_headerchain", "chain", "verify_headerchain"),
    Target("chain.read_block_file", "chain", "read_block_file"),
    Target("chaingen.next_block", "chaingen:ChainBuilder", "next_block",
           op_root=True),
    Target("snapshot.build_snapshot", "snapshot", "build_snapshot"),
    Target("snapshot.apply_snapshot", "snapshot", "apply_snapshot"),
    Target("snapshot.verify_snapshot", "snapshot", "verify_snapshot",
           meter=lambda args, result: sum(len(c) for c in args[0].chunks)),
    Target("snapshot.write_snapshot_file", "snapshot", "write_snapshot_file"),
    Target("snapshot.read_snapshot_file", "snapshot", "read_snapshot_file"),
    Target("appdata.add_block", "appdata:AppDataStore", "add_block"),
    Target("appdata.snapshot_at", "appdata:AppDataStore", "snapshot_at"),
    Target("appdata.parse_store", "appdata", "parse_store"),
    Target("coordination.tally_window", "coordination", "tally_window"),
    Target("coordination.parse_coinbase_tag", "coordination",
           "parse_coinbase_tag"),
    Target("security.sweep", "security", "sweep"),
    Target("security.evaluate_cell", "security", "evaluate_cell"),
    Target("security.run_trial_blockwise", "security", "run_trial_blockwise"),
)


def mining_phase(tracer: Tracer) -> tuple[float, float]:
    """(start, end) of the first `Simulation.run`'s mining phase: run start
    to the first join, or to the end of the run if nobody joins."""
    runs = tracer.indices("netsim.run")
    if not runs:
        return 0.0, 0.0
    run = tracer.spans[runs[0]]
    joins = [tracer.spans[i][1] for i in tracer.indices("netsim.bootstrap")
             if tracer.spans[i][1] >= run[1]]
    return run[1], min(joins, default=run[2])


def generic_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the spans alone determine."""
    t = tracer
    hash_bytes = sum(t.amounts("hashing.hash256"))
    txids = t.amounts("chain.txid")
    verify_s = t.total_s("snapshot.verify_snapshot")
    next_block_ms = [d * 1e3 for d in t.durations("chaingen.next_block")]

    start, end = mining_phase(t)
    runs = t.indices("netsim.run")
    mining_children = sum(
        s[2] - s[1] for s in t.spans
        if runs and s[3] == runs[0] and s[1] < end)
    return {
        "hashing.hash256_calls": t.calls("hashing.hash256"),
        "hashing.hash256_mb": hash_bytes / 1e6,
        "hashing.self_s": t.self_s("hashing.hash256"),
        "scripts.validate_spend_calls": t.calls("scripts.validate_spend"),
        "scripts.validate_spend_s": t.total_s("scripts.validate_spend"),
        "scripts.compress_s": t.total_s("scripts.compress"),
        "scripts.obfuscate_s": t.total_s("scripts.obfuscate"),
        "chain.validate_block_calls": t.calls("chain.validate_and_apply_block"),
        "chain.validate_block_s": t.total_s("chain.validate_and_apply_block"),
        "chain.txid_calls": len(txids),
        "chain.txid_calls_per_tx": len(txids) / len(set(txids)) if txids else 0.0,
        "chain.mine_header_s": t.total_s("chain.mine_header"),
        "chain.verify_headerchain_s": t.total_s("chain.verify_headerchain"),
        "chain.read_block_file_s": t.total_s("chain.read_block_file"),
        "chaingen.next_block_self_s": t.self_s("chaingen.next_block"),
        "chaingen.next_block_ms.p50": percentile(next_block_ms, 50),
        "chaingen.next_block_ms.p99": percentile(next_block_ms, 99),
        "snapshot.build_s": t.total_s("snapshot.build_snapshot"),
        "snapshot.build_calls": t.calls("snapshot.build_snapshot"),
        "snapshot.apply_s": t.total_s("snapshot.apply_snapshot"),
        "snapshot.verify_mb_per_s":
            sum(t.amounts("snapshot.verify_snapshot")) / 1e6 / verify_s
            if verify_s else 0.0,
        "snapshot.file_write_s": t.total_s("snapshot.write_snapshot_file"),
        "snapshot.file_read_s": t.total_s("snapshot.read_snapshot_file"),
        "appdata.add_block_s": t.total_s("appdata.add_block"),
        "appdata.snapshot_at_s": t.total_s("appdata.snapshot_at"),
        "appdata.parse_store_s": t.total_s("appdata.parse_store"),
        "coordination.tally_window_calls": t.calls("coordination.tally_window"),
        "coordination.tally_window_s": t.total_s("coordination.tally_window"),
        "coordination.parse_coinbase_tag_calls":
            t.calls("coordination.parse_coinbase_tag"),
        "netsim.mining_phase_s": end - start,
        "netsim.self_s": end - start - mining_children,
        "security.evaluate_cell_s": t.self_s("security.evaluate_cell"),
        "security.cells": t.calls("security.evaluate_cell"),
        "security.run_trial_blockwise_s":
            t.total_s("security.run_trial_blockwise"),
    }
