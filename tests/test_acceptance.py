"""Acceptance gate: the eight headline claims, one test each.

Every test funnels into the `acceptance` fixture, which prints a single
PASS/FAIL line per criterion (echoed again in the terminal summary) and
fails the test on FAIL. Statistical claims use fixed seeds, so each
tolerance band below was sized once against the exact distribution and
the observed values are reproduced bit-for-bit on every run.
"""

import hashlib
import random
import re
import struct
import time
from collections import Counter

import pytest

from coinprune import scripts
from coinprune.chain import (Block, ChainParams, UtxoSet, obfuscate_record,
                             outpoint_key, pack_record,
                             validate_and_apply_block)
from coinprune.chaingen import ChainBuilder, WorkloadProfile, light_profile
from coinprune.cli import main as cli_main
from coinprune.coordination import PulseParams
from coinprune.hashing import hash160, hash256, sha256
from coinprune.netsim import NodeConfig, SimScenario, run_simulation
from coinprune.security import SweepConfig, percent_grid, sweep
from coinprune.snapshot import build_snapshot

from oracles import (appdata_entries, compress_script, decompress,
                     op_return_entries, utxo_records)

GRID_TIME_BUDGET = 120.0  # seconds per (delta_r, k) grid, binomial path


def _nodes(joining=True):
    nodes = [NodeConfig("m0", "miner"), NodeConfig("m1", "miner"),
             NodeConfig("m2", "miner"), NodeConfig("full0", "full")]
    if joining:
        nodes.append(NodeConfig("j0", "joining"))
    return tuple(nodes)


# a reaffirmation frame; the tally counts a coinbase's first one
_FRAME = re.compile(rb"CoinPrune/(.{32})/", re.DOTALL)


def _window_winner(blocks, pulse_height: int, params: PulseParams):
    """Independent oracle: the tag a pulse's reaffirmation window accepts,
    tallied here from the coinbase unlocks of the chain, or None. Each
    coinbase counts its first frame once; a unique most-frequent tag with
    at least k counts wins."""
    start = pulse_height + params.delta_d + 1
    window = [blocks[h] for h in
              range(start, min(start + params.delta_r, len(blocks)))]
    if len(window) != params.delta_r:
        return None
    counts = Counter()
    for block in window:
        frame = _FRAME.search(block.transactions[0].inputs[0].unlock)
        if frame:
            counts[frame.group(1)] += 1
    ranked = counts.most_common(2) + [(None, 0)]
    if ranked[0][1] < params.k or ranked[0][1] == ranked[1][1]:
        return None
    return ranked[0][0]


def _replayed_coins(blocks) -> dict:
    """Independent oracle: the unspent outputs after `blocks`, replayed
    over a plain dict {(txid, vout): (amount, height, coinbase, script)}.
    Each txid is hashed here from the transaction's bytes; an input
    deletes the outpoint it spends, and an output whose script starts
    with 0x6a never enters. Proof of work, scripts and amounts are not
    checked again: criterion 3 is about the state the joiner ends in."""
    coins = {}
    for height, block in enumerate(blocks):
        for position, tx in enumerate(block.transactions):
            raw = tx.serialize()
            txid = hashlib.sha256(hashlib.sha256(raw).digest()).digest()
            if position:  # the coinbase spends nothing
                for txin in tx.inputs:
                    del coins[(txin.prev_txid, txin.prev_vout)]
            for vout, out in enumerate(tx.outputs):
                if out.script[:1] != b"\x6a":
                    coins[(txid, vout)] = (out.amount, height, position == 0,
                                           out.script)
    return coins


def _state_matches(coins: dict, raw: bytes) -> bool:
    """Whether the UTXO set bytes `raw`, read in the documented record
    layout, hold exactly `coins` in strictly ascending (txid, vout)
    order, each script in the case the case table gives it, so that the
    bytes themselves, not only the coins they decode to, are fixed."""
    held = utxo_records(raw)
    outpoints = [coin[:2] for coin in held]
    ascending = all(a < b for a, b in zip(outpoints, outpoints[1:]))
    return ascending and {
        outpoint: (amount, height, coinbase, compress_script(script))
        for outpoint, (amount, height, coinbase, script) in coins.items()} \
        == {(txid, vout): (amount, height, coinbase, compressed)
            for txid, vout, amount, height, coinbase, compressed in held}


def test_replay_oracle_catches_a_differing_set():
    builder = ChainBuilder(light_profile(), ChainParams(), 4)
    coins = _replayed_coins(builder.build(120))
    records = list(builder.utxo.records())
    assert len(records) == len(coins) > 2
    assert _state_matches(coins, b"".join(records))
    changed = bytearray(records[0])
    changed[36] ^= 1  # the amount's low byte
    # a P2PKH coin stored verbatim decodes to the same script
    at = next(i for i, record in enumerate(records) if record[49] == 0x00)
    verbatim = records[:at] + [records[at][:49] + bytes([0x0A + 25])
                               + decompress((0x00, records[at][50:70]))] \
        + records[at + 1:]
    for raw in (b"".join(records[1:]), b"".join(records[:-1]),
                bytes(changed) + b"".join(records[1:]),
                b"".join([records[1], records[0]] + records[2:]),
                b"".join(verbatim)):
        assert not _state_matches(coins, raw)


def _replay_from_wire(blocks) -> UtxoSet:
    """The set after every block, each reparsed from its bytes and
    replayed from genesis."""
    params = ChainParams()
    utxo = UtxoSet()
    prev = b"\x00" * 32
    for height, block in enumerate(blocks):
        reparsed, _ = Block.parse(block.serialize(), 0)
        validate_and_apply_block(utxo, reparsed, height, prev, params)
        prev = reparsed.block_id()
    return utxo


@pytest.fixture(scope="module")
def tight_sweeps():
    """Full percent grid at delta_r=1000, one sweep per k, each timed."""
    results = {}
    for k in (5, 10, 20):
        config = SweepConfig(delta_r_values=(1000,), k_values=(k,),
                             seed=101 + k)
        start = time.perf_counter()
        results[k] = (sweep(config), time.perf_counter() - start)
    return results


@pytest.fixture(scope="module")
def wide_sweep():
    """Full percent grid at delta_r=100 for all three k values."""
    return sweep(SweepConfig(delta_r_values=(100,), k_values=(5, 10, 20),
                             seed=202))


def test_criterion_1_compromise_thresholds(tight_sweeps, acceptance):
    supported = [f for f in percent_grid() if f >= 0.31]
    ok = True
    floors, at_full, times = {}, {}, {}
    for k, (result, elapsed) in tight_sweeps.items():
        mins = [result.min_fa_compromise(f, 1000, k) for f in supported]
        ok = ok and all(m is not None for m in mins)
        floors[k] = min(m for m in mins if m is not None)
        at_full[k] = result.min_fa_compromise(1.0, 1000, k)
        times[k] = elapsed
        # 46% floor and 48% at full support, both with the 3 pp band
        ok = ok and floors[k] >= 0.43
        ok = ok and at_full[k] is not None and 0.45 <= at_full[k] <= 0.51
        ok = ok and elapsed < GRID_TIME_BUDGET
    ok = ok and max(at_full.values()) - min(at_full.values()) <= 0.02
    acceptance(1, ok,
               "min_fA over f_C>=0.31 = "
               + "/".join(f"{floors[k]:.2f}" for k in (5, 10, 20))
               + ", min_fA(1.0) = "
               + "/".join(f"{at_full[k]:.2f}" for k in (5, 10, 20))
               + " for k=5/10/20, grid times "
               + "/".join(f"{times[k]:.1f}s" for k in (5, 10, 20)))


def test_criterion_2_skip_risk_ordering(tight_sweeps, wide_sweep, acceptance):
    # band means over low support; 3 sigma on a mean of 15 cells at 1000
    # trials is under 0.0175
    band = [i / 100 for i in range(1, 16)]
    margin = 0.0175
    means = {k: sum(wide_sweep.worst_skip(f, 100, k) for f in band) / len(band)
             for k in (5, 10, 20)}
    increasing = (means[10] - means[5] > margin
                  and means[20] - means[10] > margin)
    supported = [f for f in percent_grid() if f >= 0.31]
    floor_100_k20 = min(wide_sweep.worst_skip(f, 100, 20) for f in supported)
    peaks_1000 = {k: max(result.worst_skip(f, 1000, k) for f in supported)
                  for k, (result, _) in tight_sweeps.items()}
    below = all(peak < floor_100_k20 for peak in peaks_1000.values())
    acceptance(2, increasing and below,
               f"low-support skip means k=5/10/20: "
               + "/".join(f"{means[k]:.3f}" for k in (5, 10, 20))
               + f"; dR=1000 worst skip at f_C>=0.31 "
               + "/".join(f"{peaks_1000[k]:.3f}" for k in (5, 10, 20))
               + f" all under dR=100,k=20 floor {floor_100_k20:.3f}")


def test_criterion_3_bootstrap_equivalence(acceptance):
    combos = [(blocks, dp, dr)
              for blocks in (1200, 1500, 2000, 2400, 3000)
              for dp in (200, 500)
              for dr in (50, 100)]
    assert len(combos) == 20
    failures = []
    for i, (blocks, dp, dr) in enumerate(combos):
        params = PulseParams(delta_p=dp, delta_r=dr, delta_d=6, k=5)
        scenario = SimScenario(nodes=_nodes(), params=params,
                               chain_length=blocks, seed=1000 + i)
        sim, _ = run_simulation(scenario)
        outcome = sim.join_results["j0"]
        if not (outcome.accepted and outcome.via_snapshot):
            failures.append((blocks, dp, dr, outcome.reason))
            continue
        if not _state_matches(_replayed_coins(sim.builder.blocks),
                              bytes(sim.join_utxo["j0"])):
            failures.append((blocks, dp, dr, "state mismatch"))
    acceptance(3, not failures,
               f"{len(combos) - len(failures)}/{len(combos)} scenarios "
               f"equal to a test-side replay from genesis"
               + (f"; failures {failures}" if failures else ""))


def test_criterion_4_tamper_rejection(acceptance):
    mixes = (
        ("bogus_tags",),
        ("bogus_chunks",),
        ("bogus_snapshot",),
        ("eclipse", "bogus_snapshot"),
        ("eclipse", "bogus_chunks"),
        ("bogus_tags", "bogus_chunks"),
        ("bogus_tags", "bogus_snapshot"),
        ("bogus_chunks", "bogus_snapshot"),
        ("eclipse", "bogus_tags"),
        ("eclipse", "bogus_tags", "bogus_chunks", "bogus_snapshot"),
    )
    nodes = (NodeConfig("m0", "miner"), NodeConfig("m1", "miner"),
             NodeConfig("m2", "miner"),
             NodeConfig("advm", "miner", adversarial=True),
             NodeConfig("full0", "full"),
             NodeConfig("advf", "full", adversarial=True),
             NodeConfig("j0", "joining"))
    params = PulseParams(delta_p=200, delta_r=50, delta_d=6, k=5)
    violations = []
    accepted = aborted = 0
    for seed in range(100):
        scenario = SimScenario(nodes=nodes, params=params, chain_length=300,
                               seed=seed, faults=mixes[seed % len(mixes)])
        sim, _ = run_simulation(scenario)
        outcome = sim.join_results["j0"]
        if not outcome.accepted:
            aborted += 1
            continue
        accepted += 1
        if not outcome.via_snapshot:
            continue
        # what the joiner holds must be the tag its pulse window
        # accepted on the chain
        held = sim.nodes["j0"].held
        if held is None:
            violations.append(seed)
            continue
        snap, app = held
        tag = hash256(snap.id + app.id)
        if tag != _window_winner(sim.builder.blocks, snap.header.height,
                                 params):
            violations.append(seed)
    acceptance(4, not violations,
               f"100 fault scenarios: {accepted} accepted, {aborted} aborted, "
               f"{len(violations)} snapshot/tag violations")


def test_criterion_5_obfuscation_equivalence(acceptance):
    n_per_class = 10_000
    expected_delta = {"p2pkh": 12, "p2sh": 12, "p2wpkh": 10, "p2wsh": -2}
    rng = random.Random(55)
    disagreements = leaks = bad_deltas = bad_valid = 0
    for cls in ("p2pkh", "p2sh", "p2wpkh", "p2wsh"):
        for i in range(n_per_class):
            if cls in ("p2pkh", "p2wpkh"):
                key = bytes([0x02 | (i & 1)]) + rng.randbytes(32)
                mutable = hash160(key)
                script = (scripts.p2pkh_script(mutable) if cls == "p2pkh"
                          else scripts.p2wpkh_script(mutable))
                make_valid = lambda ctx: scripts.key_unlock(key, ctx)
                make_wrong = lambda ctx: scripts.key_unlock(
                    b"\x02" + hash256(key), ctx)
            else:
                inner = rng.randbytes(rng.randint(8, 40))
                if cls == "p2sh":
                    mutable = hash160(inner)
                    script = scripts.p2sh_script(mutable)
                else:
                    mutable = sha256(inner)
                    script = scripts.p2wsh_script(mutable)
                make_valid = lambda ctx: scripts.script_unlock(inner, ctx)
                make_wrong = lambda ctx: scripts.script_unlock(
                    hash256(inner)[:len(inner)] or b"\x51", ctx)
            txid = hash256(cls.encode() + struct.pack("<I", i))
            ctx = scripts.SpendContext(txid, i % 5)
            plain = scripts.compress(script)
            obf = scripts.obfuscate(plain)
            good = make_valid(ctx)
            if not scripts.validate_spend(plain, good, ctx):
                bad_valid += 1
            tampered = good[:-1] + bytes([good[-1] ^ 1])
            for unlock in (good, tampered, good[:-1], make_wrong(ctx), b""):
                if scripts.validate_spend(plain, unlock, ctx) \
                        != scripts.validate_spend(obf, unlock, ctx):
                    disagreements += 1
            raw_plain = pack_record(txid, i % 5, 5000 + i, i, False, plain)
            raw_obf = obfuscate_record(raw_plain)
            if mutable in raw_obf:
                leaks += 1
            if len(raw_obf) - len(raw_plain) != expected_delta[cls]:
                bad_deltas += 1
    ok = disagreements == leaks == bad_deltas == bad_valid == 0
    acceptance(5, ok,
               f"{n_per_class} outputs/class x 4 classes: "
               f"{disagreements} plain/obfuscated disagreements, "
               f"{leaks} leaked values, {bad_deltas} wrong size deltas "
               f"(+12 p2pkh/p2sh, +10 p2wpkh, -2 p2wsh)")


def test_criterion_6_storage_accounting(acceptance, pulse_wire_sizes):
    params = PulseParams(delta_p=200, delta_r=50, delta_d=6, k=5)
    profile = WorkloadProfile(txs_per_block=12, spend_probability=0.05)
    scenario = SimScenario(nodes=_nodes(joining=False), params=params,
                           chain_length=6400, seed=60, profile=profile)
    sim, report = run_simulation(scenario)

    def pruned_bytes(tip: int):
        """Storage of a pruned node whose chain stops at height tip."""
        best = None
        for index in sorted(sim.pulses):
            rec = sim.pulses[index]
            closes = rec.height + params.delta_d + params.delta_r
            if closes <= tip and rec.outcome is not None \
                    and rec.outcome.accepted \
                    and rec.outcome.tag == rec.genuine_tag:
                best = rec
        full = sum(map(sim.builder.blocks.size, range(tip + 1)))
        if best is None:
            return full, full, 0
        # sized as made: the run drops a superseded pulse's snapshots
        pruned = (140 * (tip + 1)
                  + pulse_wire_sizes[best.index, "genuine_snap"]
                  + pulse_wire_sizes[best.index, "genuine_app"]
                  + sum(map(sim.builder.blocks.size,
                            range(best.height + 1, tip + 1))))
        return pruned, full, best.height

    ratios = {}
    for tip in (1600, 3000, 3200, 6400):
        pruned, full, _ = pruned_bytes(tip)
        ratios[tip] = pruned / full
    closed_by_3000 = sum(
        1 for rec in sim.pulses.values()
        if rec.height + params.delta_d + params.delta_r <= 3000
        and rec.outcome is not None and rec.outcome.accepted)
    breakdown = {row[0]: row for row in report.breakdown}
    tied = pruned_bytes(6400)[0] == sum(breakdown["full0"][1:])
    ok = (closed_by_3000 >= 2 and ratios[3000] < 0.20
          and ratios[1600] > ratios[3200] > ratios[6400] and tied)
    acceptance(6, ok,
               f"{closed_by_3000} accepted pulses by 3000, "
               f"pruned/full at 3000 = {ratios[3000]:.3f}, "
               f"doubling 1600/3200/6400 = {ratios[1600]:.3f}/"
               f"{ratios[3200]:.3f}/{ratios[6400]:.3f}, "
               f"report row {'matches' if tied else 'differs'}")


def test_criterion_7_appdata_preservation(acceptance):
    profile = WorkloadProfile(txs_per_block=8, spend_probability=0.05,
                              op_return_rate=0.3)
    params = PulseParams(delta_p=500, delta_r=100, delta_d=6, k=5)
    scenario = SimScenario(nodes=_nodes(), params=params, chain_length=1500,
                           seed=70, profile=profile)
    sim, _ = run_simulation(scenario)
    outcome = sim.join_results["j0"]
    expected = [e for _, e in op_return_entries(sim.builder.blocks)]
    # the joiner's store read back in order, as it would serve it
    tip = sim.builder.height
    found = appdata_entries(
        sim.join_stores["j0"].snapshot_at(
            tip, sim.builder.headers.block_id(tip)))
    kept = sum(1 for got, want in zip(found, expected) if got == want)
    held = sim.nodes["j0"].held
    tag_ok = False
    if held is not None:
        snap, app = held
        rec = sim.pulses[snap.header.height // params.delta_p]
        tag_ok = rec.outcome.tag == hash256(snap.id + app.id)
    ok = (outcome.accepted and outcome.via_snapshot
          and sim.nodes["full0"].pruned_below == 1001
          and len(expected) > 0 and found == expected and tag_ok)
    acceptance(7, ok,
               f"{kept}/{len(expected)} payloads kept in chain order with "
               f"their txid/block id after pruning to 1001; combined tag "
               f"{'verified' if tag_ok else 'MISMATCH'}")


def test_criterion_8_determinism(tmp_path, acceptance):
    params = PulseParams(delta_p=200, delta_r=50, delta_d=6, k=5)
    scenario = SimScenario(nodes=_nodes(), params=params, chain_length=460,
                           seed=0)
    sim1, rep1 = run_simulation(scenario)
    sim2, rep2 = run_simulation(scenario)
    trace_ok = (sim1.trace.to_text() == sim2.trace.to_text()
                and rep1.to_csv() == rep2.to_csv()
                and rep1.breakdown_csv() == rep2.breakdown_csv()
                and rep1.pulse_outcomes == rep2.pulse_outcomes
                and rep1.join_outcomes == rep2.join_outcomes)

    chain_a = ChainBuilder(light_profile(), ChainParams(), 3).build(200)
    chain_b = ChainBuilder(light_profile(), ChainParams(), 3).build(200)
    chain_ok = [b.serialize() for b in chain_a] \
        == [b.serialize() for b in chain_b]

    utxo = _replay_from_wire(chain_a)
    shuffled = UtxoSet()
    coins = utxo_records(bytes(utxo))
    random.Random(8).shuffle(coins)
    for txid, vout, amount, height, coinbase, compressed in coins:
        shuffled.add_records({outpoint_key(txid, vout): pack_record(
            txid, vout, amount, height, coinbase,
            scripts.CompressedTxOut(*compressed))})
    tip_id = chain_a[-1].block_id()
    snap_a = build_snapshot(utxo, 200, tip_id)
    snap_b = build_snapshot(shuffled, 200, tip_id)
    snapshot_ok = snap_a.id == snap_b.id and snap_a.chunks == snap_b.chunks

    base = ["sim", "security", "--delta-r", "1000", "--k", "5", "--trials",
            "300", "--seed", "7", "--step", "5", "--out-dir", str(tmp_path)]
    csv_ok = cli_main(base + ["--prefix", "r1"]) == 0
    csv_ok = csv_ok and cli_main(base + ["--prefix", "r2"]) == 0
    csv_ok = csv_ok and cli_main(base + ["--prefix", "r4", "--jobs", "4"]) == 0
    for suffix in ("sweep.csv", "thresholds.csv", "thresholds.svg",
                   "skip.svg"):
        first = (tmp_path / f"r1_{suffix}").read_bytes()
        csv_ok = csv_ok and (tmp_path / f"r2_{suffix}").read_bytes() == first
        csv_ok = csv_ok and (tmp_path / f"r4_{suffix}").read_bytes() == first

    ok = trace_ok and chain_ok and snapshot_ok and csv_ok
    acceptance(8, ok,
               f"traces {'ok' if trace_ok else 'DIFFER'}, "
               f"chains {'ok' if chain_ok else 'DIFFER'}, "
               f"snapshots insertion-order free {'ok' if snapshot_ok else 'DIFFER'}, "
               f"sweep artifacts across runs and jobs "
               f"{'ok' if csv_ok else 'DIFFER'}")
