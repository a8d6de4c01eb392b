"""Workload generator checks.

The one non-negotiable property is that generated chains replay cleanly
through the consensus validator from a fresh UTXO set; everything else
(mixture fractions, equilibrium set size) gets loose statistical bounds
because the generator is workload shaping, not protocol.
"""

import gc
import types
from itertools import islice

import pytest

from coinprune.chain import (Block, ChainParams, Transaction, UtxoSet,
                             validate_and_apply_block)
from coinprune.chaingen import ChainBuilder, WorkloadProfile, light_profile
from coinprune.scripts import MAX_OP_RETURN_PAYLOAD, ScriptClass, classify

from oracles import decompress, utxo_records


@pytest.fixture(scope="module")
def default_chain():
    return ChainBuilder(WorkloadProfile(), ChainParams(), 42).build(1200)


def _chain_bytes(blocks):
    return b"".join(b.serialize() for b in blocks)


def test_same_seed_same_bytes():
    a = ChainBuilder(light_profile(), ChainParams(), 9).build(60)
    b = ChainBuilder(light_profile(), ChainParams(), 9).build(60)
    assert _chain_bytes(a) == _chain_bytes(b)


def test_different_seed_different_bytes():
    a = ChainBuilder(light_profile(), ChainParams(), 9).build(60)
    b = ChainBuilder(light_profile(), ChainParams(), 10).build(60)
    assert _chain_bytes(a) != _chain_bytes(b)


def test_chain_replays_through_validator(default_chain):
    # reparse every block from wire bytes and revalidate from scratch:
    # the builder may not hand back anything only it can accept
    utxo = UtxoSet()
    params = ChainParams()
    prev = b"\x00" * 32
    for height, block in enumerate(default_chain):
        raw = block.serialize()
        reparsed, used = Block.parse(raw, 0)
        assert used == len(raw)
        validate_and_apply_block(utxo, reparsed, height, prev, params)
        prev = reparsed.block_id()
    assert len(utxo) > 0


def test_mixture_fractions(default_chain):
    counts = {}
    total = 0
    for block in default_chain:
        for tx in block.transactions[1:]:
            for out in tx.outputs:
                cls = classify(out.script)
                if cls is ScriptClass.OP_RETURN:
                    continue  # extra outputs on top of the mixture draw
                counts[cls] = counts.get(cls, 0) + 1
                total += 1
    assert total > 30000
    assert abs(counts[ScriptClass.P2PKH] / total - 0.85) < 0.03
    assert abs(counts[ScriptClass.P2SH] / total - 0.08) < 0.02
    assert counts[ScriptClass.P2WPKH] > 0
    assert counts[ScriptClass.P2WSH] > 0
    assert counts[ScriptClass.P2MS] > 0
    assert counts[ScriptClass.NONSTANDARD] > 0
    # both parities of both p2pk encodings actually occur
    for cls in (ScriptClass.P2PK_COMPRESSED_EVEN, ScriptClass.P2PK_COMPRESSED_ODD,
                ScriptClass.P2PK_UNCOMPRESSED_EVEN, ScriptClass.P2PK_UNCOMPRESSED_ODD):
        assert counts[cls] > 0


def test_op_return_outputs_generated_and_excluded(default_chain):
    seen = 0
    for block in islice(default_chain, 400):
        for tx in block.transactions[1:]:
            for out in tx.outputs:
                if classify(out.script) is ScriptClass.OP_RETURN:
                    seen += 1
                    assert out.amount == 0
                    assert 1 <= len(out.script) - 2 <= MAX_OP_RETURN_PAYLOAD
    assert seen > 50
    utxo = UtxoSet()
    params = ChainParams()
    prev = b"\x00" * 32
    for height, block in enumerate(islice(default_chain, 200)):
        validate_and_apply_block(utxo, block, height, prev, params)
        prev = block.block_id()
    for *_, compressed in utxo_records(bytes(utxo)):
        assert classify(decompress(compressed)) is not ScriptClass.OP_RETURN


def test_utxo_size_stays_in_equilibrium(default_chain):
    utxo = UtxoSet()
    params = ChainParams()
    prev = b"\x00" * 32
    total_outputs = 0
    for height, block in enumerate(default_chain):
        validate_and_apply_block(utxo, block, height, prev, params)
        prev = block.block_id()
        total_outputs += sum(len(tx.outputs) for tx in block.transactions)
    # spend pressure keeps the live set a sliver of everything ever created
    assert len(utxo) < 0.10 * total_outputs
    assert 1000 < len(utxo) < 2500


def test_light_profile_is_lighter():
    default = ChainBuilder(WorkloadProfile(), ChainParams(), 42)
    default.build(400)
    light = ChainBuilder(light_profile(), ChainParams(), 42)
    light.build(400)
    # compare steady-state tails; early blocks are wallet-constrained in
    # both profiles and tell you nothing
    tail = range(300, len(light.blocks))
    default_tail = sum(map(default.blocks.size, tail))
    light_tail = sum(map(light.blocks.size, tail))
    assert light_tail < default_tail


def test_builder_keeps_no_parsed_blocks():
    # the builder holds its chain as bytes: nothing it references, short
    # of classes, modules and functions, is a parsed block or transaction
    builder = ChainBuilder(light_profile(), ChainParams(), 7)
    builder.build(30)
    seen, stack, parsed = set(), [builder], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (Block, Transaction)):
            parsed.append(obj)
        stack.extend(gc.get_referents(obj))
    assert {id(builder.wallet), id(builder.utxo), id(builder.blocks)} <= seen
    assert not parsed


def test_unfundable_profile_degrades_to_coinbase_blocks():
    profile = WorkloadProfile(txs_per_block=50, spend_probability=0.0)
    blocks = ChainBuilder(profile, ChainParams(), 3).build(20)
    assert all(len(b.transactions) == 1 for b in islice(blocks, 1, None))
