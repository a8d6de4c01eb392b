import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinprune.appdata import (AppDataEntry, AppDataStore, combined_tag,
                               parse_store)
from coinprune.chain import ChainParams, UtxoSet, validate_and_apply_block
from coinprune.chaingen import WorkloadProfile, generate_chain
from coinprune.hashing import hash256
from coinprune.scripts import decompress, is_op_return
from coinprune.snapshot import Snapshot, SnapshotError

# hash256 of thirty-two 0x01 bytes followed by thirty-two 0x02 bytes
COMBINED_GOLDEN = "39ce20bede82c96b8908bec4a157b09c549b3db90b9b474bda9ae9b9030310b4"

OP_RETURN_HEAVY = WorkloadProfile(txs_per_block=10, op_return_rate=0.5, seed=77)


@pytest.fixture(scope="module")
def op_return_chain():
    return generate_chain(OP_RETURN_HEAVY, 120)


def _oracle_entries(blocks):
    """Independent scan: every output script framed 0x6a len payload."""
    found = []
    for height, block in enumerate(blocks):
        block_id = block.block_id()
        for tx in block.transactions:
            for out in tx.outputs:
                script = out.script
                if script[:1] == b"\x6a":
                    payload = script[2:2 + script[1]]
                    found.append((height, AppDataEntry(payload, tx.txid(),
                                                       block_id)))
    return found


def test_extraction_matches_independent_scan(op_return_chain):
    store = AppDataStore()
    for height, block in enumerate(op_return_chain):
        store.add_block(block, height)
    expected = _oracle_entries(op_return_chain)
    assert len(store) == len(expected) > 50
    assert store.entries() == [e for _, e in expected]


def test_lookup_by_txid(op_return_chain):
    store = AppDataStore()
    for height, block in enumerate(op_return_chain):
        store.add_block(block, height)
    for _, entry in _oracle_entries(op_return_chain):
        assert entry in store.lookup(entry.txid)
    assert store.lookup(b"\x00" * 32) == []


def test_payloads_never_enter_utxo_set(op_return_chain):
    utxo = UtxoSet()
    prev = b"\x00" * 32
    for height, block in enumerate(op_return_chain):
        validate_and_apply_block(utxo, block, height, prev, ChainParams())
        prev = block.block_id()
    assert len(utxo) > 0
    for entry in utxo.entries():
        assert not is_op_return(decompress(entry.compressed))


@given(st.binary(max_size=255), st.binary(min_size=32, max_size=32),
       st.binary(min_size=32, max_size=32))
def test_entry_roundtrip(payload, txid, block_id):
    entry = AppDataEntry(payload, txid, block_id)
    raw = entry.serialize()
    assert len(raw) == 1 + len(payload) + 64
    decoded, used = AppDataEntry.decode(raw, 0)
    assert decoded == entry
    assert used == len(raw)


def test_snapshot_roundtrip(op_return_chain):
    store = AppDataStore()
    for height, block in enumerate(op_return_chain):
        store.add_block(block, height)
    tip = len(op_return_chain) - 1
    snap = store.snapshot_at(tip, op_return_chain[tip].block_id())
    assert snap.header.height == tip
    restored = parse_store(snap)
    assert restored.entries() == store.entries()
    # same seed, same chain, same snapshot id
    again = store.snapshot_at(tip, op_return_chain[tip].block_id())
    assert again.id == snap.id


def test_combined_tag_golden_vector():
    tag = combined_tag(b"\x01" * 32, b"\x02" * 32)
    assert tag.hex() == COMBINED_GOLDEN
    assert tag == hash256(b"\x01" * 32 + b"\x02" * 32)


def test_combined_tag_rejects_bad_lengths():
    with pytest.raises(ValueError):
        combined_tag(b"\x01" * 31, b"\x02" * 32)
    with pytest.raises(ValueError):
        combined_tag(b"\x01" * 32, b"")


# chunk bytes: well-formed entries mixed with arbitrary bytes
entry_soup = st.lists(st.one_of(
    st.builds(AppDataEntry, st.binary(max_size=80),
              st.binary(min_size=32, max_size=32),
              st.binary(min_size=32, max_size=32)).map(AppDataEntry.serialize),
    st.binary(max_size=100)), max_size=5).map(b"".join)


@given(st.lists(entry_soup, max_size=3))
def test_parse_store_fails_closed(chunks):
    snap = Snapshot.assemble(1, b"\x00" * 32, chunks)
    try:
        store = parse_store(snap)
    except SnapshotError:
        return
    assert b"".join(e.serialize() for e in store.entries()) == b"".join(chunks)
