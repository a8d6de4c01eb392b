import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinprune.appdata import (AppDataEntry, AppDataStore, combined_tag,
                               parse_store)
from coinprune.chain import ChainParams, UtxoSet, validate_and_apply_block
from coinprune.chaingen import WorkloadProfile, generate_chain
from coinprune.hashing import hash256
from coinprune.scripts import is_op_return
from coinprune.snapshot import Snapshot, SnapshotError

from oracles import appdata_entries, decompress, op_return_entries

# hash256 of thirty-two 0x01 bytes followed by thirty-two 0x02 bytes
COMBINED_GOLDEN = "39ce20bede82c96b8908bec4a157b09c549b3db90b9b474bda9ae9b9030310b4"

OP_RETURN_HEAVY = WorkloadProfile(txs_per_block=10, op_return_rate=0.5)


@pytest.fixture(scope="module")
def op_return_chain():
    return generate_chain(OP_RETURN_HEAVY, 120, seed=77)


def _store(blocks) -> AppDataStore:
    store = AppDataStore()
    for height, block in enumerate(blocks):
        store.add_block(block, height, block.block_id())
    return store


def _entries(store: AppDataStore, blocks) -> list[tuple]:
    """The store's entries in order, read back through its snapshot."""
    tip = len(blocks) - 1
    return appdata_entries(store.snapshot_at(tip, blocks[tip].block_id()))


def test_extraction_matches_independent_scan(op_return_chain):
    store = _store(op_return_chain)
    expected = op_return_entries(op_return_chain)
    assert len(store) == len(expected) > 50
    assert _entries(store, op_return_chain) == [e for _, e in expected]


def test_parsed_store_matches_independent_scan(op_return_chain):
    # a joiner's store is parsed from the fetched snapshot
    tip = len(op_return_chain) - 1
    snap = _store(op_return_chain).snapshot_at(
        tip, op_return_chain[tip].block_id())
    assert _entries(parse_store(snap), op_return_chain) \
        == [e for _, e in op_return_entries(op_return_chain)]


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
    store = _store(op_return_chain)
    tip = len(op_return_chain) - 1
    snap = store.snapshot_at(tip, op_return_chain[tip].block_id())
    assert snap.header.height == tip
    restored = parse_store(snap)
    assert _entries(restored, op_return_chain) \
        == _entries(store, op_return_chain)
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


def test_parse_store_rejects_an_entry_split_across_chunks():
    raw = AppDataEntry(b"anchored", b"\x01" * 32, b"\x02" * 32).serialize()
    snap = Snapshot.assemble(1, b"\x00" * 32, [raw[:20], raw[20:]])
    with pytest.raises(SnapshotError):
        parse_store(snap)


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
    assert b"".join(store.snapshot_at(1, b"\x00" * 32).chunks) \
        == b"".join(chunks)
