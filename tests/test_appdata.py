import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinprune.appdata import AppDataStore, combined_tag, parse_store
from coinprune.chain import ChainParams, UtxoSet, validate_and_apply_block
from coinprune.chaingen import ChainBuilder, WorkloadProfile
from coinprune.hashing import hash256
from coinprune.scripts import is_op_return
from coinprune.snapshot import Snapshot, SnapshotError, chunk_records

from oracles import (appdata_entries, appdata_entry, decompress,
                     op_return_entries, utxo_records)

# hash256 of thirty-two 0x01 bytes followed by thirty-two 0x02 bytes
COMBINED_GOLDEN = "39ce20bede82c96b8908bec4a157b09c549b3db90b9b474bda9ae9b9030310b4"

OP_RETURN_HEAVY = WorkloadProfile(txs_per_block=10, op_return_rate=0.5)


@pytest.fixture(scope="module")
def op_return_chain():
    return ChainBuilder(OP_RETURN_HEAVY, ChainParams(), 77).build(120)


def _store(blocks) -> AppDataStore:
    store = AppDataStore()
    for block in blocks:
        store.add_block(block, block.block_id())
    return store


def _entries(store: AppDataStore, blocks) -> list[tuple]:
    """The store's entries in order, read back through its snapshot."""
    tip = len(blocks) - 1
    return appdata_entries(store.snapshot_at(tip, blocks[tip].block_id()))


def test_extraction_matches_independent_scan(op_return_chain):
    store = _store(op_return_chain)
    expected = [e for _, e in op_return_entries(op_return_chain)]
    assert len(expected) > 50
    assert _entries(store, op_return_chain) == expected


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
    for *_, compressed in utxo_records(bytes(utxo)):
        assert not is_op_return(decompress(compressed))


@given(st.binary(max_size=255), st.binary(min_size=32, max_size=32),
       st.binary(min_size=32, max_size=32))
@example(b"\x6a" * 80, b"\x01" * 32, b"\x02" * 32)
@example(b"\x6a" * 81, b"\x01" * 32, b"\x02" * 32)
def test_entry_roundtrip(payload, txid, block_id):
    # payloads of up to 80 bytes round-trip through a parsed store;
    # a longer one is refused
    snap = Snapshot.assemble(1, b"\x00" * 32,
                             [appdata_entry(payload, txid, block_id)])
    if len(payload) > 80:
        with pytest.raises(SnapshotError, match="above 80 bytes"):
            parse_store(snap)
        return
    store = parse_store(snap)
    assert appdata_entries(store.snapshot_at(1, b"\x00" * 32)) \
        == [(payload, txid, block_id)]


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


def test_stores_are_equal_when_entries_are(op_return_chain):
    store = _store(op_return_chain)
    assert store == _store(op_return_chain)
    assert store != AppDataStore()
    # a joiner's parsed store equals the one its snapshot was cut from
    tip = len(op_return_chain) - 1
    assert parse_store(store.snapshot_at(
        tip, op_return_chain[tip].block_id())) == store
    assert _store(islice(op_return_chain, tip)) != store
    assert store != object()


def test_a_store_holds_under_12_traced_bytes_per_entry_beyond_its_bytes(
        op_return_chain):
    # held as (height, entry) tuples with a bytes object per field, an
    # entry traced about 300 bytes; beside its entries' bytes, a store
    # holds only the slack its buffer grows by
    rng = random.Random(18)
    fetched = [appdata_entry(rng.randbytes(rng.randrange(81)),
                             rng.randbytes(32), rng.randbytes(32))
               for _ in range(3000)]
    snap = Snapshot.assemble(50, b"\x00" * 32, chunk_records(fetched))
    tip = len(op_return_chain) - 1
    tracemalloc.start()
    try:
        store = parse_store(snap)  # a joiner's store, then its chaintail
        for block in op_return_chain:
            store.add_block(block, block.block_id())
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = appdata_entries(store.snapshot_at(tip, b"\x00" * 32))
    assert len(entries) > 3000
    size = sum(1 + len(payload) + 64 for payload, _, _ in entries)
    assert (held - size) / len(entries) < 12


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
    raw = appdata_entry(b"anchored", b"\x01" * 32, b"\x02" * 32)
    snap = Snapshot.assemble(1, b"\x00" * 32, [raw[:20], raw[20:]])
    with pytest.raises(SnapshotError):
        parse_store(snap)


# chunk bytes: well-formed entries mixed with arbitrary bytes
entry_soup = st.lists(st.one_of(
    st.builds(appdata_entry, st.binary(max_size=80),
              st.binary(min_size=32, max_size=32),
              st.binary(min_size=32, max_size=32)),
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
