import random
import struct
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinprune import snapshot as snapshot_mod
from coinprune.chain import (ChainError, UtxoEntry, UtxoSet,
                             obfuscate_record, outpoint_key, pack_record)
from coinprune.hashing import hash256
from coinprune.scripts import (CompressedTxOut, compress, obfuscate,
                               p2pk_script, p2pkh_script, p2sh_script,
                               p2wpkh_script, p2wsh_script)
from coinprune.snapshot import (CHUNK_SIZE, Snapshot, SnapshotError,
                                SnapshotHeader, apply_snapshot,
                                build_snapshot, chunk_records,
                                read_snapshot_file, serialize_utxo_set,
                                verify_snapshot, wire_size,
                                write_snapshot_file)

from oracles import utxo_records

# layered id of the empty set at height 0 over a zero block id, frozen
EMPTY_ID = "c970065223a20aeffece263aab16497d3bf99fe6ae6b6e01e731f41dae07cffd"
# layered id over one fixed 1024-byte chunk (bytes 0..255 repeated), frozen
ONE_CHUNK_ID = "b46b688a02e3669a1328e6591af4e52d6934624fb2e5d7448c831fa3fb4fba36"
# the highest height a record can carry: a snapshot there holds any coin
TOP = 2 ** 32 - 1


def _entry(i: int, vout: int = 0, script: bytes | None = None) -> UtxoEntry:
    txid = hash256(i.to_bytes(8, "little"))
    compressed = compress(script or p2pkh_script(txid[:20]))
    return UtxoEntry(txid, vout, 1000 + i, i, i % 7 == 0, compressed)


def _key(entry: UtxoEntry) -> bytes:
    return outpoint_key(entry.txid, entry.vout)


def _packed(entry: UtxoEntry | None) -> bytes | None:
    """The record a set holds for the coin, or None for no coin."""
    return None if entry is None else pack_record(*entry)


def _filled_set(n: int) -> UtxoSet:
    utxo = UtxoSet()
    for i in range(n):
        utxo.add(_entry(i))
    return utxo


def _obfuscated_bytes(utxo: UtxoSet) -> bytes:
    """The set's records in canonical order, obfuscated, as a snapshot
    carries them."""
    snap = build_snapshot(utxo, 0, b"\x00" * 32, obfuscate=True)
    return b"".join(snap.chunks)


entries = st.builds(
    _entry, st.integers(0, 2 ** 30), st.integers(0, 50),
    st.one_of(st.none(), st.binary(min_size=1, max_size=80)
              .filter(lambda s: s[0] != 0x6a)))


# --- golden vectors --------------------------------------------------------

def test_empty_snapshot_golden_id():
    snap = build_snapshot(UtxoSet(), 0, b"\x00" * 32)
    assert snap.chunks == ()
    assert snap.id.hex() == EMPTY_ID
    assert snap.id == hash256(hash256(snap.header.serialize()))


def test_single_chunk_golden_id():
    chunk = bytes(range(256)) * 4
    assert Snapshot.assemble(7, b"\x11" * 32, [chunk]).id.hex() == ONE_CHUNK_ID


def test_layered_id_dual_route():
    utxo = _filled_set(40)
    snap = build_snapshot(utxo, 12, b"\x07" * 32)
    manual = hash256(hash256(snap.header.serialize())
                     + b"".join(hash256(c) for c in snap.chunks))
    assert snap.id == manual
    assert snap.digests == tuple(hash256(c) for c in snap.chunks)


# --- records ---------------------------------------------------------------
# read through UtxoSet.from_chunks, the path apply_snapshot takes

@given(entries)
def test_record_roundtrip(entry):
    raw = pack_record(*entry)
    utxo = UtxoSet.from_chunks([raw], TOP)
    assert len(utxo) == 1 and bytes(utxo) == raw
    assert utxo.record(_key(entry)) == pack_record(*entry)
    assert utxo_records(raw) == [entry]


@given(entries)
def test_obfuscated_record_roundtrip_keeps_flag(entry):
    raw = obfuscate_record(pack_record(*entry))
    [decoded] = utxo_records(UtxoSet.from_chunks([raw], TOP)
                             .record(_key(entry)))
    assert decoded[:5] == (entry.txid, entry.vout, entry.amount,
                           entry.height, entry.coinbase)


def test_decode_reports_byte_offset():
    first, second = sorted(pack_record(*e) for e in (_entry(1), _entry(2)))
    with pytest.raises(SnapshotError) as err:
        UtxoSet.from_chunks([first + second[:-1]], TOP)
    assert str(err.value) == f"truncated record payload at byte {len(first)}"


def test_serialization_sorted_by_outpoint():
    a, b = _filled_set(30), UtxoSet()
    shuffled = list(_filled_set(30).entries())
    random.Random(5).shuffle(shuffled)
    for entry in shuffled:
        b.add(entry)
    assert serialize_utxo_set(a) == serialize_utxo_set(b)


def test_obfuscated_serialization_hides_payloads():
    # script hashes must not be derived from the txid here, otherwise the
    # 20-byte value legitimately shows up inside the serialized outpoint
    utxo = UtxoSet()
    for i in range(25):
        script = p2pkh_script(hash256(b"addr" + i.to_bytes(8, "little"))[:20])
        utxo.add(_entry(i, script=script))
    plain = serialize_utxo_set(utxo)
    hidden = _obfuscated_bytes(utxo)
    assert plain != hidden
    for *_, (case, payload) in utxo_records(plain):
        if case == 0x00:  # p2pkh
            assert payload in plain
            assert payload not in hidden


# --- chunking -------------------------------------------------------------------

def test_chunks_respect_limit_and_never_split_records():
    utxo = _filled_set(20000)
    snap = build_snapshot(utxo, 99, b"\x01" * 32)
    assert len(snap.chunks) > 1
    assert snap.header.chunk_count == len(snap.chunks)
    total = 0
    for chunk in snap.chunks:
        assert 0 < len(chunk) <= CHUNK_SIZE
        # each chunk decodes standalone: records end exactly on the
        # chunk boundary, so none was split across chunks
        total += len(UtxoSet.from_chunks([chunk], TOP))
    assert total == len(utxo) == 20000


def test_chunking_is_greedy():
    records = [b"x" * (CHUNK_SIZE // 2 + 1)] * 3
    chunks = chunk_records(records)
    assert [len(c) for c in chunks] == [CHUNK_SIZE // 2 + 1] * 3
    small = list(chunk_records([b"ab"] * 100))
    assert len(small) == 1


def test_oversized_record_rejected():
    with pytest.raises(SnapshotError):
        list(chunk_records([b"y" * (CHUNK_SIZE + 1)]))


# --- verification ----------------------------------------------------------------

def test_verify_accepts_untampered():
    snap = build_snapshot(_filled_set(50), 5, b"\x02" * 32)
    check = verify_snapshot(snap, snap.id)
    assert check.ok and check.reason == ""


def test_verify_localizes_tampered_chunk(tmp_path):
    snap = build_snapshot(_filled_set(20000), 5, b"\x02" * 32)
    hashes = list(snap.digests)
    bad_idx = 1
    tampered = list(snap.chunks)
    flipped = bytearray(tampered[bad_idx])
    flipped[10] ^= 0xFF
    tampered[bad_idx] = bytes(flipped)
    # the same forgery made from chunks, and read back from a file with
    # the byte flipped
    path = tmp_path / "forged.snap"
    write_snapshot_file(path, snap)
    raw = bytearray(path.read_bytes())
    raw[40 + 4 + len(snap.chunks[0]) + 4 + 10] ^= 0xFF
    path.write_bytes(raw)

    for forged in (Snapshot.assemble(5, b"\x02" * 32, tampered),
                   read_snapshot_file(path)):
        with_hashes = verify_snapshot(forged, snap.id, hashes)
        assert not with_hashes.ok
        assert with_hashes.bad_chunk == bad_idx

        without = verify_snapshot(forged, snap.id)
        assert not without.ok
        assert without.bad_chunk is None


def test_verify_hashes_nothing(monkeypatch):
    # assemble hashed each chunk once; verify compares those digests
    snap = build_snapshot(_filled_set(20000), 5, b"\x02" * 32)
    calls = []

    def counting_hash256(data):
        calls.append(len(data))
        return hash256(data)

    monkeypatch.setattr(snapshot_mod, "hash256", counting_hash256)
    assert verify_snapshot(snap, snap.id, list(snap.digests)).ok
    assert not verify_snapshot(snap, b"\x00" * 32).ok
    assert calls == []


def test_file_rejects_a_wrong_chunk_count(tmp_path):
    snap = build_snapshot(_filled_set(10), 5, b"\x02" * 32)
    assert snap.header.chunk_count == 1
    path = tmp_path / "state.snap"
    write_snapshot_file(path, snap)
    raw = path.read_bytes()
    for count, message in ((2, "truncated chunk length"),
                           (0, "trailing bytes after final chunk")):
        # the count is the header's last four bytes
        path.write_bytes(raw[:36] + struct.pack("<I", count) + raw[40:])
        with pytest.raises(SnapshotError, match=message):
            read_snapshot_file(path)


# --- apply and files ---------------------------------------------------------------

def test_apply_roundtrip():
    utxo = _filled_set(300)
    snap = build_snapshot(utxo, 299, b"\x03" * 32)
    restored = apply_snapshot(snap)
    assert {e[:2]: e for e in utxo_records(bytes(restored))} == \
        {e[:2]: e for e in utxo_records(bytes(utxo))}


def test_apply_rejects_a_bad_coinbase_flag():
    record = bytearray(pack_record(*_entry(1)))
    record[48] = 2  # the byte after txid, vout, amount and height
    with pytest.raises(SnapshotError, match="^bad coinbase flag at byte 0$"):
        apply_snapshot(Snapshot.assemble(1, b"\x00" * 32, [bytes(record)]))


def test_apply_rejects_a_record_split_across_chunks():
    record = pack_record(*_entry(1))
    snap = Snapshot.assemble(1, b"\x00" * 32, [record[:60], record[60:]])
    with pytest.raises(SnapshotError):
        apply_snapshot(snap)


def test_an_applied_set_holds_under_2_traced_bytes_per_coin():
    # the applied set reads its coins from the snapshot's chunks, which
    # the snapshot already holds; what apply adds is a spent mark per
    # coin, as the index waits for the first lookup. A coin held as its
    # own record under a 36-byte key traced about 200 bytes.
    rng = random.Random(20)
    utxo = UtxoSet()
    for _ in range(20_000):
        utxo.add(UtxoEntry(rng.randbytes(32), rng.randrange(4),
                           rng.randrange(1, 10 ** 12), rng.randrange(1, 800_000),
                           False, compress(p2pkh_script(rng.randbytes(20)))))
    snap = build_snapshot(utxo, 800_000, b"\x05" * 32)
    del utxo
    tracemalloc.start()
    try:
        applied = apply_snapshot(snap)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(applied) == 20_000 and applied._base.places is None
    assert held / 20_000 < 2


def test_apply_rejects_duplicate_outpoints():
    entry = _entry(1, vout=258)
    record = pack_record(*entry)
    chunk = record + record
    snap = Snapshot.assemble(1, b"\x00" * 32, [chunk])
    with pytest.raises(SnapshotError, match=f"{entry.txid.hex()}:258$"):
        apply_snapshot(snap)


def test_apply_rejects_records_out_of_order():
    ordered = sorted((_entry(i) for i in range(4)),
                     key=lambda e: (e.txid, e.vout))
    records = [pack_record(*e) for e in ordered]
    txid = ordered[0].txid  # vout 256 sorts after vout 1, not before
    vouts = [pack_record(txid, vout, 1, 1, False, ordered[0].compressed)
             for vout in (256, 1)]
    for chunks in ([records[1] + records[0] + records[2] + records[3]],
                   [records[2] + records[3], records[0] + records[1]],
                   [b"".join(vouts)]):
        with pytest.raises(SnapshotError, match="out of order"):
            apply_snapshot(Snapshot.assemble(3, b"\x00" * 32, chunks))
    applied = apply_snapshot(Snapshot.assemble(
        3, b"\x00" * 32, [records[0] + records[1], records[2] + records[3]]))
    assert sorted(utxo_records(bytes(applied))) == sorted(ordered)


def test_apply_rejects_a_record_above_the_snapshot_height():
    txid = hash256(b"three outputs")
    coins = [UtxoEntry(txid, vout, 1000, height, False,
                       compress(p2pkh_script(txid[:20])))
             for vout, height in enumerate((3, 4, 5))]
    records = [pack_record(*e) for e in coins]
    chunks = [records[0], records[1] + records[2]]
    with pytest.raises(SnapshotError, match="snapshot's height 4 at byte "
                                            f"{len(records[1])} of chunk 1$"):
        apply_snapshot(Snapshot.assemble(4, b"\x00" * 32, chunks))
    applied = apply_snapshot(Snapshot.assemble(5, b"\x00" * 32, chunks))
    assert sorted(utxo_records(bytes(applied))) == coins


def test_file_roundtrip(tmp_path):
    snap = build_snapshot(_filled_set(120), 9, b"\x04" * 32)
    path = tmp_path / "state.snap"
    write_snapshot_file(path, snap)
    assert path.stat().st_size == wire_size(snap)
    loaded = read_snapshot_file(path)
    assert loaded == snap


def test_file_rejects_trailing_bytes(tmp_path):
    snap = build_snapshot(_filled_set(5), 9, b"\x04" * 32)
    path = tmp_path / "state.snap"
    write_snapshot_file(path, snap)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(SnapshotError):
        read_snapshot_file(path)


def test_header_roundtrip():
    header = SnapshotHeader(123456, b"\xfe" * 32, 17)
    raw = header.serialize()
    assert len(raw) == 40
    assert SnapshotHeader.parse(raw) == header


# --- parsers fail closed -------------------------------------------------------

# chunk bytes: well-formed records mixed with arbitrary bytes
record_soup = st.lists(st.one_of(entries.map(lambda e: pack_record(*e)),
                                 st.binary(max_size=60)),
                       max_size=5).map(b"".join)


@given(st.one_of(
    st.binary(max_size=200),
    st.builds(lambda count, body: SnapshotHeader(1, b"\x00" * 32, count)
              .serialize() + body,
              st.integers(0, 2 ** 32 - 1), st.binary(max_size=200))))
def test_read_snapshot_file_fails_closed(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.snap"
    path.write_bytes(raw)
    try:
        snap = read_snapshot_file(path)
    except SnapshotError:
        return
    write_snapshot_file(path, snap)
    assert path.read_bytes() == raw


@given(st.lists(record_soup, max_size=3), st.integers(0, TOP))
@example([pack_record(*_entry(7))], 6)  # a coin mined above the snapshot
def test_apply_snapshot_fails_closed(chunks, height):
    snap = Snapshot.assemble(height, b"\x00" * 32, chunks)
    try:
        utxo = apply_snapshot(snap)
    except SnapshotError:
        return
    held = utxo_records(bytes(utxo))
    assert len(held) == len(utxo)
    assert sum(50 + len(payload) for *_, (_, payload) in held) \
        == sum(len(c) for c in chunks)
    assert all(e[3] <= height for e in held)


# --- the record-backed set against an independent oracle ---------------------

def _oracle_bytes(coins) -> bytes:
    """The documented record layout, packed here rather than by chain."""
    return b"".join(
        struct.pack("<32sIQIBB", e.txid, e.vout, e.amount, e.height,
                    1 if e.coinbase else 0, e.compressed.case)
        + e.compressed.payload
        for e in sorted(coins, key=lambda e: (e.txid, e.vout)))


# every obfuscatable template, so an obfuscated apply holds cases 0x06-0x09
coin_scripts = st.one_of(
    st.binary(min_size=20, max_size=20).map(p2pkh_script),
    st.binary(min_size=20, max_size=20).map(p2sh_script),
    st.binary(min_size=20, max_size=20).map(p2wpkh_script),
    st.binary(min_size=32, max_size=32).map(p2wsh_script),
    st.binary(min_size=32, max_size=32).map(lambda x: p2pk_script(b"\x03" + x)),
    st.binary(min_size=1, max_size=60).filter(lambda s: s[0] != 0x6a))
coins = st.builds(UtxoEntry, st.binary(min_size=32, max_size=32),
                  st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 64 - 1),
                  st.integers(0, 2 ** 32 - 1), st.booleans(),
                  coin_scripts.map(compress))


@given(st.lists(coins, max_size=25, unique_by=lambda e: (e.txid, e.vout)))
def test_record_backed_set_matches_oracle(added):
    utxo = UtxoSet()
    for entry in added:
        utxo.add(entry)
    assert len(utxo) == len(added)
    assert all(utxo.record(_key(e)) == pack_record(*e) for e in added)
    assert serialize_utxo_set(utxo) == _oracle_bytes(added)

    hidden = [e._replace(compressed=obfuscate(e.compressed)) for e in added]
    applied = apply_snapshot(build_snapshot(utxo, TOP, b"\x06" * 32,
                                            obfuscate=True))
    assert all(applied.record(_key(e)) == pack_record(*e) for e in hidden)
    assert serialize_utxo_set(applied) == _oracle_bytes(hidden)
    assert _obfuscated_bytes(utxo) == _oracle_bytes(hidden)
    # entries() decodes the dict's records and the base's alike
    plain = apply_snapshot(build_snapshot(utxo, TOP, b"\x06" * 32))
    for held in (utxo, plain):
        assert sorted(held.entries()) == sorted(utxo_records(bytes(held))) \
            == sorted(added)

    spent, kept = added[::2], added[1::2]
    for entry in spent:
        utxo.remove(_key(entry))
        assert utxo.record(_key(entry)) is None
    assert sorted(utxo_records(bytes(utxo))) == sorted(kept)
    assert serialize_utxo_set(utxo) == _oracle_bytes(kept)


def test_add_rejects_an_entry_with_no_record_form():
    entry = _entry(1)
    for bad in (entry._replace(txid=entry.txid[:31]),
                entry._replace(compressed=CompressedTxOut(0x00, b"\x01" * 19)),
                # each field outside its unsigned width in the record head
                entry._replace(vout=2 ** 32), entry._replace(vout=-1),
                entry._replace(height=2 ** 32), entry._replace(height=-1),
                entry._replace(amount=2 ** 64), entry._replace(amount=-1)):
        with pytest.raises(ChainError, match="has no record form"):
            UtxoSet().add(bad)


def test_add_rejects_a_case_outside_a_byte():
    entry = _entry(1)
    for case in (256, -1):
        bad = entry._replace(
            compressed=CompressedTxOut(case, entry.compressed.payload))
        with pytest.raises(ChainError, match="has no record form"):
            UtxoSet().add(bad)


# txids that share coins, and one that shares only its first 8 bytes, so
# the index meets runs of equal prefixes
_SHARED = [hash256(bytes([i])) for i in range(3)]
_SHARED.append(_SHARED[0][:8] + b"\xff" * 24)
layered_coins = st.builds(
    UtxoEntry, st.one_of(st.sampled_from(_SHARED),
                         st.binary(min_size=32, max_size=32)),
    st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 64 - 1),
    st.integers(0, 2 ** 32 - 1), st.booleans(), coin_scripts.map(compress))


@given(st.lists(layered_coins, min_size=1, max_size=30,
                unique_by=lambda e: (e.txid, e.vout)))
def test_applied_set_layers_match_oracle(coins_):
    # an applied set spends from its base and adds to its dict; both
    # layers together must read as one set
    base, extra = coins_[::2], coins_[1::2]
    source = UtxoSet()
    for entry in base:
        source.add(entry)
    applied = apply_snapshot(build_snapshot(source, TOP, b"\x06" * 32))
    untouched = applied.copy()
    assert serialize_utxo_set(applied) == _oracle_bytes(base)

    spent, kept = base[::2], base[1::2]
    for entry in spent:
        applied.remove(_key(entry))
    assert serialize_utxo_set(applied) == _oracle_bytes(kept)
    for entry in extra + spent[:1]:  # a spent base coin may come back
        applied.add(entry)
    held = kept + extra + spent[:1]
    for entry in kept:
        with pytest.raises(ChainError):
            applied.add(entry)
    for entry in spent[1:]:
        assert applied.record(_key(entry)) is None
        assert _key(entry) not in applied
        with pytest.raises(KeyError):
            applied.remove(_key(entry))
    assert len(applied) == len(held)
    assert all(applied.record(_key(e)) == pack_record(*e) for e in held)
    assert sorted(utxo_records(bytes(applied))) == sorted(held)
    assert serialize_utxo_set(applied) == _oracle_bytes(held)
    hidden = [e._replace(compressed=obfuscate(e.compressed)) for e in held]
    assert _obfuscated_bytes(applied) == _oracle_bytes(hidden)
    assert serialize_utxo_set(untouched) == _oracle_bytes(base)
    assert len(untouched) == len(base)


def test_canonical_order_holds_past_one_byte_of_vout():
    # one txid, so only the vouts order the records; a key holding the
    # vout little-endian would put 256 before 1
    txid = hash256(b"one txid, many outputs")
    vouts = [0, 1, 255, 256, 65535, 65536, 2 ** 32 - 1]
    added = [UtxoEntry(txid, vout, 1000 + vout, 5, False,
                       compress(p2pkh_script(txid[:20]))) for vout in vouts]
    random.Random(9).shuffle(added)
    utxo = UtxoSet()
    for entry in added:
        utxo.add(entry)
    assert serialize_utxo_set(utxo) == _oracle_bytes(added)
    applied = apply_snapshot(build_snapshot(utxo, 5, b"\x06" * 32))
    assert serialize_utxo_set(applied) == _oracle_bytes(added)
    for entry in added:
        assert utxo.record(_key(entry)) == pack_record(*entry)
        assert applied.record(_key(entry)) == pack_record(*entry)


def test_malformed_outpoints_match_nothing():
    # struct's "32s" would pad the short txid and cut the long one to a
    # held coin's txid; the padded coin shares the held one's first 31
    # bytes, and a key of another length sorts beside a held key
    entry = _entry(3)
    padded = entry._replace(txid=entry.txid[:31] + b"\x00")
    key = _key(entry)
    malformed = [outpoint_key(entry.txid[:31], entry.vout),
                 outpoint_key(entry.txid + b"\x00", entry.vout),
                 outpoint_key(entry.txid, -1), outpoint_key(entry.txid, 2 ** 32),
                 key[:35], key + b"\x00", key[:7]]
    applied = apply_snapshot(build_snapshot(_set_of([entry, padded]), TOP,
                                            b"\x06" * 32))
    for utxo in (_set_of([entry, padded]), applied):
        for bad in malformed:
            assert utxo.record(bad) is None
            assert bad not in utxo
            with pytest.raises(KeyError):
                utxo.remove(bad)
        assert len(utxo) == 2 and utxo.record(key) == pack_record(*entry)


def test_one_txid_with_many_outputs_over_several_chunks(monkeypatch):
    # hundreds of keys under one txid, across chunk ends, beside a txid
    # that shares its first 8 bytes: a lookup bisects them all by key
    monkeypatch.setattr(snapshot_mod, "CHUNK_SIZE", 2000)  # 28 p2pkh coins
    txid = hash256(b"one txid, many outputs")
    twin = txid[:8] + bytes(24)
    vouts = {txid: range(0, 600, 2), twin: range(0, 40, 2)}
    held = [UtxoEntry(t, vout, 1000 + vout, 5, False,
                      compress(p2pkh_script(t[:20])))
            for t in vouts for vout in vouts[t]]
    utxo = apply_snapshot(build_snapshot(_set_of(held), TOP, b"\x06" * 32))
    assert len(utxo._base.chunks) >= 10
    keys = list(map(_key, held))
    absent = [outpoint_key(t, vout) for t in vouts
              for vout in (*range(1, 601, 2), 600, 2 ** 32 - 1)]
    absent += [key[:35] for key in keys] + [key + b"\x00" for key in keys]
    spent = set(keys[::3])
    for key in spent:
        utxo.remove(key)
    for key, entry in zip(keys, held):
        if key in spent:
            assert key not in utxo and utxo.record(key) is None
        else:
            assert key in utxo and utxo.record(key) == pack_record(*entry)
    for key in absent:
        assert key not in utxo and utxo.record(key) is None
        with pytest.raises(KeyError):
            utxo.remove(key)
    assert not utxo._records  # the reads moved nothing
    for key in keys:
        if key in spent:
            with pytest.raises(KeyError):
                utxo.remove(key)
        else:
            utxo.remove(key)
    assert len(utxo) == 0 and bytes(utxo) == b""


def test_keys_that_are_not_bytes_are_refused():
    # a (txid, vout) tuple misses the dict, and the base would read it as
    # an absent coin, so a leftover tuple would pass any `not in` check;
    # a memoryview hashes as bytes do, so only its miss is refused
    entry = _entry(3)
    applied = apply_snapshot(build_snapshot(_set_of([entry]), TOP,
                                            b"\x06" * 32))
    for utxo in (_set_of([entry]), applied):
        for bad in ((entry.txid, entry.vout), _key(entry).hex(), None,
                    bytearray(_key(entry)), memoryview(_key(_entry(4)))):
            with pytest.raises(TypeError):
                bad in utxo
            with pytest.raises(TypeError):
                utxo.record(bad)
            with pytest.raises(TypeError):
                utxo.remove(bad)
        with pytest.raises(TypeError):
            utxo.add_records({(entry.txid, 1): pack_record(*entry)})
        assert len(utxo) == 1
        assert utxo.record(_key(entry)) == pack_record(*entry)


# --- a multi-chunk plain build folds the set's dict into its chunks ----------

FOLDED = 20_000  # p2pkh records of 70 bytes: two 1 MiB chunks


def _set_of(coins) -> UtxoSet:
    utxo = UtxoSet()
    for entry in coins:
        utxo.add(entry)
    return utxo


@pytest.mark.parametrize("by", ["build", "fold"])
def test_a_multi_chunk_build_takes_its_chunks_as_the_set(by):
    # an applied set that since read and spent base coins and added
    # others, so it holds coins in both layers, is folded
    every = [_entry(i) for i in range(FOLDED)]
    base, read, spent_before = every[::2], every[:2000:4], every[2:2000:4]
    utxo = apply_snapshot(build_snapshot(_set_of(base), TOP, b"\x07" * 32))
    for entry in read:
        assert utxo.record(_key(entry)) == pack_record(*entry)
    for entry in spent_before:
        utxo.remove(_key(entry))
    for entry in every[1::2]:
        utxo.add(entry)
    assert utxo._records and utxo._live
    gone = set(spent_before)
    coins = [e for e in every if e not in gone]
    before = utxo.copy()
    if by == "build":
        snap = build_snapshot(utxo, 9, b"\x07" * 32)
        assert utxo._base.chunks is snap.chunks
    else:
        assert utxo.fold(chunk_records) == utxo._base.chunks
    folded = utxo._base.chunks
    assert len(folded) >= 2 and not utxo._records

    oracle = _set_of(coins)  # never built, so dict-backed
    assert serialize_utxo_set(utxo) == serialize_utxo_set(oracle) \
        == _oracle_bytes(coins)
    assert len(utxo) == len(oracle) == len(coins)
    spent, fresh = coins[::3], [_entry(i) for i in range(FOLDED, FOLDED + 50)]
    for entry in spent:
        utxo.remove(_key(entry))
        oracle.remove(_key(entry))
    for entry in fresh + spent[:1]:  # a spent coin may come back
        utxo.add(entry)
        oracle.add(entry)
    for entry in coins[1:30:3] + fresh[:3]:
        for held in (utxo, oracle):
            with pytest.raises(ChainError, match=f"^duplicate outpoint "
                               f"{entry.txid.hex()}:{entry.vout}$"):
                held.add(entry)
    for key in map(_key, spent[1:20]):
        for held in (utxo, oracle):
            assert key not in held and held.record(key) is None
            with pytest.raises(KeyError):
                held.remove(key)
    for entry in coins + fresh:
        assert (_key(entry) in utxo) == (_key(entry) in oracle)
        assert utxo.record(_key(entry)) == oracle.record(_key(entry))
    assert len(utxo) == len(oracle)
    assert serialize_utxo_set(utxo) == serialize_utxo_set(oracle)

    assert len(before) == len(coins)
    assert serialize_utxo_set(before) == _oracle_bytes(coins)
    for entry in read + spent_before:
        assert before.record(_key(entry)) \
            == _packed(None if entry in gone else entry)
    assert build_snapshot(before, 9, b"\x07" * 32).chunks == folded


def test_an_obfuscated_build_after_a_fold_matches_a_fresh_set():
    coins = [_entry(i) for i in range(FOLDED)]
    utxo = _set_of(coins)
    build_snapshot(utxo, 9, b"\x07" * 32)
    assert utxo._base.chunks  # folded
    hidden = build_snapshot(utxo, 9, b"\x07" * 32, obfuscate=True)
    assert hidden == build_snapshot(_set_of(coins), 9, b"\x07" * 32,
                                    obfuscate=True)
    assert hidden.chunks is not utxo._base.chunks  # an obfuscated build never folds


def test_a_one_chunk_plain_build_lays_its_chunk_as_the_base():
    utxo = _filled_set(300)
    hidden = build_snapshot(utxo, 9, b"\x07" * 32, obfuscate=True)
    assert utxo._base.chunks == () and len(utxo._records) == 300
    snap = build_snapshot(utxo, 9, b"\x07" * 32)
    assert len(snap.chunks) == 1
    assert utxo._base.chunks is snap.chunks and utxo._records == {}
    assert len(utxo) == 300 and bytes(utxo) == snap.chunks[0]
    assert build_snapshot(utxo, 9, b"\x07" * 32, obfuscate=True) == hidden


def test_an_applied_layout_does_not_change_the_built_id():
    # a peer may chunk a snapshot in any layout; a build re-packs the
    # records greedily, as a fresh set of the same coins would
    coins = sorted((_entry(i) for i in range(FOLDED)), key=_key)
    one_per_chunk = Snapshot.assemble(FOLDED, b"\x07" * 32,
                                      [pack_record(*e) for e in coins])
    applied = apply_snapshot(one_per_chunk)
    fresh = _set_of(coins)
    for obfuscate in (True, False, False):
        built = build_snapshot(applied, FOLDED, b"\x07" * 32,
                               obfuscate=obfuscate)
        assert built == build_snapshot(fresh, FOLDED, b"\x07" * 32,
                                       obfuscate=obfuscate)
        assert built.id != one_per_chunk.id
    assert applied._base.chunks is built.chunks and len(built.chunks) == 2


def test_a_folded_set_holds_under_2_traced_bytes_per_coin():
    # held as a dict, a coin traced about 200 bytes; folded, the set
    # keeps a spent mark per coin beside the chunks, which the snapshot
    # holds anyway, and no index until the first lookup
    rng = random.Random(21)
    tracemalloc.start()
    try:
        utxo = UtxoSet()
        for _ in range(FOLDED):
            utxo.add(UtxoEntry(rng.randbytes(32), rng.randrange(4),
                               rng.randrange(1, 10 ** 12),
                               rng.randrange(1, 800_000), False,
                               compress(p2pkh_script(rng.randbytes(20)))))
        snap = build_snapshot(utxo, 7, b"\x05" * 32)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snap.chunks) >= 2 and len(utxo) == FOLDED
    assert utxo._base.places is None
    assert (held - sum(map(len, snap.chunks))) / FOLDED < 2


def _p2pkh_coins(seed: int) -> list[UtxoEntry]:
    rng = random.Random(seed)
    return [UtxoEntry(rng.randbytes(32), rng.randrange(4),
                      rng.randrange(1, 10 ** 12), rng.randrange(1, 800_000),
                      False, compress(p2pkh_script(rng.randbytes(20))))
            for _ in range(FOLDED)]


def test_a_dict_held_coin_holds_under_175_traced_bytes():
    # the dict keeps a coin's record tail, 34 bytes for a p2pkh coin,
    # under its 36-byte outpoint key: 165.5 traced bytes a coin
    coins = _p2pkh_coins(22)
    tracemalloc.start()
    try:
        utxo = _set_of(coins)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(utxo) == FOLDED and utxo._base.chunks == ()
    assert held / FOLDED < 175


def test_the_first_lookup_adds_under_100_traced_bytes_per_coin():
    # the index keeps each coin's 36-byte key as its own object in a
    # sorted list, beside its 8-byte place: about 86 traced bytes a coin
    coins = _p2pkh_coins(24)
    utxo = apply_snapshot(build_snapshot(_set_of(coins), TOP, b"\x05" * 32))
    assert utxo._base.places is None
    tracemalloc.start()
    try:
        found = _key(coins[0]) in utxo
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found and len(utxo._base.keys) == FOLDED
    assert held / FOLDED < 100


@pytest.mark.parametrize("chunk_size,bound", [(CHUNK_SIZE, 1.5),
                                              (1 << 16, 0.5)])
def test_a_plain_build_peaks_near_its_chunks_above_the_set(
        monkeypatch, chunk_size, bound):
    # each chunk is packed in place, and its coins leave the dict once
    # the next is packed: above the set, the peak read 1.20 times the
    # chunks' bytes in two 1 MiB chunks and 0.21 times in 22 of 64 KiB,
    # where a build that kept every coin until the end read 1.13
    monkeypatch.setattr(snapshot_mod, "CHUNK_SIZE", chunk_size)
    coins = _p2pkh_coins(23)
    tracemalloc.start()
    try:
        utxo = _set_of(coins)
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        snap = build_snapshot(utxo, 7, b"\x05" * 32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snap.chunks) >= 2 and utxo._base.chunks is snap.chunks
    assert bytes(utxo) == _oracle_bytes(coins)
    assert (peak - before) / sum(map(len, snap.chunks)) < bound


@pytest.mark.parametrize("after", [1, 2, 4])
@pytest.mark.parametrize("applied", [False, True], ids=["dict", "layered"])
def test_a_build_that_raises_part_way_leaves_the_set_as_it_was(
        monkeypatch, applied, after):
    # packing raises once it has yielded `after` chunks; from the second
    # on, the coins of the chunks before have left the dict and go back
    monkeypatch.setattr(snapshot_mod, "CHUNK_SIZE", 2000)  # 28 p2pkh coins
    every = [_entry(i) for i in range(300)]
    if applied:  # coins in both layers, as in the multi-chunk test above
        utxo = apply_snapshot(build_snapshot(_set_of(every[::2]), TOP,
                                             b"\x07" * 32))
        for entry in every[:100:4]:
            utxo.record(_key(entry))
        for entry in every[2:100:4]:
            utxo.remove(_key(entry))
        for entry in every[1::2]:
            utxo.add(entry)
        assert utxo._records and utxo._live
    else:
        utxo = _set_of(every)
    before = utxo.copy()
    expected = build_snapshot(before, 9, b"\x07" * 32)
    assert len(expected.chunks) > after
    real = snapshot_mod.chunk_records

    def raising(records):
        for number, chunk in enumerate(real(records), 1):
            yield chunk
            if number == after:
                raise OSError("disk full")

    monkeypatch.setattr(snapshot_mod, "chunk_records", raising)
    with pytest.raises(OSError, match="disk full"):
        build_snapshot(utxo, 9, b"\x07" * 32)
    assert len(utxo) == len(before)
    assert bytes(utxo) == b"".join(expected.chunks)
    for entry in every:
        assert utxo.record(_key(entry)) == before.record(_key(entry))
    monkeypatch.setattr(snapshot_mod, "chunk_records", real)
    assert build_snapshot(utxo, 9, b"\x07" * 32).id == expected.id


# --- an applied base builds its index at the first point lookup -------------

def test_the_first_lookup_builds_the_index_once_for_every_copy():
    coins = [_entry(i) for i in range(50)]
    applied = apply_snapshot(build_snapshot(_set_of(coins), TOP,
                                            b"\x06" * 32))
    copied = applied.copy()
    base = applied._base
    assert copied._base is base and base.places is None
    assert b"".join(applied.records()) == bytes(copied) \
        == _oracle_bytes(coins)
    assert sorted(utxo_records(b"".join(copied.records()))) == sorted(coins)
    assert base.places is None  # the walks read the chunks alone
    assert _key(coins[0]) in copied
    keys, places = base.keys, base.places
    assert len(keys) == len(places) == len(coins)
    for entry in coins[1:]:
        assert applied.record(_key(entry)) == pack_record(*entry)
    copied.remove(_key(coins[0]))
    later = copied.copy()
    assert later.record(_key(coins[1])) == pack_record(*coins[1])
    assert later._base is base
    assert base.keys is keys and base.places is places
    assert len(applied) == len(coins) and len(copied) == len(coins) - 1


POOL = 60  # operations name a coin by its position in the pool, modulo
lazy_ops = st.lists(st.one_of(
    st.just(("records",)), st.just(("bytes",)), st.just(("build",)),
    st.tuples(st.sampled_from(["in", "record", "remove"]),
              st.integers(0, POOL - 1)),
    st.tuples(st.just("add_records"),
              st.lists(st.integers(0, POOL - 1), max_size=3))),
    max_size=25)


@given(st.lists(layered_coins, min_size=2, max_size=30,
                unique_by=lambda e: (e.txid, e.vout)),
       st.integers(1, 4), lazy_ops)
@example([_entry(i) for i in range(8)], 2,
         [("records",), ("bytes",), ("in", 0), ("build",), ("records",),
          ("record", 2), ("bytes",), ("remove", 4), ("add_records", [1, 0]),
          ("build",), ("add_records", [1]), ("records",), ("remove", 4)])
def test_a_lazily_indexed_set_matches_a_dict_oracle(coins_, per_chunk, ops):
    # half the coins are the applied base, laid `per_chunk` records to a
    # chunk; the walks read it before and after the index exists
    held = sorted(coins_[::2], key=_key)
    records = [pack_record(*e) for e in held]
    chunks = [b"".join(records[i:i + per_chunk])
              for i in range(0, len(records), per_chunk)]
    utxo = apply_snapshot(Snapshot.assemble(TOP, b"\x06" * 32, chunks))
    assert utxo._base.places is None
    oracle = {_key(e): e for e in held}
    for op, *args in ops:
        indexed = utxo._base.places is not None
        if op == "records":
            assert b"".join(utxo.records()) == _oracle_bytes(oracle.values())
        elif op == "bytes":
            assert bytes(utxo) == _oracle_bytes(oracle.values())
        elif op == "build":
            # chunks of a few records, so a plain build of a few coins
            # packs more than one; the longest record, 295 bytes, still
            # fits. Every plain build folds the set, one chunk or many
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(snapshot_mod, "CHUNK_SIZE", 300)
                built = build_snapshot(utxo, TOP, b"\x06" * 32)
            assert b"".join(built.chunks) == _oracle_bytes(oracle.values())
            assert utxo._base.chunks is built.chunks
        elif op == "add_records":
            added = {_key(e): e
                     for e in (coins_[i % len(coins_)] for i in args[0])}
            batch = {key: pack_record(*e) for key, e in added.items()}
            if any(key in oracle for key in added):
                with pytest.raises(ChainError):
                    utxo.add_records(batch)
            else:
                utxo.add_records(batch)
                oracle.update(added)
        else:
            key = _key(coins_[args[0] % len(coins_)])
            if op == "in":
                assert (key in utxo) == (key in oracle)
            elif op == "record":
                assert utxo.record(key) == _packed(oracle.get(key))
            elif key in oracle:
                utxo.remove(key)
                del oracle[key]
            else:
                with pytest.raises(KeyError):
                    utxo.remove(key)
        if op in ("records", "bytes"):
            assert (utxo._base.places is not None) == indexed
        assert len(utxo) == len(oracle)
    assert sorted(utxo_records(bytes(utxo))) == sorted(oracle.values())
    assert bytes(utxo) == _oracle_bytes(oracle.values())
