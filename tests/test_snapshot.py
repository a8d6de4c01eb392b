import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinprune.chain import UtxoEntry, UtxoSet
from coinprune.hashing import hash256
from coinprune.scripts import compress, p2pkh_script
from coinprune.snapshot import (CHUNK_SIZE, Snapshot, SnapshotError,
                                SnapshotHeader, apply_snapshot,
                                build_snapshot, chunk_records,
                                decode_record, encode_record,
                                read_snapshot_file, serialize_utxo_set,
                                verify_snapshot, wire_size,
                                write_snapshot_file)

# layered id of the empty set at height 0 over a zero block id, frozen
EMPTY_ID = "c970065223a20aeffece263aab16497d3bf99fe6ae6b6e01e731f41dae07cffd"
# layered id over one fixed 1024-byte chunk (bytes 0..255 repeated), frozen
ONE_CHUNK_ID = "b46b688a02e3669a1328e6591af4e52d6934624fb2e5d7448c831fa3fb4fba36"


def _entry(i: int, vout: int = 0, script: bytes | None = None) -> UtxoEntry:
    txid = hash256(i.to_bytes(8, "little"))
    compressed = compress(script or p2pkh_script(txid[:20]))
    return UtxoEntry(txid, vout, 1000 + i, i, i % 7 == 0, compressed)


def _filled_set(n: int) -> UtxoSet:
    utxo = UtxoSet()
    for i in range(n):
        utxo.add(_entry(i))
    return utxo


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


# --- records ------------------------------------------------------------------

@given(entries)
def test_record_roundtrip(entry):
    raw = encode_record(entry)
    decoded, used = decode_record(raw, 0)
    assert used == len(raw)
    assert decoded == entry


@given(entries)
def test_obfuscated_record_roundtrip_keeps_flag(entry):
    raw = encode_record(entry, obfuscate=True)
    decoded, _ = decode_record(raw, 0)
    assert (decoded.txid, decoded.vout, decoded.amount, decoded.height,
            decoded.coinbase) == (entry.txid, entry.vout, entry.amount,
                                  entry.height, entry.coinbase)


def test_decode_reports_byte_offset():
    raw = encode_record(_entry(1))
    with pytest.raises(SnapshotError) as err:
        decode_record(raw[:-1], 0)
    assert "0" in str(err.value)


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
    hidden = serialize_utxo_set(utxo, obfuscate=True)
    assert plain != hidden
    for entry in utxo.entries():
        if entry.compressed.case == 0x00:  # p2pkh
            assert entry.compressed.payload in plain
            assert entry.compressed.payload not in hidden


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
        offset = 0
        while offset < len(chunk):
            _, offset = decode_record(chunk, offset)
        assert offset == len(chunk)
        total += len(chunk)
    assert total == len(serialize_utxo_set(utxo))


def test_chunking_is_greedy():
    records = [b"x" * (CHUNK_SIZE // 2 + 1)] * 3
    chunks = chunk_records(records)
    assert [len(c) for c in chunks] == [CHUNK_SIZE // 2 + 1] * 3
    small = chunk_records([b"ab"] * 100)
    assert len(small) == 1


def test_oversized_record_rejected():
    with pytest.raises(SnapshotError):
        chunk_records([b"y" * (CHUNK_SIZE + 1)])


# --- verification ----------------------------------------------------------------

def test_verify_accepts_untampered():
    snap = build_snapshot(_filled_set(50), 5, b"\x02" * 32)
    check = verify_snapshot(snap, snap.id)
    assert check.ok and check.reason == ""


def test_verify_localizes_tampered_chunk():
    snap = build_snapshot(_filled_set(20000), 5, b"\x02" * 32)
    hashes = list(snap.digests)
    bad_idx = 1
    tampered = list(snap.chunks)
    flipped = bytearray(tampered[bad_idx])
    flipped[10] ^= 0xFF
    tampered[bad_idx] = bytes(flipped)
    forged = snap._replace(chunks=tuple(tampered))

    with_hashes = verify_snapshot(forged, snap.id, hashes)
    assert not with_hashes.ok
    assert with_hashes.bad_chunk == bad_idx

    without = verify_snapshot(forged, snap.id)
    assert not without.ok
    assert without.bad_chunk is None


def test_verify_rejects_wrong_chunk_count():
    snap = build_snapshot(_filled_set(10), 5, b"\x02" * 32)
    forged = snap._replace(header=snap.header._replace(chunk_count=2))
    assert not verify_snapshot(forged, snap.id).ok


# --- apply and files ---------------------------------------------------------------

def test_apply_roundtrip():
    utxo = _filled_set(300)
    snap = build_snapshot(utxo, 44, b"\x03" * 32)
    restored = apply_snapshot(snap)
    assert {(e.txid, e.vout): e for e in restored.entries()} == \
        {(e.txid, e.vout): e for e in utxo.entries()}


def test_apply_rejects_duplicate_outpoints():
    record = encode_record(_entry(1))
    chunk = record + record
    snap = Snapshot.assemble(1, b"\x00" * 32, [chunk])
    with pytest.raises(SnapshotError):
        apply_snapshot(snap)


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
record_soup = st.lists(st.one_of(entries.map(encode_record),
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


@given(st.lists(record_soup, max_size=3))
def test_apply_snapshot_fails_closed(chunks):
    snap = Snapshot.assemble(1, b"\x00" * 32, chunks)
    try:
        utxo = apply_snapshot(snap)
    except SnapshotError:
        return
    assert sum(len(encode_record(e)) for e in utxo.entries()) \
        == sum(len(c) for c in chunks)
