"""UTXO snapshots: canonical serialization, chunking, layered ids.

A snapshot fixes the UTXO state after some block. Records are sorted by
(txid, vout) so equal sets serialize to equal bytes, then packed
greedily into chunks of at most 1 MiB without splitting any record.
The identifier hashes each piece individually and then the
concatenation of those digests:

    id = HASH256(HASH256(header) || HASH256(chunk_1) || ... || HASH256(chunk_n))

so a verifier can localize a corrupted chunk without re-downloading the
rest, and an empty set still has a well-defined id.
"""

import struct
from typing import Callable, Iterable, Iterator, NamedTuple

from .hashing import hash256
from . import scripts
from .chain import ChainError, UtxoEntry, UtxoSet
from .scripts import CompressedTxOut

CHUNK_SIZE = 1 << 20

_RECORD_FIXED = "<32sIQIBB"
_RECORD_FIXED_SIZE = struct.calcsize(_RECORD_FIXED)  # 50


class SnapshotError(ChainError):
    pass


class SnapshotHeader(NamedTuple):
    height: int
    block_id: bytes
    chunk_count: int

    def serialize(self) -> bytes:
        return struct.pack("<I32sI", self.height, self.block_id,
                           self.chunk_count)

    @classmethod
    def parse(cls, data: bytes) -> "SnapshotHeader":
        if len(data) != 40:
            raise SnapshotError("snapshot header must be 40 bytes")
        return cls(*struct.unpack("<I32sI", data))


class Snapshot(NamedTuple):
    header: SnapshotHeader
    chunks: tuple
    digests: tuple  # HASH256 of each chunk, in chunk order
    id: bytes

    @classmethod
    def assemble(cls, height: int, block_id: bytes, chunks: Iterable[bytes],
                 digests: Iterable[bytes] | None = None) -> "Snapshot":
        """The one way to make a snapshot of the state after `block_id`
        at `height`. Pass `digests` only when they were already checked
        against these chunks; otherwise each chunk is hashed here, once."""
        chunks = tuple(chunks)
        digests = tuple(hash256(c) for c in chunks) if digests is None \
            else tuple(digests)
        header = SnapshotHeader(height, block_id, len(chunks))
        return cls(header, chunks, digests,
                   layered_id(hash256(header.serialize()), digests))


class SnapshotCheck(NamedTuple):
    ok: bool
    bad_chunk: int | None
    reason: str


def encode_record(entry: UtxoEntry, obfuscate: bool = False) -> bytes:
    comp = scripts.obfuscate(entry.compressed) if obfuscate else entry.compressed
    return struct.pack(_RECORD_FIXED, entry.txid, entry.vout, entry.amount,
                       entry.height, 1 if entry.coinbase else 0,
                       comp.case) + comp.payload


def decode_record(buf: bytes, offset: int = 0) -> tuple[UtxoEntry, int]:
    if offset + _RECORD_FIXED_SIZE > len(buf):
        raise SnapshotError(f"truncated record at byte {offset}")
    txid, vout, amount, height, cb_flag, case = struct.unpack_from(
        _RECORD_FIXED, buf, offset)
    if cb_flag not in (0, 1):
        raise SnapshotError(f"bad coinbase flag at byte {offset}")
    try:
        size = scripts.payload_size(case)
    except scripts.ScriptError as exc:
        raise SnapshotError(f"byte {offset}: {exc}") from None
    start = offset + _RECORD_FIXED_SIZE
    payload = buf[start:start + size]
    if len(payload) != size:
        raise SnapshotError(f"truncated record payload at byte {offset}")
    entry = UtxoEntry(txid, vout, amount, height, bool(cb_flag),
                      CompressedTxOut(case, bytes(payload)))
    return entry, start + size


def serialize_utxo_set(utxo: UtxoSet, obfuscate: bool = False) -> bytes:
    """Canonical byte form: records sorted by (txid, vout)."""
    entries = sorted(utxo.entries(), key=lambda e: (e.txid, e.vout))
    return b"".join(encode_record(e, obfuscate) for e in entries)


def chunk_records(records: Iterable[bytes]) -> list[bytes]:
    """Greedy 1 MiB packing; records are never split across chunks."""
    chunks: list[bytes] = []
    current: list[bytes] = []
    size = 0
    for record in records:
        if len(record) > CHUNK_SIZE:
            raise SnapshotError("record larger than the chunk limit")
        if size + len(record) > CHUNK_SIZE:
            chunks.append(b"".join(current))
            current, size = [], 0
        current.append(record)
        size += len(record)
    if current:
        chunks.append(b"".join(current))
    return chunks


def layered_id(header_digest: bytes, chunk_digests: Iterable[bytes]) -> bytes:
    """The id formula of the module docstring, from the piece digests."""
    return hash256(header_digest + b"".join(chunk_digests))


def build_snapshot(utxo: UtxoSet, height: int, block_id: bytes,
                   obfuscate: bool = False) -> Snapshot:
    entries = sorted(utxo.entries(), key=lambda e: (e.txid, e.vout))
    return Snapshot.assemble(height, block_id, chunk_records(
        encode_record(e, obfuscate) for e in entries))


def verify_snapshot(snapshot: Snapshot, expected_id: bytes,
                    expected_chunk_hashes: list[bytes] | None = None) -> SnapshotCheck:
    """Recompute the layered id and compare against the expected tag.

    When the advertised per-chunk hashes are available, a failure is
    localized to the first mismatching chunk index.
    """
    header, chunks = snapshot.header, snapshot.chunks
    if header.chunk_count != len(chunks):
        return SnapshotCheck(False, None, "chunk count mismatch")
    hashes = [hash256(c) for c in chunks]
    if expected_chunk_hashes is not None:
        if len(expected_chunk_hashes) != len(hashes):
            return SnapshotCheck(False, None, "advertised chunk list length mismatch")
        for i, (got, want) in enumerate(zip(hashes, expected_chunk_hashes)):
            if got != want:
                return SnapshotCheck(False, i, f"chunk {i} digest mismatch")
    recomputed = layered_id(hash256(header.serialize()), hashes)
    if recomputed != expected_id:
        return SnapshotCheck(False, None, "snapshot id mismatch")
    return SnapshotCheck(True, None, "")


def decode_records(snapshot: Snapshot,
                   decode: Callable[[bytes, int], tuple]) -> Iterator:
    """Every record of a snapshot in order; `decode(buf, offset)` returns
    one record and the offset after it, or raises SnapshotError."""
    data = b"".join(snapshot.chunks)
    offset = 0
    while offset < len(data):
        record, offset = decode(data, offset)
        yield record


def apply_snapshot(snapshot: Snapshot) -> UtxoSet:
    """Materialize the UTXO set. Verify the snapshot before calling this."""
    utxo = UtxoSet()
    for entry in decode_records(snapshot, decode_record):
        if (entry.txid, entry.vout) in utxo:
            raise SnapshotError(
                f"duplicate outpoint {entry.txid.hex()}:{entry.vout}")
        utxo.add(entry)
    return utxo


def wire_size(snapshot: Snapshot) -> int:
    """Bytes on disk or wire: header plus length-prefixed chunks."""
    return 40 + sum(4 + len(c) for c in snapshot.chunks)


def write_snapshot_file(path, snapshot: Snapshot) -> None:
    with open(path, "wb") as fh:
        fh.write(snapshot.header.serialize())
        for chunk in snapshot.chunks:
            fh.write(struct.pack("<I", len(chunk)))
            fh.write(chunk)


def read_snapshot_file(path) -> Snapshot:
    with open(path, "rb") as fh:
        data = fh.read()
    header = SnapshotHeader.parse(data[:40])
    offset = 40
    chunks = []
    for _ in range(header.chunk_count):
        if offset + 4 > len(data):
            raise SnapshotError("truncated chunk length")
        (size,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if offset + size > len(data):
            raise SnapshotError("truncated chunk")
        chunks.append(data[offset:offset + size])
        offset += size
    if offset != len(data):
        raise SnapshotError("trailing bytes after final chunk")
    return Snapshot.assemble(header.height, header.block_id, chunks)
