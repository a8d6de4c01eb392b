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

import io
import os
import struct
from typing import Iterable, Iterator, NamedTuple

from .hashing import hash256
# the record codec lives in chain, beside the set that holds records
from .chain import SnapshotError, UtxoSet, obfuscate_record

CHUNK_SIZE = 1 << 20
_HEADER_FORMAT = "<I32sI"  # height, block id, chunk count
HEADER_SIZE = struct.calcsize(_HEADER_FORMAT)  # 40


class SnapshotHeader(NamedTuple):
    height: int
    block_id: bytes
    chunk_count: int

    def serialize(self) -> bytes:
        return struct.pack(_HEADER_FORMAT, self.height, self.block_id,
                           self.chunk_count)

    @classmethod
    def parse(cls, data: bytes) -> "SnapshotHeader":
        if len(data) != HEADER_SIZE:
            raise SnapshotError(f"snapshot header must be {HEADER_SIZE} bytes")
        return cls(*struct.unpack(_HEADER_FORMAT, data))


class Snapshot(NamedTuple):
    """A snapshot as `assemble` makes it, which keeps two invariants:
    `digests[i] == hash256(chunks[i])` for every chunk, and
    `header.chunk_count == len(chunks)`. Verification compares these
    digests and the id; it never hashes the chunks again."""
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


def serialize_utxo_set(utxo: UtxoSet) -> bytes:
    """Canonical byte form: records sorted by (txid, vout)."""
    return bytes(utxo)


def chunk_records(records: Iterable[bytes]) -> Iterator[bytes]:
    """Greedy 1 MiB packing; records are never split across chunks.
    Each chunk is yielded once the record after it is drawn."""
    # getvalue hands a BytesIO's buffer over without copying it
    current = io.BytesIO()
    for record in records:
        if len(record) > CHUNK_SIZE:
            raise SnapshotError("record larger than the chunk limit")
        if current.tell() + len(record) > CHUNK_SIZE:
            yield current.getvalue()
            current = io.BytesIO()
        current.write(record)
    if current.tell():
        yield current.getvalue()


def layered_id(header_digest: bytes, chunk_digests: Iterable[bytes]) -> bytes:
    """The id formula of the module docstring, from the piece digests."""
    return hash256(header_digest + b"".join(chunk_digests))


def build_snapshot(utxo: UtxoSet, height: int, block_id: bytes,
                   obfuscate: bool = False) -> Snapshot:
    """The snapshot of the set's records in canonical order, each
    obfuscated if asked. The records are always packed afresh, so the
    layout of a base the set was applied from never changes the id. A
    plain build folds the set into the chunks it packs: once packed they
    become the set's base, and the set drops its dict (see `UtxoSet`)."""
    if obfuscate:
        chunks = chunk_records(map(obfuscate_record, utxo.records()))
    else:
        chunks = utxo.fold(chunk_records)
    return Snapshot.assemble(height, block_id, chunks)


def verify_snapshot(snapshot: Snapshot, expected_id: bytes,
                    expected_chunk_hashes: list[bytes] | None = None) -> SnapshotCheck:
    """Compare the snapshot's chunk digests and id, which `assemble`
    computed, against the expected tag.

    When the advertised per-chunk hashes are available, a failure is
    localized to the first mismatching chunk index.
    """
    digests = snapshot.digests
    if expected_chunk_hashes is not None:
        if len(expected_chunk_hashes) != len(digests):
            return SnapshotCheck(False, None, "advertised chunk list length mismatch")
        for i, (got, want) in enumerate(zip(digests, expected_chunk_hashes)):
            if got != want:
                return SnapshotCheck(False, i, f"chunk {i} digest mismatch")
    if snapshot.id != expected_id:
        return SnapshotCheck(False, None, "snapshot id mismatch")
    return SnapshotCheck(True, None, "")


def apply_snapshot(snapshot: Snapshot) -> UtxoSet:
    """The UTXO set the snapshot holds. Verify the snapshot before
    calling this. The set reads its coins from the snapshot's chunks in
    place; each record's head is checked once, the records must be in
    strictly ascending (txid, vout) order, and no coin may be mined
    above the snapshot's height."""
    return UtxoSet.from_chunks(snapshot.chunks, snapshot.header.height)


def wire_size(snapshot: Snapshot) -> int:
    """Bytes on disk or wire: header plus length-prefixed chunks."""
    return HEADER_SIZE + sum(4 + len(c) for c in snapshot.chunks)


def write_snapshot_file(path, snapshot: Snapshot) -> None:
    with open(path, "wb") as fh:
        fh.write(snapshot.header.serialize())
        for chunk in snapshot.chunks:
            fh.write(struct.pack("<I", len(chunk)))
            fh.write(chunk)


def read_snapshot_file(path) -> Snapshot:
    """Read the header, then each length prefix and chunk in turn, so no
    second copy of the chunks is held."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        header = SnapshotHeader.parse(fh.read(HEADER_SIZE))
        chunks = []
        for _ in range(header.chunk_count):
            if left < 4:
                raise SnapshotError("truncated chunk length")
            (size,) = struct.unpack("<I", fh.read(4))
            left -= 4 + size
            # checked before the read, which would allocate `size` bytes
            if left < 0:
                raise SnapshotError("truncated chunk")
            chunks.append(fh.read(size))
    if left:
        raise SnapshotError("trailing bytes after final chunk")
    return Snapshot.assemble(header.height, header.block_id, chunks)
