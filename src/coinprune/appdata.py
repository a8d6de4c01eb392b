"""Application data preservation.

Pruning discards full blocks, and with them any OP_RETURN payloads
applications anchored on the chain. To keep those alive, nodes maintain
an append-only store of (payload, txid, block id) triples extracted
from each accepted block. The store is chunked and identified exactly
like a snapshot, and the on-chain reaffirmation tag commits to both:

    tag = HASH256(snapshot_id || appdata_id)

so a joining node can verify the preserved payloads against the same
miner vote that reaffirms the UTXO state.
"""

from typing import NamedTuple

from .hashing import hash256
from . import scripts
from .chain import Block
from .snapshot import Snapshot, SnapshotError, chunk_records


class AppDataEntry(NamedTuple):
    payload: bytes
    txid: bytes
    block_id: bytes

    def serialize(self) -> bytes:
        if len(self.payload) > scripts.MAX_OP_RETURN_PAYLOAD:
            raise SnapshotError("app-data payload above 80 bytes")
        return bytes([len(self.payload)]) + self.payload + self.txid + self.block_id

    @classmethod
    def decode(cls, buf: bytes, offset: int = 0) -> tuple["AppDataEntry", int]:
        if offset >= len(buf):
            raise SnapshotError(f"truncated app-data entry at byte {offset}")
        n = buf[offset]
        if n > scripts.MAX_OP_RETURN_PAYLOAD:
            raise SnapshotError(f"byte {offset}: app-data payload above 80 bytes")
        end = offset + 1 + n + 64
        if end > len(buf):
            raise SnapshotError(f"truncated app-data entry at byte {offset}")
        payload = bytes(buf[offset + 1:offset + 1 + n])
        txid = bytes(buf[offset + 1 + n:offset + 1 + n + 32])
        block_id = bytes(buf[offset + 1 + n + 32:end])
        return cls(payload, txid, block_id), end


def extract_op_return(block: Block, block_id: bytes) -> list[AppDataEntry]:
    """All OP_RETURN payloads of a block, in transaction/output order;
    block_id is the id its caller already computed."""
    entries = []
    for tx in block.transactions:
        txid = None
        for txout in tx.outputs:
            if scripts.is_op_return(txout.script):
                if txid is None:
                    txid = tx.txid()
                entries.append(AppDataEntry(
                    scripts.op_return_payload(txout.script), txid, block_id))
    return entries


class AppDataStore:
    """Append-only store of extracted payloads, in chain order."""

    def __init__(self) -> None:
        self._entries: list[tuple[int, AppDataEntry]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add_block(self, block: Block, height: int, block_id: bytes) -> None:
        self._entries.extend((height, entry)
                             for entry in extract_op_return(block, block_id))

    def snapshot_at(self, height: int, block_id: bytes) -> Snapshot:
        """Chunked store of all entries up to height, identified like a snapshot."""
        return Snapshot.assemble(height, block_id, chunk_records(
            e.serialize() for h, e in self._entries if h <= height))


def parse_store(snapshot: Snapshot) -> AppDataStore:
    """Rebuild a store from a fetched app-data snapshot. Each chunk is
    walked in place, so an entry that crosses a chunk boundary
    (chunk_records never writes one) is truncated and fails."""
    store, height = AppDataStore(), snapshot.header.height
    for chunk in snapshot.chunks:
        offset = 0
        while offset < len(chunk):
            entry, offset = AppDataEntry.decode(chunk, offset)
            store._entries.append((height, entry))
    return store


def combined_tag(snapshot_id: bytes, appdata_id: bytes) -> bytes:
    """The reaffirmed tag committing to state and preserved app data."""
    if len(snapshot_id) != 32 or len(appdata_id) != 32:
        raise ValueError("tag inputs must be 32-byte ids")
    return hash256(snapshot_id + appdata_id)
