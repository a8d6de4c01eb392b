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
from .snapshot import Snapshot, SnapshotError, chunk_records, decode_records


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


def extract_op_return(block: Block) -> list[AppDataEntry]:
    """All OP_RETURN payloads of a block, in transaction/output order."""
    block_id = block.block_id()
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
        self._by_txid: dict[bytes, list[AppDataEntry]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add_block(self, block: Block, height: int) -> list[AppDataEntry]:
        added = extract_op_return(block)
        for entry in added:
            self.add_entry(height, entry)
        return added

    def add_entry(self, height: int, entry: AppDataEntry) -> None:
        self._entries.append((height, entry))
        self._by_txid.setdefault(entry.txid, []).append(entry)

    def lookup(self, txid: bytes) -> list[AppDataEntry]:
        return list(self._by_txid.get(txid, ()))

    def entries(self) -> list[AppDataEntry]:
        return [e for _, e in self._entries]

    def snapshot_at(self, height: int, block_id: bytes) -> Snapshot:
        """Chunked store of all entries up to height, identified like a snapshot."""
        return Snapshot.assemble(height, block_id, chunk_records(
            e.serialize() for h, e in self._entries if h <= height))


def parse_store(snapshot: Snapshot) -> AppDataStore:
    """Rebuild a store from a fetched app-data snapshot."""
    store = AppDataStore()
    for entry in decode_records(snapshot, AppDataEntry.decode):
        store.add_entry(snapshot.header.height, entry)
    return store


def combined_tag(snapshot_id: bytes, appdata_id: bytes) -> bytes:
    """The reaffirmed tag committing to state and preserved app data."""
    if len(snapshot_id) != 32 or len(appdata_id) != 32:
        raise ValueError("tag inputs must be 32-byte ids")
    return hash256(snapshot_id + appdata_id)


def pulse_tag(snap: Snapshot, app: Snapshot | None) -> bytes:
    """The tag miners reaffirm for a pulse: the snapshot id alone, or
    its combined tag with the app-data snapshot when app data is kept."""
    return snap.id if app is None else combined_tag(snap.id, app.id)
