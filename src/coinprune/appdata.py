"""Application data preservation.

Pruning discards full blocks, and with them any OP_RETURN payloads
applications anchored on the chain. To keep those alive, nodes maintain
an append-only store of (payload, txid, block id) entries extracted
from each accepted block, each held as its serialized bytes: a length
byte, the payload of at most 80 bytes, the 32-byte txid, then the
32-byte block id. The store is chunked and identified exactly like a
snapshot, and the on-chain reaffirmation tag commits to both:

    tag = HASH256(snapshot_id || appdata_id)

so a joining node can verify the preserved payloads against the same
miner vote that reaffirms the UTXO state.
"""

from typing import Iterator

from .hashing import hash256
from . import scripts
from .chain import Block
from .snapshot import Snapshot, SnapshotError, chunk_records


def extract_op_return(block: Block, block_id: bytes) -> list[bytes]:
    """The serialized entry of every OP_RETURN payload of a block (at
    most 80 bytes each, which op_return_payload checks), in
    transaction/output order; block_id is the id its caller computed."""
    entries = []
    for tx in block.transactions:
        txid = None
        for txout in tx.outputs:
            if scripts.is_op_return(txout.script):
                if txid is None:
                    txid = tx.txid()
                payload = scripts.op_return_payload(txout.script)
                entries.append(bytes((len(payload),)) + payload + txid
                               + block_id)
    return entries


def _entries(buf: bytes) -> Iterator[bytes]:
    """Each entry of `buf`, in order; SnapshotError at a payload above
    80 bytes or an entry that runs past `buf`."""
    offset = 0
    while offset < len(buf):
        n = buf[offset]
        if n > scripts.MAX_OP_RETURN_PAYLOAD:
            raise SnapshotError(f"byte {offset}: app-data payload above 80 bytes")
        end = offset + 1 + n + 64
        if end > len(buf):
            raise SnapshotError(f"truncated app-data entry at byte {offset}")
        yield buf[offset:end]
        offset = end


class AppDataStore:
    """Append-only store of extracted entries, in chain order, held back
    to back in one buffer; each entry's length byte is all that splits
    them."""

    def __init__(self) -> None:
        self._bytes = bytearray()

    def __eq__(self, other: object) -> bool:
        """Equal when both hold the same entries."""
        if not isinstance(other, AppDataStore):
            return NotImplemented
        return self._bytes == other._bytes

    def add_block(self, block: Block, block_id: bytes) -> None:
        for entry in extract_op_return(block, block_id):
            self._bytes += entry

    def snapshot_at(self, height: int, block_id: bytes) -> Snapshot:
        """Chunked store of every entry added, identified like a snapshot
        of the chain at height, the height of the last block added."""
        return Snapshot.assemble(height, block_id,
                                 chunk_records(_entries(self._bytes)))


def parse_store(snapshot: Snapshot) -> AppDataStore:
    """Rebuild a store from a fetched app-data snapshot. Each chunk is
    walked in place, so an entry that crosses a chunk boundary
    (chunk_records never writes one) is truncated and fails."""
    store = AppDataStore()
    for chunk in snapshot.chunks:
        for _ in _entries(chunk):  # each entry is checked
            pass
        store._bytes += chunk
    return store


def combined_tag(snapshot_id: bytes, appdata_id: bytes) -> bytes:
    """The reaffirmed tag committing to state and preserved app data."""
    if len(snapshot_id) != 32 or len(appdata_id) != 32:
        raise ValueError("tag inputs must be 32-byte ids")
    return hash256(snapshot_id + appdata_id)
