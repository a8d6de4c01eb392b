"""Block and transaction model with UTXO tracking.

The chain format follows Bitcoin where it matters for pruning: 80-byte
headers, HASH256 ids, a merkle tree over txids with odd-leaf
duplication, compact-bits difficulty encoding, and coinbase
transactions whose unlock field, at most 100 bytes, begins with the
block's height as LE32 (BIP34). Amounts are 64-bit integers in base units; fees are implicit and
must be claimed exactly by the coinbase.
"""

import copy
import functools
import heapq
import itertools
import os
import struct
import tempfile
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable, Iterator, NamedTuple

from .hashing import hash256
from . import scripts
from .scripts import CompressedTxOut, SpendContext

MAX_COINBASE_DATA = 100
COINBASE_TXID = b"\x00" * 32
COINBASE_VOUT = 0xFFFFFFFF

# compact encoding of target 2**252: roughly one nonce in 16 qualifies,
# cheap enough to mine thousands of blocks in-process
EASY_BITS = 0x20100000
DEFAULT_SUBSIDY = 50 * 100_000_000

_HEADER = struct.Struct("<I32s32sIII")
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 80

HEADER_RECORD_SIZE = 140


class ChainError(Exception):
    """Malformed structure or serialization."""


class BlockValidationError(ChainError):
    """A block failed consensus checks; the UTXO set is untouched."""


# --- difficulty -----------------------------------------------------------

def target_from_bits(bits: int) -> int:
    """Decode a compact-bits difficulty target."""
    exponent = bits >> 24
    mantissa = bits & 0x007FFFFF
    if bits & 0x00800000:
        raise ChainError("negative compact target")
    if exponent <= 3:
        return mantissa >> (8 * (3 - exponent))
    return mantissa << (8 * (exponent - 3))


def work_from_bits(bits: int) -> int:
    """Expected hashes to find a block under this target."""
    return (1 << 256) // (target_from_bits(bits) + 1)


# --- headers --------------------------------------------------------------

class BlockHeader(NamedTuple):
    version: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    bits: int
    nonce: int

    def serialize(self) -> bytes:
        return _HEADER.pack(*self)

    @classmethod
    def parse(cls, data: bytes) -> "BlockHeader":
        if len(data) != HEADER_SIZE:
            raise ChainError(f"header must be {HEADER_SIZE} bytes")
        return tuple.__new__(cls, _HEADER.unpack(data))

    def block_id(self) -> bytes:
        return hash256(self.serialize())


def check_pow(block_id: bytes, bits: int) -> bool:
    """Whether a header with this id meets the target its bits encode."""
    return int.from_bytes(block_id, "little") <= target_from_bits(bits)


def mine_header(prev_hash: bytes, merkle_root: bytes, timestamp: int,
                bits: int) -> BlockHeader:
    """Grind nonces from 0 until the version-1 header meets its own target."""
    target = target_from_bits(bits)
    buf = bytearray(_HEADER.pack(1, prev_hash, merkle_root, timestamp, bits, 0))
    nonce = 0
    while True:
        buf[76:80] = struct.pack("<I", nonce)
        if int.from_bytes(hash256(bytes(buf)), "little") <= target:
            return BlockHeader(1, prev_hash, merkle_root, timestamp, bits, nonce)
        nonce = (nonce + 1) & 0xFFFFFFFF
        if nonce == 0:
            raise ChainError("nonce space exhausted")


# --- transactions ---------------------------------------------------------

class TxInput(NamedTuple):
    prev_txid: bytes
    prev_vout: int
    unlock: bytes


class TxOutput(NamedTuple):
    amount: int
    script: bytes


_COUNT = struct.Struct("<H")  # inputs, then outputs, of a transaction
_INPUT_HEAD = struct.Struct("<32sIH")  # prev txid, prev vout, unlock size
_OUTPUT_HEAD = struct.Struct("<QH")  # amount, script size


class Transaction:
    """A transaction with its wire bytes and txid, both fixed when it is
    built or parsed: `serialize` and `txid` return them, and a parsed
    transaction's bytes are the slice it was read from. Bitcoin Core's
    `CTransaction` likewise computes its hash once, in its constructor.
    Immutable by convention; equal when the bytes are."""
    __slots__ = ("inputs", "outputs", "_raw", "_txid")

    def __init__(self, inputs: tuple, outputs: tuple,
                 raw: bytes | None = None) -> None:
        """`raw`, when given, must be the encoding of these inputs and
        outputs; the parser passes the bytes it read them from."""
        if raw is None:
            parts = [_COUNT.pack(len(inputs))]
            for txin in inputs:
                parts += (_INPUT_HEAD.pack(txin.prev_txid, txin.prev_vout,
                                           len(txin.unlock)), txin.unlock)
            parts.append(_COUNT.pack(len(outputs)))
            for txout in outputs:
                parts += (_OUTPUT_HEAD.pack(txout.amount, len(txout.script)),
                          txout.script)
            raw = b"".join(parts)
        self.inputs, self.outputs = inputs, outputs
        self._raw, self._txid = raw, hash256(raw)

    def __eq__(self, other) -> bool:
        return isinstance(other, Transaction) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return f"Transaction(inputs={self.inputs!r}, outputs={self.outputs!r})"

    def is_coinbase(self) -> bool:
        return len(self.inputs) == 1 \
            and self.inputs[0].prev_txid == COINBASE_TXID \
            and self.inputs[0].prev_vout == COINBASE_VOUT

    def serialize(self) -> bytes:
        return self._raw

    @classmethod
    def parse(cls, buf: bytes, offset: int = 0) -> tuple["Transaction", int]:
        return _read_tx(bytes(buf), offset)

    def txid(self) -> bytes:
        return self._txid


def _read_tx(buf: bytes, offset: int, new=tuple.__new__,
             count=_COUNT.unpack_from, input_head=_INPUT_HEAD.unpack_from,
             output_head=_OUTPUT_HEAD.unpack_from) -> tuple[Transaction, int]:
    """The transaction at `offset` of `buf`, which must be bytes, and the
    offset after it. The unpackers are bound once, as defaults, and
    tuple.__new__ skips the named tuples' Python-level constructors."""
    start, size = offset, len(buf)
    try:
        (n_in,) = count(buf, offset)
        offset += 2
        inputs = []
        for _ in range(n_in):
            txid, vout, n = input_head(buf, offset)
            offset += 38 + n
            if offset > size:
                raise ChainError("truncated input unlock")
            inputs.append(new(TxInput, (txid, vout, buf[offset - n:offset])))
        (n_out,) = count(buf, offset)
        offset += 2
        outputs = []
        for _ in range(n_out):
            amount, n = output_head(buf, offset)
            offset += 10 + n
            if offset > size:
                raise ChainError("truncated output script")
            outputs.append(new(TxOutput, (amount, buf[offset - n:offset])))
    except struct.error as exc:
        raise ChainError(f"truncated transaction: {exc}") from None
    return Transaction(tuple(inputs), tuple(outputs), buf[start:offset]), offset


def coinbase_tx(height: int, outputs: list[TxOutput], data: bytes) -> Transaction:
    """Build a coinbase. data starts with the LE32 height for uniqueness."""
    unlock = struct.pack("<I", height) + data
    if len(unlock) > MAX_COINBASE_DATA:
        raise ChainError("coinbase data above 100 bytes")
    return Transaction((TxInput(COINBASE_TXID, COINBASE_VOUT, unlock),),
                       tuple(outputs))


# --- blocks ---------------------------------------------------------------

def _u32(buf: bytes, offset: int, what: str) -> int:
    """The little-endian u32 at offset; ChainError if buf ends first."""
    try:
        return struct.unpack_from("<I", buf, offset)[0]
    except struct.error:
        raise ChainError(f"truncated {what} at offset {offset}") from None


def merkle_root(txids: list[bytes]) -> bytes:
    """Bitcoin-style merkle root: odd levels duplicate their last entry."""
    if not txids:
        raise ChainError("merkle tree needs at least one leaf")
    level = list(txids)
    while len(level) > 1:
        if len(level) & 1:
            level.append(level[-1])
        level = [hash256(level[i] + level[i + 1])
                 for i in range(0, len(level), 2)]
    return level[0]


class Block(NamedTuple):
    header: BlockHeader
    transactions: tuple

    def block_id(self) -> bytes:
        return self.header.block_id()

    def serialize(self) -> bytes:
        parts = [self.header.serialize(),
                 struct.pack("<I", len(self.transactions))]
        parts.extend(tx.serialize() for tx in self.transactions)
        return b"".join(parts)

    @classmethod
    def parse(cls, buf: bytes, offset: int = 0) -> tuple["Block", int]:
        buf = bytes(buf)
        header = BlockHeader.parse(buf[offset:offset + HEADER_SIZE])
        offset += HEADER_SIZE
        n_tx = _u32(buf, offset, "block transaction count")
        offset += 4
        txs = []
        for _ in range(n_tx):
            tx, offset = _read_tx(buf, offset)
            txs.append(tx)
        return tuple.__new__(cls, (header, tuple(txs))), offset


def make_block(prev_hash: bytes, transactions: list[Transaction],
               timestamp: int, bits: int) -> Block:
    root = merkle_root([tx.txid() for tx in transactions])
    header = mine_header(prev_hash, root, timestamp, bits)
    return Block(header, tuple(transactions))


# --- chain parameters and genesis ----------------------------------------

@dataclass(frozen=True)
class ChainParams:
    bits: int = EASY_BITS
    subsidy: int = DEFAULT_SUBSIDY
    genesis_timestamp: int = 1600000000
    genesis_message: bytes = b"coinprune simulation genesis"


@functools.cache
def genesis_block(params: ChainParams) -> Block:
    out = TxOutput(params.subsidy,
                   scripts.p2pkh_script(hash256(params.genesis_message)[:20]))
    tx = coinbase_tx(0, [out], params.genesis_message[:96])
    return make_block(b"\x00" * 32, [tx], params.genesis_timestamp,
                      params.bits)


# --- UTXO records and the UTXO set ----------------------------------------
#
# A coin is held as its snapshot record, the bytes a snapshot chunk
# carries for it:
#
#     txid (32) | vout u32 | amount u64 | height u32 | coinbase u8
#     | case u8 | payload (scripts.payload_size(case) bytes)
#
# all little-endian. This is the one home of the record format: the set,
# block validation and the snapshot module all go through it.
#
# The set and block validation name an outpoint by one form, the 36-byte
# key that `outpoint_key` builds: txid, then vout as a big-endian u32, so
# sorting the keys as bytes gives the canonical (txid, vout) order.

_RECORD_HEAD = struct.Struct("<32sIQIBB")
RECORD_HEAD_SIZE = _RECORD_HEAD.size  # 50
_ORDER_HEAD = struct.Struct("<32sI8xI")  # txid, vout and height of a record
# a txid's first 8 bytes as a number; numeric order is their byte order
_PREFIX = struct.Struct(">Q")
_CASE_AT = RECORD_HEAD_SIZE - 1  # obfuscation rewrites it and the payload
_COINBASE_AT = _CASE_AT - 1
# the record length each case byte implies; every byte value is a case
_RECORD_SIZE = tuple(RECORD_HEAD_SIZE + scripts.payload_size(case)
                     for case in range(256))


class SnapshotError(ChainError):
    """Malformed snapshot bytes: a record, a chunk or the file holding them."""


class UtxoEntry(NamedTuple):
    txid: bytes
    vout: int
    amount: int
    height: int
    coinbase: bool
    compressed: CompressedTxOut


def _pack_record(txid: bytes, vout: int, amount: int, height: int,
                 coinbase: bool, comp: CompressedTxOut) -> bytes:
    try:
        record = _RECORD_HEAD.pack(txid, vout, amount, height,
                                   1 if coinbase else 0, comp.case) \
            + comp.payload
        fits = len(txid) == 32 and len(record) == _RECORD_SIZE[comp.case]
    except struct.error:  # a field outside its unsigned width
        fits = False
    if not fits:
        raise ChainError(f"coin {txid.hex()}:{vout} has no record form")
    return record


def outpoint_key(txid: bytes, vout: int) -> bytes:
    """The key of an outpoint. Concatenation, not struct's "32s", which
    pads a short txid and cuts a long one: a txid that is not 32 bytes,
    or a vout outside u32, gives a key no coin has."""
    try:
        return txid + vout.to_bytes(4, "big")
    except OverflowError:
        return b""


def _record_key(record: bytes) -> bytes:
    """The outpoint key of a record: its txid, then its vout's four
    little-endian bytes reversed."""
    return record[:32] + record[35:31:-1]


def obfuscate_record(record: bytes) -> bytes:
    """The record with its output passed through `scripts.obfuscate`."""
    comp = CompressedTxOut(record[_CASE_AT], record[RECORD_HEAD_SIZE:])
    hidden = scripts.obfuscate(comp)
    if hidden is comp:
        return record
    return record[:_CASE_AT] + bytes((hidden.case,)) + hidden.payload


def encode_record(entry: UtxoEntry) -> bytes:
    return _pack_record(*entry)


def _record_end(buf: bytes, offset: int) -> int:
    """The offset after the record at `offset`. Checks the head:
    SnapshotError on a coinbase flag other than 0/1 or a record that
    runs past the end of `buf`."""
    if offset + RECORD_HEAD_SIZE > len(buf):
        raise SnapshotError(f"truncated record at byte {offset}")
    if buf[offset + _COINBASE_AT] > 1:
        raise SnapshotError(f"bad coinbase flag at byte {offset}")
    end = offset + _RECORD_SIZE[buf[offset + _CASE_AT]]
    if end > len(buf):
        raise SnapshotError(f"truncated record payload at byte {offset}")
    return end


def _entry(record: bytes) -> UtxoEntry:
    """Decode a record that was checked or packed before."""
    txid, vout, amount, height, coinbase, case = _RECORD_HEAD.unpack_from(record)
    # tuple.__new__ skips the named tuples' Python-level constructors,
    # which are half the cost of a decode
    return tuple.__new__(UtxoEntry, (
        txid, vout, amount, height, coinbase == 1,
        tuple.__new__(CompressedTxOut, (case, record[RECORD_HEAD_SIZE:]))))


class _Base:
    """The chunks a set reads its base coins from, and their index.
    Copies of the set share it; neither is ever written."""

    __slots__ = ("chunks", "prefixes", "places")

    def __init__(self, chunks: tuple) -> None:
        self.chunks = chunks
        self.prefixes = self.places = None

    def index(self) -> tuple:
        """The index, built in one walk when first asked for: per record
        in slot order, the txid's first 8 bytes (`prefixes`) and the
        chunk number << 32 | offset (`places`)."""
        if self.places is None:
            prefixes, places = array("Q"), array("Q")
            add_prefix, add_place = prefixes.append, places.append
            for number, chunk in enumerate(self.chunks):
                offset = 0
                while offset < len(chunk):
                    add_prefix(_PREFIX.unpack_from(chunk, offset)[0])
                    add_place(number << 32 | offset)
                    offset += _RECORD_SIZE[chunk[offset + _CASE_AT]]
            self.prefixes, self.places = prefixes, places
        return self.prefixes, self.places

    def key(self, slot: int) -> bytes:
        place = self.places[slot]
        offset = place & 0xFFFFFFFF
        return _record_key(self.chunks[place >> 32][offset:offset + 36])

    def record(self, slot: int) -> bytes:
        place = self.places[slot]
        chunk, offset = self.chunks[place >> 32], place & 0xFFFFFFFF
        return chunk[offset:offset + _RECORD_SIZE[chunk[offset + _CASE_AT]]]

    def records(self, gone: bytearray) -> Iterator[bytes]:
        """The records of the slots `gone` does not mark, walked in
        chunk order, without the index."""
        slot = 0
        for chunk in self.chunks:
            offset = 0
            while offset < len(chunk):
                end = offset + _RECORD_SIZE[chunk[offset + _CASE_AT]]
                if not gone[slot]:
                    yield chunk[offset:end]
                slot += 1
                offset = end


_NO_BASE = _Base(())  # the base of a set that never had one


class UtxoSet:
    """Mutable map of unspent outputs, each coin held as its record;
    `get` and `entries` decode on demand. The packed 36-byte key that
    `outpoint_key` builds is the set's interface: `in`, `get`, `remove`
    and `add_records` take it, and a bytes key of any other length
    matches no coin. Only `bytes` keys are supported: a key of another
    type is a TypeError where it misses the dict, but the hit path is
    left unchecked, so one equal to a key the dict holds (a `memoryview`
    of it) still finds that coin.

    A set made by `from_chunks` reads its base coins from the snapshot
    chunks in place, with a spent mark of one byte per coin: a base
    coin spent, or read by `get` (which moves it to the dict), is
    marked. Coins added since, and every coin of a set that never had a
    snapshot, sit in a dict from key to record. `records`, `bytes` and
    `entries` walk the chunks in order; the first `in`, `get` or
    `remove` that reaches the base builds its index of 16 bytes per
    coin, the txid's first 8 bytes and the chunk number and offset,
    sorted as the records are, and slots that share those 8 bytes are
    bisected by key. Copies share the chunks and the index, so it is
    built once.

    `fold` makes a set's own records its base the same way, as an LSM
    tree folds its memtable into a sorted run, and empties the dict: a
    coin then costs its record in the chunks and its spent mark, and 16
    bytes more once a lookup builds the index, against about 207 bytes
    in the dict. A plain `build_snapshot` of more than one chunk folds
    the set into the built chunks, which the set and the snapshot then
    share; a one-chunk set keeps its dict, whose hash probes are
    cheaper than the base's bisection. A kept join folds too, at any
    size: the joined node applies no more blocks.
    """

    def __init__(self) -> None:
        self._records: dict[bytes, bytes] = {}
        self._base = _NO_BASE
        self._gone = bytearray()  # 1 where the base no longer holds the coin
        self._live = 0  # base coins the base still holds

    @classmethod
    def from_chunks(cls, chunks: Iterable[bytes], height: int) -> "UtxoSet":
        """The set of the records in `chunks`, the state at `height`,
        which it keeps and reads in place. Checks each record's head
        once; SnapshotError on a malformed head, a record that runs past
        its chunk, records not in strictly ascending (txid, vout) order,
        which the index's bisection needs, or a coin mined above
        `height`."""
        chunks = tuple(chunks)
        count = 0
        last_txid, last_vout = b"", -1
        for number, chunk in enumerate(chunks):
            offset = 0
            while offset < len(chunk):
                end = _record_end(chunk, offset)
                txid, vout, mined = _ORDER_HEAD.unpack_from(chunk, offset)
                # (txid, vout) <= the last outpoint, field by field:
                # building and comparing tuples cost apply about 7 %
                if txid <= last_txid \
                        and (txid != last_txid or vout <= last_vout):
                    if txid == last_txid and vout == last_vout:
                        raise SnapshotError(
                            f"duplicate outpoint {txid.hex()}:{vout}")
                    raise SnapshotError(f"record out of order at byte "
                                        f"{offset} of chunk {number}")
                if mined > height:
                    raise SnapshotError(
                        f"record above the snapshot's height {height} "
                        f"at byte {offset} of chunk {number}")
                last_txid, last_vout = txid, vout
                count += 1
                offset = end
        utxo = cls()
        utxo._lay_base(chunks, count)
        return utxo

    def fold(self, chunks: Iterable[bytes]) -> None:
        """Take `chunks`, which hold exactly this set's records in
        canonical order, unchecked, as the base and empty the dict."""
        self._lay_base(tuple(chunks), len(self))

    def _lay_base(self, chunks: tuple, count: int) -> None:
        """Make `chunks`, which hold `count` records, the base and empty
        the dict. Each field gets a new object, since copies share the
        old base."""
        self._records = {}
        self._base = _Base(chunks)
        self._live = count
        self._gone = bytearray(count)

    def _base_slot(self, key: bytes) -> int:
        """The slot of the coin at outpoint `key` if the base still holds
        it, else -1. TypeError if `key` is not bytes: a dict miss is
        where a wrong-type key shows, so this is where it is refused."""
        if not isinstance(key, bytes):
            raise TypeError(f"an outpoint key is bytes, not "
                            f"{type(key).__name__}")
        if not self._live or len(key) != 36:  # no coin has such a key
            return -1
        base = self._base
        prefixes, _ = base.index()
        prefix = _PREFIX.unpack_from(key)[0]
        lo = bisect_left(prefixes, prefix)
        if lo == len(prefixes) or prefixes[lo] != prefix:
            return -1
        if base.key(lo) != key:
            # the outputs of one txid share a prefix: bisect by key
            hi = bisect_right(prefixes, prefix, lo)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if base.key(mid) <= key:
                    lo = mid
                else:
                    hi = mid
            if base.key(lo) != key:
                return -1
        return -1 if self._gone[lo] else lo

    def __len__(self) -> int:
        return len(self._records) + self._live

    def __contains__(self, key: bytes) -> bool:
        return key in self._records or self._base_slot(key) >= 0

    def get(self, key: bytes) -> UtxoEntry | None:
        record = self._records.get(key)
        if record is None:
            slot = self._base_slot(key)
            if slot < 0:
                return None
            # a base coin read moves to the dict, as in a coins cache, so
            # the spend that usually follows finds it there
            record = self._records[key] = self._base.record(slot)
            self._gone[slot] = 1
            self._live -= 1
        return _entry(record)

    def add(self, entry: UtxoEntry) -> None:
        record = encode_record(entry)
        key = outpoint_key(entry.txid, entry.vout)
        if key in self:
            raise ChainError("duplicate outpoint created")
        self._records[key] = record

    def add_records(self, records: dict[bytes, bytes]) -> None:
        """Insert packed records under their outpoint keys; ChainError,
        inserting none, when the set holds a coin at any of them."""
        for key in records:
            if key in self:
                raise ChainError(f"duplicate outpoint {key[:32].hex()}:"
                                 f"{int.from_bytes(key[32:], 'big')}")
        self._records.update(records)

    def remove(self, key: bytes) -> None:
        """KeyError when the set holds no coin at outpoint `key`."""
        if self._records.pop(key, None) is None:
            slot = self._base_slot(key)
            if slot < 0:
                raise KeyError(key)
            self._gone[slot] = 1
            self._live -= 1

    def entries(self) -> Iterator[UtxoEntry]:
        """Every coin: the dict's in insertion order, then the base's."""
        return map(_entry, itertools.chain(self._records.values(),
                                           self._base.records(self._gone)))

    def records(self) -> Iterable[bytes]:
        """Every record, sorted by (txid, vout): the canonical order,
        which is the keys' byte order and the base's slot order. The
        base's records are read lazily, so use them before changing the
        set."""
        records, base = self._records, self._base.records(self._gone)
        if not records:
            return base
        added = [records[key] for key in sorted(records)]
        if not self._live:
            return added
        return heapq.merge(base, added, key=_record_key)

    def __bytes__(self) -> bytes:
        """Every record in canonical order, joined: the base's chunks
        themselves while no coin was added, read or spent since the
        apply."""
        if not self._records and self._live == len(self._gone):
            return b"".join(self._base.chunks)
        return b"".join(self.records())

    def copy(self) -> "UtxoSet":
        """An independent set with its own dict and spent marks; the
        base, its chunks and its index, are shared."""
        other = copy.copy(self)
        other._records = dict(self._records)
        other._gone = bytearray(self._gone)
        return other


def validate_and_apply_block(utxo: UtxoSet, block: Block, height: int,
                             prev_id: bytes, params: ChainParams) -> bytes:
    """Run full consensus checks and apply the block to the UTXO set;
    returns the block's id.

    All checks complete before any mutation, so a raised
    BlockValidationError leaves the set untouched; the last, that the
    set holds no created outpoint, runs in `add_records` before it
    inserts.
    """
    header = block.header
    if header.prev_hash != prev_id:
        raise BlockValidationError(f"height {height}: prev hash mismatch")
    if header.bits != params.bits:
        raise BlockValidationError(f"height {height}: wrong difficulty bits")
    block_id = header.block_id()
    if not check_pow(block_id, header.bits):
        raise BlockValidationError(f"height {height}: insufficient proof of work")
    if not block.transactions:
        raise BlockValidationError(f"height {height}: empty block")
    txids = [tx.txid() for tx in block.transactions]
    if merkle_root(txids) != header.merkle_root:
        raise BlockValidationError(f"height {height}: merkle root mismatch")

    coinbase = block.transactions[0]
    if not coinbase.is_coinbase():
        raise BlockValidationError(f"height {height}: first tx not coinbase")
    unlock = coinbase.inputs[0].unlock
    if len(unlock) > MAX_COINBASE_DATA:
        raise BlockValidationError(f"height {height}: oversized coinbase data")
    if unlock[:4] != struct.pack("<I", height):  # BIP34: one coinbase per height
        raise BlockValidationError(f"height {height}: coinbase lacks its height")

    spent: dict[bytes, None] = {}  # by outpoint key
    created: dict[bytes, bytes] = {}  # outpoint key -> record
    fees = 0
    for tx, txid in zip(block.transactions[1:], txids[1:]):
        if tx.is_coinbase():
            raise BlockValidationError(f"height {height}: stray coinbase")
        if not tx.inputs or not tx.outputs:
            raise BlockValidationError(f"height {height}: empty tx {txid.hex()}")
        in_value = 0
        for txin in tx.inputs:
            key = outpoint_key(txin.prev_txid, txin.prev_vout)
            if key in spent:
                raise BlockValidationError(
                    f"height {height}: double spend of {txin.prev_txid.hex()}:{txin.prev_vout}")
            record = created.get(key)
            entry = utxo.get(key) if record is None else _entry(record)
            if entry is None:
                raise BlockValidationError(
                    f"height {height}: missing outpoint {txin.prev_txid.hex()}:{txin.prev_vout}")
            ctx = SpendContext(txin.prev_txid, txin.prev_vout)
            if not scripts.validate_spend(entry.compressed, txin.unlock, ctx):
                raise BlockValidationError(
                    f"height {height}: invalid unlock for {txin.prev_txid.hex()}:{txin.prev_vout}")
            spent[key] = None
            in_value += entry.amount
        out_value = _check_outputs(tx, txid, height, created)
        if out_value > in_value:
            raise BlockValidationError(
                f"height {height}: tx {txid.hex()} creates value")
        fees += in_value - out_value

    coinbase_value = _check_outputs(coinbase, txids[0], height, created,
                                    coinbase=True)
    if coinbase_value != params.subsidy + fees:
        raise BlockValidationError(
            f"height {height}: coinbase claims {coinbase_value}, "
            f"expected {params.subsidy + fees}")
    try:
        utxo.add_records(created)
    except ChainError as exc:
        raise BlockValidationError(f"height {height}: {exc}") from None
    # a coin created and spent in this block is added, then removed here
    for key in spent:
        utxo.remove(key)
    return block_id


def replay_blocks(utxo: UtxoSet, blocks, heights: range, prev_id: bytes,
                  params: ChainParams, applied=None) -> bytes:
    """Validate and apply blocks[h] for each h in heights, the first on top
    of prev_id; returns the id of the last block applied. Each block is
    looked up once; `applied(block, height, block_id)`, when given, is
    called with it after it is applied.

    Each block must link to the one before it, so a caller that compares
    the returned id with the tip it expects has checked every block.
    """
    for height in heights:
        block = blocks[height]
        prev_id = validate_and_apply_block(utxo, block, height, prev_id,
                                           params)
        if applied is not None:
            applied(block, height, prev_id)
    return prev_id


def _check_outputs(tx: Transaction, txid: bytes, height: int,
                   created: dict, coinbase: bool = False) -> int:
    total = 0
    for vout, txout in enumerate(tx.outputs):
        if not scripts.script_well_formed(txout.script):
            raise BlockValidationError(
                f"height {height}: malformed script in {txid.hex()}:{vout}")
        total += txout.amount
        if scripts.is_op_return(txout.script):
            continue  # provably unspendable, never enters the set
        created[outpoint_key(txid, vout)] = _pack_record(
            txid, vout, txout.amount, height, coinbase,
            scripts.compress(txout.script))
    return total


# --- persisted header records ---------------------------------------------

class PersistedHeaderRecord(NamedTuple):
    """What a pruned node keeps per block: 140 bytes, fixed."""
    block_id: bytes
    header: BlockHeader
    height: int
    cumulative_work: int
    tx_count: int
    timestamp: int

    def serialize(self) -> bytes:
        out = self.block_id + self.header.serialize() \
            + struct.pack("<I", self.height) \
            + self.cumulative_work.to_bytes(16, "little") \
            + struct.pack("<II", self.tx_count, self.timestamp)
        assert len(out) == HEADER_RECORD_SIZE
        return out


def header_record(block: Block, height: int, cumulative_work: int) -> PersistedHeaderRecord:
    return PersistedHeaderRecord(block.block_id(), block.header, height,
                                 cumulative_work, len(block.transactions),
                                 block.header.timestamp)


@dataclass
class HeaderIndex:
    """Flat-file index of consecutive header records from genesis."""
    records: list = field(default_factory=list)

    def append(self, record: PersistedHeaderRecord) -> None:
        if record.height != len(self.records):
            raise ChainError(
                f"record height {record.height} breaks contiguity at {len(self.records)}")
        self.records.append(record)

    def serialize(self) -> bytes:
        return b"".join(r.serialize() for r in self.records)

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.serialize())


def verify_headerchain(headers: list[BlockHeader],
                       params: ChainParams) -> tuple[bytes, int]:
    """Check genesis linkage and PoW; return (tip id, cumulative work)."""
    if not headers:
        raise ChainError("empty header chain")
    expected_genesis = genesis_block(params).header
    if headers[0] != expected_genesis:
        raise ChainError("position 0: not the configured genesis")
    work = 0
    prev_id = None
    for i, header in enumerate(headers):
        if i > 0 and header.prev_hash != prev_id:
            raise ChainError(f"position {i}: broken prev-hash link")
        if header.bits != params.bits:
            raise ChainError(f"position {i}: wrong difficulty bits")
        prev_id = header.block_id()
        if not check_pow(prev_id, header.bits):
            raise ChainError(f"position {i}: insufficient proof of work")
        work += work_from_bits(header.bits)
    return prev_id, work


def best_tip(chains: list[list[BlockHeader]], params: ChainParams) -> int:
    """Index of the valid chain with the most cumulative work."""
    best = -1
    best_work = -1
    for i, headers in enumerate(chains):
        try:
            _, work = verify_headerchain(headers, params)
        except ChainError:
            continue
        if work > best_work:
            best, best_work = i, work
    if best < 0:
        raise ChainError("no valid chain among candidates")
    return best


# --- block files ------------------------------------------------------------
#
# A block file is the magic, the block count as a u32, then one record
# per block: its size as a u32 and its bytes.

BLOCK_FILE_MAGIC = b"CPB1"
COPY_PIECE = 1 << 20  # bytes that write_block_file copies at a time


class BlockFile:
    """Blocks in height order, kept in a block file on disk: memory holds
    only the span of each block's bytes in the file, 16 bytes a block.
    The simulator and `chain gen` keep their chains in an unnamed
    temporary file, and `read_block_file` in the file it opened. A block
    is read and parsed when it is looked up and not kept; `raw`, `size`,
    `header` and `coinbase` read one block without a full parse. The
    file is closed by `close`, or else when the store is dropped."""

    def __init__(self, fh: BinaryIO | None = None) -> None:
        """The blocks of the open block file `fh`, which the store now
        owns; a new, empty, read-write temporary file when None. Only
        the framing is checked: the magic, the count, each record's
        size, no trailing bytes."""
        if fh is None:
            fh = tempfile.TemporaryFile(buffering=0)
            fh.write(BLOCK_FILE_MAGIC + bytes(4))
        # also closes the file of a store whose framing check fails
        self._finalizer = weakref.finalize(self, fh.close)
        self._fd = fd = fh.fileno()
        file_size = os.fstat(fd).st_size
        head = os.pread(fd, 8, 0)
        if head[:4] != BLOCK_FILE_MAGIC:
            raise ChainError("not a block file")
        self._starts, self._ends = array("Q"), array("Q")
        offset = 8
        for _ in range(_u32(head, 4, "block count")):
            prefix = os.pread(fd, 4, offset)
            if len(prefix) < 4:
                raise ChainError(
                    f"truncated block record size at offset {offset}")
            offset += 4
            size = int.from_bytes(prefix, "little")
            if offset + size > file_size:
                raise ChainError(f"truncated block record at offset {offset}")
            self._starts.append(offset)
            offset += size
            self._ends.append(offset)
        if offset != file_size:
            raise ChainError("trailing bytes after final block")
        self._end = offset

    def close(self) -> None:
        """Close the file now rather than when the store is dropped."""
        self._finalizer()

    def append(self, block: Block) -> None:
        """Add the next block's record; serializes the block once."""
        raw = block.serialize()
        os.pwrite(self._fd, struct.pack("<I", len(raw)) + raw, self._end)
        self._starts.append(self._end + 4)
        self._end += 4 + len(raw)
        self._ends.append(self._end)
        os.pwrite(self._fd, struct.pack("<I", len(self._ends)), 4)

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, height: int) -> Block:
        raw = self.raw(height)
        block, used = Block.parse(raw)
        if used != len(raw):
            raise ChainError("trailing bytes inside block record")
        return block

    def __iter__(self) -> Iterator[Block]:
        return map(self.__getitem__, range(len(self)))

    def raw(self, height: int) -> bytes:
        start = self._starts[height]
        return os.pread(self._fd, self._ends[height] - start, start)

    def size(self, height: int) -> int:
        return self._ends[height] - self._starts[height]

    def header(self, height: int) -> BlockHeader:
        start = self._starts[height]
        size = min(HEADER_SIZE, self._ends[height] - start)
        return BlockHeader.parse(os.pread(self._fd, size, start))

    def coinbase(self, height: int) -> Transaction:
        """The block's first transaction, parsed without the others."""
        return Transaction.parse(self.raw(height), HEADER_SIZE + 4)[0]


def write_block_file(path, blocks: BlockFile) -> None:
    """Copy the store's block file to `path`, a piece at a time;
    ChainError if `path` names that same file."""
    # opened without truncating, so that the store's own file is refused
    # before anything in it is lost
    with open(path, "ab") as fh:
        if os.path.samestat(os.fstat(fh.fileno()), os.fstat(blocks._fd)):
            raise ChainError(f"{path} is the file the blocks are read from")
        fh.truncate(0)
        for offset in range(0, blocks._end, COPY_PIECE):
            fh.write(os.pread(blocks._fd,
                              min(COPY_PIECE, blocks._end - offset), offset))


def read_block_file(path) -> BlockFile:
    return BlockFile(open(path, "rb", buffering=0))
