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
from bisect import bisect_left
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

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
# a record after its txid and vout, which the outpoint key holds: the
# tail that the set's dict keeps
_TAIL_HEAD = struct.Struct("<QIBB")  # amount, height, coinbase, case
_TAIL_AT = RECORD_HEAD_SIZE - _TAIL_HEAD.size  # 36
_ORDER_HEAD = struct.Struct("<32sI8xI")  # txid, vout and height of a record
_AMOUNT, _AMOUNT_AT = struct.Struct("<Q"), 36
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


def pack_record(txid: bytes, vout: int, amount: int, height: int,
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


def _whole_record(key: bytes, tail: bytes) -> bytes:
    """The record of the coin at outpoint `key` whose tail is `tail`:
    the inverse of `_record_key` and `record[_TAIL_AT:]`."""
    return key[:32] + key[35:31:-1] + tail


def obfuscate_record(record: bytes) -> bytes:
    """The record with its output passed through `scripts.obfuscate`."""
    comp = CompressedTxOut(record[_CASE_AT], record[RECORD_HEAD_SIZE:])
    hidden = scripts.obfuscate(comp)
    if hidden is comp:
        return record
    return record[:_CASE_AT] + bytes((hidden.case,)) + hidden.payload


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


def _entry(key: bytes, tail: bytes) -> UtxoEntry:
    """Decode the coin at outpoint `key` from its record's tail, which
    was checked or packed before."""
    amount, height, coinbase, case = _TAIL_HEAD.unpack_from(tail)
    # tuple.__new__ skips the named tuples' Python-level constructors,
    # which are half the cost of a decode
    return tuple.__new__(UtxoEntry, (
        key[:32], int.from_bytes(key[32:], "big"), amount, height,
        coinbase == 1,
        tuple.__new__(CompressedTxOut, (case, tail[_TAIL_HEAD.size:]))))


class _Base:
    """The chunks a set reads its base coins from, and their index.
    Copies of the set share it; neither is ever written.

    The index holds each coin's 36-byte key as its own object, about 86
    traced bytes a coin with its list slot and place, so that a lookup
    is one bisection in C. It is built only for a set that is looked
    up: an applied or folded set that is only walked or built from
    costs no index, and the sets that commands look up hold a few
    thousand coins."""

    __slots__ = ("chunks", "keys", "places")

    def __init__(self, chunks: tuple) -> None:
        self.chunks = chunks
        self.keys = self.places = None

    def index(self) -> list:
        """The sorted outpoint keys, built in one walk when first asked
        for: per record in slot order, its key (`keys`) and the chunk
        number << 32 | offset (`places`)."""
        if self.places is None:
            keys, places = [], array("Q")
            add_key, add_place = keys.append, places.append
            for number, chunk in enumerate(self.chunks):
                offset = 0
                while offset < len(chunk):
                    add_key(_record_key(chunk[offset:offset + 36]))
                    add_place(number << 32 | offset)
                    offset += _RECORD_SIZE[chunk[offset + _CASE_AT]]
            self.keys, self.places = keys, places
        return self.keys

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
    """Mutable map of unspent outputs, each coin held as its record,
    which `record` returns. The packed 36-byte key that `outpoint_key`
    builds is the set's interface: `in`, `record`, `remove` and
    `add_records` take it, and a bytes key of any other length matches
    no coin. Only `bytes` keys are supported: a key of another
    type is a TypeError where it misses the dict, but the hit path is
    left unchecked, so one equal to a key the dict holds (a `memoryview`
    of it) still finds that coin.

    A set made by `from_chunks` reads its base coins from the snapshot
    chunks in place, with a spent mark of one byte per coin, set only by
    `remove`: `in` and `record` are reads and leave the set as it was.
    Coins added since, and every coin of a set that never had a
    snapshot, sit in a dict from key to the record's tail, the bytes
    after its txid and vout, which the key holds; `record`, `records`
    and `bytes` rebuild the whole record. `records`, `bytes` and
    `entries` walk the chunks in order; the first `in`, `record` or
    `remove` that reaches the base builds its index, a sorted list of
    the base's outpoint keys beside each record's chunk number and
    offset, which a lookup bisects once. Copies share the chunks and the
    index, so it is built once.

    `fold` packs a set's own records into chunks, then makes them its
    base the same way and empties the dict, as an LSM tree writes its
    memtable out as a sorted run and only then drops it: a coin then
    costs its record in the chunks and its spent mark, and about 86
    traced bytes more once a lookup builds the index (its key object,
    list slot and place), against about 166 bytes in the dict. Every
    plain `build_snapshot` folds the set into the chunks it builds,
    which the set and the snapshot then share, so a set that goes on
    applying blocks keeps in its dict only the coins created since its
    last build. A kept join folds too.
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

    def fold(self, pack: Callable[[Iterable[bytes]], Iterable[bytes]]
             ) -> tuple:
        """The chunks `pack` makes of the set's records, which it is
        given in canonical order and must keep in order, unsplit. They
        become the base and the dict empties once `pack` is done, so if
        `pack` raises, the set holds what it held."""
        count = len(self)
        chunks = tuple(pack(self.records()))
        self._lay_base(chunks, count)
        return chunks

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
        it, else -1: one bisection of the base's sorted keys. TypeError
        if `key` is not bytes: a dict miss is where a wrong-type key
        shows, so this is where it is refused."""
        if not isinstance(key, bytes):
            raise TypeError(f"an outpoint key is bytes, not "
                            f"{type(key).__name__}")
        if not self._live:
            return -1
        keys = self._base.index()
        slot = bisect_left(keys, key)
        if slot == len(keys) or keys[slot] != key or self._gone[slot]:
            return -1
        return slot

    def __len__(self) -> int:
        return len(self._records) + self._live

    def __contains__(self, key: bytes) -> bool:
        return key in self._records or self._base_slot(key) >= 0

    def record(self, key: bytes) -> bytes | None:
        """The record of the coin at outpoint `key`, or None. A read
        leaves the set as it was."""
        tail = self._records.get(key)
        if tail is not None:
            return _whole_record(key, tail)
        slot = self._base_slot(key)
        return None if slot < 0 else self._base.record(slot)

    def add(self, entry: UtxoEntry) -> None:
        """ChainError when the coin has no record form, a field outside
        its unsigned width or a payload its case does not fit, or when
        the set holds a coin at its outpoint."""
        txid, vout, amount, height, coinbase, comp = entry
        key = outpoint_key(txid, vout)  # b"" for a vout outside u32
        try:
            tail = _TAIL_HEAD.pack(amount, height, 1 if coinbase else 0,
                                   comp.case) + comp.payload
            fits = len(key) == 36 \
                and len(tail) == _RECORD_SIZE[comp.case] - _TAIL_AT
        except struct.error:  # a field outside its unsigned width
            fits = False
        if not fits:
            raise ChainError(f"coin {txid.hex()}:{vout} has no record form")
        if key in self:
            raise ChainError(f"duplicate outpoint {txid.hex()}:{vout}")
        self._records[key] = tail

    def add_records(self, records: dict[bytes, bytes]) -> None:
        """Insert packed records under their outpoint keys; ChainError,
        inserting none, when the set holds a coin at any of them."""
        for key in records:
            if key in self:
                raise ChainError(f"duplicate outpoint {key[:32].hex()}:"
                                 f"{int.from_bytes(key[32:], 'big')}")
        self._records.update({key: record[_TAIL_AT:]
                              for key, record in records.items()})

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
        base = ((_record_key(record), record[_TAIL_AT:])
                for record in self._base.records(self._gone))
        return itertools.starmap(_entry, itertools.chain(
            self._records.items(), base))

    def records(self) -> Iterable[bytes]:
        """Every record, sorted by (txid, vout): the canonical order,
        which is the keys' byte order and the base's slot order. They
        are read lazily, so use them before changing the set."""
        records, base = self._records, self._base.records(self._gone)
        if not records:
            return base
        added = (_whole_record(key, records[key]) for key in sorted(records))
        if not self._live:
            return added
        return heapq.merge(base, added, key=_record_key)

    def __bytes__(self) -> bytes:
        """Every record in canonical order, joined: the base's chunks
        themselves while no coin was added or spent since the apply,
        however many were read."""
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
    block_id = block.block_id()
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
            record = created.get(key) or utxo.record(key)
            if record is None:
                raise BlockValidationError(
                    f"height {height}: missing outpoint {txin.prev_txid.hex()}:{txin.prev_vout}")
            ctx = SpendContext(txin.prev_txid, txin.prev_vout)
            comp = tuple.__new__(CompressedTxOut, (record[_CASE_AT],
                                                   record[RECORD_HEAD_SIZE:]))
            if not scripts.validate_spend(comp, txin.unlock, ctx):
                raise BlockValidationError(
                    f"height {height}: invalid unlock for {txin.prev_txid.hex()}:{txin.prev_vout}")
            spent[key] = None
            in_value += _AMOUNT.unpack_from(record, _AMOUNT_AT)[0]
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
    looked up once; `applied(block, block_id)`, when given, is called
    with it after it is applied.

    Each block must link to the one before it, so a caller that compares
    the returned id with the tip it expects has checked every block.
    """
    for height in heights:
        block = blocks[height]
        prev_id = validate_and_apply_block(utxo, block, height, prev_id,
                                           params)
        if applied is not None:
            applied(block, prev_id)
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
        created[outpoint_key(txid, vout)] = pack_record(
            txid, vout, txout.amount, height, coinbase,
            scripts.compress(txout.script))
    return total


# --- persisted header records ---------------------------------------------

class HeaderIndex:
    """The header chain from genesis, as a pruned node keeps it: 140
    bytes a block, held back to back in `records`. Each record is the
    block id, the 80-byte header, the height as LE32, the cumulative
    work as LE128, then the transaction count and the timestamp as LE32
    each. `ChainBuilder` appends each block it mines; the simulator
    serves the headers to its joiners."""

    def __init__(self) -> None:
        self.records = bytearray()

    def __len__(self) -> int:
        return len(self.records) // HEADER_RECORD_SIZE

    def append(self, block: Block, block_id: bytes) -> None:
        """Add the record of the block above the last one appended;
        `block_id` is its id, as validation returned it."""
        header = block.header
        # the last record's cumulative work, or 0 before genesis
        work = int.from_bytes(self.records[-24:-8], "little") \
            + work_from_bits(header.bits)
        self.records += block_id + header.serialize() \
            + struct.pack("<I", len(self)) + work.to_bytes(16, "little") \
            + struct.pack("<II", len(block.transactions), header.timestamp)

    def block_id(self, height: int) -> bytes:
        """The id of the block at `height`, from the tip when negative."""
        start = range(len(self))[height] * HEADER_RECORD_SIZE
        return bytes(self.records[start:start + 32])

    def __iter__(self) -> Iterator[BlockHeader]:
        """The headers in height order, each parsed as it is reached."""
        for start in range(32, len(self.records), HEADER_RECORD_SIZE):
            yield BlockHeader.parse(self.records[start:start + HEADER_SIZE])

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.records)


def verify_headerchain(headers: Iterable[BlockHeader],
                       params: ChainParams) -> bytes:
    """Check genesis linkage and PoW over the headers, taken one at a
    time from any iterable; return the tip's id."""
    prev_id = None
    for i, header in enumerate(headers):
        if i == 0 and header != genesis_block(params).header:
            raise ChainError("position 0: not the configured genesis")
        if i > 0 and header.prev_hash != prev_id:
            raise ChainError(f"position {i}: broken prev-hash link")
        if header.bits != params.bits:
            raise ChainError(f"position {i}: wrong difficulty bits")
        prev_id = header.block_id()
        if not check_pow(prev_id, header.bits):
            raise ChainError(f"position {i}: insufficient proof of work")
    if prev_id is None:
        raise ChainError("empty header chain")
    return prev_id


# --- block files ------------------------------------------------------------
#
# A block file is the magic, the block count as a u32, then one record
# per block: its size as a u32 and its bytes.

BLOCK_FILE_MAGIC = b"CPB1"
COPY_PIECE = 1 << 20  # bytes that write_block_file copies at a time


class BlockFile:
    """Blocks in height order, kept in a block file on disk: memory holds
    only where each block's bytes end in the file, 8 bytes a block, as
    each starts 4 bytes after the one before it ends.
    The simulator and `chain gen` keep their chains in an unnamed
    temporary file, and `read_block_file` in the file it opened. A block
    is read and parsed when it is looked up and not kept; `raw`, `size`
    and `coinbase` read one block without a full parse. The file is
    closed by `close`, or else when the store is dropped."""

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
        self._ends = array("Q")
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

    def _start(self, height: int) -> int:
        """Where the block's bytes start: 4 bytes, its size field, after
        the previous block's end or the file head."""
        if height < 0:
            height += len(self._ends)
        return (self._ends[height - 1] if height > 0 else 8) + 4

    def raw(self, height: int) -> bytes:
        start = self._start(height)
        return os.pread(self._fd, self._ends[height] - start, start)

    def size(self, height: int) -> int:
        return self._ends[height] - self._start(height)

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
