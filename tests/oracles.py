"""Test-side oracles, written from the documented formats rather than
from the code they check.

- `decompress` rebuilds an output script from a compressed entry, using
  the case table in the `coinprune.scripts` module docstring and
  Bitcoin's opcode bytes. `compress_script` goes the other way for an
  unobfuscated script: the first plain case that rebuilds it, else the
  script verbatim.
- `utxo_records` reads UTXO set bytes in the record layout of
  `coinprune.chain`: the 32-byte txid, the vout as LE32, the amount as
  LE64, the height as LE32, a coinbase byte of 0 or 1, the case byte,
  then the payload, whose size that same case table gives.
- `appdata_entries` reads an app-data snapshot's chunks in the entry
  layout of `coinprune.appdata`: a length byte, that many payload
  bytes, the 32-byte txid, then the 32-byte block id. `appdata_entry`
  writes one entry in that layout.
- `op_return_entries` scans blocks for outputs framed 0x6a, length,
  payload.
- `header_records` reads a header file in the record layout of
  `coinprune.chain.HeaderIndex`: 140 bytes a block, the 32-byte id, the
  80-byte header, the height as LE32, the cumulative work as LE128,
  then the transaction count and the timestamp as LE32 each.
"""

import hashlib

# opcode bytes, from Bitcoin's script table
_ZERO = b"\x00"
_RETURN = b"\x6a"
_DUP = b"\x76"
_EQUAL = b"\x87"
_EQUALVERIFY = b"\x88"
_HASH160 = b"\xa9"
_HASH256 = b"\xaa"
_CHECKSIG = b"\xac"


def _hash256(data: bytes) -> bytes:
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


# case -> (payload size, bytes before the payload, bytes after it). The
# obfuscated cases stand for their commitment form: the original
# template's hashing step followed by an OP_HASH256 marker and a push
# of the 32-byte commitment.
_TEMPLATES = {
    0x00: (20, _DUP + _HASH160 + b"\x14", _EQUALVERIFY + _CHECKSIG),  # P2PKH
    0x01: (20, _HASH160 + b"\x14", _EQUAL),  # P2SH
    0x02: (32, b"\x21\x02", _CHECKSIG),  # P2PK compressed, even
    0x03: (32, b"\x21\x03", _CHECKSIG),  # P2PK compressed, odd
    0x06: (32, _DUP + _HASH160 + _HASH256 + b"\x20",
           _EQUALVERIFY + _CHECKSIG),  # obfuscated P2PKH
    0x07: (32, _HASH160 + _HASH256 + b"\x20", _EQUAL),  # obfuscated P2SH
    0x08: (32, _ZERO + b"\x14" + _HASH256 + b"\x20", b""),  # obf. P2WPKH
    0x09: (32, _ZERO + b"\x20" + _HASH256 + b"\x20", b""),  # obf. P2WSH
}


def decompress(entry) -> bytes:
    """The script a `(case, payload)` entry stands for; ValueError when
    the payload does not fit its case."""
    case, payload = entry
    if case in _TEMPLATES:
        size, head, tail = _TEMPLATES[case]
        if len(payload) != size:
            raise ValueError(f"case {case:#04x} takes {size} bytes")
        return head + payload + tail
    if case in (0x04, 0x05):  # P2PK uncompressed: y = HASH256(x)
        y = _hash256(payload)
        if len(payload) != 32 or y[-1] % 2 != case - 0x04:
            raise ValueError(f"no key of case {case:#04x} has this x")
        return b"\x41\x04" + payload + y + _CHECKSIG
    if case >= 0x0A and len(payload) == case - 0x0A:  # stored verbatim
        return payload
    raise ValueError(f"case {case:#04x} with {len(payload)} payload bytes")


# case -> payload size; a case from 0x0A on stores a script of case - 0x0A
# bytes verbatim
_PAYLOAD_SIZE = {case: size for case, (size, _, _) in _TEMPLATES.items()}
_PAYLOAD_SIZE.update({0x04: 32, 0x05: 32})


# plain case -> where its payload starts in the script
_PAYLOAD_AT = {0x00: 3, 0x01: 2, 0x02: 2, 0x03: 2, 0x04: 2, 0x05: 2}


def compress_script(script: bytes) -> tuple[int, bytes]:
    """The (case, payload) the case table stores an unobfuscated
    `script` as: the first plain case whose `decompress` gives the script
    back, else the script verbatim behind case 0x0A + its length."""
    for case, at in _PAYLOAD_AT.items():
        payload = script[at:at + _PAYLOAD_SIZE[case]]
        try:
            if decompress((case, payload)) == script:
                return case, payload
        except ValueError:
            continue
    return 0x0A + len(script), script


def utxo_records(raw: bytes) -> list[tuple]:
    """(txid, vout, amount, height, coinbase, (case, payload)) of every
    record in `raw`, in order; AssertionError when the bytes do not
    split into whole records or a coinbase byte is not 0 or 1."""
    found = []
    at = 0
    while at < len(raw):
        assert at + 50 <= len(raw), f"record head at byte {at} is cut"
        case = raw[at + 49]
        end = at + 50 + _PAYLOAD_SIZE.get(case, case - 0x0A)
        assert end <= len(raw), f"record payload at byte {at} is cut"
        assert raw[at + 48] in (0, 1), f"coinbase byte at byte {at}"
        found.append((raw[at:at + 32],
                      int.from_bytes(raw[at + 32:at + 36], "little"),
                      int.from_bytes(raw[at + 36:at + 44], "little"),
                      int.from_bytes(raw[at + 44:at + 48], "little"),
                      raw[at + 48] == 1, (case, raw[at + 50:end])))
        at = end
    return found


def appdata_entries(snapshot) -> list[tuple[bytes, bytes, bytes]]:
    """Every (payload, txid, block id) of an app-data snapshot, in
    order; AssertionError when a chunk does not split into entries."""
    found = []
    for chunk in snapshot.chunks:
        at = 0
        while at < len(chunk):
            n = chunk[at]
            end = at + 1 + n + 64
            assert end <= len(chunk), f"entry at byte {at} runs past its chunk"
            found.append((chunk[at + 1:at + 1 + n],
                          chunk[at + 1 + n:end - 32], chunk[end - 32:end]))
            at = end
    return found


def appdata_entry(payload: bytes, txid: bytes, block_id: bytes) -> bytes:
    """One entry's bytes in the layout `appdata_entries` reads; the
    payload may be up to 255 bytes, past what the store accepts."""
    return bytes([len(payload)]) + payload + txid + block_id


def op_return_entries(blocks) -> list[tuple[int, tuple[bytes, bytes, bytes]]]:
    """(height, (payload, txid, block id)) of every output script framed
    0x6a, length, payload, in chain, transaction and output order."""
    found = []
    for height, block in enumerate(blocks):
        block_id = block.block_id()
        for tx in block.transactions:
            for out in tx.outputs:
                script = out.script
                if script[:1] == _RETURN:
                    found.append((height, (script[2:2 + script[1]],
                                           tx.txid(), block_id)))
    return found


def header_records(raw: bytes) -> list[tuple[bytes, bytes, int, int, int, int]]:
    """(block id, header, height, cumulative work, transaction count,
    timestamp) of every record of a header file, in order;
    AssertionError when the file does not split into 140-byte records."""
    assert len(raw) % 140 == 0, "header file is not whole records"
    found = []
    for at in range(0, len(raw), 140):
        rec = raw[at:at + 140]
        found.append((rec[:32], rec[32:112]) + tuple(
            int.from_bytes(rec[start:end], "little")
            for start, end in ((112, 116), (116, 132), (132, 136), (136, 140))))
    return found
