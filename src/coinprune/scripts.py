"""Output scripts: classification, compressed storage, obfuscation, spending.

UTXO entries are stored in compressed form. Standard single-key patterns
collapse to a one-byte case code plus the script's mutable value:

    0x00  P2PKH                 20-byte key hash
    0x01  P2SH                  20-byte script hash
    0x02  P2PK compressed, even 32-byte x coordinate
    0x03  P2PK compressed, odd  32-byte x coordinate
    0x04  P2PK uncompressed, even y parity
    0x05  P2PK uncompressed, odd y parity
    0x06  obfuscated P2PKH      32-byte HASH256 of the key hash
    0x07  obfuscated P2SH       32-byte HASH256 of the script hash
    0x08  obfuscated P2WPKH     32-byte HASH256 of the witness program
    0x09  obfuscated P2WSH      32-byte HASH256 of the witness program
    0x0A+ uncompressed script, case = script length + 10

Codes 0x06..0x09 are reserved for obfuscated entries, so uncompressed
lengths start at 0x0A rather than 0x06; with one byte available the
longest storable script is 245 bytes.

Obfuscation replaces the mutable value v with HASH256(v). A spender
reveals the preimage anyway (the public key or inner script), so the
node can check HASH256(hash(revealed)) against the stored commitment;
third parties holding only the snapshot cannot recognize v. Obfuscation
is deterministic and idempotent, and only P2PKH, P2SH, P2WPKH and P2WSH
are eligible: P2PK and P2MS expose raw keys with no hash layer to wrap.

The spend model is deliberately toy (no ECDSA): a "public key" is an
opaque 33-byte string, and the signature over an outpoint is
HASH256(material || txid || vout_le32) where material is the public key
or the revealed inner script. This preserves exactly the structure the
obfuscation argument needs: commitments verified against revealed
preimages, binding to the spent outpoint.
"""

import enum
import struct
from typing import NamedTuple

from .hashing import hash160, hash256, sha256

OP_0 = 0x00
OP_RETURN = 0x6a
OP_DUP = 0x76
OP_EQUAL = 0x87
OP_EQUALVERIFY = 0x88
OP_HASH160 = 0xa9
OP_CHECKSIG = 0xac
OP_CHECKMULTISIG = 0xae
OP_1 = 0x51
OP_16 = 0x60

CASE_P2PKH = 0x00
CASE_P2SH = 0x01
CASE_P2PK_EVEN = 0x02
CASE_P2PK_ODD = 0x03
CASE_P2PK_UNCOMP_EVEN = 0x04
CASE_P2PK_UNCOMP_ODD = 0x05
CASE_OBF_P2PKH = 0x06
CASE_OBF_P2SH = 0x07
CASE_OBF_P2WPKH = 0x08
CASE_OBF_P2WSH = 0x09
CASE_UNCOMPRESSED_BASE = 0x0A

MAX_SCRIPT_SIZE = 0xFF - CASE_UNCOMPRESSED_BASE  # 245
MAX_OP_RETURN_PAYLOAD = 80

# payload sizes implied by each case code; uncompressed cases are
# handled separately (length = case - CASE_UNCOMPRESSED_BASE)
_PAYLOAD_SIZE = {
    CASE_P2PKH: 20,
    CASE_P2SH: 20,
    CASE_P2PK_EVEN: 32,
    CASE_P2PK_ODD: 32,
    CASE_P2PK_UNCOMP_EVEN: 32,
    CASE_P2PK_UNCOMP_ODD: 32,
    CASE_OBF_P2PKH: 32,
    CASE_OBF_P2SH: 32,
    CASE_OBF_P2WPKH: 32,
    CASE_OBF_P2WSH: 32,
}


class ScriptError(Exception):
    """Raised for scripts or compressed entries that violate the format."""


class ScriptClass(enum.Enum):
    P2PKH = "p2pkh"
    P2SH = "p2sh"
    P2PK_COMPRESSED_EVEN = "p2pk_compressed_even"
    P2PK_COMPRESSED_ODD = "p2pk_compressed_odd"
    P2PK_UNCOMPRESSED_EVEN = "p2pk_uncompressed_even"
    P2PK_UNCOMPRESSED_ODD = "p2pk_uncompressed_odd"
    P2MS = "p2ms"
    P2WPKH = "p2wpkh"
    P2WSH = "p2wsh"
    OP_RETURN = "op_return"
    NONSTANDARD = "nonstandard"


class CompressedTxOut(NamedTuple):
    """A compressed output; its wire form is part of a snapshot record."""
    case: int
    payload: bytes


def payload_size(case: int) -> int:
    if case in _PAYLOAD_SIZE:
        return _PAYLOAD_SIZE[case]
    if case >= CASE_UNCOMPRESSED_BASE:
        return case - CASE_UNCOMPRESSED_BASE
    raise ScriptError(f"reserved case code 0x{case:02x}")


# --- script template builders -------------------------------------------

_P2PKH_HEAD = bytes([OP_DUP, OP_HASH160, 20])
_P2PKH_TAIL = bytes([OP_EQUALVERIFY, OP_CHECKSIG])


def p2pkh_script(key_hash: bytes) -> bytes:
    if len(key_hash) != 20:
        raise ScriptError("P2PKH needs a 20-byte key hash")
    return _P2PKH_HEAD + key_hash + _P2PKH_TAIL


def p2sh_script(script_hash: bytes) -> bytes:
    if len(script_hash) != 20:
        raise ScriptError("P2SH needs a 20-byte script hash")
    return bytes([OP_HASH160, 20]) + script_hash + bytes([OP_EQUAL])


def p2pk_script(pubkey: bytes) -> bytes:
    if len(pubkey) not in (33, 65):
        raise ScriptError("P2PK needs a 33- or 65-byte key")
    return bytes([len(pubkey)]) + pubkey + bytes([OP_CHECKSIG])


def p2ms_script(m: int, pubkeys: list[bytes]) -> bytes:
    n = len(pubkeys)
    if not 1 <= m <= n <= 16:
        raise ScriptError("bad multisig parameters")
    out = bytes([OP_1 + m - 1])
    for pk in pubkeys:
        if len(pk) != 33:
            raise ScriptError("multisig keys must be 33 bytes")
        out += bytes([33]) + pk
    return out + bytes([OP_1 + n - 1, OP_CHECKMULTISIG])


def p2wpkh_script(program: bytes) -> bytes:
    if len(program) != 20:
        raise ScriptError("P2WPKH needs a 20-byte program")
    return bytes([OP_0, 20]) + program


def p2wsh_script(program: bytes) -> bytes:
    if len(program) != 32:
        raise ScriptError("P2WSH needs a 32-byte program")
    return bytes([OP_0, 32]) + program


def op_return_script(payload: bytes) -> bytes:
    if len(payload) > MAX_OP_RETURN_PAYLOAD:
        raise ScriptError("app-data payload above 80 bytes")
    return bytes([OP_RETURN, len(payload)]) + payload


def uncompressed_pubkey(x: bytes) -> bytes:
    """Build the 65-byte key 0x04 || x || y with y derived as HASH256(x)."""
    if len(x) != 32:
        raise ScriptError("x coordinate must be 32 bytes")
    return b"\x04" + x + hash256(x)


def op_return_payload(script: bytes) -> bytes:
    """Extract the payload from a well-formed OP_RETURN script."""
    if not (is_op_return(script) and script_well_formed(script)):
        raise ScriptError("not a well-formed OP_RETURN script")
    return script[2:]


def is_op_return(script: bytes) -> bool:
    return len(script) >= 1 and script[0] == OP_RETURN


def script_well_formed(script: bytes) -> bool:
    """Consensus-level shape check applied at block validation.

    Any script up to 245 bytes is acceptable except malformed OP_RETURN
    framing; oversized scripts cannot be stored (one compression byte).
    """
    if len(script) == 0 or len(script) > MAX_SCRIPT_SIZE:
        return False
    if is_op_return(script):
        return len(script) >= 2 and script[1] == len(script) - 2 \
            and script[1] <= MAX_OP_RETURN_PAYLOAD
    return True


# --- classification ------------------------------------------------------

def classify(script: bytes) -> ScriptClass:
    n = len(script)
    if n == 25 and script[0] == OP_DUP and script[1] == OP_HASH160 \
            and script[2] == 20 and script[23] == OP_EQUALVERIFY \
            and script[24] == OP_CHECKSIG:
        return ScriptClass.P2PKH
    if n == 23 and script[0] == OP_HASH160 and script[1] == 20 \
            and script[22] == OP_EQUAL:
        return ScriptClass.P2SH
    if n == 35 and script[0] == 33 and script[34] == OP_CHECKSIG:
        prefix = script[1]
        if prefix == 0x02:
            return ScriptClass.P2PK_COMPRESSED_EVEN
        if prefix == 0x03:
            return ScriptClass.P2PK_COMPRESSED_ODD
        return ScriptClass.NONSTANDARD
    if n == 67 and script[0] == 65 and script[66] == OP_CHECKSIG \
            and script[1] == 0x04:
        x, y = script[2:34], script[34:66]
        # only keys whose y is derivable from x can be compressed and
        # recovered; anything else is treated as nonstandard
        if y != hash256(x):
            return ScriptClass.NONSTANDARD
        if y[-1] & 1:
            return ScriptClass.P2PK_UNCOMPRESSED_ODD
        return ScriptClass.P2PK_UNCOMPRESSED_EVEN
    if n == 22 and script[0] == OP_0 and script[1] == 20:
        return ScriptClass.P2WPKH
    if n == 34 and script[0] == OP_0 and script[1] == 32:
        return ScriptClass.P2WSH
    if n >= 1 and script[0] == OP_RETURN:
        return ScriptClass.OP_RETURN
    if n >= 3 and OP_1 <= script[0] <= OP_16 and script[-1] == OP_CHECKMULTISIG \
            and OP_1 <= script[-2] <= OP_16:
        m = script[0] - OP_1 + 1
        n_keys = script[-2] - OP_1 + 1
        body = script[1:-2]
        if m <= n_keys and len(body) == 34 * n_keys \
                and all(body[i] == 33 for i in range(0, len(body), 34)):
            return ScriptClass.P2MS
    return ScriptClass.NONSTANDARD


def multisig_pubkeys(script: bytes) -> list[bytes]:
    if classify(script) is not ScriptClass.P2MS:
        raise ScriptError("not a multisig script")
    body = script[1:-2]
    return [body[i + 1:i + 34] for i in range(0, len(body), 34)]


# --- compression ----------------------------------------------------------

_COMPRESS_CASE = {
    ScriptClass.P2PKH: CASE_P2PKH,
    ScriptClass.P2SH: CASE_P2SH,
    ScriptClass.P2PK_COMPRESSED_EVEN: CASE_P2PK_EVEN,
    ScriptClass.P2PK_COMPRESSED_ODD: CASE_P2PK_ODD,
    ScriptClass.P2PK_UNCOMPRESSED_EVEN: CASE_P2PK_UNCOMP_EVEN,
    ScriptClass.P2PK_UNCOMPRESSED_ODD: CASE_P2PK_UNCOMP_ODD,
}


# lengths of the other compressible templates: P2SH, P2PK compressed
# and uncompressed
_TEMPLATE_LENGTHS = frozenset((23, 35, 67))


def compress(script: bytes) -> CompressedTxOut:
    """Compress a script for UTXO storage.

    The six single-key standard patterns drop to code + mutable value;
    everything else is carried verbatim behind a length-derived code.
    P2PKH, most outputs, is recognized by its fixed head and tail; only
    scripts of another template's length go through `classify`.
    """
    n = len(script)
    if n == 25:
        if script[:3] == _P2PKH_HEAD and script[23:] == _P2PKH_TAIL:
            return CompressedTxOut(CASE_P2PKH, script[3:23])
    elif n in _TEMPLATE_LENGTHS:
        case = _COMPRESS_CASE.get(classify(script))
        if case == CASE_P2SH:
            return CompressedTxOut(case, script[2:22])
        if case is not None:  # P2PK: the 32-byte x behind push and prefix
            return CompressedTxOut(case, script[2:34])
    if n > MAX_SCRIPT_SIZE:
        raise ScriptError(f"script too large to store: {n} bytes")
    return CompressedTxOut(CASE_UNCOMPRESSED_BASE + n, bytes(script))


def obfuscate(entry: CompressedTxOut) -> CompressedTxOut:
    """Replace an entry's mutable value with its HASH256 commitment.

    Only P2PKH, P2SH, P2WPKH and P2WSH have a hash commitment to wrap;
    other entries (and already obfuscated ones) pass through unchanged.
    """
    case, payload = entry
    if case == CASE_P2PKH:
        return CompressedTxOut(CASE_OBF_P2PKH, hash256(payload))
    if case == CASE_P2SH:
        return CompressedTxOut(CASE_OBF_P2SH, hash256(payload))
    if case >= CASE_UNCOMPRESSED_BASE:
        cls = classify(payload)
        if cls is ScriptClass.P2WPKH:
            return CompressedTxOut(CASE_OBF_P2WPKH, hash256(payload[2:22]))
        if cls is ScriptClass.P2WSH:
            return CompressedTxOut(CASE_OBF_P2WSH, hash256(payload[2:34]))
    return entry


# --- toy spend model ------------------------------------------------------

class SpendContext(NamedTuple):
    """The outpoint being spent; signatures bind to it."""
    txid: bytes
    vout: int


def sign(material: bytes, ctx: SpendContext) -> bytes:
    """Toy signature: HASH256(material || outpoint)."""
    return hash256(material + ctx.txid + struct.pack("<I", ctx.vout))


def key_unlock(pubkey: bytes, ctx: SpendContext) -> bytes:
    """Unlock data for P2PKH/P2WPKH: 33-byte key, 32-byte signature."""
    if len(pubkey) != 33:
        raise ScriptError("toy public keys are 33 bytes")
    return pubkey + sign(pubkey, ctx)


def script_unlock(inner: bytes, ctx: SpendContext) -> bytes:
    """Unlock data for P2SH/P2WSH: reveal the inner script, then sign."""
    if not 1 <= len(inner) <= 255:
        raise ScriptError("inner script must be 1..255 bytes")
    return bytes([len(inner)]) + inner + sign(inner, ctx)


def signature_unlock(pubkey: bytes, ctx: SpendContext) -> bytes:
    """Unlock data for P2PK/P2MS: bare signature by the listed key."""
    return sign(pubkey, ctx)


def _check_key_spend(commitment_ok, unlock: bytes, ctx: SpendContext) -> bool:
    if len(unlock) != 65:
        return False
    pubkey, sig = unlock[:33], unlock[33:]
    return commitment_ok(pubkey) and sig == sign(pubkey, ctx)


def _check_script_spend(commitment_ok, unlock: bytes, ctx: SpendContext) -> bool:
    if len(unlock) < 1 + 1 + 32:
        return False
    n = unlock[0]
    if len(unlock) != 1 + n + 32:
        return False
    inner, sig = unlock[1:1 + n], unlock[1 + n:]
    return commitment_ok(inner) and sig == sign(inner, ctx)


def validate_spend(entry: CompressedTxOut, unlock: bytes, ctx: SpendContext) -> bool:
    """Decide whether unlock satisfies a stored output. Never raises.

    Obfuscated entries accept exactly the unlock data their plain form
    accepts: the revealed preimage is hashed once more and compared to
    the stored commitment.
    """
    case, payload = entry
    try:
        if payload_size(case) != len(payload):
            return False
    except ScriptError:
        return False

    if case == CASE_P2PKH:
        return _check_key_spend(lambda pk: hash160(pk) == payload, unlock, ctx)
    if case == CASE_OBF_P2PKH:
        return _check_key_spend(
            lambda pk: hash256(hash160(pk)) == payload, unlock, ctx)
    if case == CASE_P2SH:
        return _check_script_spend(
            lambda inner: hash160(inner) == payload, unlock, ctx)
    if case == CASE_OBF_P2SH:
        return _check_script_spend(
            lambda inner: hash256(hash160(inner)) == payload, unlock, ctx)
    if case == CASE_OBF_P2WPKH:
        return _check_key_spend(
            lambda pk: hash256(hash160(pk)) == payload, unlock, ctx)
    if case == CASE_OBF_P2WSH:
        return _check_script_spend(
            lambda inner: hash256(sha256(inner)) == payload, unlock, ctx)
    if case in (CASE_P2PK_EVEN, CASE_P2PK_ODD):
        pubkey = bytes([case]) + payload
        return unlock == sign(pubkey, ctx)
    if case in (CASE_P2PK_UNCOMP_EVEN, CASE_P2PK_UNCOMP_ODD):
        pubkey = uncompressed_pubkey(payload)
        if (pubkey[-1] & 1) != case - CASE_P2PK_UNCOMP_EVEN:
            return False
        return unlock == sign(pubkey, ctx)

    script = payload
    cls = classify(script)
    if cls is ScriptClass.P2WPKH:
        return _check_key_spend(
            lambda pk: hash160(pk) == script[2:22], unlock, ctx)
    if cls is ScriptClass.P2WSH:
        return _check_script_spend(
            lambda inner: sha256(inner) == script[2:34], unlock, ctx)
    if cls is ScriptClass.P2MS:
        # owner stub: a signature by any listed key spends the output
        return any(unlock == sign(pk, ctx) for pk in multisig_pubkeys(script))
    # OP_RETURN is provably unspendable; nonstandard scripts have no
    # evaluation semantics in this model and cannot be spent either
    return False
