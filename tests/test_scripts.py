import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinprune.hashing import hash160, hash256, sha256
from coinprune.scripts import (CASE_OBF_P2PKH, CASE_OBF_P2SH, CASE_OBF_P2WPKH,
                               CASE_OBF_P2WSH, CASE_P2PK_EVEN, CASE_P2PK_ODD,
                               CASE_P2PK_UNCOMP_EVEN, CASE_P2PK_UNCOMP_ODD,
                               CASE_P2PKH, CASE_P2SH, CASE_UNCOMPRESSED_BASE,
                               MAX_SCRIPT_SIZE, OP_CHECKSIG, CompressedTxOut,
                               ScriptClass, ScriptError, SpendContext,
                               classify, compress,
                               is_op_return, key_unlock, obfuscate,
                               op_return_payload, op_return_script,
                               p2ms_script, p2pk_script, p2pkh_script,
                               p2sh_script, p2wpkh_script, p2wsh_script,
                               script_unlock, script_well_formed, sign,
                               signature_unlock, uncompressed_pubkey,
                               validate_spend)

from oracles import decompress

bytes20 = st.binary(min_size=20, max_size=20)
bytes32 = st.binary(min_size=32, max_size=32)
pubkeys = st.binary(min_size=32, max_size=32).map(lambda x: b"\x02" + x)
contexts = st.builds(SpendContext, bytes32, st.integers(0, 0xFFFFFFFE))

# HASH256 of twenty 0x11 bytes, computed with an independent sha256 tool
OBF_GOLDEN = "efa533714d71469b2a82175b7f8dead0b442573dac38ffd25c061084c403e1a3"


# --- classification and case codes -----------------------------------------

def test_classification_of_standard_forms():
    key = b"\x02" + b"\xab" * 32
    uncomp = uncompressed_pubkey(b"\x33" * 32)
    uncomp_cls = (ScriptClass.P2PK_UNCOMPRESSED_EVEN if uncomp[-1] % 2 == 0
                  else ScriptClass.P2PK_UNCOMPRESSED_ODD)
    cases = [
        (p2pkh_script(b"\x11" * 20), ScriptClass.P2PKH),
        (p2sh_script(b"\x22" * 20), ScriptClass.P2SH),
        (p2pk_script(key), ScriptClass.P2PK_COMPRESSED_EVEN),
        (p2pk_script(b"\x03" + b"\xab" * 32), ScriptClass.P2PK_COMPRESSED_ODD),
        (p2pk_script(uncomp), uncomp_cls),
        (p2ms_script(1, [key]), ScriptClass.P2MS),
        (p2wpkh_script(b"\x44" * 20), ScriptClass.P2WPKH),
        (p2wsh_script(b"\x55" * 32), ScriptClass.P2WSH),
        (op_return_script(b"hi"), ScriptClass.OP_RETURN),
        (b"\x51\x51", ScriptClass.NONSTANDARD),
    ]
    for script, expected in cases:
        assert classify(script) is expected, script.hex()


def test_case_codes_of_standard_forms():
    key = b"\x02" + b"\xab" * 32
    odd_key = b"\x03" + b"\xcd" * 32
    assert compress(p2pkh_script(b"\x11" * 20)).case == CASE_P2PKH
    assert compress(p2sh_script(b"\x22" * 20)).case == CASE_P2SH
    assert compress(p2pk_script(key)).case == CASE_P2PK_EVEN
    assert compress(p2pk_script(odd_key)).case == CASE_P2PK_ODD
    uncomp = uncompressed_pubkey(b"\x33" * 32)
    expected = (CASE_P2PK_UNCOMP_EVEN if uncomp[-1] % 2 == 0
                else CASE_P2PK_UNCOMP_ODD)
    assert compress(p2pk_script(uncomp)).case == expected


def test_nonstandard_case_is_length_plus_base():
    script = b"\x51" * 37
    entry = compress(script)
    assert entry.case == 37 + CASE_UNCOMPRESSED_BASE
    assert entry.payload == script


def test_plain_witness_forms_fall_back_to_raw_storage():
    # the compressed-case table has no plain P2WPKH/P2WSH entries, so
    # both store the whole script under the length-coded fallback
    v0_20 = p2wpkh_script(b"\x44" * 20)
    v0_32 = p2wsh_script(b"\x55" * 32)
    assert compress(v0_20).case == len(v0_20) + CASE_UNCOMPRESSED_BASE
    assert compress(v0_32).case == len(v0_32) + CASE_UNCOMPRESSED_BASE


def test_uncompressed_pubkey_parity_must_match_derived_y():
    x = b"\x66" * 32
    good = p2pk_script(uncompressed_pubkey(x))
    assert classify(good) in (ScriptClass.P2PK_UNCOMPRESSED_EVEN,
                              ScriptClass.P2PK_UNCOMPRESSED_ODD)
    # corrupt the y half: no longer HASH256(x), so not a valid toy key
    bad = bytearray(good)
    bad[40] ^= 0x01
    assert classify(bytes(bad)) is ScriptClass.NONSTANDARD


def test_script_size_limits():
    assert script_well_formed(b"\x51" * MAX_SCRIPT_SIZE)
    assert not script_well_formed(b"\x51" * (MAX_SCRIPT_SIZE + 1))
    assert not script_well_formed(b"")
    with pytest.raises(ScriptError):
        compress(b"\x51" * (MAX_SCRIPT_SIZE + 1))


def test_op_return_framing():
    script = op_return_script(b"payload")
    assert is_op_return(script)
    assert op_return_payload(script) == b"payload"
    assert script_well_formed(op_return_script(b"x" * 80))
    with pytest.raises(ScriptError):
        op_return_script(b"x" * 81)
    # truncated and overlong framings are malformed
    assert not script_well_formed(b"\x6a\x05ab")
    assert not script_well_formed(b"\x6a\x02abc")
    for bad in (p2pkh_script(b"\x01" * 20), b"\x6a\x05ab", b"\x6a\x02abc",
                b"\x6a\x51" + b"x" * 81):
        with pytest.raises(ScriptError, match="well-formed OP_RETURN"):
            op_return_payload(bad)


# --- compression round trips -------------------------------------------------

@given(st.binary(min_size=1, max_size=MAX_SCRIPT_SIZE).filter(script_well_formed))
def test_compress_decompress_roundtrip_random(script):
    assert decompress(compress(script)) == script


@given(bytes20, bytes20, pubkeys, bytes32, bytes32)
def test_compress_decompress_roundtrip_standard(kh, sh, key, x, prog32):
    for script in (p2pkh_script(kh), p2sh_script(sh), p2pk_script(key),
                   p2pk_script(uncompressed_pubkey(x)), p2ms_script(1, [key]),
                   p2wpkh_script(kh), p2wsh_script(prog32)):
        assert decompress(compress(script)) == script


# compress's reference: classify, then the documented slice of each
# single-key template (the mutable value behind the push or prefix)
REFERENCE_CASE = {
    ScriptClass.P2PKH: (CASE_P2PKH, slice(3, 23)),
    ScriptClass.P2SH: (CASE_P2SH, slice(2, 22)),
    ScriptClass.P2PK_COMPRESSED_EVEN: (CASE_P2PK_EVEN, slice(2, 34)),
    ScriptClass.P2PK_COMPRESSED_ODD: (CASE_P2PK_ODD, slice(2, 34)),
    ScriptClass.P2PK_UNCOMPRESSED_EVEN: (CASE_P2PK_UNCOMP_EVEN, slice(2, 34)),
    ScriptClass.P2PK_UNCOMPRESSED_ODD: (CASE_P2PK_UNCOMP_ODD, slice(2, 34)),
}


def reference_compress(script: bytes) -> CompressedTxOut:
    cls = classify(script)
    if cls in REFERENCE_CASE:
        case, value = REFERENCE_CASE[cls]
        return CompressedTxOut(case, script[value])
    return CompressedTxOut(CASE_UNCOMPRESSED_BASE + len(script), script)


def _flip(script: bytes, where: int) -> bytes:
    """The script with one byte inverted: a near-miss of its template."""
    return script[:where] + bytes([script[where] ^ 0xFF]) + script[where + 1:]


template_scripts = st.one_of(
    bytes20.map(p2pkh_script),
    bytes20.map(p2sh_script),
    st.builds(lambda prefix, x: p2pk_script(bytes([prefix]) + x),
              st.integers(0, 255), bytes32),
    bytes32.map(lambda x: p2pk_script(uncompressed_pubkey(x))),
    st.binary(min_size=64, max_size=64).map(lambda xy: p2pk_script(b"\x04" + xy)),
    st.lists(pubkeys, min_size=1, max_size=3).map(lambda ks: p2ms_script(1, ks)),
    bytes20.map(p2wpkh_script),
    bytes32.map(p2wsh_script),
    st.binary(max_size=80).map(op_return_script))


@given(st.one_of(template_scripts,
                 st.binary(max_size=MAX_SCRIPT_SIZE)))
def test_compress_matches_classify_reference(script):
    assert compress(script) == reference_compress(script)


@given(template_scripts)
def test_compress_matches_reference_on_every_near_miss(script):
    for where in range(len(script)):
        flipped = _flip(script, where)
        assert compress(flipped) == reference_compress(flipped)


# --- obfuscation ---------------------------------------------------------------

def test_obfuscation_golden_vector():
    entry = compress(p2pkh_script(b"\x11" * 20))
    obf = obfuscate(entry)
    assert obf.case == CASE_OBF_P2PKH
    assert obf.payload.hex() == OBF_GOLDEN
    assert obf.payload == hash256(b"\x11" * 20)


def test_obfuscation_covers_exactly_four_classes():
    key = b"\x02" + b"\xab" * 32
    changed = {
        CASE_OBF_P2PKH: p2pkh_script(b"\x11" * 20),
        CASE_OBF_P2SH: p2sh_script(b"\x22" * 20),
        CASE_OBF_P2WPKH: p2wpkh_script(b"\x44" * 20),
        CASE_OBF_P2WSH: p2wsh_script(b"\x55" * 32),
    }
    for case, script in changed.items():
        obf = obfuscate(compress(script))
        assert obf.case == case
    for script in (p2pk_script(key), p2ms_script(1, [key]),
                   op_return_script(b"x"), b"\x51\x51"):
        entry = compress(script)
        assert obfuscate(entry) == entry


@given(bytes20)
def test_obfuscation_idempotent(kh):
    entry = compress(p2pkh_script(kh))
    once = obfuscate(entry)
    assert obfuscate(once) == once


@given(bytes20, bytes32)
def test_obfuscated_templates_decompress_to_committed_forms(kh, prog):
    # the obfuscated script forms embed the 32-byte commitment behind a
    # HASH256 opcode; the original 20-byte value must not appear
    for script in (p2pkh_script(kh), p2sh_script(kh), p2wpkh_script(kh)):
        obf = obfuscate(compress(script))
        rebuilt = decompress(obf)
        assert hash256(script_mutable_value(script)) in rebuilt
        assert script_mutable_value(script) not in rebuilt
        assert obf.payload not in script
    obf = obfuscate(compress(p2wsh_script(prog)))
    assert prog not in decompress(obf)


def script_mutable_value(script: bytes) -> bytes:
    cls = classify(script)
    if cls is ScriptClass.P2PKH:
        return script[3:23]
    if cls is ScriptClass.P2SH:
        return script[2:22]
    if cls is ScriptClass.P2WPKH:
        return script[2:22]
    raise AssertionError(f"unexpected class {cls}")


def test_size_deltas_per_class():
    # hash widening 20 -> 32 costs 12 bytes where the stored payload was
    # the bare 20-byte value; witness forms previously stored the whole
    # script, so their deltas differ
    kh = b"\x11" * 20
    prog = b"\x22" * 32
    deltas = {}
    for name, script in (("p2pkh", p2pkh_script(kh)),
                         ("p2sh", p2sh_script(kh)),
                         ("p2wpkh", p2wpkh_script(kh)),
                         ("p2wsh", p2wsh_script(prog))):
        plain = len(compress(script).payload)
        obf = len(obfuscate(compress(script)).payload)
        deltas[name] = obf - plain
    assert deltas["p2pkh"] == 12
    assert deltas["p2sh"] == 12
    assert deltas["p2wpkh"] == 10
    assert deltas["p2wsh"] == -2


# --- spends ---------------------------------------------------------------------

@given(pubkeys, contexts)
def test_p2pkh_spend_equivalence(key, ctx):
    entry = compress(p2pkh_script(hash160(key)))
    good = key_unlock(key, ctx)
    for candidate in (entry, obfuscate(entry)):
        assert validate_spend(candidate, good, ctx)
        assert not validate_spend(candidate, good[:-1], ctx)
        assert not validate_spend(candidate,
                                  good[:-1] + bytes([good[-1] ^ 1]), ctx)
        wrong_key = key_unlock(b"\x02" + b"\x00" * 32, ctx)
        if wrong_key != good:
            assert not validate_spend(candidate, wrong_key, ctx)


@given(st.binary(min_size=1, max_size=60), contexts)
def test_p2sh_and_p2wsh_spend_equivalence(inner, ctx):
    unlock = script_unlock(inner, ctx)
    for script, program in ((p2sh_script(hash160(inner)), hash160(inner)),
                            (p2wsh_script(sha256(inner)), sha256(inner))):
        entry = compress(script)
        for candidate in (entry, obfuscate(entry)):
            assert validate_spend(candidate, unlock, ctx)
            assert not validate_spend(candidate, unlock[:-1], ctx)
            tampered = unlock[:-1] + bytes([unlock[-1] ^ 1])
            assert not validate_spend(candidate, tampered, ctx)


@given(pubkeys, contexts)
def test_p2wpkh_spend_equivalence(key, ctx):
    entry = compress(p2wpkh_script(hash160(key)))
    good = key_unlock(key, ctx)
    for candidate in (entry, obfuscate(entry)):
        assert validate_spend(candidate, good, ctx)
        assert not validate_spend(candidate, b"", ctx)


@given(pubkeys, contexts)
def test_p2pk_and_p2ms_spends(key, ctx):
    pk_entry = compress(p2pk_script(key))
    assert validate_spend(pk_entry, signature_unlock(key, ctx), ctx)
    assert not validate_spend(pk_entry, signature_unlock(key[::-1], ctx), ctx)

    other = b"\x03" + b"\x99" * 32
    ms_entry = compress(p2ms_script(1, [key, other]))
    assert validate_spend(ms_entry, signature_unlock(other, ctx), ctx)
    assert not validate_spend(
        ms_entry, signature_unlock(b"\x02" + b"\x01" * 32, ctx), ctx)


def test_uncompressed_p2pk_spend_binds_to_full_key():
    ctx = SpendContext(b"\xaa" * 32, 1)
    key = uncompressed_pubkey(b"\x42" * 32)
    entry = compress(p2pk_script(key))
    assert validate_spend(entry, sign(key, ctx), ctx)
    assert not validate_spend(entry, sign(key[:33], ctx), ctx)


def test_unspendable_classes():
    ctx = SpendContext(b"\xbb" * 32, 0)
    for script in (op_return_script(b"data"), b"\x51\x51"):
        entry = compress(script)
        assert not validate_spend(entry, b"", ctx)
        assert not validate_spend(entry, sign(script, ctx), ctx)


def test_validate_spend_rejects_malformed_entry_without_raising():
    ctx = SpendContext(b"\xcc" * 32, 0)
    bad = CompressedTxOut(CASE_P2PKH, b"\x00" * 19)
    assert validate_spend(bad, b"\x00" * 65, ctx) is False


def test_signature_binds_to_outpoint():
    key = b"\x02" + b"\x77" * 32
    entry = compress(p2pkh_script(hash160(key)))
    ctx_a = SpendContext(b"\x01" * 32, 0)
    ctx_b = SpendContext(b"\x01" * 32, 1)
    unlock = key_unlock(key, ctx_a)
    assert validate_spend(entry, unlock, ctx_a)
    assert not validate_spend(entry, unlock, ctx_b)
