import os
import struct
import tracemalloc
from contextlib import closing
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinprune import chain
from coinprune.chain import (BLOCK_FILE_MAGIC, COINBASE_TXID, COINBASE_VOUT,
                             BlockFile, BlockValidationError, ChainError, ChainParams,
                             HEADER_RECORD_SIZE, HEADER_SIZE, Block,
                             BlockHeader, HeaderIndex, Transaction,
                             TxInput, TxOutput, UtxoSet, check_pow,
                             coinbase_tx, genesis_block,
                             make_block, merkle_root, outpoint_key,
                             read_block_file,
                             replay_blocks, target_from_bits,
                             validate_and_apply_block,
                             verify_headerchain, work_from_bits,
                             write_block_file)
from coinprune.chaingen import ChainBuilder, light_profile
from coinprune.cli import main
from coinprune.hashing import hash160, hash256
from coinprune.scripts import (SpendContext, is_op_return, key_unlock,
                               p2pkh_script)
from coinprune.snapshot import (apply_snapshot, build_snapshot,
                                serialize_utxo_set)

from oracles import header_records, utxo_records

PARAMS = ChainParams()
KEY = b"\x02" + b"\x11" * 32
PAY_SCRIPT = p2pkh_script(hash160(KEY))

bytes32 = st.binary(min_size=32, max_size=32)
u32 = st.integers(0, 0xFFFFFFFF)


def _spend(txid, vout, outputs):
    ctx = SpendContext(txid, vout)
    return Transaction((TxInput(txid, vout, key_unlock(KEY, ctx)),),
                       tuple(outputs))


def _mine_on(prev_block, txs, height):
    return make_block(prev_block.block_id(), txs,
                      PARAMS.genesis_timestamp + 600 * height, PARAMS.bits)


# --- headers ------------------------------------------------------------------

@given(u32, bytes32, bytes32, u32, u32)
def test_header_roundtrip(version, prev, root, ts, nonce):
    header = BlockHeader(version, prev, root, ts, PARAMS.bits, nonce)
    raw = header.serialize()
    assert len(raw) == 80
    assert BlockHeader.parse(raw) == header


def test_block_id_is_hash256_of_header():
    header = genesis_block(PARAMS).header
    assert header.block_id() == hash256(header.serialize())


def test_mining_satisfies_target():
    header = genesis_block(PARAMS).header
    assert check_pow(header.block_id(), header.bits)
    assert int.from_bytes(header.block_id(), "little") \
        <= target_from_bits(PARAMS.bits)


def test_work_counts_expected_hashes():
    # easy target 2^252: 16 * (2^252 + 1) just exceeds 2^256, so the
    # floor-divide work metric lands on 15
    target = target_from_bits(PARAMS.bits)
    assert target == 1 << 252
    assert work_from_bits(PARAMS.bits) == (1 << 256) // (target + 1) == 15


# --- merkle ---------------------------------------------------------------------

def _merkle_oracle(leaves):
    """Independent recursive construction with odd duplication."""
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2:
        leaves = leaves + [leaves[-1]]
    return _merkle_oracle([hash256(leaves[i] + leaves[i + 1])
                           for i in range(0, len(leaves), 2)])


@given(st.lists(bytes32, min_size=1, max_size=13))
def test_merkle_matches_recursive_oracle(leaves):
    assert merkle_root(leaves) == _merkle_oracle(leaves)


def test_merkle_rejects_empty():
    with pytest.raises(ChainError):
        merkle_root([])


# --- transactions ----------------------------------------------------------------

def test_transaction_roundtrip_and_txid():
    tx = _spend(b"\xaa" * 32, 3, [TxOutput(5000, PAY_SCRIPT),
                                  TxOutput(700, PAY_SCRIPT)])
    raw = tx.serialize()
    parsed, used = Transaction.parse(raw)
    assert parsed == tx
    assert used == len(raw)
    assert tx.txid() == hash256(raw)


def test_coinbase_shape():
    cb = coinbase_tx(42, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)], b"tagdata")
    assert cb.is_coinbase()
    assert cb.inputs[0].unlock[:4] == struct.pack("<I", 42)
    with pytest.raises(ChainError):
        coinbase_tx(0, [], b"x" * 97)  # 4 height bytes + 97 > 100


def test_transaction_parse_rejects_truncation():
    raw = _spend(b"\xbb" * 32, 0, [TxOutput(1, PAY_SCRIPT)]).serialize()
    for cut in (1, 10, len(raw) - 1):
        with pytest.raises(ChainError):
            Transaction.parse(raw[:cut])


# --- block validation -----------------------------------------------------------

def _fresh_chain():
    utxo = UtxoSet()
    g = genesis_block(PARAMS)
    validate_and_apply_block(utxo, g, 0, b"\x00" * 32, PARAMS)
    cb = coinbase_tx(1, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)], b"")
    b1 = _mine_on(g, [cb], 1)
    validate_and_apply_block(utxo, b1, 1, g.block_id(), PARAMS)
    return utxo, g, b1, cb


def test_valid_spend_with_fee():
    utxo, g, b1, cb = _fresh_chain()
    fee = 250
    tx = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy - fee, PAY_SCRIPT)])
    cb2 = coinbase_tx(2, [TxOutput(PARAMS.subsidy + fee, PAY_SCRIPT)], b"")
    b2 = _mine_on(b1, [cb2, tx], 2)
    validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)
    assert outpoint_key(cb.txid(), 0) not in utxo
    assert outpoint_key(tx.txid(), 0) in utxo


def test_coinbase_must_match_subsidy_plus_fees_exactly():
    utxo, g, b1, cb = _fresh_chain()
    for claimed in (PARAMS.subsidy - 1, PARAMS.subsidy + 1):
        cb2 = coinbase_tx(2, [TxOutput(claimed, PAY_SCRIPT)], b"")
        b2 = _mine_on(b1, [cb2], 2)
        with pytest.raises(BlockValidationError,
                           match=f"^height 2: coinbase claims {claimed}, "
                                 f"expected {PARAMS.subsidy}$"):
            validate_and_apply_block(utxo.copy(), b2, 2, b1.block_id(), PARAMS)


def test_wrong_prev_id_rejected():
    utxo, g, b1, cb = _fresh_chain()
    cb2 = coinbase_tx(2, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)], b"")
    b2 = _mine_on(g, [cb2], 2)  # mined on genesis, applied after b1
    with pytest.raises(BlockValidationError,
                       match="^height 2: prev hash mismatch$"):
        validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)


def test_merkle_mismatch_rejected():
    utxo, g, b1, cb = _fresh_chain()
    cb2 = coinbase_tx(2, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)], b"")
    extra = coinbase_tx(3, [TxOutput(0, PAY_SCRIPT)], b"")
    good = _mine_on(b1, [cb2], 2)
    forged = Block(good.header, (cb2, extra))
    with pytest.raises(BlockValidationError,
                       match="^height 2: merkle root mismatch$"):
        validate_and_apply_block(utxo, forged, 2, b1.block_id(), PARAMS)


def test_same_block_coinbase_spend_rejected():
    utxo, g, b1, cb = _fresh_chain()
    cb2 = coinbase_tx(2, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)], b"")
    rob = _spend(cb2.txid(), 0, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)])
    b2 = _mine_on(b1, [cb2, rob], 2)
    # the coinbase's outputs are created after every other tx is checked
    with pytest.raises(BlockValidationError,
                       match=f"^height 2: missing outpoint {cb2.txid().hex()}:0$"):
        validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)


def test_double_spend_within_block_rejected():
    utxo, g, b1, cb = _fresh_chain()
    t1 = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)])
    t2 = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy - 1, PAY_SCRIPT)])
    cb2 = coinbase_tx(2, [TxOutput(PARAMS.subsidy + 1, PAY_SCRIPT)], b"")
    b2 = _mine_on(b1, [cb2, t1, t2], 2)
    with pytest.raises(BlockValidationError,
                       match=f"^height 2: double spend of {cb.txid().hex()}:0$"):
        validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)


def test_intra_block_chaining_allowed():
    utxo, g, b1, cb = _fresh_chain()
    t1 = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)])
    t2 = _spend(t1.txid(), 0, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)])
    cb2 = coinbase_tx(2, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)], b"")
    b2 = _mine_on(b1, [cb2, t1, t2], 2)
    validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)
    assert outpoint_key(t2.txid(), 0) in utxo
    assert outpoint_key(t1.txid(), 0) not in utxo


def test_first_transaction_must_be_coinbase():
    utxo, g, b1, cb = _fresh_chain()
    tx = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)])
    b2 = _mine_on(b1, [tx], 2)
    with pytest.raises(BlockValidationError,
                       match="^height 2: first tx not coinbase$"):
        validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)


@pytest.mark.parametrize("unlock", [
    struct.pack("<I", 3),  # another height's prefix
    struct.pack("<I", 2 + 2**16),  # right low bytes, wrong high ones
    struct.pack("<I", 2)[:3],  # shorter than the 4-byte prefix
    b"",
], ids=["other-height", "high-bytes", "short", "empty"])
def test_coinbase_must_begin_with_its_height(unlock):
    utxo, g, b1, cb = _fresh_chain()
    state = serialize_utxo_set(utxo)
    out = TxOutput(PARAMS.subsidy, PAY_SCRIPT)
    coinbase = Transaction((TxInput(COINBASE_TXID, COINBASE_VOUT, unlock),),
                           (out,))
    b2 = _mine_on(b1, [coinbase], 2)
    with pytest.raises(BlockValidationError,
                       match="height 2: coinbase lacks its height$"):
        validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)
    assert serialize_utxo_set(utxo) == state
    # the same block with the height's own prefix is valid
    b2 = _mine_on(b1, [coinbase_tx(2, [out], b"")], 2)
    validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)


def test_failed_block_leaves_utxo_untouched():
    for utxo, g, b1, cb in (_fresh_chain(), _applied_chain()):
        before = {e[:2]: e for e in utxo_records(bytes(utxo))}
        state = serialize_utxo_set(utxo)
        t1 = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)])
        cb2 = coinbase_tx(2, [TxOutput(PARAMS.subsidy + 5, PAY_SCRIPT)], b"")
        b2 = _mine_on(b1, [cb2, t1], 2)  # coinbase overclaims: no fee paid
        with pytest.raises(BlockValidationError,
                           match=f"^height 2: coinbase claims "
                                 f"{PARAMS.subsidy + 5}, expected "
                                 f"{PARAMS.subsidy}$"):
            validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)
        assert {e[:2]: e for e in utxo_records(bytes(utxo))} == before
        assert serialize_utxo_set(utxo) == state


def _unmined(header):
    """`header` with the first nonce above its own whose id misses the
    target."""
    while check_pow(header.block_id(), header.bits):
        header = header._replace(nonce=header.nonce + 1)
    return header


def _refused_blocks(b1, cb):
    """A block at height 2 for each rule that the tests above do not hit,
    by the reason it is refused with."""
    out = TxOutput(PARAMS.subsidy, PAY_SCRIPT)
    cb2 = coinbase_tx(2, [out], b"")
    good = _mine_on(b1, [cb2], 2)
    oversized = Transaction((TxInput(COINBASE_TXID, COINBASE_VOUT,
                                     struct.pack("<I", 2) + bytes(97)),),
                            (out,))
    stray = coinbase_tx(3, [TxOutput(0, PAY_SCRIPT)], b"")
    empty = Transaction((), (out,))
    forged = Transaction((TxInput(cb.txid(), 0, b""),), (out,))
    bad_script = coinbase_tx(2, [TxOutput(PARAMS.subsidy, b"")], b"")
    rich = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy + 1, PAY_SCRIPT)])
    return {
        "wrong difficulty bits":
            Block(good.header._replace(bits=PARAMS.bits - 1), (cb2,)),
        "insufficient proof of work": Block(_unmined(good.header), (cb2,)),
        "empty block": Block(good.header, ()),
        "oversized coinbase data": _mine_on(b1, [oversized], 2),
        "stray coinbase": _mine_on(b1, [cb2, stray], 2),
        f"empty tx {empty.txid().hex()}": _mine_on(b1, [cb2, empty], 2),
        f"invalid unlock for {cb.txid().hex()}:0":
            _mine_on(b1, [cb2, forged], 2),
        f"malformed script in {bad_script.txid().hex()}:0":
            _mine_on(b1, [bad_script], 2),
        f"tx {rich.txid().hex()} creates value": _mine_on(b1, [cb2, rich], 2),
    }


def _internals(utxo):
    return dict(utxo._records), bytes(utxo._gone), utxo._live


def test_each_rule_refuses_with_its_reason():
    # a refusal leaves the set's layers as they were, not only its
    # contents: a base coin that a refused block names stays in the base
    for utxo, _, b1, cb in (_fresh_chain(), _applied_chain()):
        state, internals = bytes(utxo), _internals(utxo)
        for reason, block in _refused_blocks(b1, cb).items():
            with pytest.raises(BlockValidationError,
                               match=f"^height 2: {reason}$"):
                validate_and_apply_block(utxo, block, 2, b1.block_id(),
                                         PARAMS)
            assert bytes(utxo) == state
            assert _internals(utxo) == internals


# --- block validation on an applied snapshot -------------------------------------

def _applied_chain():
    """_fresh_chain's state applied from its snapshot, so both coins sit
    in the applied set's base and none in its dict."""
    utxo, g, b1, cb = _fresh_chain()
    applied = apply_snapshot(build_snapshot(utxo, 1, b1.block_id()))
    return applied, g, b1, cb


def test_block_recreating_a_base_coin_is_refused():
    utxo, g, b1, cb = _applied_chain()
    state = serialize_utxo_set(utxo)
    # b1 again, at its own height: same coinbase, same txid, same coin
    with pytest.raises(BlockValidationError,
                       match=f"height 1: duplicate outpoint {cb.txid().hex()}:0$"):
        validate_and_apply_block(utxo, b1, 1, g.block_id(), PARAMS)
    assert serialize_utxo_set(utxo) == state


def test_base_coin_spent_at_h_is_missing_at_h_plus_1():
    applied, g, b1, cb = _applied_chain()
    replayed, *_ = _fresh_chain()
    t1 = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)])
    b2 = _mine_on(b1, [coinbase_tx(2, [TxOutput(PARAMS.subsidy, PAY_SCRIPT)],
                                   b""), t1], 2)
    t2 = _spend(cb.txid(), 0, [TxOutput(PARAMS.subsidy - 1, PAY_SCRIPT)])
    b3 = _mine_on(b2, [coinbase_tx(3, [TxOutput(PARAMS.subsidy + 1,
                                                PAY_SCRIPT)], b""), t2], 3)
    b3_again = _mine_on(b2, [cb], 3)  # height 1's coinbase may not come back
    key = outpoint_key(cb.txid(), 0)
    for utxo in (applied, replayed):
        validate_and_apply_block(utxo, b2, 2, b1.block_id(), PARAMS)
        assert key not in utxo and utxo.record(key) is None
        with pytest.raises(BlockValidationError,
                           match=f"height 3: missing outpoint {cb.txid().hex()}:0$"):
            validate_and_apply_block(utxo, b3, 3, b2.block_id(), PARAMS)
        with pytest.raises(BlockValidationError,
                           match="height 3: coinbase lacks its height$"):
            validate_and_apply_block(utxo, b3_again, 3, b2.block_id(), PARAMS)
        assert key not in utxo
    assert len(applied) == len(replayed) == 3
    assert serialize_utxo_set(applied) == serialize_utxo_set(replayed)


def test_validation_reads_spent_coins_without_decoding_them(monkeypatch):
    # mining, a replay onto an empty set and one onto a set applied from
    # a snapshot, whose spends read base coins, all run with the decoder
    # refusing
    def refuse(record):
        raise AssertionError("a coin was decoded")

    monkeypatch.setattr(chain, "_entry", refuse)
    blocks = ChainBuilder(light_profile(), ChainParams(), 9).build(60)
    utxo = UtxoSet()
    tip = replay_blocks(utxo, blocks, range(31), b"\x00" * 32, PARAMS)
    applied = apply_snapshot(build_snapshot(utxo, 30, tip))
    for held in (utxo, applied):
        assert replay_blocks(held, blocks, range(31, len(blocks)), tip,
                             PARAMS) == blocks[-1].block_id()
    assert applied._live < len(applied._gone)  # base coins were spent
    assert bytes(applied) == bytes(utxo)


# --- replay against a set-difference oracle --------------------------------------

def test_replay_matches_set_difference_oracle():
    blocks = ChainBuilder(light_profile(), ChainParams(), 9).build(50)
    utxo = UtxoSet()
    tip = replay_blocks(utxo, blocks, range(len(blocks)), b"\x00" * 32, PARAMS)
    assert tip == blocks[-1].block_id()

    created = {}
    spent = set()
    for height, block in enumerate(blocks):
        for tx in block.transactions:
            txid = tx.txid()
            if not tx.is_coinbase():
                for inp in tx.inputs:
                    spent.add((inp.prev_txid, inp.prev_vout))
            for vout, out in enumerate(tx.outputs):
                if not is_op_return(out.script):
                    created[(txid, vout)] = (out.amount, height)
    expected = {k: v for k, v in created.items() if k not in spent}

    got = {(txid, vout): (amount, height)
           for txid, vout, amount, height, *_ in utxo_records(bytes(utxo))}
    assert got == expected


# --- persisted records and files ---------------------------------------------------

def test_header_record_is_exactly_140_bytes(light_chain):
    index = HeaderIndex()
    for block in islice(light_chain, 4):
        index.append(block, block.block_id())
    assert len(index.records) == 4 * HEADER_RECORD_SIZE == 560
    block = light_chain[3]
    work = 4 * work_from_bits(PARAMS.bits)
    raw = bytes(index.records[3 * HEADER_RECORD_SIZE:])
    # id 32 | header 80 | height u32 | work u128 | tx_count u32 | timestamp u32
    assert raw[:32] == block.block_id()
    assert raw[32:112] == block.header.serialize()
    assert struct.unpack_from("<I", raw, 112) == (3,)
    assert int.from_bytes(raw[116:132], "little") == work
    assert struct.unpack_from("<II", raw, 132) \
        == (len(block.transactions), block.header.timestamp)


def test_header_index_contiguity_and_file_roundtrip(tmp_path, light_chain):
    # the index numbers its records itself: heights run 0, 1, 2, ...
    # and the work accumulates one block at a time
    index = HeaderIndex()
    for block in islice(light_chain, 20):
        index.append(block, block.block_id())
    path = tmp_path / "headers.dat"
    index.write(path)
    assert path.stat().st_size == 20 * HEADER_RECORD_SIZE
    assert path.read_bytes() == index.records
    unit = work_from_bits(PARAMS.bits)
    for h, record in enumerate(header_records(path.read_bytes())):
        block_id, _, height, work, _, _ = record
        assert block_id == light_chain[h].block_id()
        assert height == h
        assert work == (h + 1) * unit


def test_header_file_reads_back_through_an_independent_reader(tmp_path,
                                                              capsys):
    # the records `chain gen --headers` writes, read in the documented layout
    assert main(["chain", "gen", "--blocks", "40", "--seed", "9", "--out",
                 "c.blk", "--headers", "c.hdr", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    records = header_records((tmp_path / "c.hdr").read_bytes())
    unit = work_from_bits(PARAMS.bits)
    with closing(read_block_file(tmp_path / "c.blk")) as blocks:
        assert len(records) == len(blocks) == 41
        for h, (block, record) in enumerate(zip(blocks, records)):
            block_id, header, height, work, tx_count, timestamp = record
            assert header == block.header.serialize()
            assert block_id == hash256(header)
            assert height == h
            assert work == (h + 1) * unit
            assert tx_count == len(block.transactions)
            assert timestamp == block.header.timestamp


def test_verify_headerchain_and_corruption_position(light_chain):
    headers = [b.header for b in light_chain]
    # a list, and an iterator that yields each header once
    for given in (headers, iter(headers)):
        assert verify_headerchain(given, PARAMS) == light_chain[-1].block_id()
    for empty in ([], iter([])):
        with pytest.raises(ChainError, match="^empty header chain$"):
            verify_headerchain(empty, PARAMS)


@pytest.mark.parametrize("position, change, reason", [
    (0, lambda _: genesis_block(ChainParams(genesis_message=b"other")).header,
     "not the configured genesis"),
    (8, lambda h: h._replace(prev_hash=bytes(32)), "broken prev-hash link"),
    (5, lambda h: h._replace(bits=PARAMS.bits - 1), "wrong difficulty bits"),
    (7, _unmined, "insufficient proof of work"),
], ids=["foreign-genesis", "broken-link", "wrong-bits", "missed-target"])
def test_verify_headerchain_refuses_at_the_position(light_chain, position,
                                                    change, reason):
    headers = [b.header for b in light_chain]
    headers[position] = change(headers[position])
    # a list, and an iterator that yields each header once
    for given in (headers, iter(headers)):
        with pytest.raises(ChainError,
                           match=f"^position {position}: {reason}$"):
            verify_headerchain(given, PARAMS)


def test_block_file_roundtrip(tmp_path, light_chain):
    # a builder's store, written and read back, byte for byte
    path = tmp_path / "chain.blk"
    write_block_file(path, light_chain)
    raws = [light_chain.raw(h) for h in range(len(light_chain))]
    assert path.read_bytes() == BLOCK_FILE_MAGIC \
        + struct.pack("<I", len(raws)) \
        + b"".join(struct.pack("<I", len(raw)) + raw for raw in raws)
    loaded = read_block_file(path)
    assert [b.serialize() for b in loaded] == raws
    write_block_file(tmp_path / "again.blk", loaded)
    assert (tmp_path / "again.blk").read_bytes() == path.read_bytes()
    with pytest.raises(ChainError):
        read_block_file(__file__)


def test_write_block_file_refuses_its_own_source(tmp_path, light_chain):
    # opening the target for writing would empty the file the store
    # reads from, under its own name or a hard link's
    path = tmp_path / "chain.blk"
    write_block_file(path, light_chain)
    raw = path.read_bytes()
    os.link(path, tmp_path / "link.blk")
    loaded = read_block_file(path)
    for target in (path, tmp_path / "link.blk"):
        with pytest.raises(ChainError):
            write_block_file(target, loaded)
    assert path.read_bytes() == raw
    assert loaded[-1].serialize() == light_chain.raw(-1)
    loaded.close()


def test_a_block_file_holds_only_its_index_in_memory():
    # the blocks' bytes stay in the file: the store keeps where each
    # block ends, 8 bytes; an image of the file held about 1.8 KB a block
    chain = ChainBuilder(light_profile(), ChainParams(), 77).build(1000)
    tracemalloc.start()
    try:
        store = BlockFile()
        for height in range(len(chain)):
            store.append(chain[height])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [store.raw(h) for h in range(len(store))] \
        == [chain.raw(h) for h in range(len(chain))]
    assert held / len(store) < 100
    # a height from the tip reads as Python's indexing does
    assert store.raw(-1) == chain.raw(len(chain) - 1)
    assert store.raw(-len(store)) == chain.raw(0)
    for height in (len(store), -len(store) - 1):
        with pytest.raises(IndexError):
            store.raw(height)


def _next_fd() -> int:
    """The descriptor the next open gets, the lowest free one: a file
    left open since the last call changes it."""
    fd = os.open(os.devnull, os.O_RDONLY)
    os.close(fd)
    return fd


@pytest.fixture(scope="module")
def small_block_file(light_chain, tmp_path_factory):
    """The bytes of a block file of the first four blocks."""
    store = BlockFile()
    for block in islice(light_chain, 4):
        store.append(block)
    path = tmp_path_factory.mktemp("small") / "small.blk"
    write_block_file(path, store)
    return path.read_bytes()


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_read_block_file_fails_closed(small_block_file, tmp_path_factory,
                                      data):
    # arbitrary bytes, or a good file cut, extended or with a byte flipped
    good = small_block_file
    at = data.draw(st.integers(0, len(good) - 1))
    raw = data.draw(st.one_of(
        st.binary(max_size=200),
        st.just(good[:at]),
        st.binary(min_size=1, max_size=16).map(
            lambda extra: good[:at] + extra + good[at:]),
        st.integers(1, 255).map(
            lambda mask: good[:at] + bytes([good[at] ^ mask]) + good[at + 1:]),
    ))
    path = tmp_path_factory.getbasetemp() / "fuzzed.blk"
    path.write_bytes(raw)
    fd = _next_fd()
    try:
        blocks = read_block_file(path)
    except ChainError:
        pass
    else:
        copy = path.with_name("copy.blk")
        write_block_file(copy, blocks)
        assert copy.read_bytes() == raw
        for height in range(len(blocks)):
            try:
                blocks[height]
            except ChainError:
                pass
        del blocks  # a dropped store closes its file
    assert _next_fd() == fd


def test_stored_blocks_read_back_as_their_bytes(light_chain):
    for height in range(-1, len(light_chain)):
        block = light_chain[height]
        raw = light_chain.raw(height)
        assert block.serialize() == raw
        assert light_chain.size(height) == len(raw)
        assert block.header == BlockHeader.parse(raw[:HEADER_SIZE])
        assert light_chain.coinbase(height) == block.transactions[0]
    # a coinbase of 20 outputs, longer than any the generator makes
    outputs = [TxOutput(PARAMS.subsidy // 20, p2pkh_script(bytes([i]) * 20))
               for i in range(20)]
    long_coinbase = coinbase_tx(1, outputs, b"")
    store = BlockFile()
    store.append(make_block(b"\x00" * 32, [long_coinbase],
                            PARAMS.genesis_timestamp, PARAMS.bits))
    tip = light_chain[-1]
    store.append(tip)
    assert store.coinbase(0) == long_coinbase
    assert store.coinbase(1) == tip.transactions[0]


def test_parsed_transactions_keep_and_hash_their_slices(light_chain):
    raw = light_chain.raw(len(light_chain) - 1)
    (count,) = struct.unpack_from("<I", raw, HEADER_SIZE)
    assert count > 2
    offset = HEADER_SIZE + 4
    for _ in range(count):
        tx, end = Transaction.parse(bytearray(raw), offset)
        assert tx.serialize() == raw[offset:end]
        assert tx.txid() == hash256(raw[offset:end])
        offset = end
    assert offset == len(raw)


GENESIS_RAW = genesis_block(PARAMS).serialize()


@given(st.one_of(
    st.binary(max_size=300),
    st.integers(0, len(GENESIS_RAW)).map(lambda n: GENESIS_RAW[:n]),
    st.binary(max_size=200).map(lambda tail: GENESIS_RAW[:84] + tail)))
def test_block_parse_fails_closed(data):
    try:
        Block.parse(data)
    except ChainError:
        pass
