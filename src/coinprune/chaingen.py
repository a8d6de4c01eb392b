"""Deterministic workload generation for test chains.

A single global wallet funds all activity: coinbases pay the wallet,
transactions spend wallet outputs and create fresh ones across the
standard script classes. Spending pressure is expressed per UTXO
(each spendable output is consumed with spend_probability per block),
which keeps the set size in equilibrium instead of growing with the
transaction count; snapshot size relative to chain size then behaves
like a real spend-heavy chain. Every generated block goes through full
consensus validation, so a finished chain replays cleanly by
construction. A profile the wallet cannot fund degrades to fewer
transactions per block, at minimum coinbase-only blocks.
"""

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .hashing import hash160, sha256
from . import scripts
from .chain import (Block, BlockFile, ChainParams, HeaderIndex, Transaction,
                    TxInput, TxOutput, UtxoSet, coinbase_tx, genesis_block,
                    make_block, validate_and_apply_block)

DEFAULT_MIXTURE = (
    ("p2pkh", 0.85),
    ("p2sh", 0.08),
    ("p2wpkh", 0.03),
    ("p2wsh", 0.01),
    ("p2pk", 0.01),
    ("p2ms", 0.005),
    ("nonstandard", 0.005),
)
MIX_NAMES = [name for name, _ in DEFAULT_MIXTURE]
MIX_WEIGHTS = [w / sum(w for _, w in DEFAULT_MIXTURE)
               for _, w in DEFAULT_MIXTURE]

BLOCK_INTERVAL = 600
FEE = 1000  # paid by every generated transaction
TWO_INPUT_RATE = 0.5  # chance a transaction spends two wallet outputs
TWO_OUTPUT_RATE = 0.5  # chance it pays to two outputs


@dataclass(frozen=True)
class WorkloadProfile:
    txs_per_block: int = 50
    spend_probability: float = 0.04
    op_return_rate: float = 0.05


def light_profile(txs_per_block: int = 8) -> WorkloadProfile:
    """Smaller blocks for multi-thousand-block simulation runs."""
    return WorkloadProfile(txs_per_block=txs_per_block, spend_probability=0.05)


class WalletUtxo(NamedTuple):
    txid: bytes
    vout: int
    amount: int
    kind: str
    material: tuple


class ChainBuilder:
    """Extend a chain block by block under a workload profile.

    The builder owns the authoritative UTXO set and runs the real
    validator on every block it produces, so invalid construction
    fails immediately rather than downstream. It keeps each block as
    its bytes in `blocks`, not as a parsed `Block`, and its header
    record in `headers`, the one copy of the header chain.
    """

    def __init__(self, profile: WorkloadProfile, params: ChainParams, seed: int):
        self.profile = profile
        self.params = params
        self.rng = random.Random(seed)
        self.utxo = UtxoSet()
        self.blocks = BlockFile()
        self.headers = HeaderIndex()
        self.wallet: list[WalletUtxo] = []
        self._add(genesis_block(params), b"\x00" * 32)

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def _add(self, block: Block, prev_id: bytes) -> None:
        """Validate and apply the next block, then keep it and its record."""
        block_id = validate_and_apply_block(self.utxo, block, len(self.blocks),
                                            prev_id, self.params)
        self.blocks.append(block)
        self.headers.append(block, block_id)

    def next_block(self, coinbase_extra: bytes = b"") -> Block:
        """Mine, validate and apply the next block."""
        height = self.height + 1
        txs, fees, spent, created = self._build_transactions(height)
        key = self._fresh_key()
        coinbase_script = scripts.p2pkh_script(hash160(key))
        coinbase = coinbase_tx(height,
                               [TxOutput(self.params.subsidy + fees,
                                         coinbase_script)],
                               coinbase_extra)
        prev_id = self.headers.block_id(-1)
        block = make_block(prev_id, [coinbase] + txs,
                           self.params.genesis_timestamp + height * BLOCK_INTERVAL,
                           self.params.bits)
        self._add(block, prev_id)
        # wallet bookkeeping only after the block is accepted; `spent`
        # holds wallet positions in ascending order
        for pos in reversed(spent):
            del self.wallet[pos]
        self.wallet.extend(created)
        cb_txid = coinbase.txid()
        self.wallet.append(WalletUtxo(cb_txid, 0, self.params.subsidy + fees,
                                      "p2pkh", (key,)))
        return block

    def build(self, n_blocks: int) -> BlockFile:
        for _ in range(n_blocks):
            self.next_block()
        return self.blocks

    # --- transaction construction ---------------------------------------

    def _build_transactions(self, height: int):
        profile = self.profile
        rng = self.rng
        victims = self._pick_victims()
        txs: list[Transaction] = []
        fees = 0
        spent: list[int] = []
        created: list[WalletUtxo] = []
        i = 0
        while i < len(victims) and len(txs) < profile.txs_per_block:
            group = [victims[i]]
            i += 1
            if i < len(victims) and rng.random() < TWO_INPUT_RATE:
                group.append(victims[i])
                i += 1
            tx = self._spend_tx([self.wallet[pos] for pos in group], created)
            if tx is None:
                continue
            txs.append(tx)
            fees += FEE
            spent.extend(group)
        return txs, fees, spent, created

    def _pick_victims(self) -> list[int]:
        """Sample wallet outputs to spend this block, as ascending positions.

        Approximates per-UTXO Bernoulli(spend_probability): exact for
        small wallets, a rounded normal draw of the binomial count for
        large ones. This is workload shaping, not a protocol surface.
        """
        rng = self.rng
        p = self.profile.spend_probability
        n = len(self.wallet)
        if n == 0 or p <= 0:
            return []
        if n <= 64:
            return [pos for pos in range(n) if rng.random() < p]
        mean = n * p
        sd = math.sqrt(n * p * (1 - p))
        count = int(round(rng.gauss(mean, sd)))
        count = max(0, min(n, count))
        return sorted(rng.sample(range(n), count))

    def _spend_tx(self, group: list[WalletUtxo],
                  created: list[WalletUtxo]) -> Transaction | None:
        profile = self.profile
        rng = self.rng
        total = sum(w.amount for w in group)
        n_outputs = 2 if rng.random() < TWO_OUTPUT_RATE else 1
        if total <= FEE + n_outputs:
            return None  # dust group; leave the outputs unspent
        budget = total - FEE
        amounts = self._split(budget, n_outputs)
        outputs = []
        out_materials = []
        for amount in amounts:
            kind = rng.choices(MIX_NAMES, weights=MIX_WEIGHTS)[0]
            script, material = self._make_output(kind)
            outputs.append(TxOutput(amount, script))
            out_materials.append((kind, material))
        if rng.random() < profile.op_return_rate:
            payload = rng.randbytes(rng.randint(1, scripts.MAX_OP_RETURN_PAYLOAD))
            outputs.append(TxOutput(0, scripts.op_return_script(payload)))
        inputs = []
        for w in group:
            ctx = scripts.SpendContext(w.txid, w.vout)
            inputs.append(TxInput(w.txid, w.vout, self._unlock(w, ctx)))
        tx = Transaction(tuple(inputs), tuple(outputs))
        txid = tx.txid()
        for vout, (kind, material) in enumerate(out_materials):
            if material is not None:
                created.append(WalletUtxo(txid, vout, outputs[vout].amount,
                                          kind, material))
        return tx

    def _split(self, budget: int, n: int) -> list[int]:
        if n == 1:
            return [budget]
        cut = self.rng.randint(1, budget - 1)
        return [cut, budget - cut]

    def _fresh_key(self) -> bytes:
        return bytes([0x02 + self.rng.randint(0, 1)]) + self.rng.randbytes(32)

    def _make_output(self, kind: str) -> tuple[bytes, tuple | None]:
        """Build a script plus the material needed to spend it later.

        Returns material None for outputs the wallet cannot spend.
        """
        rng = self.rng
        if kind == "p2pkh":
            key = self._fresh_key()
            return scripts.p2pkh_script(hash160(key)), (key,)
        if kind == "p2sh":
            inner = rng.randbytes(rng.randint(16, 40))
            return scripts.p2sh_script(hash160(inner)), (inner,)
        if kind == "p2wpkh":
            key = self._fresh_key()
            return scripts.p2wpkh_script(hash160(key)), (key,)
        if kind == "p2wsh":
            inner = rng.randbytes(rng.randint(16, 40))
            return scripts.p2wsh_script(sha256(inner)), (inner,)
        if kind == "p2pk":
            if rng.random() < 0.5:
                key = self._fresh_key()
            else:
                key = scripts.uncompressed_pubkey(rng.randbytes(32))
            return scripts.p2pk_script(key), (key,)
        if kind == "p2ms":
            n = rng.randint(1, 3)
            keys = [self._fresh_key() for _ in range(n)]
            return scripts.p2ms_script(1, keys), tuple(keys)
        if kind == "nonstandard":
            # first byte 0x6e dodges every template prefix
            return b"\x6e" + rng.randbytes(rng.randint(4, 39)), None
        raise ValueError(f"unknown script kind {kind!r}")

    def _unlock(self, w: WalletUtxo, ctx: scripts.SpendContext) -> bytes:
        if w.kind in ("p2pkh", "p2wpkh"):
            return scripts.key_unlock(w.material[0], ctx)
        if w.kind in ("p2sh", "p2wsh"):
            return scripts.script_unlock(w.material[0], ctx)
        if w.kind in ("p2pk", "p2ms"):
            return scripts.signature_unlock(w.material[0], ctx)
        raise ValueError(f"wallet cannot unlock kind {w.kind!r}")
