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
from .chain import (Block, ChainParams, Transaction, TxInput, TxOutput,
                    UtxoSet, coinbase_tx, genesis_block, make_block,
                    validate_and_apply_block)

DEFAULT_MIXTURE = (
    ("p2pkh", 0.85),
    ("p2sh", 0.08),
    ("p2wpkh", 0.03),
    ("p2wsh", 0.01),
    ("p2pk", 0.01),
    ("p2ms", 0.005),
    ("nonstandard", 0.005),
)

BLOCK_INTERVAL = 600


@dataclass(frozen=True)
class WorkloadProfile:
    txs_per_block: int = 50
    spend_probability: float = 0.04
    two_input_rate: float = 0.5
    two_output_rate: float = 0.5
    op_return_rate: float = 0.05
    fee: int = 1000
    mixture: tuple = DEFAULT_MIXTURE
    seed: int = 0

    def normalized_mixture(self) -> tuple[list[str], list[float]]:
        names = [name for name, _ in self.mixture]
        weights = [w for _, w in self.mixture]
        total = sum(weights)
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        return names, [w / total for w in weights]


def light_profile(seed: int = 0, txs_per_block: int = 8) -> WorkloadProfile:
    """Smaller blocks for multi-thousand-block simulation runs."""
    return WorkloadProfile(txs_per_block=txs_per_block,
                           spend_probability=0.05, seed=seed)


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
    fails immediately rather than downstream.
    """

    def __init__(self, profile: WorkloadProfile, params: ChainParams,
                 seed: int | None = None):
        self.profile = profile
        self.params = params
        self.rng = random.Random(profile.seed if seed is None else seed)
        self.mix_names, self.mix_weights = profile.normalized_mixture()
        self.utxo = UtxoSet()
        self.blocks: list[Block] = []
        self.ids: list[bytes] = []  # block ids, as validation computed them
        self.wallet: list[WalletUtxo] = []
        gen = genesis_block(params)
        self.ids.append(validate_and_apply_block(self.utxo, gen, 0,
                                                 b"\x00" * 32, params))
        self.blocks.append(gen)

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def tip_id(self) -> bytes:
        return self.ids[-1]

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
        prev_id = self.tip_id()
        block = make_block(prev_id, [coinbase] + txs,
                           self.params.genesis_timestamp + height * BLOCK_INTERVAL,
                           self.params.bits)
        self.ids.append(validate_and_apply_block(self.utxo, block, height,
                                                 prev_id, self.params))
        self.blocks.append(block)
        # wallet bookkeeping only after the block is accepted
        spent_set = set(spent)
        self.wallet = [w for w in self.wallet
                       if (w.txid, w.vout) not in spent_set]
        self.wallet.extend(created)
        cb_txid = coinbase.txid()
        self.wallet.append(WalletUtxo(cb_txid, 0, self.params.subsidy + fees,
                                      "p2pkh", (key,)))
        return block

    def build(self, n_blocks: int) -> list[Block]:
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
        spent: list[tuple[bytes, int]] = []
        created: list[WalletUtxo] = []
        i = 0
        while i < len(victims) and len(txs) < profile.txs_per_block:
            group = [victims[i]]
            i += 1
            if i < len(victims) and rng.random() < profile.two_input_rate:
                group.append(victims[i])
                i += 1
            tx = self._spend_tx(group, created)
            if tx is None:
                continue
            txs.append(tx)
            fees += profile.fee
            spent.extend((w.txid, w.vout) for w in group)
        return txs, fees, spent, created

    def _pick_victims(self) -> list[WalletUtxo]:
        """Sample wallet outputs to spend this block.

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
            picked = [w for w in self.wallet if rng.random() < p]
            return picked
        mean = n * p
        sd = math.sqrt(n * p * (1 - p))
        count = int(round(rng.gauss(mean, sd)))
        count = max(0, min(n, count))
        idx = rng.sample(range(n), count)
        return [self.wallet[j] for j in sorted(idx)]

    def _spend_tx(self, group: list[WalletUtxo],
                  created: list[WalletUtxo]) -> Transaction | None:
        profile = self.profile
        rng = self.rng
        total = sum(w.amount for w in group)
        n_outputs = 2 if rng.random() < profile.two_output_rate else 1
        if total <= profile.fee + n_outputs:
            return None  # dust group; leave the outputs unspent
        budget = total - profile.fee
        amounts = self._split(budget, n_outputs)
        outputs = []
        out_materials = []
        for amount in amounts:
            kind = rng.choices(self.mix_names, weights=self.mix_weights)[0]
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
        if w.kind == "p2pk":
            return scripts.signature_unlock(w.material[0], ctx)
        if w.kind == "p2ms":
            return scripts.signature_unlock(w.material[0], ctx)
        raise ValueError(f"wallet cannot unlock kind {w.kind!r}")


def generate_chain(profile: WorkloadProfile, n_blocks: int,
                   params: ChainParams | None = None) -> list[Block]:
    """Generate genesis plus n_blocks fully validated blocks."""
    builder = ChainBuilder(profile, params or ChainParams())
    return builder.build(n_blocks)
