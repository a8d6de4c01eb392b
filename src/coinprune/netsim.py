"""Deterministic message-level simulation of snapshot-based bootstrapping.

The simulator advances one canonical chain in rounds: each round a
miner is chosen proportionally to hash power, builds a block from the
workload profile, and (when inside a reaffirmation window) embeds its
tag in the coinbase. Honest replicas share the canonical storage;
adversarial nodes differ only in what they mine and serve. Joining
nodes run the real client protocol against their neighbors: handshake
with service flags, header sync, snapshot discovery via GETSTATE/INV,
chunk download with per-chunk hash verification and re-requests,
chaintail replay with full validation, and the window tally check that
the applied snapshot was actually reaffirmed on-chain.

Every message is metered and traced; identical scenarios (same seed)
produce byte-identical traces and reports.
"""

import random
import struct
from dataclasses import dataclass

from .hashing import hash256
from . import appdata as appdata_mod
from . import coordination
from . import scripts
from . import snapshot as snapshot_mod
from .chain import (ChainError, ChainParams, UtxoEntry, UtxoSet,
                    replay_blocks, verify_headerchain)
from .chaingen import ChainBuilder, WorkloadProfile, light_profile
from .coordination import CoordinationError, PulseParams
from .scripts import CompressedTxOut
from .snapshot import Snapshot

# service flags exchanged in the Version handshake
FLAG_NETWORK = 1
FLAG_COINPRUNE = 2

# advertised object kinds, in fetch order: the UTXO snapshot, then the
# app-data store; an advert holds (kind, header digest, chunk digests)
# for each object a peer serves
STATE = "state"
APPDATA = "appdata"

# A message's wire size is MSG_OVERHEAD plus its payload: 26 bytes for
# version, 40 for a state header, an 8-byte index plus the data for a
# state chunk, the raw block for a block, and a 4-byte count plus the
# entries for a list (inv and getdata of INV_ENTRY_SIZE, headers of 80,
# a getheaders locator of 32).
MSG_OVERHEAD = 24
INV_ENTRY_SIZE = 36

KNOWN_FAULTS = ("bogus_tags", "bogus_chunks", "bogus_snapshot", "eclipse")

MAX_BOOTSTRAP_ATTEMPTS = 3  # neighbor samples a joiner tries before giving up
CHUNK_RETRY = 2  # deliveries of one chunk before an attempt aborts
BLOCK_BATCH = 16  # blocks requested from one peer per round


class SimError(Exception):
    pass


# --- configuration ----------------------------------------------------------

@dataclass(frozen=True)
class NodeConfig:
    name: str
    role: str  # "miner" | "full" | "joining"
    coinprune: bool = True
    adversarial: bool = False
    hash_power: float = 1.0
    latency: int = 1

    def __post_init__(self) -> None:
        if self.role not in ("miner", "full", "joining"):
            raise SimError(f"unknown role {self.role!r}")
        if self.adversarial and not self.coinprune:
            raise SimError("adversarial nodes signal snapshot support")
        if self.hash_power < 0 or self.latency < 1:
            raise SimError("bad hash power or latency")

    def service_flags(self) -> int:
        return FLAG_NETWORK | (FLAG_COINPRUNE if self.coinprune else 0)


@dataclass(frozen=True)
class SimScenario:
    nodes: tuple
    params: PulseParams
    chain_length: int
    seed: int = 0
    profile: WorkloadProfile | None = None
    obfuscate: bool = False
    preserve_appdata: bool = True
    prune: bool = True
    faults: tuple = ()
    neighbor_count: int = 8

    def __post_init__(self) -> None:
        for fault in self.faults:
            if fault not in KNOWN_FAULTS:
                raise SimError(f"unknown fault {fault!r}")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise SimError("duplicate node names")
        if not any(n.role == "miner" for n in self.nodes):
            raise SimError("scenario needs at least one miner")
        if self.neighbor_count < 0:
            raise SimError("neighbor count must not be negative")
        if not -2**63 <= self.seed < 2**63:
            raise SimError("seed must fit in 64 bits")


def _sub_seed(seed: int, label: str) -> int:
    raw = hash256(struct.pack("<q", seed) + label.encode())
    return int.from_bytes(raw[:8], "little")


# --- runtime state ----------------------------------------------------------

@dataclass
class PulseRecord:
    index: int
    height: int
    genuine_snap: Snapshot
    genuine_app: Snapshot | None
    genuine_tag: bytes
    bogus_snap: Snapshot | None = None
    bogus_app: Snapshot | None = None
    bogus_tag: bytes | None = None
    outcome: coordination.PulseOutcome | None = None

    def served(self, bogus: bool) -> tuple[Snapshot, Snapshot | None]:
        """(snapshot, app-data snapshot) served for this pulse."""
        if bogus:
            return self.bogus_snap, self.bogus_app
        return self.genuine_snap, self.genuine_app


@dataclass
class NodeState:
    cfg: NodeConfig
    rx_bytes: int = 0
    tx_bytes: int = 0
    pruned_below: int = 0  # block heights below this are discarded
    sync_rounds: int = 0


@dataclass
class JoinOutcome:
    accepted: bool
    reason: str
    attempts: int
    via_snapshot: bool
    snapshot_id: bytes | None = None
    appdata_id: bytes | None = None
    accepted_tag: bytes | None = None
    pulse_index: int | None = None


class Trace:
    """Line-delimited event log; bytes are compared across runs."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, line: str) -> None:
        self.lines.append(line)

    def to_text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class RunReport:
    rows: list  # (node, bytes_stored, bytes_rx, bytes_tx, sync_rounds)
    breakdown: list  # (node, headers, blocks, snapshot, appdata)
    pulse_outcomes: list  # (index, height, status, tag_hex, count)
    join_outcomes: list  # (node, status, reason, attempts, rx_bytes)

    def to_csv(self) -> str:
        out = ["node,bytes_stored,bytes_rx,bytes_tx,sync_rounds"]
        out += [f"{n},{s},{rx},{tx},{r}" for n, s, rx, tx, r in self.rows]
        return "\n".join(out) + "\n"

    def breakdown_csv(self) -> str:
        out = ["node,header_bytes,block_bytes,snapshot_bytes,appdata_bytes"]
        out += [f"{n},{h},{b},{s},{a}" for n, h, b, s, a in self.breakdown]
        return "\n".join(out) + "\n"


class Simulation:
    def __init__(self, scenario: SimScenario):
        self.scenario = scenario
        self.params = scenario.params
        profile = scenario.profile or light_profile()
        self.chain_params = ChainParams()
        self.builder = ChainBuilder(profile, self.chain_params,
                                    seed=_sub_seed(scenario.seed, "chain"))
        self.rng = random.Random(_sub_seed(scenario.seed, "net"))
        self.trace = Trace()
        self.nodes = {cfg.name: NodeState(cfg) for cfg in scenario.nodes}
        self.established = [n for n in scenario.nodes if n.role != "joining"]
        self.joiners = [n for n in scenario.nodes if n.role == "joining"]
        self.miners = [n for n in scenario.nodes if n.role == "miner"]
        self.block_bytes: list[int] = [len(self.builder.blocks[0].serialize())]
        self.appstore = appdata_mod.AppDataStore()
        self.appstore.add_block(self.builder.blocks[0], 0)
        self.pulses: dict[int, PulseRecord] = {}
        self.topology = self._build_topology()
        self.join_results: dict[str, JoinOutcome] = {}
        self.join_utxo: dict[str, UtxoSet] = {}
        self.join_stores: dict[str, appdata_mod.AppDataStore] = {}

    # --- topology and messaging ------------------------------------------

    def _build_topology(self) -> dict[str, list[str]]:
        """Ring plus random chords over established nodes; connected."""
        names = sorted(n.name for n in self.established)
        edges: set[tuple[str, str]] = set()
        n = len(names)
        for i, name in enumerate(names):
            if n > 1:
                edges.add(tuple(sorted((name, names[(i + 1) % n]))))
        for name in names:
            others = [m for m in names if m != name]
            want = min(2, len(others))
            for peer in self.rng.sample(others, want):
                edges.add(tuple(sorted((name, peer))))
        adj: dict[str, list[str]] = {name: [] for name in names}
        for a, b in sorted(edges):
            adj[a].append(b)
            adj[b].append(a)
        return {k: sorted(v) for k, v in adj.items()}

    def _send(self, src: str, dst: str, label: str, payload: int = 0) -> None:
        size = MSG_OVERHEAD + payload
        self.nodes[src].tx_bytes += size
        self.nodes[dst].rx_bytes += size
        self.trace.add(f"msg {src}>{dst} {label} {size}")

    # --- mining phase -------------------------------------------------------

    def run(self) -> RunReport:
        for height in range(1, self.scenario.chain_length + 1):
            miner = self._pick_miner()
            extra = self._coinbase_extra(miner, height)
            block = self.builder.next_block(extra)
            raw_size = len(block.serialize())
            self.block_bytes.append(raw_size)
            self.appstore.add_block(block, height)
            self._gossip(miner.name, raw_size)
            self._pulse_bookkeeping(height)
        for joiner in self.joiners:
            outcome = self.bootstrap(joiner)
            self.join_results[joiner.name] = outcome
        return self._report()

    def _pick_miner(self) -> NodeConfig:
        weights = [m.hash_power for m in self.miners]
        return self.rng.choices(self.miners, weights=weights)[0]

    def _coinbase_extra(self, miner: NodeConfig, height: int) -> bytes:
        pulse = coordination.pulse_for_height(height, self.params)
        if pulse is not None and miner.coinprune and pulse in self.pulses:
            rec = self.pulses[pulse]
            if miner.adversarial and "bogus_tags" in self.scenario.faults:
                return coordination.encode_coinbase_tag(rec.bogus_tag)
            return coordination.encode_coinbase_tag(rec.genuine_tag)
        if not miner.coinprune and self.rng.random() < 0.1:
            return self.rng.randbytes(self.rng.randint(1, 40))
        return b""

    def _gossip(self, origin: str, size: int) -> None:
        """First-seen flood of the new block along topology edges."""
        seen = {origin}
        frontier = [origin]
        while frontier:
            nxt = []
            for src in frontier:
                for dst in self.topology.get(src, ()):
                    if dst in seen:
                        continue
                    seen.add(dst)
                    self._send(src, dst, "block", size)
                    nxt.append(dst)
            frontier = nxt

    def _pulse_bookkeeping(self, height: int) -> None:
        params = self.params
        if height % params.delta_p == 0:
            index = height // params.delta_p
            self.pulses[index] = self._make_pulse_record(index, height)
            rec = self.pulses[index]
            self.trace.add(f"pulse {index} height {height} "
                           f"tag {rec.genuine_tag.hex()}")
        index = coordination.latest_closed_pulse(height, params)
        if index is not None \
                and height == coordination.window_range(index, params)[-1]:
            self._close_window(index, height)

    def _make_pulse_record(self, index: int, height: int) -> PulseRecord:
        block_id = self.builder.ids[height]
        snap = snapshot_mod.build_snapshot(self.builder.utxo, height, block_id,
                                           obfuscate=self.scenario.obfuscate)
        app = self.appstore.snapshot_at(height, block_id) \
            if self.scenario.preserve_appdata else None
        rec = PulseRecord(index, height, snap, app,
                          appdata_mod.pulse_tag(snap, app))
        if any(n.adversarial for n in self.scenario.nodes):
            rec.bogus_snap, rec.bogus_app, rec.bogus_tag = \
                self._forge_snapshot(height, block_id, app)
        return rec

    def _forge_snapshot(self, height: int, block_id: bytes,
                        app: Snapshot | None):
        """A self-consistent snapshot of a state that never existed."""
        forged = self.builder.utxo.copy()
        payload = hash256(b"forged-riches" + struct.pack("<I", height))
        forged.add(UtxoEntry(payload, 0, 21_000_000 * 100_000_000, height,
                             False, CompressedTxOut(scripts.CASE_P2PKH,
                                                    payload[:20])))
        snap = snapshot_mod.build_snapshot(forged, height, block_id,
                                           obfuscate=self.scenario.obfuscate)
        return snap, app, appdata_mod.pulse_tag(snap, app)

    def _close_window(self, index: int, tip_height: int) -> None:
        rec = self.pulses.get(index)
        if rec is None:
            return
        rec.outcome = coordination.tally_window(self._window_tags(index),
                                                self.params)
        status = "accepted" if rec.outcome.accepted else "skipped"
        tag_hex = rec.outcome.tag.hex() if rec.outcome.tag else "-"
        self.trace.add(f"window {index} closed at {tip_height} {status} "
                       f"{tag_hex} count {rec.outcome.count}")
        if rec.outcome.accepted and rec.outcome.tag == rec.genuine_tag \
                and self.scenario.prune:
            for cfg in self.established:
                if cfg.coinprune:
                    node = self.nodes[cfg.name]
                    node.pruned_below = max(node.pruned_below, rec.height + 1)
            self.trace.add(f"prune below {rec.height + 1}")

    def _window_tags(self, index: int) -> list[bytes | None]:
        return [coordination.parse_coinbase_tag(
                    self.builder.blocks[h].transactions[0].inputs[0].unlock)
                for h in coordination.window_range(index, self.params)]

    # --- serving side -------------------------------------------------------

    def _served_record(self, cfg: NodeConfig) -> tuple[PulseRecord, bool] | None:
        """Latest reaffirmed snapshot this node holds: (record, is_bogus)."""
        for index in sorted(self.pulses, reverse=True):
            rec = self.pulses[index]
            if rec.outcome is None or not rec.outcome.accepted:
                continue
            if cfg.adversarial and "bogus_snapshot" in self.scenario.faults \
                    and rec.bogus_snap is not None:
                return rec, True
            if rec.outcome.tag == rec.genuine_tag:
                return rec, False
            if cfg.adversarial and rec.bogus_tag is not None \
                    and rec.outcome.tag == rec.bogus_tag:
                return rec, True
        return None

    def _advert(self, cfg: NodeConfig) -> tuple | None:
        served = self._served_record(cfg)
        if served is None:
            return None
        rec, bogus = served
        return tuple((kind, hash256(obj.header.serialize()), obj.digests)
                     for kind, obj in zip((STATE, APPDATA), rec.served(bogus))
                     if obj is not None), rec, bogus

    def _serve_chunk(self, cfg: NodeConfig, snap: Snapshot, index: int) -> bytes:
        data = snap.chunks[index]
        if cfg.adversarial and "bogus_chunks" in self.scenario.faults:
            # flip one byte; the advertised digests stay genuine
            if data:
                data = bytes([data[0] ^ 0xFF]) + data[1:]
        return data

    # --- joining side ---------------------------------------------------------

    def _neighbor_sample(self, attempt: int) -> list[NodeConfig]:
        pool = sorted(self.established, key=lambda c: c.name)
        adversaries = [c for c in pool if c.adversarial]
        count = min(self.scenario.neighbor_count, len(pool))
        if "eclipse" in self.scenario.faults and attempt == 0 and adversaries:
            return adversaries[:count]
        return self.rng.sample(pool, count)

    def bootstrap(self, joiner: NodeConfig) -> JoinOutcome:
        name = joiner.name
        last_reason = "no attempts"
        for attempt in range(MAX_BOOTSTRAP_ATTEMPTS):
            neighbors = self._neighbor_sample(attempt)
            self.trace.add(f"join {name} attempt {attempt} neighbors "
                           + ",".join(c.name for c in neighbors))
            outcome = self._bootstrap_once(joiner, neighbors, attempt)
            if outcome.accepted:
                self.trace.add(f"join {name} accepted after {attempt + 1} attempts")
                return outcome
            last_reason = outcome.reason
            self.trace.add(f"join {name} aborted: {outcome.reason}")
        return JoinOutcome(False, last_reason, MAX_BOOTSTRAP_ATTEMPTS, False)

    def _round(self, joiner: str, peers: list[NodeConfig]) -> None:
        cost = max((p.latency for p in peers), default=1)
        self.nodes[joiner].sync_rounds += cost

    def _bootstrap_once(self, joiner: NodeConfig, neighbors: list[NodeConfig],
                        attempt: int) -> JoinOutcome:
        name = joiner.name
        attempts = attempt + 1

        def abort(reason: str) -> JoinOutcome:
            return JoinOutcome(False, reason, attempts, True)

        # handshake: learn service flags
        for peer in neighbors:
            self._send(name, peer.name, "version", 26)
            self._send(peer.name, name, "version", 26)
            self._send(peer.name, name, "verack")
            self._send(name, peer.name, "verack")
        self._round(name, neighbors)

        snapshot_peers: list[NodeConfig] = []
        adverts: dict[str, tuple] = {}
        if joiner.coinprune:
            for peer in neighbors:
                if not peer.service_flags() & FLAG_COINPRUNE:
                    continue
                self._send(name, peer.name, "getstate")
                advert = self._advert(peer)
                if advert is None:
                    self._send(peer.name, name, "inv", 4)
                    continue
                self._send(peer.name, name, "inv", 4 + INV_ENTRY_SIZE * sum(
                    1 + len(digests) for _, _, digests in advert[0]))
                snapshot_peers.append(peer)
                adverts[peer.name] = advert
            self._round(name, neighbors)

        if not adverts:
            return self._full_sync(joiner, neighbors, attempts)

        # plurality by advertised object list; ties prefer the higher
        # snapshot height, then the lexicographically smaller id
        groups: dict[tuple, list[NodeConfig]] = {}
        for peer in snapshot_peers:
            groups.setdefault(adverts[peer.name][0], []).append(peer)

        def group_key(item: tuple) -> tuple:
            objects, peers = item
            rec = adverts[peers[0].name][1]
            _, head_digest, digests = objects[0]
            return (-len(peers), -rec.height,
                    snapshot_mod.layered_id(head_digest, digests))

        objects, group = sorted(groups.items(), key=group_key)[0]
        group = sorted(group, key=lambda c: c.name)
        rec, bogus = adverts[group[0].name][1], adverts[group[0].name][2]
        served = [obj for obj in rec.served(bogus) if obj is not None]

        head_peer = group[0]
        tip_height = self._sync_headers(name, head_peer)

        # one header per advertised object: snapshot first, then app data
        self._send(name, head_peer.name, "getdata",
                   4 + INV_ENTRY_SIZE * len(objects))
        for _ in objects:
            self._send(head_peer.name, name, "stateheader", 40)
        self._round(name, [head_peer])

        height = served[0].header.height
        if height % self.params.delta_p != 0 or height == 0:
            return abort("snapshot height is not a pulse")
        index = height // self.params.delta_p
        if height > tip_height \
                or self.builder.ids[height] != served[0].header.block_id:
            return abort("snapshot header contradicts headerchain")
        if (coordination.latest_closed_pulse(tip_height, self.params) or 0) < index:
            return abort("reaffirmation window still open")

        fetched = []
        for entry, obj in zip(objects, served):
            got = self._fetch_object(name, group, entry, obj)
            if isinstance(got, str):
                return abort(got)
            fetched.append(got)
        snap, app_snap = fetched[0], fetched[1] if len(fetched) > 1 else None

        try:
            utxo = snapshot_mod.apply_snapshot(snap)
        except snapshot_mod.SnapshotError as exc:
            return abort(f"snapshot apply failed: {exc}")

        chaintail = range(height + 1, tip_height + 1)
        self._download_blocks(name, group, chaintail)
        try:
            self._replay(utxo, chaintail)
        except (ChainError, SimError) as exc:
            return abort(f"chaintail replay failed: {exc}")

        outcome = coordination.tally_window(self._window_tags(index), self.params)
        if not outcome.accepted:
            return abort("pulse window skipped on-chain")
        if outcome.tag != appdata_mod.pulse_tag(snap, app_snap):
            return abort("snapshot was not the reaffirmed tag")

        store = appdata_mod.parse_store(app_snap) if app_snap is not None \
            else appdata_mod.AppDataStore()
        self._keep_join(name, utxo, store, chaintail)
        return JoinOutcome(True, "", attempts, True, snap.id,
                           None if app_snap is None else app_snap.id,
                           outcome.tag, index)

    def _fetch_object(self, name: str, group: list[NodeConfig], entry: tuple,
                      served: Snapshot) -> Snapshot | str:
        """Download one advertised object: round-robin chunk waves, each
        chunk hashed once against its advertised digest and re-requested
        on a mismatch, then its header checked against the advertised
        header digest and chunk count. The object, or why to abort."""
        kind, head_digest, digests = entry
        prefix = "" if kind == STATE else f"{kind} "
        total = len(digests)
        chunks: list[bytes | None] = [None] * total
        attempts = [0] * total
        pending = list(range(total))
        # random starting peer so a retry after an abort takes a
        # different route through the neighbor set
        peer_idx = self.rng.randrange(len(group))
        while pending:
            wave: list[tuple[int, NodeConfig]] = []
            for chunk_index in pending[:len(group)]:
                wave.append((chunk_index, group[peer_idx % len(group)]))
                peer_idx += 1
            done: set[int] = set()
            for chunk_index, peer in wave:
                self._send(name, peer.name, "getdata", 4 + INV_ENTRY_SIZE)
                data = self._serve_chunk(peer, served, chunk_index)
                self._send(peer.name, name, "statechunk", 8 + len(data))
                attempts[chunk_index] += 1
                if hash256(data) == digests[chunk_index]:
                    chunks[chunk_index] = data
                    done.add(chunk_index)
                else:
                    self.trace.add(f"chunk {kind}_chunk {chunk_index} "
                                   f"mismatch from {peer.name}")
                    if attempts[chunk_index] >= CHUNK_RETRY:
                        return f"{prefix}chunk retry budget exhausted"
            self._round(name, [peer for _, peer in wave])
            pending = [i for i in pending if i not in done]
        header = served.header
        if header.chunk_count != total:
            return f"{prefix}snapshot verification: chunk count mismatch"
        if hash256(header.serialize()) != head_digest:
            return f"{prefix}snapshot verification: snapshot id mismatch"
        return Snapshot.assemble(header.height, header.block_id, chunks,
                                 digests)

    def _full_sync(self, joiner: NodeConfig, neighbors: list[NodeConfig],
                   attempts: int) -> JoinOutcome:
        """Fallback: fetch and replay every block from genesis."""
        name = joiner.name
        self.trace.add(f"join {name} full sync fallback")
        # serve from peers that still have the whole chain
        unpruned = [p for p in neighbors if self.nodes[p.name].pruned_below == 0]
        if not unpruned:
            return JoinOutcome(False, "no neighbor serves historic blocks",
                               attempts, False)
        tip_height = self._sync_headers(name, unpruned[0])
        chain = range(0, tip_height + 1)
        self._download_blocks(name, unpruned, chain)
        utxo = UtxoSet()
        try:
            self._replay(utxo, chain)
        except (ChainError, SimError) as exc:
            return JoinOutcome(False, f"full replay failed: {exc}",
                               attempts, False)
        self._keep_join(name, utxo, appdata_mod.AppDataStore(), chain)
        return JoinOutcome(True, "", attempts, False)

    def _sync_headers(self, name: str, peer: NodeConfig) -> int:
        """Fetch and verify the headerchain from one peer; its tip height."""
        self._send(name, peer.name, "getheaders", 4)
        headers = [b.header for b in self.builder.blocks]
        self._send(peer.name, name, "headers", 4 + 80 * len(headers))
        self._round(name, [peer])
        verify_headerchain(headers, self.chain_params)
        return len(headers) - 1

    def _download_blocks(self, name: str, peers: list[NodeConfig],
                         heights: range) -> None:
        """Batches of BLOCK_BATCH heights, one batch per peer per round."""
        pos = 0
        while pos < len(heights):
            wave_peers = []
            for peer in peers:
                take = heights[pos:pos + BLOCK_BATCH]
                if not take:
                    break
                pos += len(take)
                self._send(name, peer.name, "getdata",
                           4 + INV_ENTRY_SIZE * len(take))
                for h in take:
                    self._send(peer.name, name, "block", self.block_bytes[h])
                wave_peers.append(peer)
            self._round(name, wave_peers)

    def _replay(self, utxo: UtxoSet, heights: range) -> None:
        """Validate and apply the downloaded blocks; they must end at the
        headerchain's block at the last height."""
        start = heights[0]
        prev_id = self.builder.ids[start - 1] if start else b"\x00" * 32
        tip_id = replay_blocks(utxo, self.builder.blocks, heights, prev_id,
                               self.chain_params)
        if tip_id != self.builder.ids[heights[-1]]:
            raise SimError(f"block {heights[-1]} does not match headerchain")

    def _keep_join(self, name: str, utxo: UtxoSet,
                   store: appdata_mod.AppDataStore, heights: range) -> None:
        """Record a join's state, its app data extended over the replay."""
        for h in heights:
            store.add_block(self.builder.blocks[h], h)
        self.join_utxo[name] = utxo
        self.join_stores[name] = store

    # --- reporting --------------------------------------------------------

    def node_storage(self, name: str) -> tuple[int, int, int, int]:
        """(header, block, snapshot, appdata) bytes currently stored."""
        node = self.nodes[name]
        cfg = node.cfg
        tip = len(self.block_bytes) - 1
        header_bytes = 140 * (tip + 1)
        if cfg.role == "joining":
            outcome = self.join_results.get(name)
            if outcome is None or not outcome.accepted:
                return header_bytes, 0, 0, 0
            if not outcome.via_snapshot:
                return header_bytes, sum(self.block_bytes), 0, 0
            rec = self.pulses[outcome.pulse_index]
            held = rec, outcome.snapshot_id != rec.genuine_snap.id
            block_total = sum(self.block_bytes[rec.height + 1:])
        else:
            held = self._served_record(cfg) if cfg.coinprune else None
            block_total = sum(self.block_bytes[node.pruned_below:])
        if held is None:
            return header_bytes, block_total, 0, 0
        rec, bogus = held
        snap, app = rec.served(bogus)
        app_bytes = 0 if app is None else snapshot_mod.wire_size(app)
        return header_bytes, block_total, snapshot_mod.wire_size(snap), app_bytes

    def _report(self) -> RunReport:
        rows = []
        breakdown = []
        for cfg in sorted(self.scenario.nodes, key=lambda c: c.name):
            node = self.nodes[cfg.name]
            h, b, s, a = self.node_storage(cfg.name)
            rows.append((cfg.name, h + b + s + a, node.rx_bytes,
                         node.tx_bytes, node.sync_rounds))
            breakdown.append((cfg.name, h, b, s, a))
        pulse_rows = []
        for index in sorted(self.pulses):
            rec = self.pulses[index]
            if rec.outcome is None:
                pulse_rows.append((index, rec.height, "open", "-", 0))
            elif rec.outcome.accepted:
                pulse_rows.append((index, rec.height, "accepted",
                                   rec.outcome.tag.hex(), rec.outcome.count))
            else:
                pulse_rows.append((index, rec.height, "skipped", "-", 0))
        join_rows = [(name, "accepted" if o.accepted else "aborted",
                      o.reason, o.attempts, self.nodes[name].rx_bytes)
                     for name, o in sorted(self.join_results.items())]
        return RunReport(rows, breakdown, pulse_rows, join_rows)


def run_simulation(scenario: SimScenario) -> tuple[Simulation, RunReport]:
    sim = Simulation(scenario)
    report = sim.run()
    return sim, report


# --- scenario files -----------------------------------------------------------

def parse_scenario(text: str) -> SimScenario:
    """Flat key-value scenario format; see format_scenario for the shape."""
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SimError(f"bad scenario line: {raw!r}")
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()

    def get_bool(key: str, default: bool) -> bool:
        if key not in fields:
            return default
        value = fields[key].lower()
        if value in ("true", "yes", "1"):
            return True
        if value in ("false", "no", "0"):
            return False
        raise SimError(f"bad boolean for {key}: {fields[key]!r}")

    if "roles" not in fields:
        raise SimError("scenario needs a roles line")
    try:
        nodes: list[NodeConfig] = []
        counters = {"miner": 0, "full": 0, "joining": 0, "adv": 0}
        for part in fields["roles"].split():
            bits = part.split(":")
            if len(bits) != 3:
                raise SimError(f"bad role spec {part!r} (want role:count:variant)")
            role, count_s, variant = bits
            if role not in ("miner", "full", "joining"):
                raise SimError(f"unknown role {role!r}")
            if variant not in ("coinprune", "legacy", "adversarial"):
                raise SimError(f"unknown variant {variant!r}")
            for _ in range(int(count_s)):
                if variant == "adversarial":
                    name = f"adv{counters['adv']}"
                    counters["adv"] += 1
                    nodes.append(NodeConfig(name, role, True, True))
                else:
                    prefix = "join" if role == "joining" else role
                    name = f"{prefix}{counters[role]}"
                    counters[role] += 1
                    nodes.append(NodeConfig(name, role, variant == "coinprune"))
        if "nodes" in fields and int(fields["nodes"]) != len(nodes):
            raise SimError("nodes count does not match roles")

        pairs = {}
        for part in fields.get("params", "").split():
            key, value = part.split("=")
            pairs[key] = int(value)
        params = PulseParams(delta_p=pairs.get("delta_p", 500),
                             delta_r=pairs.get("delta_r", 100),
                             delta_d=pairs.get("delta_d", 6),
                             k=pairs.get("k", 5))

        faults = tuple(fields.get("faults", "").split())
        profile = light_profile(txs_per_block=int(fields.get("txs_per_block", "8")))
        return SimScenario(
            nodes=tuple(nodes),
            params=params,
            chain_length=int(fields.get("blocks", "1200")),
            seed=int(fields.get("seed", "0")),
            profile=profile,
            obfuscate=get_bool("obfuscate", False),
            preserve_appdata=get_bool("appdata", True),
            prune=get_bool("prune", True),
            faults=faults,
            neighbor_count=int(fields.get("neighbors", "8")),
        )
    except (ValueError, CoordinationError) as exc:
        raise SimError(f"bad scenario value: {exc}") from None


def format_scenario(scenario: SimScenario) -> str:
    roles: dict[tuple[str, str], int] = {}
    for cfg in scenario.nodes:
        if cfg.adversarial:
            variant = "adversarial"
        elif cfg.coinprune:
            variant = "coinprune"
        else:
            variant = "legacy"
        roles[(cfg.role, variant)] = roles.get((cfg.role, variant), 0) + 1
    role_s = " ".join(f"{role}:{count}:{variant}"
                      for (role, variant), count in sorted(roles.items()))
    params = scenario.params
    profile = scenario.profile or light_profile()
    lines = [
        f"seed = {scenario.seed}",
        f"blocks = {scenario.chain_length}",
        f"nodes = {len(scenario.nodes)}",
        f"roles = {role_s}",
        f"params = delta_p={params.delta_p} delta_r={params.delta_r} "
        f"delta_d={params.delta_d} k={params.k}",
        f"faults = {' '.join(scenario.faults)}".rstrip(),
        f"obfuscate = {str(scenario.obfuscate).lower()}",
        f"appdata = {str(scenario.preserve_appdata).lower()}",
        f"prune = {str(scenario.prune).lower()}",
        f"txs_per_block = {profile.txs_per_block}",
        f"neighbors = {scenario.neighbor_count}",
    ]
    return "\n".join(lines) + "\n"
