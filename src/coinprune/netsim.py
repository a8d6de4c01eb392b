"""Deterministic message-level simulation of snapshot-based bootstrapping.

The simulator advances one canonical chain in rounds: each round a
miner chosen uniformly at random builds a block from the workload
profile and (when inside a reaffirmation window) embeds its tag in the
coinbase. Honest replicas share the canonical storage; adversarial
nodes differ only in what they mine and serve. Joining nodes run the
real client protocol against their neighbors: handshake, header sync,
snapshot discovery via GETSTATE/INV, chunk download with per-chunk
hash verification and re-requests, chaintail replay with full
validation, and the window tally check that the applied snapshot was
actually reaffirmed on-chain.

Every message is metered and traced; identical scenarios (same seed)
produce byte-identical traces and reports.
"""

import csv
import io
import os
import random
import struct
import tempfile
import weakref
from dataclasses import dataclass

from .hashing import hash256
from . import appdata as appdata_mod
from . import coordination
from . import scripts
from . import snapshot as snapshot_mod
from .chain import (HEADER_SIZE, ChainError, ChainParams, UtxoSet,
                    outpoint_key, pack_record, replay_blocks,
                    verify_headerchain)
from .chaingen import ChainBuilder, WorkloadProfile, light_profile
from .coordination import CoordinationError, PulseParams
from .scripts import CompressedTxOut
from .snapshot import Snapshot

# advertised object kinds, in fetch order: the UTXO snapshot, then the
# app-data store; an advert holds (kind, header digest, chunk digests)
# for each object a peer serves
STATE = "state"
APPDATA = "appdata"

# A message's wire size is MSG_OVERHEAD plus its payload: 26 bytes for
# version, the snapshot header for a state header, an 8-byte index plus
# the data for a state chunk, the raw block for a block, and a 4-byte
# count plus the entries for a list (inv and getdata of INV_ENTRY_SIZE,
# headers of the block header size, a getheaders locator of 32).
MSG_OVERHEAD = 24
INV_ENTRY_SIZE = 36

KNOWN_FAULTS = ("bogus_tags", "bogus_chunks", "bogus_snapshot", "eclipse")

MAX_BOOTSTRAP_ATTEMPTS = 3  # neighbor samples a joiner tries before giving up
CHUNK_RETRY = 2  # deliveries of one chunk before an attempt aborts
BLOCK_BATCH = 16  # blocks requested from one peer per round
TRACE_PAGE_LINES = 1024  # trace lines written to the trace file at once

SCENARIO_KEYS = {"seed", "blocks", "nodes", "roles", "params", "faults",
                 "obfuscate", "appdata", "txs_per_block", "neighbors"}


class SimError(Exception):
    pass


# --- configuration ----------------------------------------------------------

@dataclass(frozen=True)
class NodeConfig:
    name: str
    role: str  # "miner" | "full" | "joining"
    coinprune: bool = True
    adversarial: bool = False

    def __post_init__(self) -> None:
        if self.role not in ("miner", "full", "joining"):
            raise SimError(f"unknown role {self.role!r}")
        if self.adversarial and not self.coinprune:
            raise SimError("adversarial nodes signal snapshot support")


@dataclass(frozen=True)
class SimScenario:
    nodes: tuple
    params: PulseParams = PulseParams()
    chain_length: int = 1200
    seed: int = 0
    profile: WorkloadProfile = light_profile()
    obfuscate: bool = False
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
        if self.chain_length < 0:
            raise SimError("chain length must not be negative")
        if self.profile.txs_per_block < 0:
            raise SimError("transactions per block must not be negative")
        if not -2**63 <= self.seed < 2**63:
            raise SimError("seed must fit in 64 bits")


def _sub_seed(seed: int, label: str) -> int:
    raw = hash256(struct.pack("<q", seed) + label.encode())
    return int.from_bytes(raw[:8], "little")


# --- runtime state ----------------------------------------------------------

@dataclass
class PulseRecord:
    """A pulse's snapshots, their tags and its window's outcome. Once
    the window closes, each snapshot that no node holds is dropped."""
    index: int
    height: int
    genuine_snap: Snapshot | None
    genuine_app: Snapshot | None
    genuine_tag: bytes
    bogus_snap: Snapshot | None = None
    bogus_tag: bytes | None = None
    outcome: coordination.PulseOutcome | None = None

    def status(self) -> tuple[str, str, int]:
        """(open | accepted | skipped, tag hex or "-", count) of the window."""
        if self.outcome is None:
            return "open", "-", 0
        if self.outcome.accepted:
            return "accepted", self.outcome.tag.hex(), self.outcome.count
        return "skipped", "-", 0


@dataclass
class NodeState:
    rx_bytes: int = 0
    tx_bytes: int = 0
    pruned_below: int = 0  # block heights below this are discarded
    sync_rounds: int = 0
    held: tuple[Snapshot, Snapshot] | None = None  # (state, app data) served


@dataclass
class JoinOutcome:
    accepted: bool
    reason: str
    attempts: int
    via_snapshot: bool


class Trace:
    """Line-delimited event log; bytes are compared across runs. Every
    TRACE_PAGE_LINES lines are written as one page to an unnamed
    temporary file, as `chain.BlockFile` keeps a chain, so memory holds
    only the open page; a line holds no newline. The file is closed
    when the trace is dropped."""

    def __init__(self) -> None:
        fh = tempfile.TemporaryFile(buffering=0)
        weakref.finalize(self, fh.close)
        self._fd = fh.fileno()
        self._end = 0  # bytes of the written pages, each line "\n"-ended
        self._open: list[str] = []  # the lines since the last page

    def add(self, line: str) -> None:
        self._open.append(line)
        if len(self._open) == TRACE_PAGE_LINES:
            page = ("\n".join(self._open) + "\n").encode()
            os.pwrite(self._fd, page, self._end)
            self._end += len(page)
            self._open.clear()

    def to_text(self) -> str:
        text = os.pread(self._fd, self._end, 0).decode()
        if self._open or not text:
            text += "\n".join(self._open) + "\n"
        return text

    @property
    def lines(self) -> list[str]:
        """The added lines, split back out of the text."""
        if not self._end and not self._open:
            return []  # the text of no lines is that of one empty line
        return self.to_text().split("\n")[:-1]


def _csv(columns: str, rows: list) -> str:
    """A table as CSV text: the comma-separated column names, then the rows."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([columns.split(","), *rows])
    return out.getvalue()


@dataclass
class RunReport:
    """The run's four tables, one tuple per row in its CSV's column order."""
    rows: list
    breakdown: list
    pulse_outcomes: list
    join_outcomes: list

    def to_csv(self) -> str:
        return _csv("node,bytes_stored,bytes_rx,bytes_tx,sync_rounds", self.rows)

    def breakdown_csv(self) -> str:
        return _csv("node,header_bytes,block_bytes,snapshot_bytes,appdata_bytes",
                    self.breakdown)

    def pulses_csv(self) -> str:
        return _csv("index,height,status,tag,count", self.pulse_outcomes)

    def joins_csv(self) -> str:
        return _csv("node,status,reason,attempts,rx_bytes", self.join_outcomes)


class Simulation:
    def __init__(self, scenario: SimScenario):
        self.scenario = scenario
        self.builder = ChainBuilder(scenario.profile, ChainParams(),
                                    _sub_seed(scenario.seed, "chain"))
        self.rng = random.Random(_sub_seed(scenario.seed, "net"))
        self.trace = Trace()
        self.nodes = {cfg.name: NodeState() for cfg in scenario.nodes}
        self.established = [n for n in scenario.nodes if n.role != "joining"]
        self.joiners = [n for n in scenario.nodes if n.role == "joining"]
        self.miners = [n for n in scenario.nodes if n.role == "miner"]
        for cfg in self.joiners:  # a joiner holds no block before it joins
            self.nodes[cfg.name].pruned_below = scenario.chain_length + 1
        self.appstore = appdata_mod.AppDataStore()
        self.appstore.add_block(self.builder.blocks[0],
                                self.builder.headers.block_id(0))
        self.pulses: dict[int, PulseRecord] = {}
        self.topology = self._build_topology()
        self.join_results: dict[str, JoinOutcome] = {}
        self.join_utxo: dict[str, UtxoSet] = {}
        self.join_stores: dict[str, appdata_mod.AppDataStore] = {}
        # each distinct joined state's chunks to its folded set, unchanged
        self._kept_states: dict[tuple, UtxoSet] = {}

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
            miner = self.rng.choices(self.miners)[0]
            extra = self._coinbase_extra(miner, height)
            block = self.builder.next_block(extra)
            self.appstore.add_block(block, self.builder.headers.block_id(-1))
            self._gossip(miner.name, self.builder.blocks.size(height))
            self._pulse_bookkeeping(height)
        for joiner in self.joiners:
            outcome = self.bootstrap(joiner)
            self.join_results[joiner.name] = outcome
        return self._report()

    def _coinbase_extra(self, miner: NodeConfig, height: int) -> bytes:
        pulse = coordination.pulse_for_height(height, self.scenario.params)
        if pulse is not None and miner.coinprune:
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
        params = self.scenario.params
        index = coordination.pulse_index(height, params)
        if index is not None:
            self.pulses[index] = self._make_pulse_record(index, height)
            rec = self.pulses[index]
            self.trace.add(f"pulse {index} height {height} "
                           f"tag {rec.genuine_tag.hex()}")
        index = coordination.latest_closed_pulse(height, params)
        if index is None \
                or height != coordination.window_range(index, params)[-1]:
            return
        self._close_window(index, height)
        # a closed pulse keeps only the snapshots some node holds
        held = {id(snap) for node in self.nodes.values() if node.held
                for snap in node.held}
        for rec in self.pulses.values():
            if rec.outcome is not None:
                for field in ("genuine_snap", "genuine_app", "bogus_snap"):
                    if id(getattr(rec, field)) not in held:
                        setattr(rec, field, None)

    def _make_pulse_record(self, index: int, height: int) -> PulseRecord:
        block_id = self.builder.headers.block_id(height)
        snap = snapshot_mod.build_snapshot(self.builder.utxo, height, block_id,
                                           obfuscate=self.scenario.obfuscate)
        app = self.appstore.snapshot_at(height, block_id)
        rec = PulseRecord(index, height, snap, app,
                          appdata_mod.combined_tag(snap.id, app.id))
        if any(n.adversarial for n in self.scenario.nodes):
            rec.bogus_snap = self._forge_snapshot(height, block_id)
            rec.bogus_tag = appdata_mod.combined_tag(rec.bogus_snap.id, app.id)
        return rec

    def _forge_snapshot(self, height: int, block_id: bytes) -> Snapshot:
        """A self-consistent snapshot of a state that never existed."""
        forged = self.builder.utxo.copy()
        payload = hash256(b"forged-riches" + struct.pack("<I", height))
        forged.add_records({outpoint_key(payload, 0): pack_record(
            payload, 0, 21_000_000 * 100_000_000, height, False,
            CompressedTxOut(scripts.CASE_P2PKH, payload[:20]))})
        return snapshot_mod.build_snapshot(forged, height, block_id,
                                           obfuscate=self.scenario.obfuscate)

    def _close_window(self, index: int, tip_height: int) -> None:
        """Tally the window. On acceptance the coinprune established nodes
        keep this pulse's snapshot and, when it is the genuine one, prune
        below it."""
        rec = self.pulses[index]
        rec.outcome = coordination.tally_window(self._window_tags(index),
                                                self.scenario.params)
        status, tag_hex, count = rec.status()
        self.trace.add(f"window {index} closed at {tip_height} {status} "
                       f"{tag_hex} count {count}")
        if not rec.outcome.accepted:
            return
        genuine = rec.outcome.tag == rec.genuine_tag
        # an adversary keeps the forged state if its tag won or it forges anyway
        forged = "bogus_snapshot" in self.scenario.faults \
            or rec.outcome.tag == rec.bogus_tag
        for cfg in self.established:
            node = self.nodes[cfg.name]
            if cfg.adversarial and forged:  # with the genuine app data
                node.held = rec.bogus_snap, rec.genuine_app
            elif cfg.coinprune and genuine:
                node.held = rec.genuine_snap, rec.genuine_app
            if cfg.coinprune and genuine:
                node.pruned_below = rec.height + 1
        if genuine:
            self.trace.add(f"prune below {rec.height + 1}")

    def _window_tags(self, index: int) -> list[bytes | None]:
        return [coordination.parse_coinbase_tag(
                    self.builder.blocks.coinbase(h).inputs[0].unlock)
                for h in coordination.window_range(index, self.scenario.params)]

    # --- serving side -------------------------------------------------------

    def _advert(self, node: NodeState) -> tuple | None:
        if node.held is None:
            return None
        return tuple((kind, hash256(obj.header.serialize()), obj.digests)
                     for kind, obj in zip((STATE, APPDATA), node.held))

    def _serve_chunk(self, cfg: NodeConfig, snap: Snapshot, index: int) -> bytes:
        data = snap.chunks[index]
        if cfg.adversarial and "bogus_chunks" in self.scenario.faults:
            # flip one byte; the advertised digests stay genuine
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
        for attempt in range(MAX_BOOTSTRAP_ATTEMPTS):
            neighbors = self._neighbor_sample(attempt)
            self.trace.add(f"join {name} attempt {attempt} neighbors "
                           + ",".join(c.name for c in neighbors))
            reason = self._bootstrap_once(joiner, neighbors)
            if not reason:
                self.trace.add(f"join {name} accepted after {attempt + 1} attempts")
                # _keep_join sets held only for a snapshot join
                return JoinOutcome(True, "", attempt + 1,
                                   self.nodes[name].held is not None)
            self.trace.add(f"join {name} aborted: {reason}")
        return JoinOutcome(False, reason, MAX_BOOTSTRAP_ATTEMPTS, False)

    def _round(self, joiner: str) -> None:
        self.nodes[joiner].sync_rounds += 1

    def _bootstrap_once(self, joiner: NodeConfig,
                        neighbors: list[NodeConfig]) -> str:
        """One join attempt: why it aborted, or "" once the join is kept."""
        name = joiner.name
        # handshake: a peer's version tells whether it serves snapshots
        for peer in neighbors:
            self._send(name, peer.name, "version", 26)
            self._send(peer.name, name, "version", 26)
            self._send(peer.name, name, "verack")
            self._send(name, peer.name, "verack")
        self._round(name)

        adverts: dict[NodeConfig, tuple] = {}
        if joiner.coinprune:
            for peer in neighbors:
                if not peer.coinprune:
                    continue
                self._send(name, peer.name, "getstate")
                advert = self._advert(self.nodes[peer.name])
                if advert is None:
                    self._send(peer.name, name, "inv", 4)
                    continue
                self._send(peer.name, name, "inv", 4 + INV_ENTRY_SIZE * sum(
                    1 + len(digests) for _, _, digests in advert))
                adverts[peer] = advert
            self._round(name)

        if not adverts:
            return self._full_sync(joiner, neighbors)

        # plurality by advertised object list; ties prefer the higher
        # snapshot height, then the lexicographically smaller id
        groups: dict[tuple, list[NodeConfig]] = {}
        for peer, advert in adverts.items():
            groups.setdefault(advert, []).append(peer)

        def group_key(item: tuple) -> tuple:
            objects, peers = item
            snap = self.nodes[peers[0].name].held[0]
            _, head_digest, digests = objects[0]
            return (-len(peers), -snap.header.height,
                    snapshot_mod.layered_id(head_digest, digests))

        objects, group = sorted(groups.items(), key=group_key)[0]
        group = sorted(group, key=lambda c: c.name)
        served = self.nodes[group[0].name].held

        head_peer = group[0]
        tip_height = self._sync_headers(name, head_peer)

        # one header per advertised object: snapshot first, then app data
        self._send(name, head_peer.name, "getdata",
                   4 + INV_ENTRY_SIZE * len(objects))
        for _ in objects:
            self._send(head_peer.name, name, "stateheader",
                       snapshot_mod.HEADER_SIZE)
        self._round(name)

        params = self.scenario.params
        height = served[0].header.height
        index = coordination.pulse_index(height, params)
        if index is None:
            return "snapshot height is not a pulse"
        if height > tip_height or served[0].header.block_id \
                != self.builder.headers.block_id(height):
            return "snapshot header contradicts headerchain"
        if (coordination.latest_closed_pulse(tip_height, params) or 0) < index:
            return "reaffirmation window still open"

        fetched = []
        for entry, obj in zip(objects, served):
            got = self._fetch_object(name, group, entry, obj)
            if isinstance(got, str):
                return got
            fetched.append(got)
        snap, app_snap = fetched

        try:
            utxo = snapshot_mod.apply_snapshot(snap)
            store = appdata_mod.parse_store(app_snap)
        except snapshot_mod.SnapshotError as exc:
            return f"snapshot apply failed: {exc}"

        chaintail = range(height + 1, tip_height + 1)
        self._download_blocks(name, group, chaintail)
        try:
            self._replay(utxo, chaintail, store)
        except (ChainError, SimError) as exc:
            return f"chaintail replay failed: {exc}"

        outcome = coordination.tally_window(self._window_tags(index), params)
        if not outcome.accepted:
            return "pulse window skipped on-chain"
        if outcome.tag != appdata_mod.combined_tag(snap.id, app_snap.id):
            return "snapshot was not the reaffirmed tag"

        self._keep_join(name, utxo, store, chaintail, served)
        return ""

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
            self._round(name)
            pending = [i for i in pending if i not in done]
        header = served.header
        if header.chunk_count != total:
            return f"{prefix}snapshot verification: chunk count mismatch"
        if hash256(header.serialize()) != head_digest:
            return f"{prefix}snapshot verification: snapshot id mismatch"
        return Snapshot.assemble(header.height, header.block_id, chunks,
                                 digests)

    def _full_sync(self, joiner: NodeConfig,
                   neighbors: list[NodeConfig]) -> str:
        """Fallback: fetch and replay every block from genesis; why it
        aborted, or "" once the join is kept."""
        name = joiner.name
        self.trace.add(f"join {name} full sync fallback")
        # serve from peers that still have the whole chain
        unpruned = [p for p in neighbors if self.nodes[p.name].pruned_below == 0]
        if not unpruned:
            return "no neighbor serves historic blocks"
        tip_height = self._sync_headers(name, unpruned[0])
        chain = range(0, tip_height + 1)
        self._download_blocks(name, unpruned, chain)
        utxo, store = UtxoSet(), appdata_mod.AppDataStore()
        try:
            self._replay(utxo, chain, store)
        except (ChainError, SimError) as exc:
            return f"full replay failed: {exc}"
        self._keep_join(name, utxo, store, chain)
        return ""

    def _sync_headers(self, name: str, peer: NodeConfig) -> int:
        """Fetch and verify the headerchain from one peer; its tip height."""
        self._send(name, peer.name, "getheaders", 4)
        headers = self.builder.headers
        self._send(peer.name, name, "headers", 4 + HEADER_SIZE * len(headers))
        self._round(name)
        verify_headerchain(headers, self.builder.params)
        return len(headers) - 1

    def _download_blocks(self, name: str, peers: list[NodeConfig],
                         heights: range) -> None:
        """Batches of BLOCK_BATCH heights, one batch per peer per round."""
        pos = 0
        while pos < len(heights):
            for peer in peers:
                take = heights[pos:pos + BLOCK_BATCH]
                if not take:
                    break
                pos += len(take)
                self._send(name, peer.name, "getdata",
                           4 + INV_ENTRY_SIZE * len(take))
                for h in take:
                    self._send(peer.name, name, "block",
                               self.builder.blocks.size(h))
            self._round(name)

    def _replay(self, utxo: UtxoSet, heights: range,
                store: appdata_mod.AppDataStore) -> None:
        """Validate and apply the downloaded blocks, each parsed once and
        then added to the app-data store; they must end at the
        headerchain's block at the last height."""
        start = heights[0]
        prev_id = self.builder.headers.block_id(start - 1) if start else bytes(32)
        tip_id = replay_blocks(utxo, self.builder.blocks, heights, prev_id,
                               self.builder.params, store.add_block)
        if tip_id != self.builder.headers.block_id(heights[-1]):
            raise SimError(f"block {heights[-1]} does not match headerchain")

    def _keep_join(self, name: str, utxo: UtxoSet,
                   store: appdata_mod.AppDataStore, heights: range,
                   held: tuple[Snapshot, Snapshot] | None = None) -> None:
        """Record a join's state, folded into its records, and its app
        data, both extended over the replay; the joiner keeps the
        replayed blocks and the applied snapshot. A join that ends in
        an earlier one's state takes a copy of its folded set, which
        shares its chunks and the index a first lookup builds, and one
        whose entries equal an earlier store's takes that store."""
        node = self.nodes[name]
        node.pruned_below, node.held = heights.start, held
        chunks = utxo.fold(snapshot_mod.chunk_records)
        utxo = self._kept_states.setdefault(chunks, utxo).copy()
        for kept in self.join_stores.values():
            if kept == store:
                store = kept
                break
        self.join_utxo[name], self.join_stores[name] = utxo, store

    # --- reporting --------------------------------------------------------

    def node_storage(self, name: str) -> tuple[int, int, int, int]:
        """(header, block, snapshot, appdata) bytes currently stored."""
        node = self.nodes[name]
        snap_bytes = app_bytes = 0
        if node.held is not None:
            snap_bytes, app_bytes = map(snapshot_mod.wire_size, node.held)
        blocks = self.builder.blocks
        return (len(self.builder.headers.records),
                sum(map(blocks.size, range(node.pruned_below, len(blocks)))),
                snap_bytes, app_bytes)

    def _report(self) -> RunReport:
        rows = []
        breakdown = []
        for cfg in sorted(self.scenario.nodes, key=lambda c: c.name):
            node = self.nodes[cfg.name]
            h, b, s, a = self.node_storage(cfg.name)
            rows.append((cfg.name, h + b + s + a, node.rx_bytes,
                         node.tx_bytes, node.sync_rounds))
            breakdown.append((cfg.name, h, b, s, a))
        pulse_rows = [(index, rec.height, *rec.status())
                      for index, rec in sorted(self.pulses.items())]
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
    """Flat key-value scenario format; see format_scenario for the shape.
    A key left out takes its dataclass default; a key given twice fails."""
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SimError(f"bad scenario line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in fields:
            raise SimError(f"repeated scenario key {key!r}")
        fields[key] = value.strip()
    unknown = fields.keys() - SCENARIO_KEYS
    if unknown:
        raise SimError(f"unknown scenario key(s): {', '.join(sorted(unknown))}")

    def get_bool(key: str) -> bool:
        value = fields[key].lower()
        if value in ("true", "yes", "1"):
            return True
        if value in ("false", "no", "0"):
            return False
        raise SimError(f"bad boolean for {key}: {fields[key]!r}")

    # app data is always kept; older scenario files say so explicitly
    if "appdata" in fields and not get_bool("appdata"):
        raise SimError("appdata = false is not supported")
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
            # checked here: the name counters below index by role
            if role not in ("miner", "full", "joining"):
                raise SimError(f"unknown role {role!r}")
            if variant not in ("coinprune", "legacy", "adversarial"):
                raise SimError(f"unknown variant {variant!r}")
            count = int(count_s)
            if count < 0:
                raise SimError(f"negative count in role spec {part!r}")
            for _ in range(count):
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

        given = {name: int(fields[key]) for key, name in (
            ("seed", "seed"), ("blocks", "chain_length"),
            ("neighbors", "neighbor_count")) if key in fields}
        if "params" in fields:
            pairs: dict[str, int] = {}
            for part in fields["params"].split():
                key, value = part.split("=")
                if key in pairs:
                    raise SimError(f"repeated params name {key!r}")
                pairs[key] = int(value)
            try:
                given["params"] = PulseParams(**pairs)
            except TypeError as exc:  # a name PulseParams does not take
                raise SimError(f"bad scenario params: {exc}") from None
        if "txs_per_block" in fields:
            given["profile"] = light_profile(
                txs_per_block=int(fields["txs_per_block"]))
        if "obfuscate" in fields:
            given["obfuscate"] = get_bool("obfuscate")
        if "faults" in fields:
            given["faults"] = tuple(fields["faults"].split())
        return SimScenario(nodes=tuple(nodes), **given)
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
    lines = [
        f"seed = {scenario.seed}",
        f"blocks = {scenario.chain_length}",
        f"nodes = {len(scenario.nodes)}",
        f"roles = {role_s}",
        f"params = delta_p={params.delta_p} delta_r={params.delta_r} "
        f"delta_d={params.delta_d} k={params.k}",
        f"faults = {' '.join(scenario.faults)}".rstrip(),
        f"obfuscate = {str(scenario.obfuscate).lower()}",
        "appdata = true",
        f"txs_per_block = {scenario.profile.txs_per_block}",
        f"neighbors = {scenario.neighbor_count}",
    ]
    return "\n".join(lines) + "\n"
