"""End-to-end network simulation checks.

Each scenario runs a deterministic mining phase, closes reaffirmation
windows on-chain, then bootstraps joining nodes. The central claims:
snapshot bootstrap reaches the exact same UTXO state as replaying from
genesis, fault injection never tricks a joiner into an unreaffirmed
snapshot, and legacy nodes stay untouched by the protocol overlay.
"""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinprune import netsim, scripts
from coinprune import snapshot as snapshot_mod
from coinprune.chain import (BlockHeader, ChainParams, TxOutput, coinbase_tx,
                             make_block)
from coinprune.coordination import PulseParams
from coinprune.hashing import hash256
from coinprune.appdata import combined_tag
from coinprune.netsim import (MAX_BOOTSTRAP_ATTEMPTS, NodeConfig, SimError,
                              SimScenario, Simulation, format_scenario,
                              parse_scenario, run_simulation)
from coinprune.snapshot import serialize_utxo_set, wire_size

PARAMS = PulseParams(delta_p=200, delta_r=50, delta_d=6, k=5)


def _scenario(**overrides) -> SimScenario:
    nodes = overrides.pop("nodes", (
        NodeConfig("m0", "miner"),
        NodeConfig("m1", "miner"),
        NodeConfig("m2", "miner"),
        NodeConfig("full0", "full"),
        NodeConfig("legacy0", "full", coinprune=False),
        NodeConfig("jcp", "joining"),
        NodeConfig("jleg", "joining", coinprune=False),
    ))
    base = dict(nodes=nodes, params=PARAMS, chain_length=460, seed=0)
    base.update(overrides)
    return SimScenario(**base)


@pytest.fixture(scope="module")
def honest_run():
    return run_simulation(_scenario())


def test_all_honest_bootstrap_equivalence(honest_run):
    sim, report = honest_run
    canonical = serialize_utxo_set(sim.builder.utxo)
    for name in ("jcp", "jleg"):
        outcome = sim.join_results[name]
        assert outcome.accepted, outcome.reason
        assert serialize_utxo_set(sim.join_utxo[name]) == canonical
    assert sim.join_results["jcp"].via_snapshot
    assert sim.join_results["jcp"].pulse_index == 2
    assert not sim.join_results["jleg"].via_snapshot
    assert all(status == "accepted" for _, status, *_ in report.join_outcomes)


def test_accepted_tag_is_combined_tag(honest_run):
    sim, _ = honest_run
    outcome = sim.join_results["jcp"]
    assert outcome.accepted_tag == combined_tag(outcome.snapshot_id,
                                                outcome.appdata_id)
    rec = sim.pulses[outcome.pulse_index]
    assert outcome.accepted_tag == rec.genuine_tag == rec.outcome.tag


def test_legacy_nodes_never_see_state_messages(honest_run):
    sim, _ = honest_run
    gated = ("getstate", "inv", "stateheader", "statechunk")
    for line in sim.trace.lines:
        if not line.startswith("msg "):
            continue
        route, label = line.split()[1:3]
        src, dst = route.split(">")
        if label in gated:
            assert not src.startswith("jleg") and not dst.startswith("jleg")
            assert dst != "legacy0" and src != "legacy0"


def test_storage_accounting(honest_run):
    sim, report = honest_run
    rows = {r[0]: r for r in report.rows}
    parts = {b[0]: b for b in report.breakdown}
    for name, stored, _, _, _ in report.rows:
        assert stored == sum(parts[name][1:])
    # both accepted pulses pruned honest coinprune nodes below 401
    assert sim.nodes["m0"].pruned_below == 401
    assert sim.nodes["legacy0"].pruned_below == 0
    assert parts["full0"][2] < parts["legacy0"][2]
    assert parts["full0"][3] > 0 and parts["full0"][4] > 0
    assert parts["legacy0"][3] == 0 and parts["legacy0"][4] == 0
    assert rows["full0"][1] < rows["legacy0"][1]


def test_snapshot_join_cheaper_than_full_sync(honest_run):
    sim, _ = honest_run
    assert sim.nodes["jcp"].rx_bytes < sim.nodes["jleg"].rx_bytes


def test_joiner_appdata_matches_canonical(honest_run):
    sim, _ = honest_run
    store = sim.join_stores["jcp"]
    canonical = sim.appstore.entries()
    assert len(store) == len(canonical) > 0
    for entry in canonical[:50]:
        assert entry in store.lookup(entry.txid)


def test_rerun_is_byte_identical(honest_run):
    sim, report = honest_run
    sim2, report2 = run_simulation(_scenario())
    assert sim2.trace.to_text() == sim.trace.to_text()
    assert report2.to_csv() == report.to_csv()
    assert report2.breakdown_csv() == report.breakdown_csv()
    assert report2.pulse_outcomes == report.pulse_outcomes


def test_minority_bogus_tags_accept_genuine():
    nodes = (
        NodeConfig("m0", "miner"),
        NodeConfig("m1", "miner"),
        NodeConfig("m2", "miner"),
        NodeConfig("adv0", "miner", adversarial=True),
        NodeConfig("full0", "full"),
        NodeConfig("jcp", "joining"),
    )
    sim, report = run_simulation(_scenario(nodes=nodes, faults=("bogus_tags",),
                                           seed=11))
    for index, rec in sim.pulses.items():
        if rec.outcome is not None and rec.outcome.accepted:
            assert rec.outcome.tag == rec.genuine_tag
    outcome = sim.join_results["jcp"]
    assert outcome.accepted
    assert outcome.accepted_tag == sim.pulses[outcome.pulse_index].genuine_tag


def test_majority_bogus_tags_reaffirm_forged_state():
    # adversaries control the tally, so the forged snapshot IS the
    # reaffirmed one; the joiner accepts it consistently while honest
    # nodes refuse to prune against a tag that is not theirs
    nodes = (
        NodeConfig("adv0", "miner", adversarial=True),
        NodeConfig("adv1", "miner", adversarial=True),
        NodeConfig("adv2", "miner", adversarial=True),
        NodeConfig("m0", "miner"),
        NodeConfig("full0", "full"),
        NodeConfig("jcp", "joining"),
    )
    sim, report = run_simulation(_scenario(nodes=nodes,
                                           faults=("bogus_tags",), seed=5))
    accepted = [rec for rec in sim.pulses.values()
                if rec.outcome is not None and rec.outcome.accepted]
    assert accepted and all(r.outcome.tag == r.bogus_tag for r in accepted)
    for name in ("m0", "full0", "adv0"):
        assert sim.nodes[name].pruned_below == 0
    outcome = sim.join_results["jcp"]
    assert outcome.accepted
    rec = sim.pulses[outcome.pulse_index]
    assert outcome.accepted_tag == rec.bogus_tag
    assert outcome.snapshot_id == rec.bogus_snap.id
    forged_txid = hash256(b"forged-riches" + struct.pack("<I", rec.height))
    assert (forged_txid, 0) in sim.join_utxo["jcp"]
    # the storage report sizes the snapshot the joiner holds
    row = next(r for r in report.breakdown if r[0] == "jcp")
    assert row[3] == wire_size(rec.bogus_snap) != wire_size(rec.genuine_snap)


def test_eclipsed_joiner_aborts_then_recovers():
    nodes = (
        NodeConfig("m0", "miner"),
        NodeConfig("m1", "miner"),
        NodeConfig("full0", "full"),
        NodeConfig("full1", "full"),
        NodeConfig("adv0", "full", adversarial=True),
        NodeConfig("jcp", "joining"),
    )
    sim, _ = run_simulation(_scenario(nodes=nodes,
                                      faults=("eclipse", "bogus_snapshot"),
                                      seed=2))
    outcome = sim.join_results["jcp"]
    assert outcome.accepted and outcome.attempts == 2
    assert outcome.accepted_tag == sim.pulses[outcome.pulse_index].genuine_tag
    assert any("aborted: snapshot was not the reaffirmed tag" in line
               for line in sim.trace.lines)


def test_bogus_chunks_are_detected_and_rerequested():
    nodes = (
        NodeConfig("m0", "miner"),
        NodeConfig("m1", "miner"),
        NodeConfig("full0", "full"),
        NodeConfig("adv0", "full", adversarial=True),
        NodeConfig("jcp", "joining"),
    )
    sim, _ = run_simulation(_scenario(nodes=nodes,
                                      faults=("eclipse", "bogus_chunks"),
                                      seed=3))
    outcome = sim.join_results["jcp"]
    assert outcome.accepted
    assert outcome.attempts >= 2  # eclipsed first attempt burns its retries
    assert any("mismatch from adv0" in line for line in sim.trace.lines)
    assert any("aborted: chunk retry budget exhausted" in line
               for line in sim.trace.lines)
    assert outcome.accepted_tag == sim.pulses[outcome.pulse_index].genuine_tag
    assert serialize_utxo_set(sim.join_utxo["jcp"]) \
        == serialize_utxo_set(sim.builder.utxo)


def test_no_supporting_miners_means_no_pruning():
    nodes = (
        NodeConfig("m0", "miner", coinprune=False),
        NodeConfig("m1", "miner", coinprune=False),
        NodeConfig("full0", "full"),
        NodeConfig("legacy0", "full", coinprune=False),
        NodeConfig("jcp", "joining"),
        NodeConfig("jleg", "joining", coinprune=False),
    )
    sim, report = run_simulation(_scenario(nodes=nodes, chain_length=300))
    assert all(status in ("skipped", "open")
               for _, _, status, _, _ in report.pulse_outcomes)
    assert any(status == "skipped"
               for _, _, status, _, _ in report.pulse_outcomes)
    for name in ("m0", "m1", "full0", "legacy0"):
        assert sim.nodes[name].pruned_below == 0
    canonical = serialize_utxo_set(sim.builder.utxo)
    for name in ("jcp", "jleg"):
        outcome = sim.join_results[name]
        assert outcome.accepted and not outcome.via_snapshot
        assert serialize_utxo_set(sim.join_utxo[name]) == canonical


def test_legacy_joiner_needs_an_unpruned_peer():
    nodes = (
        NodeConfig("m0", "miner"),
        NodeConfig("m1", "miner"),
        NodeConfig("full0", "full"),
        NodeConfig("jleg", "joining", coinprune=False),
    )
    scenario = _scenario(nodes=nodes)
    sim, report = run_simulation(scenario)
    outcome = sim.join_results["jleg"]
    assert not outcome.accepted
    assert outcome.reason == "no neighbor serves historic blocks"
    assert outcome.attempts == MAX_BOOTSTRAP_ATTEMPTS
    assert ("jleg", "aborted", outcome.reason, outcome.attempts,
            sim.nodes["jleg"].rx_bytes) in report.join_outcomes


@pytest.mark.parametrize("joiner", ["jcp", "jleg"])
def test_programming_error_in_join_replay_propagates(monkeypatch, joiner):
    # a TypeError inside block validation is a bug, never a safe abort
    nodes = [cfg for cfg in _scenario().nodes
             if cfg.role != "joining" or cfg.name == joiner]
    joining = []
    real_bootstrap = Simulation.bootstrap
    real_validate_spend = scripts.validate_spend

    def bootstrap(self, cfg):
        joining.append(cfg.name)
        return real_bootstrap(self, cfg)

    def validate_spend(*args):
        if joining:
            raise TypeError("programming error")
        return real_validate_spend(*args)

    monkeypatch.setattr(Simulation, "bootstrap", bootstrap)
    monkeypatch.setattr(scripts, "validate_spend", validate_spend)
    with pytest.raises(TypeError, match="programming error"):
        run_simulation(_scenario(nodes=tuple(nodes)))


@pytest.mark.parametrize("joiner", ["jcp", "jleg"])
def test_join_rejects_a_foreign_tip_block(joiner):
    # swap the tip for a valid block that the recorded headerchain does not name
    sim, _ = run_simulation(_scenario())
    params = ChainParams()
    blocks = sim.builder.blocks
    tip = len(blocks) - 1
    coinbase = coinbase_tx(tip, [TxOutput(params.subsidy,
                                          scripts.p2pkh_script(b"\x00" * 20))],
                           b"foreign")
    blocks[tip] = make_block(blocks[tip - 1].block_id(), [coinbase],
                             blocks[tip].header.timestamp, params.bits)
    cfg = next(c for c in sim.joiners if c.name == joiner)
    outcome = sim.bootstrap(cfg)
    assert not outcome.accepted
    assert outcome.reason.endswith(f"block {tip} does not match headerchain")


def test_join_hashes_each_received_chunk_once(monkeypatch):
    # a joiner checks each chunk it receives against its advertised
    # digest, once; answering GETSTATE reads the digests a snapshot keeps
    nodes = (NodeConfig("m0", "miner"), NodeConfig("m1", "miner"),
             NodeConfig("full0", "full"), NodeConfig("jcp", "joining"))
    phase: list[str] = []
    hashed: dict[str, list[bytes]] = {"join": [], "advert": []}
    served: list[bytes] = []
    real_hash256 = netsim.hash256
    real_bootstrap = Simulation.bootstrap
    real_advert = Simulation._advert
    real_serve_chunk = Simulation._serve_chunk

    def counting_hash256(data):
        if phase:
            hashed[phase[-1]].append(bytes(data))
        return real_hash256(data)

    def in_phase(name, fn):
        def wrapper(*args):
            phase.append(name)
            try:
                return fn(*args)
            finally:
                phase.pop()
        return wrapper

    def serve_chunk(*args):
        data = real_serve_chunk(*args)
        served.append(data)
        return data

    monkeypatch.setattr(netsim, "hash256", counting_hash256)
    monkeypatch.setattr(snapshot_mod, "hash256", counting_hash256)
    monkeypatch.setattr(Simulation, "bootstrap", in_phase("join", real_bootstrap))
    monkeypatch.setattr(Simulation, "_advert", in_phase("advert", real_advert))
    monkeypatch.setattr(Simulation, "_serve_chunk", serve_chunk)
    sim, _ = run_simulation(_scenario(nodes=nodes, chain_length=260))
    outcome = sim.join_results["jcp"]
    assert outcome.accepted and outcome.via_snapshot
    rec = sim.pulses[outcome.pulse_index]
    chunks = rec.genuine_snap.chunks + rec.genuine_app.chunks
    assert chunks and hashed["advert"]
    for chunk in chunks:
        assert served.count(chunk) >= 1
        assert hashed["join"].count(chunk) == served.count(chunk)
    assert not set(hashed["advert"]) & set(chunks)


def test_mining_hashes_each_header_once_per_use(monkeypatch):
    # validation computes each block id, and the builder hands it on to
    # the next block's prev hash, pulse records and the joiner's checks;
    # only the app-data extraction hashes the header again
    calls = []
    real_block_id = BlockHeader.block_id

    def block_id(self):
        calls.append(self)
        return real_block_id(self)

    monkeypatch.setattr(BlockHeader, "block_id", block_id)
    nodes = (NodeConfig("m0", "miner"), NodeConfig("full0", "full"))
    run_simulation(_scenario(nodes=nodes, chain_length=100,
                             params=PulseParams(delta_p=20, delta_r=5,
                                                delta_d=1, k=2)))
    assert len(calls) == 2 * 101


def test_obfuscated_snapshot_bootstrap_equivalence():
    sim, _ = run_simulation(_scenario(obfuscate=True, seed=4))
    outcome = sim.join_results["jcp"]
    assert outcome.accepted and outcome.via_snapshot
    # joiner holds commitment forms for pre-snapshot outputs, so compare
    # under obfuscating serialization, which is deterministic and
    # idempotent on both representations
    assert serialize_utxo_set(sim.join_utxo["jcp"], obfuscate=True) \
        == serialize_utxo_set(sim.builder.utxo, obfuscate=True)


def test_scenario_file_roundtrip():
    text = """
# comment line
seed = 7
blocks = 450
roles = miner:2:coinprune full:1:legacy full:1:adversarial joining:1:coinprune
params = delta_p=200 delta_r=50 delta_d=6 k=5
faults = bogus_tags
obfuscate = false
appdata = true
prune = true
txs_per_block = 8
neighbors = 6
"""
    scenario = parse_scenario(text)
    assert scenario.seed == 7
    assert scenario.params == PARAMS
    assert scenario.faults == ("bogus_tags",)
    assert scenario.neighbor_count == 6
    names = sorted(n.name for n in scenario.nodes)
    assert names == ["adv0", "full0", "join0", "miner0", "miner1"]
    # formatting groups roles, so one pass normalizes node order; after
    # that the textual form is a fixed point
    normalized = parse_scenario(format_scenario(scenario))
    assert sorted(normalized.nodes, key=lambda n: n.name) \
        == sorted(scenario.nodes, key=lambda n: n.name)
    assert parse_scenario(format_scenario(normalized)) == normalized
    assert format_scenario(normalized) == format_scenario(scenario)


def test_scenario_validation():
    with pytest.raises(SimError):
        parse_scenario("roles = miner:1:coinprune\nnot a key value pair\n")
    with pytest.raises(SimError):
        parse_scenario("blocks = 100\n")  # roles line is mandatory
    with pytest.raises(SimError):
        NodeConfig("x", "archivist")
    with pytest.raises(SimError):
        NodeConfig("x", "full", coinprune=False, adversarial=True)
    with pytest.raises(SimError):
        _scenario(nodes=(NodeConfig("a", "miner"), NodeConfig("a", "full")))
    with pytest.raises(SimError):
        _scenario(nodes=(NodeConfig("a", "full"),))
    with pytest.raises(SimError):
        _scenario(faults=("gremlins",))


# scenario text built from the format's own words, so that generated
# files reach the conversions; every number stays below 1000, which
# keeps the node count small
_WORD = st.one_of(
    st.sampled_from(["miner", "full", "joining", "coinprune", "legacy",
                     "adversarial", "delta_p", "delta_r", "delta_d", "k",
                     "eclipse", "true", "no", ""]),
    st.integers(-3, 999).map(str),
    st.text(max_size=3))
_ROLE = st.tuples(st.sampled_from(["miner", "full", "joining", "archivist"]),
                  st.one_of(st.integers(-1, 3).map(str), _WORD),
                  st.sampled_from(["coinprune", "legacy", "adversarial", "x"])
                  ).map(":".join)
_PAIR = st.lists(_WORD, min_size=1, max_size=3).map("=".join)
_LINE = st.tuples(
    st.sampled_from(["seed", "blocks", "nodes", "roles", "params", "faults",
                     "obfuscate", "appdata", "prune", "txs_per_block",
                     "neighbors", "other"]),
    st.lists(st.one_of(_ROLE, _PAIR, _WORD), max_size=3).map(" ".join)
).map(" = ".join)
_SCENARIO = st.tuples(
    st.lists(_ROLE, min_size=1, max_size=3).map(" ".join),
    st.lists(_LINE, max_size=8)
).map(lambda parts: "\n".join([f"roles = {parts[0]}", *parts[1]]))


@given(st.one_of(st.text(), _SCENARIO))
def test_parse_scenario_fails_closed(text):
    try:
        parse_scenario(text)
    except SimError:
        pass
