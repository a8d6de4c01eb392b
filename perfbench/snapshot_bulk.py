"""snapshot-bulk: two snapshot round trips over a 300k-entry UTXO set.

The set is synthetic: script classes in `DEFAULT_MIXTURE` proportions,
compressed with `scripts.compress`. Each pass builds, writes, reads,
verifies and applies it once plain and once obfuscated. No chaingen,
chain-validation or netsim code runs here.
"""

import hashlib
import random

from coinprune import chain, chaingen, scripts, snapshot

from harness import Checks, Stopwatch, digest, hash256
from tracer import Tracer

ENTRIES = 300_000
HEIGHT = 800_000
LEAK_SAMPLES = 32

UNITS = {
    "snapshot_build_records_per_s": "records/s",
    "snapshot_apply_records_per_s": "records/s",
}


def _compressed_key(rng: random.Random) -> bytes:
    return bytes([0x02 + rng.randint(0, 1)]) + rng.randbytes(32)


def _script(rng: random.Random, kind: str) -> bytes:
    if kind == "p2pkh":
        return scripts.p2pkh_script(rng.randbytes(20))
    if kind == "p2sh":
        return scripts.p2sh_script(rng.randbytes(20))
    if kind == "p2wpkh":
        return scripts.p2wpkh_script(rng.randbytes(20))
    if kind == "p2wsh":
        return scripts.p2wsh_script(rng.randbytes(32))
    if kind == "p2pk":
        if rng.random() < 0.5:
            return scripts.p2pk_script(_compressed_key(rng))
        return scripts.p2pk_script(scripts.uncompressed_pubkey(rng.randbytes(32)))
    if kind == "p2ms":
        keys = [_compressed_key(rng) for _ in range(rng.randint(1, 3))]
        return scripts.p2ms_script(1, keys)
    # first byte 0x6e dodges every template prefix
    return b"\x6e" + rng.randbytes(rng.randint(4, 39))


class Inputs:
    def __init__(self, seed: int, out_dir) -> None:
        rng = random.Random(seed)
        names = [name for name, _ in chaingen.DEFAULT_MIXTURE]
        weights = [weight for _, weight in chaingen.DEFAULT_MIXTURE]
        self.utxo = chain.UtxoSet()
        for kind in rng.choices(names, weights, k=ENTRIES):
            self.utxo.add(chain.UtxoEntry(
                rng.randbytes(32), rng.randrange(4), rng.randrange(1, 10**12),
                rng.randrange(1, HEIGHT), rng.random() < 0.02,
                scripts.compress(_script(rng, kind))))
        hashed = [e.compressed.payload for e in self.utxo.entries()
                  if e.compressed.case in (scripts.CASE_P2PKH, scripts.CASE_P2SH)]
        self.leak_samples = rng.sample(hashed, LEAK_SAMPLES)
        self.flip = (rng.random(), rng.random())  # which chunk, which byte
        self.block_id = hashlib.sha256(b"snapshot-bulk %d" % seed).digest()
        self.out_dir = out_dir



def execute(inputs: Inputs) -> dict:
    """The timed pass: a plain round trip, then an obfuscated one.

    Between the timed steps the pass keeps what the checks need: the
    built snapshots and a digest of each applied set's serialization.
    """
    clock = Stopwatch()
    work = {"clock": clock, "build_s": 0.0, "apply_s": 0.0}
    for label, obfuscate in (("plain", False), ("obfuscated", True)):
        path = inputs.out_dir / f"{label}.snap"
        with clock.timed():
            built = snapshot.build_snapshot(inputs.utxo, HEIGHT, inputs.block_id,
                                            obfuscate=obfuscate)
        work["build_s"] += clock.last
        manifest = [hash256(c) for c in built.chunks]
        with clock.timed():
            snapshot.write_snapshot_file(path, built)
            read = snapshot.read_snapshot_file(path)
            verdict = snapshot.verify_snapshot(read, built.id, manifest)
        with clock.timed():
            applied = snapshot.apply_snapshot(read)
        work["apply_s"] += clock.last
        del read
        work[label] = {"built": built, "manifest": manifest, "path": path,
                       "verdict": verdict,
                       "applied": digest(snapshot.serialize_utxo_set(applied))}
        del applied
    return work


def check(inputs: Inputs, work: dict, checks: Checks, memo: dict) -> dict:
    """Output checks; returns the artifact digests. `memo` lives for the
    whole run and keeps the source set's serialization digest."""
    if not memo:
        memo["oracle"] = digest(snapshot.serialize_utxo_set(inputs.utxo))
    plain, obf = work["plain"], work["obfuscated"]
    for label, side in (("plain", plain), ("obfuscated", obf)):
        checks.expect(side["verdict"].ok, f"{label} snapshot verifies after a read")
    checks.expect(plain["applied"] == memo["oracle"],
                  "plain round trip re-serializes to the source set")
    chunks = obf["built"].chunks
    checks.expect(obf["applied"] == _chunks_digest(chunks),
                  "obfuscated round trip re-serializes to its own chunks")
    checks.expect(not any(_found(h, chunks) for h in inputs.leak_samples),
                  "no sampled P2PKH/P2SH hash appears in obfuscated bytes")
    checks.expect(_flipped_chunk_named(inputs, plain),
                  "a flipped byte fails verification and names its chunk")
    return {"plain_snapshot_id": plain["built"].id.hex(),
            "obfuscated_snapshot_id": obf["built"].id.hex()}


def _chunks_digest(chunks) -> str:
    """`digest` of the chunks' concatenation, without building it."""
    inner = hashlib.sha256()
    for chunk in chunks:
        inner.update(chunk)
    return hashlib.sha256(inner.digest()).hexdigest()


def _found(needle: bytes, chunks) -> bool:
    """Whether `needle` occurs in the chunks' concatenation, across
    chunk boundaries too, without building it."""
    tail = b""
    for chunk in chunks:
        if needle in tail + chunk[:len(needle) - 1] or needle in chunk:
            return True
        tail = chunk[-(len(needle) - 1):]
    return False


def _flipped_chunk_named(inputs: Inputs, side: dict) -> bool:
    built = side["built"]
    data = bytearray(side["path"].read_bytes())
    which, where = inputs.flip
    index = int(which * len(built.chunks))
    offset = 40 + sum(4 + len(c) for c in built.chunks[:index]) + 4 \
        + int(where * len(built.chunks[index]))
    data[offset] ^= 0xFF
    flipped = inputs.out_dir / "flipped.snap"
    flipped.write_bytes(data)
    verdict = snapshot.verify_snapshot(snapshot.read_snapshot_file(flipped),
                                       built.id, side["manifest"])
    return not verdict.ok and verdict.bad_chunk == index


def pass_metrics(work: dict, tracer: Tracer) -> dict[str, float]:
    return {
        "wall_s": work["clock"].total,
        "snapshot_build_records_per_s": 2 * ENTRIES / work["build_s"],
        "snapshot_apply_records_per_s": 2 * ENTRIES / work["apply_s"],
    }


def predicted_counts(inputs: Inputs) -> dict[str, int]:
    return {
        "snapshot.build_snapshot": 2,
        "snapshot.write_snapshot_file": 2,
        "snapshot.read_snapshot_file": 2,
        "snapshot.verify_snapshot": 2,
        "snapshot.apply_snapshot": 2,
        # the obfuscated build passes every entry through obfuscate
        "scripts.obfuscate": ENTRIES,
        "chain.validate_and_apply_block": 0,
        "chaingen.next_block": 0,
    }


def layer_metrics(inputs: Inputs, work: dict, tracer: Tracer, checks: Checks,
                  untraced: dict) -> dict[str, float]:
    """Every snapshot-bulk layer metric comes from the spans alone."""
    return {}
