"""Snapshot-based block pruning over a simplified Bitcoin-like chain.

The protocol pieces: UTXO snapshots with a chunked, layered id
(`snapshot`), miner reaffirmation pulses carried in coinbase tags
(`coordination`), script compression and obfuscation (`scripts`),
OP_RETURN payload preservation (`appdata`), and a deterministic
network simulator that bootstraps new nodes from reaffirmed snapshots
(`netsim`). `security` quantifies how much coordinated adversarial
mining power a reaffirmation window tolerates, and `chaingen` produces
the seeded synthetic workloads everything is exercised against.
"""

__version__ = "0.1.0"
