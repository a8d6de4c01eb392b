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

from .appdata import AppDataEntry, AppDataStore, combined_tag
from .chain import (Block, BlockHeader, ChainError, ChainParams, HeaderIndex,
                    Transaction, TxInput, TxOutput, UtxoEntry, UtxoSet,
                    genesis_block, validate_and_apply_block)
from .chaingen import WorkloadProfile, generate_chain, light_profile
from .coordination import (PulseOutcome, PulseParams, encode_coinbase_tag,
                           parse_coinbase_tag, pulse_height, tally_window,
                           window_range)
from .hashing import hash160, hash256, sha256
from .netsim import (JoinOutcome, NodeConfig, RunReport, SimScenario,
                     parse_scenario, run_simulation)
from .scripts import (CompressedTxOut, ScriptClass, classify, compress,
                      decompress, obfuscate)
from .security import (SweepConfig, SweepResult, TrialOutcome,
                       run_trial_blockwise, sweep)
from .snapshot import (Snapshot, SnapshotHeader, apply_snapshot,
                       build_snapshot, verify_snapshot)

__version__ = "0.1.0"
