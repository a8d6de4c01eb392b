"""security-grid: two `coinprune sim security` commands, in-process.

The binomial command sweeps the full 101x101 grid at delta_r=1000 for
k = 5, 10, 20 (30,603 cells, numpy fast path). The blockwise command
runs 60,500 window trials through `tally_window` (pure-Python oracle
path). No chain code runs here.
"""

import csv

from harness import Checks, Stopwatch, cli, digest
from tracer import Tracer

CELLS = 101 * 101 * 3
BLOCKWISE_CELLS = 11 * 11
BLOCKWISE_TRIALS = BLOCKWISE_CELLS * 500
THRESHOLD_RANGE = (0.45, 0.51)

UNITS = {
    "sweep_cells_per_s": "cells/s",
    "blockwise_trials_per_s": "trials/s",
}


class Inputs:
    def __init__(self, seed: int, out_dir) -> None:
        self.out_dir = out_dir
        common = ["--seed", str(seed), "--out-dir", str(out_dir)]
        self.binomial = ["sim", "security", "--delta-r", "1000",
                         "--k", "5", "10", "20", "--trials", "1000",
                         "--jobs", "1", "--prefix", "binomial"] + common
        self.blockwise = ["sim", "security", "--mode", "blockwise",
                          "--step", "10", "--delta-r", "100", "--k", "5",
                          "--trials", "500", "--prefix", "blockwise"] + common



def execute(inputs: Inputs) -> dict:
    clock = Stopwatch()
    with clock.timed():
        binomial_code, _ = cli(inputs.binomial)
    sweep_s = clock.last
    with clock.timed():
        blockwise_code, _ = cli(inputs.blockwise)
    return {"clock": clock, "sweep_s": sweep_s, "blockwise_s": clock.last,
            "codes": (binomial_code, blockwise_code)}


def _rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(inputs: Inputs, work: dict, checks: Checks, memo: dict) -> dict:
    out = inputs.out_dir
    checks.expect(work["codes"] == (0, 0), "both security commands exit 0")
    at_full = {int(r["k"]): r["min_fA_compromise"]
               for r in _rows(out / "binomial_thresholds.csv")
               if float(r["f_C"]) == 1.0}
    for k in (5, 10, 20):
        value = at_full.get(k) or "nan"
        checks.expect(THRESHOLD_RANGE[0] <= float(value) <= THRESHOLD_RANGE[1],
                      f"k={k}: least compromising f_A at full support is "
                      f"{value}, outside {THRESHOLD_RANGE}")
    rows = _rows(out / "blockwise_sweep.csv")
    checks.expect(
        len(rows) == BLOCKWISE_CELLS and all(
            abs(float(r["p_correct"]) + float(r["p_adversary"])
                + float(r["p_skipped"]) - 1.0) < 1e-9 for r in rows),
        "blockwise sweep has every cell, each a probability distribution")
    return {"sweep_csv": digest((out / "binomial_sweep.csv").read_bytes()),
            "blockwise_csv": digest((out / "blockwise_sweep.csv").read_bytes())}


def pass_metrics(work: dict, tracer: Tracer) -> dict[str, float]:
    return {
        "wall_s": work["clock"].total,
        "sweep_cells_per_s": CELLS / work["sweep_s"],
        "blockwise_trials_per_s": BLOCKWISE_TRIALS / work["blockwise_s"],
    }


def predicted_counts(inputs: Inputs) -> dict[str, int]:
    return {
        "cli.main": 2,
        "security.sweep": 2,
        "security.evaluate_cell": CELLS + BLOCKWISE_CELLS,
        "security.run_trial_blockwise": BLOCKWISE_TRIALS,
        "coordination.tally_window": BLOCKWISE_TRIALS,
        "chain.validate_and_apply_block": 0,
    }


def layer_metrics(inputs: Inputs, work: dict, tracer: Tracer, checks: Checks,
                  untraced: dict) -> dict[str, float]:
    """The CLI self time, then the binomial command again at --jobs 2,
    untraced: worker spans are lost, so only its rate and the CSV
    identity come from that command."""
    clock = Stopwatch()
    argv = list(inputs.binomial)
    argv[argv.index("--jobs") + 1] = "2"
    argv[argv.index("--prefix") + 1] = "jobs2"
    with clock.timed():
        code, _ = cli(argv)
    out = inputs.out_dir
    checks.expect(code == 0 and (out / "jobs2_sweep.csv").read_bytes()
                  == (out / "binomial_sweep.csv").read_bytes(),
                  "--jobs 1 and --jobs 2 write byte-identical sweep CSVs")
    rate = CELLS / clock.last
    return {"cli.security_self_s": tracer.self_s("cli.main"),
            "security.jobs2_cells_per_s": rate,
            "security.parallel_efficiency":
                rate / (2 * untraced["sweep_cells_per_s"])}
