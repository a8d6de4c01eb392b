"""Monte Carlo sweep over miner support and adversarial fraction.

The question the sweep answers: if a fraction f_C of the n miners
understand reaffirmation pulses, and a fraction f_A of *those* miners
coordinate on a single bogus tag, how often does the bogus tag win a
window, and how often does the window decide nothing at all?

Every window trial ends in exactly one of three ways: the honest tag is
accepted, the bogus tag is accepted, or the pulse is skipped (tie or
nobody reached the threshold k). A cell's trials run in one of two modes:

  blockwise  run_trial_blockwise draws a miner for each of the delta_r
             window blocks and runs the real window tally; this is the
             fidelity oracle.
  binomial   evaluate_cell collapses each window into two binomial
             draws, m ~ Bin(delta_r, n_support/n) reaffirmations of
             which a ~ Bin(m, n_adv/n_support) carry the bogus tag, and
             draws all of a cell's trials as one vector; statistically
             identical and much faster, used for full grids.

Cells of the (f_C, f_A, delta_r, k) grid are independent. Each cell
gets its own RNG stream spawned from (seed, cell coordinates), so the
sweep can be evaluated with any number of workers and still produce
byte-identical CSVs. numpy and the process pool load only when a sweep
runs, so every CLI command can import this module without paying for them.
"""

import csv
import enum
import io
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .coordination import CoordinationError, PulseParams, tally_window
from .hashing import hash256

if TYPE_CHECKING:
    import numpy as np

# Fixed 32-byte tags for the blockwise oracle. Their values never
# matter, only that honest and adversarial miners each coordinate on
# one tag and the two differ.
HONEST_TAG = hash256(b"honest reaffirmation")
BOGUS_TAG = hash256(b"coordinated bogus reaffirmation")

# a cell compromises pulses once the bogus tag wins at least this share
# of its trials; the threshold curves report the least such f_A
COMPROMISE_RATE = 0.05


class TrialOutcome(enum.Enum):
    CORRECT_ACCEPTED = "correct"
    ADVERSARY_ACCEPTED = "adversary"
    SKIPPED_PULSE = "skipped"


def percent_grid(step: int = 1) -> tuple[float, ...]:
    """0.00 .. 1.00 inclusive, in steps of `step` percent."""
    if step < 1 or 100 % step != 0:
        raise ValueError("step must be a positive divisor of 100")
    return tuple(i / 100 for i in range(0, 101, step))


def support_count(f_c: float, n_miners: int) -> int:
    # floor, nudged past binary representation error: 0.31 * 1000 is
    # 309.99999999999994 in floats but must count as 310 miners.
    return int(f_c * n_miners + 1e-9)


def adversary_count(f_c: float, f_a: float, n_miners: int) -> int:
    return min(int(f_a * f_c * n_miners + 1e-9), support_count(f_c, n_miners))


def run_trial_blockwise(f_c: float, f_a: float, delta_r: int, k: int,
                        rng: "np.random.Generator",
                        n_miners: int = 1000) -> TrialOutcome:
    """One window trial, block by block, through the real tally.

    Each of the delta_r blocks is mined by a uniformly drawn miner:
    a supporter with probability n_support/n, and a supporter is part
    of the coordinated adversary with probability n_adv/n_support.
    """
    n_support = support_count(f_c, n_miners)
    n_adv = adversary_count(f_c, f_a, n_miners)
    supporter = rng.random(delta_r) < n_support / n_miners
    bogus = rng.random(delta_r) < (n_adv / n_support if n_support else 0.0)
    tags: list[bytes | None] = [
        (BOGUS_TAG if bogus[i] else HONEST_TAG) if supporter[i] else None
        for i in range(delta_r)
    ]
    params = PulseParams(delta_p=delta_r, delta_r=delta_r, k=k)
    outcome = tally_window(tags, params)
    if not outcome.accepted:
        return TrialOutcome.SKIPPED_PULSE
    if outcome.tag == BOGUS_TAG:
        return TrialOutcome.ADVERSARY_ACCEPTED
    return TrialOutcome.CORRECT_ACCEPTED


@dataclass(frozen=True)
class SweepConfig:
    """Grid and trial budget for one sweep."""
    n_miners: int = 1000
    f_c_values: tuple[float, ...] = percent_grid()
    f_a_values: tuple[float, ...] = percent_grid()
    delta_r_values: tuple[int, ...] = (100, 1000)
    k_values: tuple[int, ...] = (5, 10, 20)
    trials: int = 1000
    seed: int = 0
    mode: str = "binomial"

    def __post_init__(self) -> None:
        if self.n_miners < 1 or self.trials < 1:
            raise ValueError("n_miners and trials must be positive")
        if self.mode not in ("binomial", "blockwise"):
            raise ValueError(f"unknown trial mode {self.mode!r}")
        for grid in (self.f_c_values, self.f_a_values):
            if not grid or any(not 0.0 <= f <= 1.0 for f in grid):
                raise ValueError("fraction grids must be nonempty within [0, 1]")
        if not self.delta_r_values or not self.k_values:
            raise ValueError("delta_r and k grids must be nonempty")
        for delta_r in self.delta_r_values:
            for k in self.k_values:
                try:
                    PulseParams(delta_p=delta_r, delta_r=delta_r, k=k)
                except CoordinationError as exc:
                    raise ValueError(f"delta_r={delta_r}, k={k}: {exc}") from None


class CellResult(NamedTuple):
    """One sweep row: outcome frequencies for a single grid cell."""
    f_c: float
    f_a: float
    delta_r: int
    k: int
    p_correct: float
    p_adversary: float
    p_skipped: float


def _cell_rng(config: SweepConfig, delta_r: int, k: int,
              i_fc: int, i_fa: int) -> "np.random.Generator":
    import numpy as np
    # spawn_key ties the stream to the cell itself, not to evaluation
    # order, so any worker partition reproduces the same draws
    seq = np.random.SeedSequence(config.seed, spawn_key=(delta_r, k, i_fc, i_fa))
    return np.random.default_rng(seq)


def evaluate_cell(config: SweepConfig, delta_r: int, k: int,
                  i_fc: int, i_fa: int) -> CellResult:
    f_c = config.f_c_values[i_fc]
    f_a = config.f_a_values[i_fa]
    rng = _cell_rng(config, delta_r, k, i_fc, i_fa)
    trials = config.trials
    if config.mode == "blockwise":
        n_adv = n_cor = 0
        for _ in range(trials):
            outcome = run_trial_blockwise(f_c, f_a, delta_r, k, rng,
                                          config.n_miners)
            if outcome is TrialOutcome.ADVERSARY_ACCEPTED:
                n_adv += 1
            elif outcome is TrialOutcome.CORRECT_ACCEPTED:
                n_cor += 1
    else:
        n_support = support_count(f_c, config.n_miners)
        n_bogus = adversary_count(f_c, f_a, config.n_miners)
        m = rng.binomial(delta_r, n_support / config.n_miners, size=trials)
        if n_support:
            a = rng.binomial(m, n_bogus / n_support)
        else:
            import numpy as np
            a = np.zeros(trials, dtype=np.int64)
        h = m - a
        n_adv = int(((a > h) & (a >= k)).sum())
        n_cor = int(((h > a) & (h >= k)).sum())
    n_skip = trials - n_adv - n_cor
    return CellResult(f_c, f_a, delta_r, k,
                      n_cor / trials, n_adv / trials, n_skip / trials)


def _cell_batch(config: SweepConfig,
                cells: list[tuple[int, int, int, int]]) -> list[CellResult]:
    return [evaluate_cell(config, *cell) for cell in cells]


def _cell_order(config: SweepConfig) -> list[tuple[int, int, int, int]]:
    return [(dr, k, i_fc, i_fa)
            for dr in config.delta_r_values
            for k in config.k_values
            for i_fc in range(len(config.f_c_values))
            for i_fa in range(len(config.f_a_values))]


@dataclass
class SweepResult:
    """All cell rows of a sweep plus the derived threshold curves."""
    config: SweepConfig
    rows: tuple[CellResult, ...]

    def __post_init__(self) -> None:
        curves: dict[tuple[int, int, float], list[CellResult]] = {}
        for row in self.rows:
            curves.setdefault((row.delta_r, row.k, row.f_c), []).append(row)
        self._curves = curves

    def _curve(self, f_c: float, delta_r: int, k: int) -> list[CellResult]:
        try:
            return self._curves[(delta_r, k, f_c)]
        except KeyError:
            raise KeyError(f"no sweep rows for f_C={f_c}, "
                           f"delta_r={delta_r}, k={k}") from None

    def curves(self) -> dict[tuple[int, int], list[float]]:
        """The f_C values swept for each (delta_r, k), both ascending."""
        curves: dict[tuple[int, int], list[float]] = {}
        for delta_r, k, f_c in sorted(self._curves):
            curves.setdefault((delta_r, k), []).append(f_c)
        return curves

    def min_fa_compromise(self, f_c: float, delta_r: int, k: int) -> float | None:
        """Least f_A with p_adversary >= COMPROMISE_RATE, if any."""
        return min((row.f_a for row in self._curve(f_c, delta_r, k)
                    if row.p_adversary >= COMPROMISE_RATE), default=None)

    def worst_skip(self, f_c: float, delta_r: int, k: int) -> float:
        """Worst skip probability over all f_A at this support level."""
        return max(row.p_skipped for row in self._curve(f_c, delta_r, k))

    def to_csv(self) -> str:
        lines = ["f_C,f_A,delta_r,k,p_correct,p_adversary,p_skipped"]
        for r in self.rows:
            lines.append(f"{r.f_c},{r.f_a},{r.delta_r},{r.k},"
                         f"{r.p_correct},{r.p_adversary},{r.p_skipped}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        """Rows as to_csv writes them, under the grid they cover."""
        rows = tuple(
            CellResult(float(r["f_C"]), float(r["f_A"]), int(r["delta_r"]),
                       int(r["k"]), float(r["p_correct"]),
                       float(r["p_adversary"]), float(r["p_skipped"]))
            for r in csv.DictReader(io.StringIO(text)))
        config = SweepConfig(
            f_c_values=tuple(sorted({r.f_c for r in rows})),
            f_a_values=tuple(sorted({r.f_a for r in rows})),
            delta_r_values=tuple(sorted({r.delta_r for r in rows})),
            k_values=tuple(sorted({r.k for r in rows})))
        return cls(config, rows)

    def thresholds_csv(self) -> str:
        lines = ["f_C,delta_r,k,min_fA_compromise,worst_skip"]
        for delta_r in self.config.delta_r_values:
            for k in self.config.k_values:
                for f_c in self.config.f_c_values:
                    min_fa = self.min_fa_compromise(f_c, delta_r, k)
                    worst = self.worst_skip(f_c, delta_r, k)
                    fa_field = "" if min_fa is None else str(min_fa)
                    lines.append(f"{f_c},{delta_r},{k},{fa_field},{worst}")
        return "\n".join(lines) + "\n"


def _pool(workers: int):
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def sweep(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Evaluate every grid cell; `jobs` never changes the result bytes."""
    cells = _cell_order(config)
    if jobs <= 1 or len(cells) < 2:
        rows = _cell_batch(config, cells)
        return SweepResult(config, tuple(rows))
    # contiguous batches keep per-worker numpy calls large enough to
    # amortize process startup; streams are per cell, so the split is
    # free to differ between runs
    batch = max(64, len(cells) // (jobs * 8))
    chunks = [cells[i:i + batch] for i in range(0, len(cells), batch)]
    rows = []
    # a forked pool starts all its workers at the first submit; they
    # inherit numpy from this process instead of each importing it
    import numpy  # noqa: F401
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    with _pool(workers) as pool:
        for part in pool.map(_cell_batch, [config] * len(chunks), chunks):
            rows.extend(part)
    return SweepResult(config, tuple(rows))
