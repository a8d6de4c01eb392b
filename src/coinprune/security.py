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
byte-identical CSVs. A sweep keeps 24 bytes per cell, the cell's three
outcome frequencies in one flat array in grid order; the threshold
curves are read from it by index, and its rows are made one at a time
as the CSV is streamed out. numpy and the process pool load only when a
sweep runs, so every CLI command can import this module without paying
for them.
"""

import csv
import enum
import io
import os
from array import array
from dataclasses import dataclass
from itertools import islice, product
from typing import IO, TYPE_CHECKING, Iterator, NamedTuple

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
        # a repeated value would sweep its cells twice, into a CSV that
        # from_csv refuses
        for grid in (self.f_c_values, self.f_a_values, self.delta_r_values,
                     self.k_values):
            if len(set(grid)) != len(grid):
                raise ValueError(f"grid values repeat: {grid}")
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


def _cell_count(config: SweepConfig) -> int:
    return (len(config.delta_r_values) * len(config.k_values)
            * len(config.f_c_values) * len(config.f_a_values))


def _cell_index(config: SweepConfig, delta_r: int, k: int,
                f_c: float, f_a: float) -> int:
    """A cell's place in grid order; ValueError if it is off the grid."""
    index = 0
    for axis, value in ((config.delta_r_values, delta_r),
                        (config.k_values, k), (config.f_c_values, f_c),
                        (config.f_a_values, f_a)):
        index = index * len(axis) + axis.index(value)
    return index


def _cell_batch(config: SweepConfig, start: int, stop: int) -> array:
    """Columns of the cells start..stop-1 in grid order."""
    cells = product(config.delta_r_values, config.k_values,
                    range(len(config.f_c_values)),
                    range(len(config.f_a_values)))
    columns = array("d")
    for cell in islice(cells, start, stop):
        columns.extend(evaluate_cell(config, *cell)[4:])
    return columns


@dataclass
class SweepResult:
    """A sweep's outcome frequencies and the threshold curves they give.

    `columns` holds p_correct, p_adversary and p_skipped of each cell,
    back to back, in grid order: delta_r, then k, then f_C, with f_A
    varying fastest. So a cell costs 24 bytes, and the run over f_A at
    one (delta_r, k, f_C) is found by index arithmetic.
    """
    config: SweepConfig
    columns: array

    def _run(self, f_c: float, delta_r: int, k: int, outcome: int) -> array:
        """One outcome's frequencies (0 correct, 1 adversary, 2 skipped)
        over f_A at this support level."""
        c = self.config
        try:
            start = _cell_index(c, delta_r, k, f_c, c.f_a_values[0])
        except ValueError:
            raise KeyError(f"no sweep rows for f_C={f_c}, "
                           f"delta_r={delta_r}, k={k}") from None
        first = 3 * start + outcome
        return self.columns[first:first + 3 * len(c.f_a_values):3]

    def min_fa_compromise(self, f_c: float, delta_r: int, k: int) -> float | None:
        """Least f_A with p_adversary >= COMPROMISE_RATE, if any."""
        return min((f_a for f_a, p in zip(self.config.f_a_values,
                                          self._run(f_c, delta_r, k, 1))
                    if p >= COMPROMISE_RATE), default=None)

    def worst_skip(self, f_c: float, delta_r: int, k: int) -> float:
        """Worst skip probability over all f_A at this support level."""
        return max(self._run(f_c, delta_r, k, 2))

    def rows(self) -> Iterator[CellResult]:
        """Each cell's row in grid order, made as it is read."""
        c = self.config
        p = iter(self.columns)
        for delta_r, k, f_c, f_a in product(c.delta_r_values, c.k_values,
                                            c.f_c_values, c.f_a_values):
            yield CellResult(f_c, f_a, delta_r, k, next(p), next(p), next(p))

    def write_csv(self, out: IO[str]) -> None:
        """The rows as CSV, written to `out` one line at a time."""
        out.write("f_C,f_A,delta_r,k,p_correct,p_adversary,p_skipped\n")
        for r in self.rows():
            out.write(f"{r.f_c},{r.f_a},{r.delta_r},{r.k},"
                      f"{r.p_correct},{r.p_adversary},{r.p_skipped}\n")

    @classmethod
    def from_csv(cls, text: str) -> "SweepResult":
        """Rows as write_csv writes them, in any order, under the grid
        they cover; ValueError unless they hold each cell of that grid
        exactly once, each with outcome frequencies that sum to 1 within
        1e-9: they are shares of the same trials."""
        def rows():
            for r in csv.DictReader(io.StringIO(text)):
                yield (int(r["delta_r"]), int(r["k"]), float(r["f_C"]),
                       float(r["f_A"]), float(r["p_correct"]),
                       float(r["p_adversary"]), float(r["p_skipped"]))

        # one pass finds the grid, so that the next can put each row in
        # its slot without holding the rows
        axes: list[set] = [set(), set(), set(), set()]
        n_rows = 0
        for row in rows():
            for axis, value in zip(axes, row):
                axis.add(value)
            n_rows += 1
        delta_rs, ks, f_cs, f_as = (tuple(sorted(axis)) for axis in axes)
        config = SweepConfig(f_c_values=f_cs, f_a_values=f_as,
                             delta_r_values=delta_rs, k_values=ks)
        n_cells = _cell_count(config)
        if n_rows != n_cells:
            raise ValueError(f"{n_rows} rows for a grid of {n_cells} cells")
        columns = array("d", bytes(24 * n_cells))
        filled = bytearray(n_cells)
        for row in rows():
            index = _cell_index(config, *row[:4])
            if filled[index]:
                raise ValueError(f"more than one row for the cell {row[:4]}")
            filled[index] = 1
            if not abs(sum(row[4:]) - 1) <= 1e-9:  # nan too
                raise ValueError(f"the outcomes of the cell {row[:4]} sum "
                                 f"to {sum(row[4:])}, not 1")
            columns[3 * index:3 * index + 3] = array("d", row[4:])
        return cls(config, columns)

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
    n_cells = _cell_count(config)
    if jobs <= 1 or n_cells < 2:
        return SweepResult(config, _cell_batch(config, 0, n_cells))
    # contiguous batches keep per-worker numpy calls large enough to
    # amortize process startup; streams are per cell, so the split is
    # free to differ between runs
    batch = max(64, n_cells // (jobs * 8))
    starts = range(0, n_cells, batch)
    stops = [min(start + batch, n_cells) for start in starts]
    columns = array("d")
    # a forked pool starts all its workers at the first submit; they
    # inherit numpy from this process instead of each importing it
    import numpy  # noqa: F401
    workers = min(jobs, len(starts), os.cpu_count() or 1)
    with _pool(workers) as pool:
        for part in pool.map(_cell_batch, [config] * len(starts), starts,
                             stops):
            columns.extend(part)
    return SweepResult(config, columns)
