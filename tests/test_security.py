"""Adversary-resilience sweep checks.

The Monte Carlo machinery is validated against an exact distribution
oracle: the window outcome is a function of (m, a) where
m ~ Bin(delta_r, n_support/n) and a | m ~ Bin(m, n_adv/n_support), so
exact outcome probabilities follow from summing binomial pmf terms.
Key cells are frozen as literals; the estimator must agree within
Monte Carlo error, and the blockwise fidelity path must agree with the
fast binomial path.
"""

import io
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from coinprune import security
from coinprune.security import (CellResult, SweepConfig, TrialOutcome,
                                adversary_count, evaluate_cell, percent_grid,
                                support_count, sweep)

# exact (p_correct, p_adversary, p_skipped), frozen at 6 decimals
EXACT_CELLS = {
    (1.0, 0.47, 1000, 5): (0.969114, 0.026730, 0.004156),
    (1.0, 0.48, 1000, 5): (0.891419, 0.097254, 0.011327),
    (0.31, 0.46, 1000, 5): (0.926492, 0.065902, 0.007606),
    (0.31, 0.45, 1000, 5): (0.963469, 0.032204, 0.004328),
    (1.0, 0.50, 100, 5): (0.460205, 0.460205, 0.079589),
    (0.05, 0.30, 100, 5): (0.270308, 0.013882, 0.715811),
}


def _exact_cell(f_c, f_a, delta_r, k, n_miners=1000):
    n_support = support_count(f_c, n_miners)
    n_adv = adversary_count(f_c, f_a, n_miners)
    if n_support == 0:
        return 0.0, 0.0, 1.0
    m_pmf = stats.binom.pmf(np.arange(delta_r + 1), delta_r,
                            n_support / n_miners)
    p_bogus = n_adv / n_support
    p_correct = p_adversary = 0.0
    for m in range(delta_r + 1):
        a = np.arange(m + 1)
        a_pmf = stats.binom.pmf(a, m, p_bogus)
        h = m - a
        p_adversary += m_pmf[m] * a_pmf[(a > h) & (a >= k)].sum()
        p_correct += m_pmf[m] * a_pmf[(h > a) & (h >= k)].sum()
    return p_correct, p_adversary, 1.0 - p_correct - p_adversary


def _csv_text(result) -> str:
    out = io.StringIO()
    result.write_csv(out)
    return out.getvalue()


def _single_cell_config(f_c, f_a, delta_r, k, trials=1000, seed=0,
                        mode="binomial"):
    return SweepConfig(f_c_values=(f_c,), f_a_values=(f_a,),
                       delta_r_values=(delta_r,), k_values=(k,),
                       trials=trials, seed=seed, mode=mode)


def test_percent_grid():
    grid = percent_grid()
    assert len(grid) == 101 and grid[0] == 0.0 and grid[-1] == 1.0
    assert percent_grid(5) == tuple(i / 100 for i in range(0, 101, 5))
    with pytest.raises(ValueError):
        percent_grid(3)
    with pytest.raises(ValueError):
        percent_grid(0)


def test_counts_survive_float_rounding():
    assert support_count(0.31, 1000) == 310  # 0.31 * 1000 != 310.0 in floats
    assert support_count(1.0, 1000) == 1000
    assert support_count(0.0, 1000) == 0
    assert adversary_count(1.0, 0.47, 1000) == 470
    assert adversary_count(0.31, 0.46, 1000) == 142
    # the coordinated group can never exceed the supporters it hides in
    assert adversary_count(0.1, 1.0, 1000) == support_count(0.1, 1000)


def test_trivial_outcomes():
    # (p_correct, p_adversary, p_skipped) of the three cells whose
    # outcome is certain, in both trial modes
    certain = {(0.0, 0.5): (0.0, 0.0, 1.0),
               (1.0, 1.0): (0.0, 1.0, 0.0),
               (1.0, 0.0): (1.0, 0.0, 0.0)}
    for mode in ("binomial", "blockwise"):
        for (f_c, f_a), expected in certain.items():
            config = _single_cell_config(f_c, f_a, 50, 5, trials=20, mode=mode)
            cell = evaluate_cell(config, 50, 5, 0, 0)
            assert tuple(cell[4:]) == expected, (mode, cell)
    cell = evaluate_cell(_single_cell_config(0.8, 0.0, 100, 5), 100, 5, 0, 0)
    assert cell.p_adversary == 0.0


def test_exact_oracle_matches_frozen_literals():
    for (f_c, f_a, delta_r, k), frozen in EXACT_CELLS.items():
        exact = _exact_cell(f_c, f_a, delta_r, k)
        assert tuple(round(p, 6) for p in exact) == frozen


def test_estimator_agrees_with_exact_distribution():
    for (f_c, f_a, delta_r, k), frozen in EXACT_CELLS.items():
        cell = evaluate_cell(_single_cell_config(f_c, f_a, delta_r, k),
                             delta_r, k, 0, 0)
        for estimate, p in zip(cell[4:], frozen):
            sigma = (p * (1 - p) / 1000) ** 0.5
            assert abs(estimate - p) <= 4 * sigma + 1e-9, (cell, frozen)


def test_blockwise_agrees_with_binomial():
    cells = [(1.0, 0.48, 1000, 5, 1500),
             (0.31, 0.45, 100, 5, 3000),
             (0.05, 0.30, 100, 5, 3000)]
    for f_c, f_a, delta_r, k, trials in cells:
        block = evaluate_cell(
            _single_cell_config(f_c, f_a, delta_r, k, trials, 42, "blockwise"),
            delta_r, k, 0, 0)
        binom = evaluate_cell(
            _single_cell_config(f_c, f_a, delta_r, k, trials, 43, "binomial"),
            delta_r, k, 0, 0)
        for p_block, p_binom in zip(block[4:], binom[4:]):
            pooled = (p_block + p_binom) / 2
            sigma = (pooled * (1 - pooled) * 2 / trials) ** 0.5
            assert abs(p_block - p_binom) <= 3 * sigma + 1e-9, (block, binom)


def test_adversary_probability_monotone_in_fa():
    config = SweepConfig(f_c_values=(1.0,), f_a_values=percent_grid(5),
                         delta_r_values=(1000,), k_values=(5,), trials=1000)
    result = sweep(config)
    curve = [row.p_adversary for row in result.rows()]
    for lo, hi in zip(curve, curve[1:]):
        assert hi >= lo - 0.03  # Monte Carlo slack only


def test_outcome_probabilities_sum_to_one():
    config = SweepConfig(f_c_values=(0.0, 0.3, 0.7, 1.0),
                         f_a_values=(0.0, 0.4, 0.6, 1.0),
                         delta_r_values=(100,), k_values=(5,), trials=500)
    result = sweep(config)
    for row in result.rows():
        assert abs(row.p_correct + row.p_adversary + row.p_skipped - 1) < 1e-9


def test_min_fa_is_k_independent_at_full_support():
    config = SweepConfig(f_c_values=(1.0,),
                         f_a_values=tuple(i / 100 for i in range(44, 53)),
                         delta_r_values=(1000,), k_values=(5, 10, 20),
                         trials=1000, seed=7)
    result = sweep(config)
    thresholds = {k: result.min_fa_compromise(1.0, 1000, k)
                  for k in (5, 10, 20)}
    assert set(thresholds.values()) == {0.48}


def test_sweep_is_deterministic_and_jobs_invariant():
    config = SweepConfig(f_c_values=(0.0, 0.5, 1.0), f_a_values=percent_grid(10),
                         delta_r_values=(100,), k_values=(5, 10), trials=200)
    first = sweep(config)
    again = sweep(config)
    parallel = sweep(config, jobs=3)
    assert _csv_text(first) == _csv_text(again) == _csv_text(parallel)
    assert first.thresholds_csv() == parallel.thresholds_csv()
    # row order is the documented grid order regardless of worker split
    assert [(r.delta_r, r.k, r.f_c, r.f_a) for r in parallel.rows()] \
        == [(dr, k, config.f_c_values[i], config.f_a_values[j])
            for dr, k, i, j in
            [(dr, k, i, j) for dr in (100,) for k in (5, 10)
             for i in range(3) for j in range(11)]]


@pytest.mark.parametrize("f_a_step, jobs, cpus, workers", [
    (10, 100_000, 4, 2),  # 66 cells in 2 batches: one worker per batch
    (1, 100_000, 4, 4),  # 606 cells in 10 batches: one worker per core
    (1, 3, 4, 3),  # fewer jobs than batches and cores
    (1, 100_000, None, 1),  # core count unknown
])
def test_sweep_caps_its_pool(monkeypatch, f_a_step, jobs, cpus, workers):
    # a forked pool starts all its workers at the first submit, so an
    # uncapped --jobs 100000 would fork 100,000 processes; this pool
    # records the size it was asked for and maps in this process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(security, "_pool", InProcessPool)
    monkeypatch.setattr(security.os, "cpu_count", lambda: cpus)
    config = SweepConfig(f_c_values=(0.0, 0.5, 1.0),
                         f_a_values=percent_grid(f_a_step),
                         delta_r_values=(100,), k_values=(5, 10), trials=50)
    assert _csv_text(sweep(config, jobs=jobs)) == _csv_text(sweep(config))
    assert sizes == [workers]


def test_thresholds_csv_blank_when_never_compromised():
    config = SweepConfig(f_c_values=(0.0, 1.0), f_a_values=(0.0, 1.0),
                         delta_r_values=(100,), k_values=(5,), trials=300)
    result = sweep(config)
    lines = result.thresholds_csv().splitlines()
    assert lines[0] == "f_C,delta_r,k,min_fA_compromise,worst_skip"
    by_fc = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert by_fc["0.0"][3] == ""  # nobody to compromise
    assert float(by_fc["0.0"][4]) == 1.0
    assert float(by_fc["1.0"][3]) == 1.0
    assert result.min_fa_compromise(0.0, 100, 5) is None
    with pytest.raises(KeyError):
        result.min_fa_compromise(0.37, 100, 5)


def test_sweep_csv_shape():
    config = SweepConfig(f_c_values=(0.5,), f_a_values=(0.25,),
                         delta_r_values=(100,), k_values=(5,), trials=100)
    result = sweep(config)
    lines = _csv_text(result).splitlines()
    assert lines[0] == "f_C,f_A,delta_r,k,p_correct,p_adversary,p_skipped"
    fields = lines[1].split(",")
    assert fields[:4] == ["0.5", "0.25", "100", "5"]
    assert isinstance(next(result.rows()), CellResult)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(mode="exact")
    with pytest.raises(ValueError):
        SweepConfig(trials=0)
    with pytest.raises(ValueError):
        SweepConfig(f_c_values=())
    with pytest.raises(ValueError):
        SweepConfig(f_a_values=(0.5, 1.5))
    with pytest.raises(ValueError):
        SweepConfig(delta_r_values=())
    with pytest.raises(ValueError):
        SweepConfig(k_values=(5, 5))
    with pytest.raises(ValueError):
        SweepConfig(f_a_values=(0.5, 0.25, 0.5))


def test_outcome_labels_are_stable():
    assert TrialOutcome.CORRECT_ACCEPTED.value == "correct"
    assert TrialOutcome.ADVERSARY_ACCEPTED.value == "adversary"
    assert TrialOutcome.SKIPPED_PULSE.value == "skipped"


def test_sweep_memory_is_its_columns():
    # numpy allocates its caches on the first evaluated cell; after that
    # a sweep should hold its 24 bytes of columns per cell and the tens
    # of bytes of numpy objects the cyclic collector has not yet freed,
    # where one Python object per cell costs hundreds
    config = SweepConfig(f_c_values=percent_grid(4), f_a_values=percent_grid(4),
                         delta_r_values=(100,), k_values=(5, 10), trials=10)
    evaluate_cell(config, 100, 5, 1, 1)
    tracemalloc.start()
    try:
        result = sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = 2 * len(config.f_c_values) * len(config.f_a_values)
    assert len(result.columns) == 3 * cells
    assert peak / cells < 128
