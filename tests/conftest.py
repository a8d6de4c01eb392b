"""Shared fixtures plus the acceptance criteria summary hook."""

import pytest

from coinprune.chain import ChainParams
from coinprune.chaingen import ChainBuilder, light_profile
from coinprune.netsim import Simulation
from coinprune.snapshot import wire_size

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    """Record one pass/fail line per acceptance criterion.

    The lines are echoed in a dedicated terminal section at the end of
    the run so the verdicts are visible without -s.
    """
    def record(number: int, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def light_chain():
    """Genesis plus 600 validated light-workload blocks, shared read-only."""
    return ChainBuilder(light_profile(), ChainParams(), 1234).build(600)


@pytest.fixture
def pulse_wire_sizes(monkeypatch):
    """{(pulse index, field): wire size} of each pulse record's snapshots,
    taken as the simulation makes the record: a closed window drops the
    snapshots that no node holds."""
    sizes: dict[tuple[int, str], int] = {}
    real = Simulation._make_pulse_record

    def make_pulse_record(self, index, height):
        rec = real(self, index, height)
        for field in ("genuine_snap", "genuine_app", "bogus_snap"):
            snap = getattr(rec, field)
            if snap is not None:
                sizes[index, field] = wire_size(snap)
        return rec

    monkeypatch.setattr(Simulation, "_make_pulse_record", make_pulse_record)
    return sizes
