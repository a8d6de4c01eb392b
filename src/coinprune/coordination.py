"""Reaffirmation pulses: who votes when, and what the votes decide.

Snapshots are taken at fixed pulse heights i * delta_p. Miners wait
delta_d blocks for the pulse block to settle, then have delta_r blocks
to reaffirm: the window is the half-open height range
(pulse + delta_d, pulse + delta_d + delta_r]. A reaffirmation is a
43-byte frame in the coinbase data field:

    b"CoinPrune/" + 32-byte tag + b"/"

A window is tallied by exact tag value. The unique most-frequent tag
wins if it reached the acceptance threshold k; anything else, including
a tie at the top, skips the pulse. Skipping is safe: nodes simply keep
serving the previous accepted snapshot.
"""

from dataclasses import dataclass
from typing import NamedTuple

TAG_PREFIX = b"CoinPrune/"
TAG_SUFFIX = b"/"
TAG_SIZE = 32
FRAME_SIZE = len(TAG_PREFIX) + TAG_SIZE + len(TAG_SUFFIX)  # 43


class CoordinationError(Exception):
    pass


@dataclass(frozen=True)
class PulseParams:
    delta_p: int
    delta_r: int
    delta_d: int = 6
    k: int = 5

    def __post_init__(self) -> None:
        if self.delta_p <= 0 or self.delta_r <= 0 or self.delta_d < 0:
            raise CoordinationError("pulse intervals must be positive")
        if self.k < 1:
            raise CoordinationError("acceptance threshold must be at least 1")
        # delta_d + delta_r may exceed delta_p; windows stay disjoint
        # as long as delta_r <= delta_p
        if self.delta_r > self.delta_p:
            raise CoordinationError(
                "reaffirmation windows overlap: delta_r exceeds delta_p")


def pulse_height(index: int, params: PulseParams) -> int:
    """Height of the index-th pulse; genesis is never a pulse."""
    if index < 1:
        raise CoordinationError("pulse indices start at 1")
    return index * params.delta_p


def window_range(index: int, params: PulseParams) -> range:
    """Heights whose coinbases count for this pulse (inclusive bounds)."""
    start = pulse_height(index, params) + params.delta_d + 1
    return range(start, start + params.delta_r)


def pulse_for_height(height: int, params: PulseParams) -> int | None:
    """The pulse index whose window contains this height, if any."""
    if height <= params.delta_p + params.delta_d:
        return None
    index = (height - params.delta_d - 1) // params.delta_p
    if index >= 1 and height in window_range(index, params):
        return index
    return None


def latest_closed_pulse(tip_height: int, params: PulseParams) -> int | None:
    """Most recent pulse whose window has fully closed at the tip."""
    index = (tip_height - params.delta_d - params.delta_r) // params.delta_p
    return index if index >= 1 else None


def encode_coinbase_tag(tag: bytes) -> bytes:
    if len(tag) != TAG_SIZE:
        raise CoordinationError("reaffirmed tags are 32 bytes")
    return TAG_PREFIX + tag + TAG_SUFFIX


def parse_coinbase_tag(data: bytes) -> bytes | None:
    """Extract the first complete reaffirmation frame, scanning any offset."""
    start = 0
    while True:
        pos = data.find(TAG_PREFIX, start)
        if pos < 0:
            return None
        end = pos + FRAME_SIZE
        if end <= len(data) and data[end - 1:end] == TAG_SUFFIX:
            return bytes(data[pos + len(TAG_PREFIX):end - 1])
        start = pos + 1


class PulseOutcome(NamedTuple):
    accepted: bool
    tag: bytes | None
    count: int

    @classmethod
    def accept(cls, tag: bytes, count: int) -> "PulseOutcome":
        return cls(True, tag, count)

    @classmethod
    def skip(cls) -> "PulseOutcome":
        return cls(False, None, 0)


def tally_window(tags: list[bytes | None], params: PulseParams) -> PulseOutcome:
    """Tally one full window of per-block tags (None = no reaffirmation).

    Accepts only a unique most-frequent tag with count >= k.
    """
    if len(tags) != params.delta_r:
        raise CoordinationError(
            f"window tally needs exactly {params.delta_r} blocks, got {len(tags)}")
    counts: dict[bytes, int] = {}
    for tag in tags:
        if tag is not None:
            counts[tag] = counts.get(tag, 0) + 1
    if not counts:
        return PulseOutcome.skip()
    best = max(counts.values())
    if best < params.k:
        return PulseOutcome.skip()
    leaders = [t for t, c in counts.items() if c == best]
    if len(leaders) != 1:
        return PulseOutcome.skip()
    return PulseOutcome.accept(leaders[0], best)
