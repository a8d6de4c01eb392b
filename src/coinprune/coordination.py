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
    delta_p: int = 500
    delta_r: int = 100
    delta_d: int = 6
    k: int = 5

    def __post_init__(self) -> None:
        for name, least in (("delta_p", 1), ("delta_r", 1), ("delta_d", 0)):
            if getattr(self, name) < least:
                raise CoordinationError(f"{name} must be at least {least}")
        if not 1 <= self.k <= self.delta_r:
            raise CoordinationError(
                "acceptance threshold must be between 1 and delta_r")
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


def pulse_index(height: int, params: PulseParams) -> int | None:
    """The index of the pulse at this height, or None when no pulse is
    there; the inverse of `pulse_height`."""
    index, rest = divmod(height, params.delta_p)
    return index if index >= 1 and not rest else None


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
        return PulseOutcome(False, None, 0)
    best = max(counts.values())
    if best < params.k:
        return PulseOutcome(False, None, 0)
    leaders = [t for t, c in counts.items() if c == best]
    if len(leaders) != 1:
        return PulseOutcome(False, None, 0)
    return PulseOutcome(True, leaders[0], best)
