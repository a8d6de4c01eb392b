"""Pieces every workload shares: output checks, timed regions, in-process CLI."""

import contextlib
import hashlib
import io
import sys
import time


class Checks:
    """Output checks. Each check is one attempted op; a failed check is a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)
            print(f"check failed: {label}", file=sys.stderr)


class Stopwatch:
    """Accumulates the timed regions of one pass; checks run between them."""

    def __init__(self) -> None:
        self.total = 0.0
        self.last = 0.0

    @contextlib.contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.last = time.perf_counter() - start
            self.total += self.last


def cli(argv: list[str]) -> tuple[int, str]:
    """Run one `coinprune` command in-process; returns (exit code, stdout)."""
    from coinprune import cli as cli_mod
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_mod.main(argv)
    return code, out.getvalue()


def hash256(data: bytes) -> bytes:
    """Double SHA-256, computed outside the traced package."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def digest(data: bytes) -> str:
    return hash256(data).hex()
