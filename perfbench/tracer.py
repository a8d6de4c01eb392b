"""Spans and counts recorded around coinprune's public functions.

The tracer wraps functions and methods from the benchmark's side; the
package itself is never edited. Modules import functions by name
(`hash256` is bound in chain, snapshot, appdata, scripts, netsim and
security), so a wrapper is rebound in every coinprune module whose
namespace holds the original object. `uninstall` puts every original
back.

A span is `[name, start, end, parent, op, amount]`: `parent` is the
index of the enclosing span (-1 at top level), `op` the id of the
workload operation the span belongs to, and `amount` what the target's
meter read off the call (bytes hashed, the txid returned). A target
flagged as an operation root (one mined block, one join, one CLI
command) opens a new op. Spans stay in memory until `write` is called
at the end of the run.
"""

import functools
import gzip
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "coinprune"


@dataclass(frozen=True)
class Target:
    """One traced boundary. `owner` is `module` or `module:Class` under coinprune."""
    span: str
    owner: str
    attr: str
    op_root: bool = False
    meter: Callable | None = None  # (args, result) -> the span's amount


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = sys.modules[f"{PACKAGE}.{module_name}"]
    return getattr(module, class_name) if class_name else module


def in_package(module_name: str) -> bool:
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


class Tracer:
    def __init__(self, targets) -> None:
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._undo: list[tuple[object, str, object]] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        for target in self.targets:
            owner = _owner(target.owner)
            original = owner.__dict__[target.attr]
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._rebind(owner, target.attr, wrapper)
                continue
            for module in [m for n, m in sys.modules.items() if in_package(n)]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        name, op_root, meter = target.span, target.op_root, target.meter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            outer_op = self._op
            if op_root:
                self._op = self._ops
                self._ops += 1
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._op, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self._op = outer_op
            if meter is not None:
                span[5] = meter(args, result)
            return result

        return wrapper

    # --- analysis ---------------------------------------------------------

    @functools.cached_property
    def _by_name(self) -> dict[str, list[int]]:
        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            by_name.setdefault(span[0], []).append(i)
        return by_name

    def indices(self, name: str) -> list[int]:
        """Spans called `name`; like every query below, read after the run."""
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.indices(name))

    def durations(self, name: str) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in self.indices(name)]

    def total_s(self, name: str) -> float:
        return sum(self.durations(name))

    def amounts(self, name: str) -> list:
        return [self.spans[i][5] for i in self.indices(name)]

    @functools.cached_property
    def covered(self) -> list[float]:
        """Per span, the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        return covered

    def self_s(self, name: str) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] - self.covered[i]
                   for i in self.indices(name))

    def inside(self, ancestor: str) -> list[bool]:
        """Per span, whether it runs inside a span called `ancestor`."""
        flags = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            flags[i] = span[0] == ancestor or (span[3] >= 0 and flags[span[3]])
        return flags

    def counts(self) -> dict[str, int]:
        return {name: len(ix) for name, ix in sorted(self._by_name.items())}

    def write(self, path) -> None:
        """Gzipped tab-separated spans, times in microseconds from the first
        span. Byte amounts (returned txids) are written as their length."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_us\tend_us\tparent\top\tamount\n")
            for i, (name, start, end, parent, op, amount) in enumerate(self.spans):
                if isinstance(amount, bytes):
                    amount = len(amount)
                fh.write(f"{i}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                         f"{(end - t0) * 1e6:.1f}\t{parent}\t{op}\t{amount}\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
