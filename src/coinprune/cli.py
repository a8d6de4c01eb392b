"""Operator entry point.

Subcommands:
  chain gen        generate a seeded synthetic chain into a block file
  snapshot create  replay a block file and snapshot the UTXO set
  snapshot verify  check a snapshot file against an expected id
  snapshot id      print the layered id of a snapshot file
  sim bootstrap    run a network scenario file and write its reports
  sim security     run the Monte Carlo sweep, write CSVs and SVG charts
  report           redraw SVG charts from previously written CSVs

Exit status is 0 on success, 1 on any verification failure, unreadable
input or unwritable output, and 2 on usage errors, out-of-range numbers
included (argparse's own convention). Every failure prints one line,
`error: ...`, on stderr. Output lands in --out-dir,
falling back to $COINPRUNE_OUT, falling back to the working directory.
Every run is reproducible from its flags: reports embed the seed.
"""

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import sys
from contextlib import closing
from pathlib import Path

from .chain import (BlockValidationError, ChainError, ChainParams, UtxoSet,
                    read_block_file, replay_blocks, write_block_file)
from .chaingen import ChainBuilder, light_profile
from .netsim import SimError, format_scenario, parse_scenario, run_simulation
from .security import (COMPROMISE_RATE, SweepConfig, SweepResult,
                       percent_grid, sweep)
from .snapshot import (SnapshotError, build_snapshot, read_snapshot_file,
                       verify_snapshot, wire_size, write_snapshot_file)

OUT_DIR_ENV = "COINPRUNE_OUT"

OK = 0
VERIFY_FAILED = 1
USAGE = 2


def _out_dir(args) -> Path:
    """The output directory, which `_make_out_dir` creates."""
    return Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))


def _make_out_dir(path: Path) -> None:
    """Create the output directory. A command calls this just before it
    writes its first file, so one refused or failed before then leaves
    no directory behind."""
    path.mkdir(parents=True, exist_ok=True)


def _write_files(out_dir: Path, files) -> None:
    """Make `out_dir`, then write each (name, text) pair of `files` into
    it in the order given, printing each path. A text may be a function
    that writes to the open file instead, for one too large to hold."""
    _make_out_dir(out_dir)
    for name, text in files:
        path = out_dir / name
        with open(path, "w") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                text(fh)
        print(f"wrote {path}")


class UsageError(Exception):
    """Bad arguments: `main` prints the message as one line and returns 2."""


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors for `main` to print; prints no usage block."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _refuse_overwrite(path: Path, source, flag: str) -> None:
    """UsageError when path names the file `flag` names: the same file
    by device and inode when both exist, else the same resolved path."""
    try:
        same = os.path.samefile(path, source)
    except FileNotFoundError:
        same = path.resolve() == Path(source).resolve()
    if same:
        raise UsageError(f"{path} is the {flag} file")


def _fail(message: str, code: int = VERIFY_FAILED) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _int_at_least(least: int, below: int | None = None):
    """An argparse type: an integer no smaller than least and, when below
    is given, smaller than below."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(
                f"must be below {below}, got {value}")
        return value
    parse.__name__ = "int"  # argparse says "invalid int value" for non-ints
    return parse


def _require_within(values, low: float, high: float) -> None:
    """ValueError if any value read from an input file is inf, nan or
    outside [low, high]."""
    if not all(math.isfinite(v) and low <= v <= high for v in values):
        raise ValueError(f"a number outside [{low}, {high}]")


# --- SVG line charts --------------------------------------------------------
# Self-contained generation: CSV is the primary artifact, the SVG is a
# convenience view, so a plotting dependency is not warranted.

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d35400", "#16a085")
_MARGIN = (70, 20, 40, 50)  # left, right, top, bottom
_WIDTH, _HEIGHT = 720, 440
_PLOT_W = _WIDTH - _MARGIN[0] - _MARGIN[1]
_PLOT_H = _HEIGHT - _MARGIN[2] - _MARGIN[3]


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) / 4 * i for i in range(5)]


def _xml_text(text: str) -> str:
    """`text` as XML character data. (`html.escape` does the same, but
    importing `html` loads its 2,000-entry entity table.)"""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_head(out: io.StringIO, title: str, meta: str,
              y_ticks: list[tuple[float, float]]) -> None:
    """Document header, title and the y grid of (tick value, y) pairs."""
    left, right, _, _ = _MARGIN
    out.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
              f'width="{_WIDTH}" height="{_HEIGHT}" '
              f'font-family="sans-serif" font-size="12">\n')
    if meta:
        # a comment may not hold "--"
        out.write(f"<!-- {re.sub('-(?=-)', '- ', meta)} -->\n")
    out.write(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n')
    out.write(f'<text x="{_WIDTH / 2:.2f}" y="20" text-anchor="middle" '
              f'font-size="14">{_xml_text(title)}</text>\n')
    for yt, y in y_ticks:
        out.write(f'<line x1="{left}" y1="{y:.2f}" x2="{_WIDTH - right}" '
                  f'y2="{y:.2f}" stroke="#dddddd"/>\n')
        out.write(f'<text x="{left - 6}" y="{y + 4:.2f}" '
                  f'text-anchor="end">{yt:g}</text>\n')


def _svg_frame(out: io.StringIO, y_label: str,
               x_label: str | None = None) -> None:
    """Plot-area border and the axis labels."""
    left, _, top, _ = _MARGIN
    plot_w, plot_h = _PLOT_W, _PLOT_H
    out.write(f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
              f'fill="none" stroke="#333333"/>\n')
    if x_label is not None:
        out.write(f'<text x="{left + plot_w / 2:.2f}" y="{_HEIGHT - 10}" '
                  f'text-anchor="middle">{_xml_text(x_label)}</text>\n')
    out.write(f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
              f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">'
              f'{_xml_text(y_label)}</text>\n')


def svg_line_chart(title: str, x_label: str, y_label: str,
                   series: list[tuple[str, list[tuple[float, float]]]],
                   meta: str = "") -> str:
    left, _, top, _ = _MARGIN
    plot_w, plot_h = _PLOT_W, _PLOT_H
    points = [p for _, pts in series for p in pts]
    xs = [x for x, _ in points] or [0.0, 1.0]
    ys = [y for _, y in points] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = io.StringIO()
    _svg_head(out, title, meta, [(yt, py(yt)) for yt in _ticks(y_lo, y_hi)])
    for xt in _ticks(x_lo, x_hi):
        x = px(xt)
        out.write(f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" '
                  f'y2="{top + plot_h + 4}" stroke="#333333"/>\n')
        out.write(f'<text x="{x:.2f}" y="{top + plot_h + 18}" '
                  f'text-anchor="middle">{xt:g}</text>\n')
    _svg_frame(out, y_label, x_label)
    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            out.write(f'<polyline points="{coords}" fill="none" '
                      f'stroke="{color}" stroke-width="1.5"/>\n')
        ly = top + 14 + 16 * i
        out.write(f'<line x1="{left + 8}" y1="{ly - 4}" x2="{left + 28}" '
                  f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>\n')
        out.write(f'<text x="{left + 34}" y="{ly}">{_xml_text(label)}'
                  '</text>\n')
    out.write("</svg>\n")
    return out.getvalue()


def svg_bar_chart(title: str, y_label: str, bars: list[tuple[str, float]],
                  meta: str = "") -> str:
    left, _, top, _ = _MARGIN
    plot_w, plot_h = _PLOT_W, _PLOT_H
    y_hi = max([v for _, v in bars] or [1.0])
    if y_hi <= 0:
        y_hi = 1.0
    out = io.StringIO()
    _svg_head(out, title, meta,
              [(yt, top + plot_h - yt / y_hi * plot_h)
               for yt in _ticks(0.0, y_hi)])
    slot = plot_w / max(len(bars), 1)
    bar_w = slot * 0.6
    for i, (label, value) in enumerate(bars):
        x = left + i * slot + (slot - bar_w) / 2
        h = value / y_hi * plot_h
        y = top + plot_h - h
        color = _PALETTE[i % len(_PALETTE)]
        out.write(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                  f'height="{h:.2f}" fill="{color}"/>\n')
        cx = left + i * slot + slot / 2
        out.write(f'<text x="{cx:.2f}" y="{top + plot_h + 16}" '
                  f'text-anchor="middle">{_xml_text(label)}</text>\n')
    _svg_frame(out, y_label)
    out.write("</svg>\n")
    return out.getvalue()


def _sweep_charts(prefix: str, result: SweepResult, meta: str) -> dict:
    """The threshold and worst-skip charts, one line per (delta_r, k)."""
    thresholds, skips = [], []
    config = result.config
    f_cs = sorted(config.f_c_values)
    for delta_r, k in itertools.product(sorted(config.delta_r_values),
                                        sorted(config.k_values)):
        label = f"dR={delta_r} k={k}"
        least = [(f_c, result.min_fa_compromise(f_c, delta_r, k))
                 for f_c in f_cs]
        thresholds.append((label, [(f_c, f_a) for f_c, f_a in least
                                   if f_a is not None]))
        skips.append((label, [(f_c, result.worst_skip(f_c, delta_r, k))
                              for f_c in f_cs]))
    return {
        f"{prefix}_thresholds.svg": svg_line_chart(
            f"Least adversarial fraction compromising "
            f"{COMPROMISE_RATE:.0%} of pulses",
            "miner support f_C", "f_A threshold", thresholds, meta=meta),
        f"{prefix}_skip.svg": svg_line_chart(
            "Worst-case skip probability", "miner support f_C",
            "max p_skipped over f_A", skips, meta=meta),
    }


# --- chain ------------------------------------------------------------------

def _cmd_chain_gen(args) -> int:
    out_dir = _out_dir(args)
    out_path = out_dir / args.out
    if args.headers:
        header_path = out_dir / args.headers
        _refuse_overwrite(header_path, out_path, "--out")
    builder = ChainBuilder(light_profile(txs_per_block=args.txs_per_block),
                           ChainParams(), args.seed)
    blocks = builder.build(args.blocks)
    _make_out_dir(out_dir)
    write_block_file(out_path, blocks)
    written = [str(out_path)]
    if args.headers:
        builder.headers.write(header_path)
        written.append(str(header_path))
    print(f"chain: {len(blocks)} blocks (genesis + {len(blocks) - 1}), "
          f"tip {builder.headers.block_id(-1).hex()}")
    print(f"seed {args.seed}")
    for path in written:
        print(f"wrote {path} ({os.path.getsize(path)} bytes)")
    return OK


# --- snapshot ----------------------------------------------------------------

def _hashes_sidecar(snap_path: str) -> Path:
    return Path(str(snap_path) + ".hashes")


def _cmd_snapshot_create(args) -> int:
    out_dir = _out_dir(args)
    out_path = out_dir / args.out
    sidecar = _hashes_sidecar(out_path)
    for path in (out_path, sidecar):
        _refuse_overwrite(path, args.chain, "--chain")
    try:
        blocks = read_block_file(args.chain)
    except (OSError, ChainError) as exc:
        return _fail(f"cannot read chain: {exc}")
    with closing(blocks):
        if not 0 <= args.height < len(blocks):
            return _fail(f"height {args.height} outside chain of "
                         f"{len(blocks)} blocks")
        # each block is parsed as it is reached and then dropped; a malformed
        # block anywhere in the file is a read error, ahead of a block that
        # fails validation, so the rest of the file is parsed too
        utxo = UtxoSet()
        invalid = None
        try:
            try:
                tip_id = replay_blocks(utxo, blocks, range(args.height + 1),
                                       b"\x00" * 32, ChainParams())
            except BlockValidationError as exc:
                invalid = exc
            for height in range(0 if invalid else args.height + 1, len(blocks)):
                blocks[height]
        except ChainError as exc:
            return _fail(f"cannot read chain: {exc}")
    if invalid is not None:
        return _fail(f"chain invalid: {invalid}")
    snap = build_snapshot(utxo, args.height, tip_id, obfuscate=args.obfuscate)
    _make_out_dir(out_dir)
    write_snapshot_file(out_path, snap)
    # sidecar manifest mirrors the per-chunk hash list a booting node
    # would learn from the inventory advert; it lets verify localize
    sidecar.write_text("".join(f"{h.hex()}\n" for h in snap.digests))
    print(f"snapshot id {snap.id.hex()}")
    print(f"height {args.height}, {len(snap.chunks)} chunks, "
          f"{len(utxo)} outputs, {wire_size(snap)} bytes")
    print(f"wrote {out_path}")
    print(f"wrote {sidecar}")
    return OK


def _cmd_snapshot_verify(args) -> int:
    try:
        expected = bytes.fromhex(args.id)
    except ValueError:
        raise UsageError("--id must be hex") from None
    if len(expected) != 32:
        raise UsageError("--id must be 32 bytes of hex")
    try:
        snap = read_snapshot_file(args.snap)
    except (OSError, SnapshotError) as exc:
        return _fail(f"cannot read snapshot: {exc}")
    hashes = None
    # a manifest named with --hashes must exist; the sidecar is optional
    sidecar = Path(args.hashes) if args.hashes else _hashes_sidecar(args.snap)
    if args.hashes or sidecar.exists():
        try:
            lines = sidecar.read_text().split()
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(f"cannot read hash manifest {sidecar}: {exc}")
        if not all(re.fullmatch("[0-9a-fA-F]{64}", line) for line in lines):
            return _fail(f"bad hash manifest {sidecar}: "
                         "a line is not 64 hex characters")
        hashes = [bytes.fromhex(line) for line in lines]
    check = verify_snapshot(snap, expected, hashes)
    if check.ok:
        print(f"snapshot ok: id {expected.hex()}, {len(snap.chunks)} chunks")
        return OK
    return _fail(f"snapshot verification failed: {check.reason}")


def _cmd_snapshot_id(args) -> int:
    try:
        snap = read_snapshot_file(args.snap)
    except (OSError, SnapshotError) as exc:
        return _fail(f"cannot read snapshot: {exc}")
    print(snap.id.hex())
    return OK


# --- simulations --------------------------------------------------------------

def _cmd_sim_bootstrap(args) -> int:
    out_dir = _out_dir(args)
    try:
        scenario = parse_scenario(Path(args.scenario).read_text())
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
    except (OSError, UnicodeDecodeError, SimError) as exc:
        return _fail(f"cannot load scenario: {exc}")
    sim, report = run_simulation(scenario)

    prefix = args.prefix
    files = {
        f"{prefix}_storage.csv": report.to_csv(),
        f"{prefix}_breakdown.csv": report.breakdown_csv(),
        f"{prefix}_pulses.csv": report.pulses_csv(),
        f"{prefix}_joins.csv": report.joins_csv(),
    }
    if args.trace:
        files[f"{prefix}_trace.txt"] = sim.trace.to_text()
    meta = {
        "seed": scenario.seed,
        "chain_length": scenario.chain_length,
        "scenario": format_scenario(scenario).splitlines(),
        "outputs": sorted(files),
    }
    files[f"{prefix}_meta.json"] = json.dumps(meta, indent=2) + "\n"
    _write_files(out_dir, sorted(files.items()))

    for index, height, status, tag, count in report.pulse_outcomes:
        line = f"pulse {index} at height {height}: {status}"
        if status == "accepted":
            line += f" (tag {tag[:16]}..., {count} reaffirmations)"
        print(line)
    failed = 0
    for node, status, reason, attempts, _ in report.join_outcomes:
        line = f"join {node}: {status} after {attempts} attempt(s)"
        if reason:
            line += f" ({reason})"
        print(line)
        failed += status != "accepted"
    if failed:
        return _fail(f"{failed} of {len(report.join_outcomes)} joins aborted")
    return OK


def _cmd_sim_security(args) -> int:
    out_dir = _out_dir(args)
    try:
        config = SweepConfig(
            n_miners=args.n_miners,
            f_c_values=percent_grid(args.step),
            f_a_values=percent_grid(args.step),
            delta_r_values=tuple(args.delta_r),
            k_values=tuple(args.k),
            trials=args.trials,
            seed=args.seed,
            mode=args.mode,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = sweep(config, jobs=args.jobs)

    prefix = args.prefix
    meta = f"seed={args.seed} trials={args.trials} mode={args.mode}"
    # the sweep's rows stream out before the charts are made: written
    # with the charts held, they raised the peak RSS by about 0.1 MiB
    _write_files(out_dir, [(f"{prefix}_sweep.csv", result.write_csv)])
    files = {
        f"{prefix}_thresholds.csv": result.thresholds_csv(),
        **_sweep_charts(prefix, result, meta),
        f"{prefix}_meta.json": json.dumps({
            "seed": args.seed, "trials": args.trials, "mode": args.mode,
            "n_miners": args.n_miners, "step": args.step,
            "delta_r": list(args.delta_r), "k": list(args.k),
            "jobs": args.jobs,
        }, indent=2) + "\n",
    }
    _write_files(out_dir, sorted(files.items()))
    for delta_r in config.delta_r_values:
        for k in config.k_values:
            if 1.0 in config.f_c_values:
                min_fa = result.min_fa_compromise(1.0, delta_r, k)
                shown = "none" if min_fa is None else f"{min_fa:.2f}"
                print(f"delta_r={delta_r} k={k}: "
                      f"min f_A compromising at full support = {shown}")
    return OK


# --- report -------------------------------------------------------------------

def _cmd_report(args) -> int:
    out_dir = _out_dir(args)
    if not args.sweep and not args.storage:
        raise UsageError("nothing to report, pass --sweep and/or --storage")
    prefix = args.prefix
    files = {}
    if args.sweep:
        try:
            result = SweepResult.from_csv(Path(args.sweep).read_text())
            _require_within(result.columns, 0, 1)  # probabilities
        except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
            return _fail(f"cannot read sweep csv: {exc}")
        files.update(sorted(_sweep_charts(prefix, result,
                                          f"source={args.sweep}").items()))
    if args.storage:
        try:
            with open(args.storage, newline="") as fh:
                reader = csv.DictReader(fh)
                bars = [(r["node"], float(r["bytes_stored"])) for r in reader]
            _require_within((v for _, v in bars), 0, math.inf)
        except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
            return _fail(f"cannot read storage csv: {exc}")
        files[f"{prefix}_storage.svg"] = svg_bar_chart(
            "Per-node storage", "bytes", bars, meta=f"source={args.storage}")
    _write_files(out_dir, files.items())
    return OK


# --- argument wiring ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coinprune",
        description="snapshot-based block pruning: chains, snapshots, "
                    "simulations, reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out_dir(p):
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default ${OUT_DIR_ENV} or .)")

    chain_p = sub.add_parser("chain", help="chain generation")
    chain_sub = chain_p.add_subparsers(dest="chain_command", required=True)
    gen = chain_sub.add_parser("gen", help="generate a synthetic chain")
    gen.add_argument("--blocks", type=_int_at_least(0), required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--txs-per-block", type=_int_at_least(0), default=8)
    gen.add_argument("--out", default="chain.blk")
    gen.add_argument("--headers", default=None,
                     help="also write a header index file")
    add_out_dir(gen)
    gen.set_defaults(func=_cmd_chain_gen)

    snap_p = sub.add_parser("snapshot", help="snapshot files")
    snap_sub = snap_p.add_subparsers(dest="snapshot_command", required=True)
    create = snap_sub.add_parser("create", help="snapshot a chain prefix")
    create.add_argument("--chain", required=True)
    create.add_argument("--height", type=_int_at_least(0), required=True)
    create.add_argument("--obfuscate", action="store_true")
    create.add_argument("--out", default="state.snap")
    add_out_dir(create)
    create.set_defaults(func=_cmd_snapshot_create)
    verify = snap_sub.add_parser("verify", help="verify against an id")
    verify.add_argument("--snap", required=True)
    verify.add_argument("--id", required=True, help="expected id, hex")
    verify.add_argument("--hashes", default=None,
                        help="chunk hash manifest (default <snap>.hashes)")
    verify.set_defaults(func=_cmd_snapshot_verify)
    ident = snap_sub.add_parser("id", help="print a snapshot's layered id")
    ident.add_argument("--snap", required=True)
    ident.set_defaults(func=_cmd_snapshot_id)

    sim_p = sub.add_parser("sim", help="simulations")
    sim_sub = sim_p.add_subparsers(dest="sim_command", required=True)
    boot = sim_sub.add_parser("bootstrap", help="run a network scenario")
    boot.add_argument("--scenario", required=True, help="scenario file")
    boot.add_argument("--seed", type=_int_at_least(-2**63, 2**63),
                      default=None, help="override the scenario seed")
    boot.add_argument("--trace", action="store_true",
                      help="also write the message trace")
    boot.add_argument("--prefix", default="run")
    add_out_dir(boot)
    boot.set_defaults(func=_cmd_sim_bootstrap)
    sec = sim_sub.add_parser("security", help="adversary resilience sweep")
    sec.add_argument("--delta-r", type=_int_at_least(1), nargs="+",
                     default=[1000])
    sec.add_argument("--k", type=_int_at_least(1), nargs="+", default=[5])
    sec.add_argument("--trials", type=int, default=1000)
    sec.add_argument("--seed", type=_int_at_least(0), default=0)
    sec.add_argument("--jobs", type=_int_at_least(1), default=1,
                     help="parallel sweep cells; never changes the output")
    sec.add_argument("--mode", choices=("binomial", "blockwise"),
                     default="binomial")
    sec.add_argument("--step", type=int, default=1,
                     help="grid step in percent for both fraction axes")
    sec.add_argument("--n-miners", type=int, default=1000)
    sec.add_argument("--prefix", default="security")
    add_out_dir(sec)
    sec.set_defaults(func=_cmd_sim_security)

    rep = sub.add_parser("report", help="redraw charts from CSVs")
    rep.add_argument("--sweep", default=None, help="sweep rows CSV")
    rep.add_argument("--storage", default=None, help="per-node storage CSV")
    rep.add_argument("--prefix", default="report")
    add_out_dir(rep)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, after printing the usage
        return exc.code
    except UsageError as exc:
        return _fail(str(exc), USAGE)
    except OSError as exc:  # an output directory or file that cannot be written
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
