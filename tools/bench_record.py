"""Record alternating benchmark pairs of two revisions, with the machine, in a BENCH file.

    python3 tools/bench_record.py --out BENCH_name.json --parent HEAD~1 \
        --workloads snapshot-bulk sim-bootstrap --seeds 901 902 903 904 905

clones this repository twice with `git clone --local`, into `parent`
and `change` under one temporary directory (`$TMPDIR` picks where),
and checks out `--parent` and `--change` (default: HEAD) there. So
both sides run from fresh checkouts at the same depth, and only
committed code is measured. It then runs each (workload, seed) once on
each clone through the clone's own `perfbench/spread.py` `run_once`,
as it is. The order alternates seed by seed: parent then change on the
first seed, change then parent on the next, so machine drift falls on
both sides alike. The `--out` file holds every pair with its order and
both sides' metrics, each side's median, quartile spread (`spread.py`'s
`spread`) and the number of pairs in which the change read lower. Each
side of a pair also holds `passes`, the number of timed passes the run
made, read from the clone's `perfbench/out/<workload>/result.json` and
summarized as the metrics are: a workload's peak can creep with its
passes, so a peak that moved can be told apart from a run that made
more passes. Per side the file also holds its git revision, the
`wc -l src/coinprune/*.py` total and the wall time of its Tier-1 suite
(`python -m pytest -q --continue-on-collection-errors` with the clone's
`src` on PYTHONPATH), run after the pairs with its exit code and
summary line. It also holds `nproc`, the CPU model from /proc/cpuinfo,
and the Python and numpy versions. Give the same revision twice for an
A/A record of the noise floor. The clones are removed afterwards.
"""

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def resolve(rev: str) -> str:
    """The commit `rev` names in this repository, or "" if none."""
    return subprocess.run(["git", "rev-parse", "--verify", "--quiet",
                           f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True).stdout.strip()


def clone(commit: str, tree: Path) -> None:
    """A fresh local clone of this repository at `tree`, at `commit`."""
    subprocess.run(["git", "clone", "--quiet", "--local", "--no-checkout",
                    str(ROOT), str(tree)], check=True)
    subprocess.run(["git", "checkout", "--quiet", "--detach", commit],
                   cwd=tree, check=True)


def git_rev(tree: Path) -> str:
    """HEAD of the tree, with `-dirty` when tracked files differ from it."""
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, check=True,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=tree, check=True, capture_output=True,
                           text=True).stdout.strip()
    return rev + ("-dirty" if dirty else "")


def src_lines(tree: Path) -> int:
    """The total `wc -l src/coinprune/*.py` prints for the tree."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "coinprune").glob("*.py"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def numpy_version() -> str:
    out = subprocess.run([sys.executable, "-c",
                          "import numpy; print(numpy.__version__)"],
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def tier1(tree: Path) -> dict:
    """Wall time, exit code and summary line of the tree's Tier-1 suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def load_spread(tree: Path, side: str):
    """The tree's own `perfbench/spread.py`, which runs the tree's run.py."""
    spec = importlib.util.spec_from_file_location(
        f"spread_{side}", tree / "perfbench" / "spread.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def passes(tree: Path, workload: str) -> int:
    """The number of timed passes of the tree's last run of `workload`."""
    result = tree / "perfbench" / "out" / workload / "result.json"
    return len(json.loads(result.read_text())["passes"])


def summarize(pairs: list[dict], spread) -> dict:
    """Per metric: each side's median and quartile spread over the pairs,
    and in how many pairs the change read lower."""
    rows = {}
    for name in pairs[0]["parent"]:
        if name == "correct":
            continue
        row = {}
        for side in SIDES:
            mid, share = spread([p[side][name] for p in pairs])
            row[side] = {"median": mid, "iqr_share": share}
        row["change_lower_pairs"] = sum(
            p["change"][name] < p["parent"][name] for p in pairs)
        rows[name] = row
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", required=True, help="a git revision")
    parser.add_argument("--change", default="HEAD", help="a git revision")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("the quartiles need at least two seeds")
    commits = {side: resolve(getattr(args, side)) for side in SIDES}
    for side, commit in commits.items():
        if not commit:
            parser.error(f"--{side} {getattr(args, side)} names no commit")
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            clone(commits[side], tree)
        seconds = {json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]
                   for tree in trees.values()}
        if len(seconds) != 1:
            parser.error("the two sides' BENCHMARK.json set different run_seconds")
        record = measure(args, trees, seconds.pop())
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def measure(args, trees: dict, seconds: int) -> dict:
    """The record of the pairs and the machine, run on the two clones."""
    spreads = {side: load_spread(tree, side) for side, tree in trees.items()}

    pairs, summary = {}, {}
    for workload in args.workloads:
        pairs[workload] = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = spreads[side].run_once(workload, seed, seconds)
                pair[side]["passes"] = passes(trees[side], workload)
            pairs[workload].append(pair)
            print(f"{workload} seed {seed} {order[0]} first: correct "
                  f"{pair['parent']['correct']}/{pair['change']['correct']}",
                  flush=True)
        summary[workload] = summarize(pairs[workload], spreads["parent"].spread)
        for name, row in summary[workload].items():
            print(f"{workload:14s} {name:30s} parent "
                  f"{row['parent']['median']:<12.6g} change "
                  f"{row['change']['median']:<12.6g} change lower in "
                  f"{row['change_lower_pairs']}/{len(args.seeds)}")

    return {
        "seeds": args.seeds,
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "trees": {side: {"rev": git_rev(tree), "src_lines": src_lines(tree),
                         "tier1": tier1(tree)}
                  for side, tree in trees.items()},
        "summary": summary,
        "pairs": pairs,
    }


if __name__ == "__main__":
    sys.exit(main())
