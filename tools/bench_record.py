"""Record one `perfbench/spread.py` run, with the machine it ran on, in a BENCH file.

    python3 tools/bench_record.py --out BENCH_name.json --label change \
        --workloads snapshot-bulk sim-bootstrap --seeds 901 902 903 904 905

runs `<tree>/perfbench/spread.py` as it is, from the source tree given
by `--tree` (default: this checkout), and stores its final JSON line
under `runs.<label>` in the `--out` file, beside the tree's git
revision, `nproc`, the CPU model from /proc/cpuinfo, the Python and
numpy versions, and the wall time of the tree's Tier-1 suite
(`python -m pytest -q --continue-on-collection-errors` with the tree's
`src` on PYTHONPATH), run after the spread with its exit code and
summary line. Labels already in the file are kept, so a parent tree
and a change can be recorded into one file, one after the other.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git_rev(tree: Path) -> str:
    """HEAD of the tree, with `-dirty` when tracked files differ from it."""
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, check=True,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=tree, check=True, capture_output=True,
                           text=True).stdout.strip()
    return rev + ("-dirty" if dirty else "")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", required=True)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()

    cmd = [sys.executable, str(tree / "perfbench" / "spread.py"),
           "--workloads", *args.workloads, "--seeds", *args.seeds]
    proc = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                          text=True)
    sys.stdout.write(proc.stdout)
    record = {
        "rev": git_rev(tree),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "spread": json.loads(proc.stdout.strip().splitlines()[-1]),
        "tier1": tier1(tree),
    }
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench.setdefault("runs", {})[args.label] = record
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
