"""Run-to-run spread of the benchmark, measured the way it is judged.

    python3 perfbench/spread.py --workloads sim-bootstrap --seeds 1 2 3 4 5

Runs `perfbench/run.py` once per (workload, seed), one run at a time,
for `run_seconds` from BENCHMARK.json, and prints per metric the median
of the runs and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of that median. Gated metrics come from each run's JSON line,
the other end-to-end metrics from its `metric` lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric" and parts[1] not in values:
            values[parts[1]] = float(parts[2])
    values["correct"] = result["correct"]
    return values


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid if mid else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds) for seed in args.seeds]
        rows = {}
        for name in runs[0]:
            if name == "correct":
                continue
            column = [r[name] for r in runs]
            mid, share = spread(column)
            rows[name] = {"median": mid, "iqr_share": share, "values": column}
            print(f"{workload:14s} {name:30s} median {mid:<14.6g} "
                  f"iqr/median {share:.4f}")
        print(f"{workload:14s} all runs correct: "
              f"{all(r['correct'] for r in runs)}")
        report[workload] = rows
    print(json.dumps({"seeds": args.seeds, "seconds": seconds,
                      "spread": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
