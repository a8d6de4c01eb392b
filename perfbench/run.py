"""coinprune benchmark: three seeded user paths, closed loop, one process.

    python3 perfbench/run.py --workload sim-bootstrap --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from its
`src/` directory. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of one traced pass. The last line of standard
output is a JSON object: correct, attempted, failed, metrics. Lines
before it name every metric with its unit, the artifact digests and
the failed checks; `perfbench/out/<workload>/` keeps the run's files.
See perfbench/README.md for the workloads and the metric mapping.
"""

import argparse
import gc
import importlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("sim-bootstrap", "snapshot-bulk", "security-grid")
# setup_s is the median of at least this many set-up samples. A sample
# is the mean of back-to-back set-ups over at least SETUP_BATCH_S. The
# 2-vCPU VM measured in perfbench/README.md (Steadiness) switches between
# speed states about 1.5x apart many times a second, so one timing of a
# set-up that takes microseconds lands in one state; medians of such
# timings moved by 30 % between two ten-run sets of the same code there
SETUP_REPEATS = 3
SETUP_BATCH_S = 0.2
# end-to-end metrics every workload measures
COMMON_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until this much time has gone")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_package() -> None:
    """Import coinprune from this tree's src/, never from an installed copy."""
    if not (SRC / "coinprune" / "__init__.py").is_file():
        sys.exit(f"error: no coinprune sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coinprune.cli  # noqa: F401  (numpy and every module)
    if Path(sys.modules["coinprune"].__file__).resolve().parent.parent != SRC:
        sys.exit("error: coinprune was imported from outside this tree")


def _one_pass(workload, inputs, targets):
    from tracer import Tracer
    gc.collect()
    tracer = Tracer(targets)
    tracer.install()
    try:
        work = workload.execute(inputs)
    finally:
        tracer.uninstall()
    return work, tracer


def _untraced(workload, args, out_dir, checks) -> tuple[dict, dict]:
    """Passes until --seconds of pass time have gone, each on freshly set-up
    inputs, so the set-ups sample the whole run as the passes do."""
    from layers import PHASES
    from tracer import median

    setup_times, passes, digests, memo = [], [], {}, {}
    inputs = None

    def set_up() -> None:
        nonlocal inputs
        inputs = None  # one input set alive at a time
        gc.collect()
        count, start = 0, time.perf_counter()
        while not count or time.perf_counter() - start < SETUP_BATCH_S:
            inputs = workload.Inputs(args.seed, out_dir)
            count += 1
        setup_times.append((time.perf_counter() - start) / count)

    measured = 0.0
    while not passes or measured < args.seconds:
        set_up()
        started = time.perf_counter()
        work, tracer = _one_pass(workload, inputs, PHASES)
        measured += time.perf_counter() - started
        digests = workload.check(inputs, work, checks, memo) or digests
        passes.append(workload.pass_metrics(work, tracer))
        del work, tracer
    while len(setup_times) < SETUP_REPEATS:
        set_up()

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": median(setup_times), "peak_rss_mb": peak_kib / 1024}
    metrics.update({name: median(p[name] for p in passes) for name in passes[0]})
    evidence = {"passes": passes, "setup_s": setup_times, "digests": digests}
    return metrics, evidence


def _traced(workload, args, out_dir, checks) -> tuple[dict, dict]:
    import layers

    inputs, memo = workload.Inputs(args.seed, out_dir), {}
    work, tracer = _one_pass(workload, inputs, layers.PHASES)
    workload.check(inputs, work, checks, memo)
    untraced = workload.pass_metrics(work, tracer)
    del work, tracer

    work, tracer = _one_pass(workload, inputs, layers.TARGETS)
    digests = workload.check(inputs, work, checks, memo)
    traced = workload.pass_metrics(work, tracer)
    counts = tracer.counts()
    for name, want in workload.predicted_counts(inputs).items():
        got = counts.get(name, 0)
        checks.expect(got == want, f"{name}: {got} calls, predicted {want}")
    metrics = layers.generic_metrics(tracer)
    metrics.update(workload.layer_metrics(inputs, work, tracer, checks, untraced))
    metrics["bench.trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    del work
    tracer.write(out_dir / "spans.tsv.gz")
    evidence = {"counts": counts, "digests": digests,
                "untraced_pass": untraced, "traced_pass": traced}
    return metrics, evidence


def _units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics the result line carries, in order."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _load_package()
    from harness import Checks, digest

    workload = importlib.import_module(args.workload.replace("-", "_"))
    out_dir = ROOT / "perfbench" / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    checks = Checks()
    run = _traced if args.trace else _untraced
    measured, evidence = run(workload, args, out_dir, checks)
    # the JSON line carries BENCHMARK.json's metrics; an untraced run also
    # prints the metrics that exist on this workload only, ungated
    units = _units(args.trace)
    printed = units if args.trace else {**units, **COMMON_UNITS, **workload.UNITS}
    unknown = set(measured) - set(printed)
    missing = set() if args.trace else set(printed) - set(measured)
    if unknown or missing:
        sys.exit(f"error: metrics outside {SPEC.name}: {sorted(unknown)}, "
                 f"metrics not measured: {sorted(missing)}")
    # per-layer metrics of layers this workload never enters read 0
    metrics = {name: measured.get(name, 0) for name in printed}

    for name, value in metrics.items():
        print(f"metric {name} {value!r} {printed[name]}")
    failed = len(checks.failures)
    print(f"metric error_rate {failed / checks.attempted!r} ratio "
          f"({failed} failed of {checks.attempted} output checks)")
    for name, value in evidence["digests"].items():
        print(f"digest {name} {value}")
    if "counts" in evidence:
        counts_json = json.dumps(evidence["counts"], sort_keys=True)
        print(f"digest span_counts {digest(counts_json.encode())}")
    (out_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "metrics": metrics, "failures": checks.failures,
         **evidence}, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not failed,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
