"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, times set-up (``import
mgplan`` plus the program's loaders) from the start of this script,
repeats the workload's operation for at most S seconds of operation time
(always at least one operation), checks every output, and prints one JSON
object as the last line of standard output. With ``--trace 1`` the
program's public functions are wrapped and per-layer figures are printed
instead of end-to-end metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"
# Spelled out here because the workload classes import numpy, which must
# not load before the timed ``import mgplan``.
WORKLOAD_NAMES = ("siting_region", "sweep_year", "dispatch_batch")
TAIL_QUANTILE = 0.75


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Own peak RSS plus the peak of the largest child waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def nearest_rank(values, q):
    """The q-quantile by nearest rank: at least (1 - q) * n samples lie above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def declared_units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mgplan" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mgplan

    import_s = time.perf_counter() - T0
    sys.path.insert(0, str(ROOT))
    from perfbench import trace as trace_mod
    from perfbench.workloads import WORKLOADS

    work = WORK_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    try:
        workload = WORKLOADS[args.workload](mgplan, work, args.seed, bool(args.trace))
        if args.trace:
            tracer = trace_mod.Tracer()
            trace_mod.install(tracer)
        t_load = time.perf_counter()
        workload.load()
        setup_s = import_s + (time.perf_counter() - t_load)

        latencies, errors = [], []
        attempted = failed = 0
        spent = slowest = 0.0
        while attempted == 0 or spent + slowest <= args.seconds:
            prepared = workload.prepare(attempted)
            span = tracer.begin_op() if tracer else None
            t = time.perf_counter()
            try:
                result = workload.run(prepared)
            except Exception:
                failed += 1
                result = None
                traceback.print_exc()
            finally:
                dt = time.perf_counter() - t
                if span is not None:
                    tracer.end_op(span)
            attempted += 1
            spent += dt
            slowest = max(slowest, dt)
            if result is not None:
                latencies.append(dt)
                errors.extend(workload.check(prepared, result))
        if not latencies:
            print("error: every operation failed", file=sys.stderr)
            return 1
        peak = peak_rss_mb()
        errors.extend(workload.finish())
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units()
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    if tracer is not None:
        figures = trace_mod.layer_figures(tracer, latencies, workload.busy(latencies))
        tracer.write(WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        figures = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": nearest_rank(latencies, TAIL_QUANTILE),
            "peak_rss_mb": peak,
        }
    metrics = {name: {"value": value, "unit": units[name]} for name, value in figures.items()}
    print(f"{args.workload}: {len(latencies)} operations, {spent:.3f} s measured", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
