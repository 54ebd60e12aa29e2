"""Run one partcache benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload mc-demo --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy.  One process, no worker threads:
BLAS and OpenMP pools are pinned to one thread before numpy loads.

``--trace 0`` sets up (timed from the process's start), runs one untimed
warm-up round, then whole rounds of fixed work until ``--seconds`` have
passed (four at least), checks every round's outputs, and reports medians
over the rounds of times scaled by ``calibrate()``.  ``--trace 1`` runs the
warm-up, five plain rounds and five rounds with every module boundary
wrapped, and reports per-layer metrics per traced round.  The last line of
standard output is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os
import sys
import time

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_ROUNDS = 4
TRACE_ROUNDS = 5
# calibrate() on the reference machine (README) when no other tenant slows it
CALIBRATION_REF_S = 0.0125


def seconds_since_process_start() -> float:
    """Boot-clock time since the kernel started this process (10 ms start resolution)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc-demo", "paper-sweep", "analytic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def calibrate() -> float:
    """Seconds for a fixed piece of object-heavy interpreter work.

    Tuples built and sorted and rationals summed, like the package's greedy,
    validation and per-trial bookkeeping.  Other tenants of a shared machine
    slow such work by up to 60% for seconds to minutes at a time, and slow
    the package's rounds alike, so the ratio of the two stays put.
    """
    start = time.perf_counter()
    items = [(-(j * 7919 % 1000) / 1000.0, j, j % 5) for j in range(20_000)]
    items.sort()
    used = Fraction(0)
    for j in range(2_000):
        used += Fraction(1, 1 + j % 5)
    return time.perf_counter() - start


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def end_to_end(rounds, setup_s):
    """Medians over rounds of times scaled to the reference machine speed."""
    median = statistics.median
    return {
        "setup_s": setup_s,
        "wall_s": median(r.wall_s * r.speed for r in rounds),
        "mc_trials_per_s": median(_rate(r.trials, r.mc_s * r.speed) for r in rounds),
        "analytic_points_per_s": median(_rate(r.evals, r.eval_s * r.speed) for r in rounds),
        "alloc_files_per_s": median(_rate(r.files, r.alloc_s * r.speed) for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "partcache", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: {ROOT} lacks src/partcache or BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import partcache

    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload](partcache, ROOT, args.seed)
    setup_s = seconds_since_process_start()

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    errors: list[str] = []
    rounds = []

    def run_round(r, meter=True):
        gc.collect()
        before = calibrate()
        timing, outputs = workload.round(r, meter)
        timing.speed = 2.0 * CALIBRATION_REF_S / (before + calibrate())
        errors.extend(workload.check(outputs))
        rounds.append(timing)
        return timing

    run_round(0)  # warm-up: imports inside the package, caches, allocator arenas
    if args.trace:
        plain = [run_round(r) for r in range(1, 1 + TRACE_ROUNDS)]
        with layers.layer_tracer(partcache) as tracer:
            traced = [run_round(r, meter=False) for r in range(1 + TRACE_ROUNDS, 1 + 2 * TRACE_ROUNDS)]
        values = layers.layer_metrics(tracer, traced, plain)
        errors.extend(layers.check_layers(partcache, tracer))
        declared = spec["per_layer"]
    else:
        timed = []
        start = time.perf_counter()
        r = 1
        while len(timed) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            timed.append(run_round(r))
            r += 1
        values = end_to_end(timed, setup_s)
        declared = spec["end_to_end"]

    errors.extend(workload.finish())
    scratch = os.path.join(ROOT, ".bench_tmp")
    if os.path.isdir(scratch) and not os.listdir(scratch):
        os.rmdir(scratch)
    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    if missing:
        print(f"# missing metrics: {', '.join(missing)}", file=sys.stderr)
    for line in errors[:20]:
        print(f"# check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(t.attempted for t in rounds),
        "failed": sum(t.failed for t in rounds),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
            if values.get(m["name"]) is not None
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
