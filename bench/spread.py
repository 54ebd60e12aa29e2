"""Run workloads repeatedly and print each metric's spread next to its bound.

    python3 bench/spread.py --runs 10 --first-seed 1 [--workload mc-demo ...]

Each run is ``bench/run.py`` in a fresh process with its own seed, one after
another.  The spread is the distance between the first and third quartiles
of a metric's values over the runs, as a share of their median; BENCHMARK.json
bounds how far a later median may worsen.  Also prints the share of failed
operations, which must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, os.path.join("bench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            res = run_once(workload, args.first_seed + i, args.seconds)
            results.append(res)
            print(f"{workload} seed {args.first_seed + i}: " + json.dumps(res), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        print(f"\n{workload}: correct in every run: {correct}; failed shares: {sorted(shares)}")
        print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            within = metric["name"] == "setup_s" or spread <= metric["bound"]
            ok &= within
            print(
                f"{metric['name']:24} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                f"{spread:8.4f} {metric['bound']:6.2f}{'' if within else '  OVER'}"
            )
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
