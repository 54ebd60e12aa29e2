#!/usr/bin/env python3
"""Audit the greedy allocator against the exhaustive oracle.

Draws random small systems (few enough files that enumeration is exact),
solves each with both methods and both designs, and reports the per-instance
value ratio.  The certified lower bound on the ratio is 1/2; this script
shows where the fleet actually lands.

With ``--scale N`` it instead times greedy ``solve_rlnc`` and ``solve_uc``
on one library of N Zipf(1) files at the paper's operating point (K = N/5,
M = 5, size ratio 0.2, alpha = 4) and prints each objective over the
fractional-knapsack relaxation bound, which no allocation can exceed.

Usage:
    python3 scripts/greedy_quality.py [--instances N] [--seed N] [--out PATH]
    python3 scripts/greedy_quality.py --scale N
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from partcache import (
    SystemConfig,
    solve_rlnc,
    solve_uc,
    stp_rlnc_file,
    stp_uc_file,
    zipf_popularity,
)
from partcache.cli import format_real

HEADER = [
    "instance",
    "design",
    "n_files",
    "cache_size",
    "sic_capability",
    "zipf_gamma",
    "size_ratio",
    "greedy",
    "exhaustive",
    "ratio",
]


def random_cfg(rng) -> tuple[SystemConfig, float]:
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, min(n, 4)))
    gamma = float(rng.uniform(0.2, 2.0))
    ratio = float(10 ** rng.uniform(-1.5, 1.3))
    cfg = SystemConfig(
        n_files=n,
        cache_size=k,
        sic_capability=m,
        path_loss_exp=4.0,
        bandwidth=1.0e7,
        slot_duration=1.0e-3,
        file_size=ratio * 1.0e4,
        bs_density=1.0e-4,
    )
    return cfg, gamma


def fractional_bound(probs, profile, capacity: int) -> float:
    """Optimum of the fractional relaxation: split m weighs 1/m, earns a*profile[m-1].

    Each file's items are reduced to their upper concave hull from the free
    uncached point; the hull segments of all files are then filled in
    falling slope order, the last one fractionally.
    """
    hull = [(0.0, 0.0)]
    for m in range(len(profile), 0, -1):
        w, q = 1.0 / m, profile[m - 1]
        while len(hull) >= 2 and (hull[-1][1] - hull[-2][1]) * (w - hull[-2][0]) <= (
            q - hull[-2][1]
        ) * (hull[-1][0] - hull[-2][0]):
            hull.pop()
        if q > hull[-1][1]:
            hull.append((w, q))
    widths = np.diff([w for w, _ in hull])
    slopes = np.diff([q for _, q in hull]) / widths
    seg_slope = np.multiply.outer(np.asarray(probs), slopes).ravel()
    order = np.argsort(-seg_slope, kind="stable")
    seg_width = np.tile(widths, len(probs))[order]
    seg_gain = seg_slope[order] * seg_width
    filled = np.cumsum(seg_width)
    whole = int(np.searchsorted(filled, capacity, side="right"))
    bound = float(seg_gain[:whole].sum())
    if whole < filled.size:
        room = capacity - (filled[whole - 1] if whole else 0.0)
        bound += float(seg_slope[order[whole]] * room)
    return bound


def scale_run(n_files: int) -> int:
    """Time both greedy solvers on one paper-shaped library of n_files files."""
    if n_files < 5:
        raise SystemExit("--scale needs at least 5 files (cache size N/5 >= 1)")
    cfg = SystemConfig(
        n_files=n_files,
        cache_size=n_files // 5,
        sic_capability=5,
        path_loss_exp=4.0,
        bandwidth=1.0e7,
        slot_duration=1.0e-3,
        file_size=0.2 * 1.0e4,
        bs_density=1.0e-4,
    )
    pop = zipf_popularity(n_files, 1.0)
    cap = cfg.sic_capability
    for design, solve, profile in (
        ("rlnc", solve_rlnc, [stp_rlnc_file(m, cfg) for m in range(1, cap + 1)]),
        ("uc", solve_uc, [stp_uc_file(m, 1 if m == 1 else cap, cfg) for m in range(1, cap + 1)]),
    ):
        start = time.perf_counter()
        result = solve(pop, cfg, "greedy")
        elapsed = time.perf_counter() - start
        bound = fractional_bound(pop.probs, profile, cfg.cache_size)
        print(
            f"{design} greedy N={n_files} K={cfg.cache_size} M={cap}: "
            f"{elapsed:.3f} s ({n_files / elapsed:,.0f} files/s), "
            f"objective/bound {result.objective / bound:.6f}"
        )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    ap.add_argument(
        "--scale",
        type=int,
        default=None,
        metavar="N",
        help="time the greedy at N files instead of auditing small instances",
    )
    args = ap.parse_args(argv)
    if args.scale is not None:
        return scale_run(args.scale)

    rng = np.random.default_rng(args.seed)
    rows = []
    min_ratio = float("inf")
    for idx in range(args.instances):
        cfg, gamma = random_cfg(rng)
        pop = zipf_popularity(cfg.n_files, gamma)
        for design, solve in (("rlnc", solve_rlnc), ("uc", solve_uc)):
            exact = solve(pop, cfg, "exhaustive").objective
            approx = solve(pop, cfg, "greedy").objective
            ratio = approx / exact if exact > 0 else 1.0
            min_ratio = min(min_ratio, ratio)
            rows.append(
                [
                    idx,
                    design,
                    cfg.n_files,
                    cfg.cache_size,
                    cfg.sic_capability,
                    format_real(gamma),
                    format_real(cfg.rate_ratio),
                    format_real(approx),
                    format_real(exact),
                    format_real(ratio),
                ]
            )

    stream = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)
    finally:
        if args.out:
            stream.close()
    print(
        f"minimum greedy/exhaustive ratio over {args.instances} instances: "
        f"{min_ratio:.4f} (certified bound 0.5)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
