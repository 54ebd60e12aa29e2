"""Show that every benchmark check passes on right values and fails on wrong ones.

    python3 bench/selftest.py

Each case feeds one ``oracle.check_*`` a value computed by the package (or
the reference itself) and a deliberately wrong one: a perturbed interference
factor, an over-budget allocation, a shifted estimate.  Exits 1 when a check
accepts a wrong value or rejects a right one.
"""

import math
import os
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import partcache as pc  # noqa: E402

import oracle  # noqa: E402


def cases():
    cfg, gamma = pc.load_config(os.path.join(ROOT, "scripts", "configs", "demo5.cfg"))
    pop = pc.zipf_popularity(cfg.n_files, gamma)
    probs, t, alpha = pop.probs, cfg.rate_ratio, cfg.path_loss_exp
    k, depth = cfg.cache_size, cfg.sic_capability
    split = pc.RlncAllocation((2, 2, 2, 2, 0))

    rho = oracle.stage_factor(t / 2, alpha)
    yield "check_close", "noise factor, quadrature vs 2F1", True, oracle.check_close(
        "rho", pc.sic_noise_factor(2, cfg), rho)
    yield "check_close", "noise factor perturbed by 1e-6", False, oracle.check_close(
        "rho", pc.sic_noise_factor(2, cfg) * (1 + 1e-6), rho)
    want = oracle.stp_rlnc(probs, split.codes, t, alpha)
    yield "check_close", "stp_rlnc of a split allocation", True, oracle.check_close(
        "stp", pc.stp_rlnc(split, pop, cfg).total, want)
    wrong = math.fsum(a * oracle.chain(rho * (1 + 1e-6), 2) for a in probs[:4])
    yield "check_close", "stp_rlnc from a perturbed rho", False, oracle.check_close("stp", wrong, want)

    whole = pc.RlncAllocation((1, 1, 0, 0, 0))
    exact = oracle.stp_rlnc(probs, whole.codes, t, alpha)
    est = pc.simulate_rlnc(whole, pop, cfg, 2000, 5).overall
    half = 1.96 * math.sqrt(exact * (1 - exact) / est.trials)
    yield "check_mc", "whole-file estimate", True, oracle.check_mc("mc", est.mean, est.trials, exact)
    yield "check_mc", "estimate shifted by 4 half-widths", False, oracle.check_mc(
        "mc", exact + 4 * half, est.trials, exact)
    b3 = pc.simulate_baseline(3, pop, cfg, 2000, 5)
    yield "check_mc", "baseline 3 estimate", True, oracle.check_mc(
        "mc", b3.mean, b3.trials, oracle.baseline_success(3, probs, k, t, alpha))
    yield "check_mc", "baseline 3 against the baseline 2 value", False, oracle.check_mc(
        "mc", b3.mean, b3.trials, oracle.baseline_success(2, probs, k, t, alpha))

    est = pc.simulate_rlnc(split, pop, cfg, 2000, 5).overall
    yield "check_split_gap", "split estimate", True, oracle.check_split_gap("gap", est.mean, est.trials, want)
    half = 1.96 * math.sqrt(want * (1 - want) / est.trials)
    yield "check_split_gap", "estimate shifted 4 half-widths past the gap", False, oracle.check_split_gap(
        "gap", want + oracle.SPLIT_GAP + 4 * half, est.trials, want)

    uncoded = pc.UcAllocation(split.codes, (3, 3, 3, 3, 0))
    coded_v, uncoded_v = pc.stp_rlnc(split, pop, cfg).total, pc.stp_uc(uncoded, pop, cfg).total
    yield "check_dominates", "coded over uncoded", True, oracle.check_dominates("dom", coded_v, uncoded_v)
    yield "check_dominates", "coded and uncoded swapped", False, oracle.check_dominates("dom", uncoded_v, coded_v)

    result = pc.solve_rlnc(pop, cfg)
    codes = result.allocation.codes
    yield "check_budget", "greedy allocation", True, oracle.check_budget("budget", codes, depth, k)
    yield "check_budget", "three thirds fill a budget of one", True, oracle.check_budget(
        "budget", (3, 3, 3, 0, 0), 3, 1)
    yield "check_budget", "one more whole file than the budget", False, oracle.check_budget(
        "budget", (1,) * (k + 1) + (0,) * (cfg.n_files - k - 1), depth, k)
    yield "check_budget", "split beyond the receiver depth", False, oracle.check_budget(
        "budget", (depth + 1,) + (0,) * (cfg.n_files - 1), depth, k)

    bound = oracle.fractional_bound(probs, oracle.split_profile("rlnc", depth, t, alpha), k)
    yield "check_half_optimal", "greedy objective", True, oracle.check_half_optimal("half", result.objective, bound)
    small = replace(cfg, n_files=6, cache_size=2)
    small_pop = pc.zipf_popularity(6, gamma)
    exhaustive = pc.solve_uc(small_pop, small, "exhaustive").objective
    small_bound = oracle.fractional_bound(small_pop.probs, oracle.split_profile("uc", depth, t, alpha), 2)
    yield "check_half_optimal", "exact optimum lies under the bound", True, oracle.check_half_optimal(
        "half", exhaustive, small_bound)
    yield "check_half_optimal", "objective below half the bound", False, oracle.check_half_optimal(
        "half", 0.45 * bound, bound)
    yield "check_half_optimal", "objective above the bound", False, oracle.check_half_optimal(
        "half", 1.01 * bound, bound)

    rng = np.random.default_rng(5)
    counts = [pc.sample_network(cfg, rng).bs_distances.size for _ in range(50)]
    expected = pc.DEFAULT_DISC_SCALE**2
    mean = sum(counts) / len(counts)
    yield "check_poisson_mean", "stations per sampled field", True, oracle.check_poisson_mean(
        "stations", mean, len(counts), expected)
    yield "check_poisson_mean", "mean shifted by 5 standard errors", False, oracle.check_poisson_mean(
        "stations", expected + 5 * math.sqrt(expected / len(counts)), len(counts), expected)


def main() -> int:
    bad = 0
    for check, case, should_pass, error in cases():
        passed = error is None
        ok = passed == should_pass
        bad += not ok
        verdict = "ok " if ok else "BAD"
        print(f"{verdict} {check:20} {'passes' if passed else 'fails '}  {case}")
    print(f"{bad} case(s) where a check misjudged its input")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
