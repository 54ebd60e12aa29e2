"""The benchmark's three workloads: mc-demo, paper-sweep and analytic.

A workload is set up once (config and popularity) and then runs rounds of
fixed work.  ``round(r)`` makes round ``r``'s inputs from the seed, runs and
times the work, and returns the timings with the outputs; ``check`` compares
the outputs with ``oracle`` and returns the reasons for any failure, and
``finish`` does the same for the Monte Carlo estimates pooled over the run.
Round inputs depend only on (seed, r), so two runs with one seed do the
same work.

Each round times three kinds of work separately: Monte Carlo trials, closed
form evaluations and allocations.  mc-demo and analytic call the package
directly, one kind per phase.  paper-sweep runs one ``partcache sweep``
in-process, and the entry points of the three engines are metered with a
``Tracer`` to split its time by kind; ``meter=False`` leaves them off while
a full trace is running.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import oracle
from tracer import Tracer

SIMULATORS = (
    "simulate.simulate_rlnc",
    "simulate.simulate_uc",
    "simulate.simulate_baseline",
)
SOLVERS = ("optimize.solve_rlnc", "optimize.solve_uc")
CLOSED_FORMS = (
    "analysis.stp_rlnc",
    "analysis.stp_uc",
    "analysis.stp_rlnc_small_s",
    "analysis.stp_rlnc_large_s",
    "analysis.stp_uc_small_s",
    "analysis.stp_uc_large_s",
)


def _count_trials(counters, args, kwargs, result):
    counters["trials"] += kwargs["trials"] if "trials" in kwargs else args[3]


def _count_files(counters, args, kwargs, result):
    counters["files"] += (kwargs["cfg"] if "cfg" in kwargs else args[1]).n_files


ENGINE_HOOKS = {
    **{name: _count_trials for name in SIMULATORS},
    **{name: _count_files for name in SOLVERS},
    **{name: None for name in CLOSED_FORMS},
}


def round_seed(seed: int, r: int) -> int:
    """A 64-bit simulator seed for round ``r``."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1, np.uint64)[0])


@dataclass
class Round:
    """Timings and operation counts of one round; rates are work over seconds."""

    wall_s: float
    trials: float = 0.0
    mc_s: float = 0.0
    evals: float = 0.0
    eval_s: float = 0.0
    files: float = 0.0
    alloc_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rows: int = 0  # CSV rows the command line wrote
    speed: float = 1.0  # reference calibration time over this round's


class _Calls:
    """Runs package calls, counting attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # a failing operation is counted, reported and skipped
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def _timed(calls, jobs):
    start = time.perf_counter()
    out = [calls(fn, *args) for fn, *args in jobs]
    return out, time.perf_counter() - start


def _at_ratio(cfg, ratio, **changes):
    return replace(
        cfg, file_size=ratio * cfg.bandwidth * cfg.slot_duration, **changes
    )


def _serves(codes, depth):
    return tuple(c if c <= 1 else depth for c in codes)


class _Pool:
    """Monte Carlo successes pooled over a run's rounds, checked once at the end.

    Rounds are short so that a run holds many timing blocks; pooling gives
    the correctness checks the trials of the whole run.
    """

    def __init__(self):
        self.tally = {}
        self.checks = {}
        self.orders = []

    def add(self, label, mean, trials, check, reference):
        hits, total = self.tally.get(label, (0, 0))
        self.tally[label] = (hits + round(mean * trials), total + trials)
        self.checks[label] = (check, reference)

    def mean(self, label):
        hits, trials = self.tally[label]
        return hits / trials

    def order(self, label, coded, uncoded, slack):
        """Require pooled ``coded`` >= pooled ``uncoded`` - ``slack`` at the end."""
        self.orders.append((label, coded, uncoded, slack))

    def errors(self):
        errors = []
        for label, (hits, trials) in self.tally.items():
            check, reference = self.checks[label]
            errors.append(check(label, hits / trials, trials, reference))
        errors += [
            oracle.check_dominates(label, self.mean(coded), self.mean(uncoded), slack)
            for label, coded, uncoded, slack in self.orders
            if coded in self.tally and uncoded in self.tally
        ]
        return [e for e in errors if e]


# --------------------------------------------------------------------------
# mc-demo
# --------------------------------------------------------------------------


class McDemo:
    """The five-file demo: whole and split coded, uncoded and baselines 1-3.

    Monte Carlo at three file sizes carries nearly all the work; the
    closed-form curve and greedy allocations over a few dozen file sizes
    ride along, as a user of the demo would plot them.
    """

    MC_RATIOS = (0.5, 1.0, 2.0)
    TRIALS = 100
    CURVE_POINTS = 48
    DESIGNS = ("rlnc-whole", "rlnc-split", "uc-split", "baseline1", "baseline2", "baseline3")

    def __init__(self, pc, root, seed):
        self.pc, self.seed = pc, seed
        self.cfg, gamma = pc.load_config(os.path.join(root, "scripts", "configs", "demo5.cfg"))
        self.pop = pc.zipf_popularity(self.cfg.n_files, gamma)
        depth = self.cfg.sic_capability
        self.whole = pc.RlncAllocation((1, 1, 0, 0, 0))
        self.split = pc.RlncAllocation((2, 2, 2, 2, 0))
        self.uncoded = pc.UcAllocation((2, 2, 2, 2, 0), _serves((2, 2, 2, 2, 0), depth))
        self.pool = _Pool()
        for x in self.MC_RATIOS:
            label = f"ratio {x:g}"
            self.pool.order(f"{label} MC, split 2", f"{label} rlnc-split", f"{label} uc-split", 1.0 / self.TRIALS)

    def round(self, r, meter=True):
        pc, calls = self.pc, _Calls()
        rng = np.random.default_rng([self.seed, r])
        ratios = np.sort(np.exp(rng.uniform(math.log(0.25), math.log(4.0), self.CURVE_POINTS)))
        curve = [_at_ratio(self.cfg, float(x)) for x in ratios]
        points = [_at_ratio(self.cfg, x) for x in self.MC_RATIOS]
        seed = round_seed(self.seed, r)
        pop = self.pop

        closed, eval_s = _timed(calls, [
            job
            for cfg in curve
            for job in (
                (pc.stp_rlnc, self.whole, pop, cfg),
                (pc.stp_rlnc, self.split, pop, cfg),
                (pc.stp_uc, self.uncoded, pop, cfg),
            )
        ])
        allocs, alloc_s = _timed(calls, [
            (solve, pop, cfg) for cfg in curve for solve in (pc.solve_rlnc, pc.solve_uc)
        ])
        mc_jobs = []
        for cfg in points:
            mc_jobs += [
                (pc.simulate_rlnc, self.whole, pop, cfg, self.TRIALS, seed),
                (pc.simulate_rlnc, self.split, pop, cfg, self.TRIALS, seed),
                (pc.simulate_uc, self.uncoded, pop, cfg, self.TRIALS, seed),
            ] + [(pc.simulate_baseline, b, pop, cfg, self.TRIALS, seed) for b in (1, 2, 3)]
        estimates, mc_s = _timed(calls, mc_jobs)

        timing = Round(
            wall_s=eval_s + alloc_s + mc_s,
            trials=len(mc_jobs) * self.TRIALS, mc_s=mc_s,
            evals=len(closed), eval_s=eval_s,
            files=len(allocs) * self.cfg.n_files, alloc_s=alloc_s,
            attempted=calls.attempted, failed=calls.failed,
        )
        return timing, (curve, closed, allocs, points, estimates)

    def check(self, outputs):
        curve, closed, allocs, points, estimates = outputs
        probs, errors = self.pop.probs, []
        k = self.cfg.cache_size
        for i, cfg in enumerate(curve):
            t, alpha = cfg.rate_ratio, cfg.path_loss_exp
            whole, split, uncoded = closed[3 * i : 3 * i + 3]
            if None not in (whole, split, uncoded):
                errors += [
                    oracle.check_close("stp_rlnc whole", whole.total, oracle.stp_rlnc(probs, self.whole.codes, t, alpha)),
                    oracle.check_close("stp_rlnc split", split.total, oracle.stp_rlnc(probs, self.split.codes, t, alpha)),
                    oracle.check_close("stp_uc split", uncoded.total, oracle.stp_uc(probs, self.uncoded.codes, self.uncoded.serve_counts, t, alpha)),
                    oracle.check_dominates("closed form, split 2", split.total, uncoded.total),
                ]
            for design, result in zip(("rlnc", "uc"), allocs[2 * i : 2 * i + 2]):
                if result is not None:
                    errors += _check_allocation(design, result, probs, cfg)
        for j, (x, cfg) in enumerate(zip(self.MC_RATIOS, points)):
            t, alpha = cfg.rate_ratio, cfg.path_loss_exp
            label = f"ratio {x:g}"
            # one seed for all designs: the same requests and fields, so the
            # uncoded chain is never shorter and coding only adds successes
            references = {
                "rlnc-whole": (oracle.check_mc, oracle.stp_rlnc(probs, self.whole.codes, t, alpha)),
                "rlnc-split": (oracle.check_split_gap, oracle.stp_rlnc(probs, self.split.codes, t, alpha)),
                "uc-split": (oracle.check_split_gap, oracle.stp_uc(probs, self.uncoded.codes, self.uncoded.serve_counts, t, alpha)),
                **{f"baseline{b}": (oracle.check_mc, oracle.baseline_success(b, probs, k, t, alpha)) for b in (1, 2, 3)},
            }
            for design, est in zip(self.DESIGNS, estimates[6 * j : 6 * j + 6]):
                if est is not None:
                    est = getattr(est, "overall", est)
                    self.pool.add(f"{label} {design}", est.mean, est.trials, *references[design])
        return [e for e in errors if e]

    def finish(self):
        return self.pool.errors()


def _check_allocation(design, result, probs, cfg):
    codes = result.allocation.codes
    t, alpha, depth = cfg.rate_ratio, cfg.path_loss_exp, cfg.sic_capability
    if design == "rlnc":
        value = oracle.stp_rlnc(probs, codes, t, alpha)
    else:
        value = oracle.stp_uc(probs, codes, result.allocation.serve_counts, t, alpha)
    bound = oracle.fractional_bound(probs, oracle.split_profile(design, depth, t, alpha), cfg.cache_size)
    label = f"{design} greedy N={cfg.n_files} M={depth}"
    return [
        oracle.check_budget(label, codes, depth, cfg.cache_size),
        oracle.check_close(f"{label} objective", result.objective, value),
        oracle.check_half_optimal(label, result.objective, bound),
    ]


# --------------------------------------------------------------------------
# paper-sweep
# --------------------------------------------------------------------------


class PaperSweep:
    """The paper's thousand-file receiver-depth figure through the command line."""

    SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "paper_sweep.sweep")
    DESIGNS = ("rlnc-greedy", "uc-greedy", "baseline1", "baseline2", "baseline3")
    GRID = (1, 2, 3, 4, 5)

    def __init__(self, pc, root, seed):
        import partcache.cli  # noqa: F401  (the set-up includes the front end)

        self.pc, self.seed = pc, seed
        self.cfg, gamma = pc.load_config(os.path.join(root, "scripts", "configs", "paper1000.cfg"))
        self.pop = pc.zipf_popularity(self.cfg.n_files, gamma)
        self.scratch = os.path.join(root, ".bench_tmp")
        self.pool = _Pool()

    def round(self, r, meter=True):
        cli = self.pc.cli
        out_dir = os.path.join(self.scratch, f"sweep-{os.getpid()}-{r}")
        argv = ["sweep", self.SPEC, "--seed", str(round_seed(self.seed, r)), "--out", out_dir]
        calls = _Calls()
        tracer = Tracer(self.pc, ENGINE_HOOKS) if meter else contextlib.nullcontext()
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            (code,), wall_s = _timed(calls, [(cli.main, argv)])
        if code not in (0, None):  # None: the call raised and is counted already
            calls.failed += 1
        tables = {}
        for design in self.DESIGNS:
            path = os.path.join(out_dir, f"sweep_sic_capability_{design}.csv")
            if os.path.exists(path):
                tables[design] = cli.read_csv_rows(path)[1]
        shutil.rmtree(out_dir, ignore_errors=True)
        timing = Round(wall_s=wall_s, attempted=calls.attempted, failed=calls.failed,
                       rows=sum(len(rows) for rows in tables.values()))
        if meter:
            timing.trials, timing.mc_s = tracer.counters["trials"], tracer.inclusive(*SIMULATORS)
            timing.files, timing.alloc_s = tracer.counters["files"], tracer.inclusive(*SOLVERS)
            timing.evals, timing.eval_s = tracer.calls(*CLOSED_FORMS), tracer.inclusive(*CLOSED_FORMS)
        return timing, tables

    def check(self, tables):
        probs, errors = self.pop.probs, []
        k, t, alpha = self.cfg.cache_size, self.cfg.rate_ratio, self.cfg.path_loss_exp
        for design in self.DESIGNS:
            rows = tables.get(design, [])
            if [float(row["value"]) for row in rows] != list(self.GRID):
                errors.append(f"{design}: CSV rows do not cover the grid {self.GRID}")
                continue
            for row in rows:
                depth = int(float(row["value"]))
                label = f"{design} M={depth}"
                mean, trials = float(row["mc_mean"]), int(row["trials"])
                if design.startswith("baseline"):
                    exact = oracle.baseline_success(int(design[-1]), probs, k, t, alpha)
                    self.pool.add(f"{label} MC", mean, trials, oracle.check_mc, exact)
                    continue
                objective = float(row["objective"])
                bound = oracle.fractional_bound(probs, oracle.split_profile(design[:-7], depth, t, alpha), k)
                errors.append(oracle.check_half_optimal(label, objective, bound))
                if depth == 1:
                    exact = oracle.stp_rlnc(probs, (1,) * k + (0,) * (len(probs) - k), t, alpha)
                    errors.append(oracle.check_close(f"{label} objective", objective, exact))
                    self.pool.add(f"{label} MC", mean, trials, oracle.check_mc, exact)
                else:
                    self.pool.add(f"{label} MC", mean, trials, oracle.check_split_gap, objective)
        return [e for e in errors if e]

    def finish(self):
        return self.pool.errors()


# --------------------------------------------------------------------------
# analytic
# --------------------------------------------------------------------------


class Analytic:
    """Closed forms over fresh configurations, then greedy on a large library.

    Phase (a) evaluates coded, uncoded and size-limit closed forms at demo
    scale over (file size, alpha, M) configurations never seen before in the
    process, each at K = 1 and K = 2, so the noise-factor cache cannot serve
    them from an earlier round.  Phase (b) allocates a library of LARGE_N
    files.  No simulation is timed; a short whole-file Monte Carlo run
    cross-checks the closed form as part of the checks.
    """

    GRID_BASES = 250
    LARGE_N = 20_000
    CHECK_TRIALS = 300
    CHECK_RATIO = 1.0

    def __init__(self, pc, root, seed):
        self.pc, self.seed = pc, seed
        self.cfg, gamma = pc.load_config(os.path.join(root, "scripts", "configs", "demo5.cfg"))
        self.pop = pc.zipf_popularity(self.cfg.n_files, gamma)
        self.big_pop = pc.zipf_popularity(self.LARGE_N, gamma)
        self.big_cfg = replace(
            self.cfg, n_files=self.LARGE_N, cache_size=self.LARGE_N // 5, sic_capability=5
        )
        self.check_cfg = _at_ratio(self.cfg, self.CHECK_RATIO)
        self.whole = pc.RlncAllocation(
            (1,) * self.cfg.cache_size + (0,) * (self.cfg.n_files - self.cfg.cache_size)
        )
        self.pool = _Pool()

    def _grid(self, rng):
        pc, n = self.pc, self.cfg.n_files
        ratios = np.exp(rng.uniform(math.log(0.05), math.log(5.0), self.GRID_BASES))
        alphas = rng.uniform(2.5, 6.0, self.GRID_BASES)
        depths = rng.integers(1, 5, self.GRID_BASES)
        grid = []
        for ratio, alpha, depth in zip(ratios, alphas, depths):
            depth = int(depth)
            uc_split = depth - 1 if depth >= 3 else depth
            for k in (1, 2):
                cfg = _at_ratio(self.cfg, float(ratio), path_loss_exp=float(alpha),
                                sic_capability=depth, cache_size=k)
                split = min(n, k * depth)
                uncoded = min(n, k * uc_split)
                rlnc_codes = (depth,) * split + (0,) * (n - split)
                uc_codes = (uc_split,) * uncoded + (0,) * (n - uncoded)
                grid.append((
                    cfg,
                    pc.RlncAllocation((1,) * k + (0,) * (n - k)),
                    pc.RlncAllocation(rlnc_codes),
                    pc.UcAllocation(uc_codes, _serves(uc_codes, depth)),
                ))
        return grid

    def round(self, r, meter=True):
        pc, pop, calls = self.pc, self.pop, _Calls()
        rng = np.random.default_rng([self.seed, r])
        grid = self._grid(rng)
        # the greedy's cost follows the shape of the split profile, so the
        # large library stays near the paper's size ratio 0.2 in every round
        big = _at_ratio(self.big_cfg, float(rng.uniform(0.19, 0.21)))

        closed, eval_s = _timed(calls, [
            job
            for cfg, whole, split, uncoded in grid
            for job in (
                (pc.stp_rlnc, whole, pop, cfg),
                (pc.stp_rlnc, split, pop, cfg),
                (pc.stp_uc, uncoded, pop, cfg),
                (pc.stp_rlnc_small_s, split, pop, cfg),
                (pc.stp_rlnc_large_s, split, pop, cfg),
                (pc.stp_uc_small_s, uncoded, pop, cfg),
                (pc.stp_uc_large_s, uncoded, pop, cfg),
            )
        ])
        allocs, alloc_s = _timed(calls, [
            (pc.solve_rlnc, self.big_pop, big), (pc.solve_uc, self.big_pop, big)
        ])
        estimate, mc_s = _timed(calls, [
            (pc.simulate_rlnc, self.whole, pop, self.check_cfg, self.CHECK_TRIALS, round_seed(self.seed, r))
        ])
        timing = Round(
            wall_s=eval_s + alloc_s,
            trials=self.CHECK_TRIALS, mc_s=mc_s,
            evals=len(closed), eval_s=eval_s,
            files=2 * self.LARGE_N, alloc_s=alloc_s,
            attempted=calls.attempted, failed=calls.failed,
        )
        return timing, (grid, closed, big, allocs, estimate[0])

    def check(self, outputs):
        grid, closed, big, allocs, estimate = outputs
        probs, errors = self.pop.probs, []
        for i, (cfg, whole_alloc, split, uncoded) in enumerate(grid):
            t, alpha = cfg.rate_ratio, cfg.path_loss_exp
            serves = uncoded.serve_counts
            want = (
                oracle.stp_rlnc(probs, whole_alloc.codes, t, alpha),
                oracle.stp_rlnc(probs, split.codes, t, alpha),
                oracle.stp_uc(probs, uncoded.codes, serves, t, alpha),
                oracle.stp_rlnc_small(probs, split.codes, t, alpha),
                oracle.stp_rlnc_large(probs, split.codes, t, alpha),
                oracle.stp_uc_small(probs, uncoded.codes, serves, t, alpha),
                oracle.stp_uc_large(probs, uncoded.codes, t, alpha),
            )
            names = ("stp_rlnc whole", "stp_rlnc split", "stp_uc", "stp_rlnc_small_s",
                     "stp_rlnc_large_s", "stp_uc_small_s", "stp_uc_large_s")
            for name, got, value in zip(names, closed[7 * i : 7 * i + 7], want):
                if got is not None:
                    got = getattr(got, "total", got)
                    errors.append(oracle.check_close(f"{name} t={t:.4g} alpha={alpha:.3f}", got, value))
        for design, result in zip(("rlnc", "uc"), allocs):
            if result is not None:
                errors += _check_allocation(design, result, self.big_pop.probs, big)
        if estimate is not None:
            cfg = self.check_cfg
            exact = oracle.stp_rlnc(probs, self.whole.codes, cfg.rate_ratio, cfg.path_loss_exp)
            est = estimate.overall
            self.pool.add("whole-file MC cross-check", est.mean, est.trials, oracle.check_mc, exact)
        return [e for e in errors if e]

    def finish(self):
        return self.pool.errors()


WORKLOADS = {"mc-demo": McDemo, "paper-sweep": PaperSweep, "analytic": Analytic}
