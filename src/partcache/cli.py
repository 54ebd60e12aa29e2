"""Command line front end.

Subcommands:

* ``analyze``: closed-form per-file and total success probabilities of a
  given allocation, optionally cross-checked by simulation.
* ``optimize``: near-optimal (greedy) or exact (exhaustive) allocation for
  a design.
* ``simulate``: Monte Carlo estimate for an allocation or a reference
  scheme.
* ``sweep``: evaluate designs over a parameter grid, one CSV per design.
* ``validate``: desk-scale self checks; exits nonzero when any fail.

All tabular output is CSV with a header row, UTF-8, ``.`` as the decimal
separator, and reals printed to 12 significant digits.  Lines starting with
``#`` are warnings or notes; the bundled reader skips them.

Exit codes: 0 success, 2 usage or configuration error, 3 infeasible
allocation, 4 enumeration budget exceeded, 5 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate

from . import analysis, optimize, simulate
from .model import (
    AllocationError,
    ConfigError,
    Popularity,
    RlncAllocation,
    SystemConfig,
    UcAllocation,
    default_serve_counts,
    load_config,
    validate_rlnc,
    validate_uc,
    zipf_popularity,
)
from .optimize import BudgetExceededError
from .special import beta, beta_complement

__all__ = [
    "VALIDATION_CHECKS",
    "format_real",
    "main",
    "read_csv_rows",
    "run_validation",
]

SWEEP_VARIABLES = ("file_size", "sic_capability", "cache_size", "zipf_gamma")
SWEEP_DESIGNS = (
    "rlnc-greedy",
    "rlnc-exhaustive",
    "uc-greedy",
    "uc-exhaustive",
    "asymptotic-small",
    "asymptotic-large",
    "baseline1",
    "baseline2",
    "baseline3",
)
# fixed-allocation sweep entries: "rlnc:1-2-0-0-0" or "uc:2-2-0-0-0"
# (dash-joined split counts; uc serve depths default to the capability)
_BASELINES = {"baseline1": 1, "baseline2": 2, "baseline3": 3}


def _parse_fixed_design(token: str) -> tuple[str, tuple[int, ...]] | None:
    kind, sep, rest = token.partition(":")
    if not sep or kind not in ("rlnc", "uc"):
        return None
    try:
        codes = tuple(int(p) for p in rest.split("-"))
    except ValueError:
        raise ConfigError(f"cannot parse fixed design token {token!r}") from None
    return kind, codes


# --------------------------------------------------------------------------
# CSV plumbing
# --------------------------------------------------------------------------


def format_real(value: float) -> str:
    """Canonical 12-significant-digit rendering used in every CSV cell."""
    return format(float(value), ".12g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_cell(v) for v in value)
    return str(value)


def _write_csv(stream, header, rows, notes=()) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    for note in notes:
        stream.write(f"# {note}\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])


def read_csv_rows(path) -> tuple[list[str], list[dict[str, str]]]:
    """Read one of our CSV files back; comment lines are skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        payload = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(io.StringIO("".join(payload)))
    table = list(reader)
    if not table:
        raise ConfigError(f"{path}: empty CSV")
    header = table[0]
    rows = [dict(zip(header, row)) for row in table[1:]]
    return header, rows


def _open_out(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


# --------------------------------------------------------------------------
# shared argument handling
# --------------------------------------------------------------------------


def _parse_int_list(text: str, expected_len: int, label: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {label} literal {text!r}") from exc
    if len(values) != expected_len:
        raise ConfigError(
            f"{label} literal has {len(values)} entries, config declares {expected_len}"
        )
    return values


def _parse_codes(text: str, cfg: SystemConfig) -> tuple[int, ...]:
    codes = _parse_int_list(text, cfg.n_files, "codes")
    for idx, c in enumerate(codes):
        if not 0 <= c <= cfg.sic_capability:
            raise ConfigError(
                f"codes[{idx}] = {c} outside the admissible range "
                f"0..{cfg.sic_capability}: 0 leaves the file uncached and a "
                "split count cannot exceed the SIC capability"
            )
    return codes


def _resolve_seed(seed: int | None) -> tuple[int, list[str]]:
    if seed is None:
        return 0, ["warning: no seed given, defaulting to seed 0"]
    return seed, []


def _load(args) -> tuple[SystemConfig, Popularity, float]:
    cfg, gamma = load_config(args.config)
    return cfg, zipf_popularity(cfg.n_files, gamma), gamma


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

_ANALYZE_HEADER = [
    "design",
    "codes",
    "serve",
    "total",
    "per_file",
    "mc_mean",
    "mc_ci",
    "trials",
    "seed",
]


def _build_allocation(args, cfg):
    codes = _parse_codes(args.codes, cfg)
    if args.design == "rlnc":
        if args.serve is not None:
            raise ConfigError("--serve applies to the uc design only")
        alloc = RlncAllocation(codes)
        violations = validate_rlnc(alloc, cfg)
    else:
        if args.serve is None:
            serves = default_serve_counts(codes, cfg.sic_capability)
        else:
            serves = _parse_int_list(args.serve, cfg.n_files, "serve")
        alloc = UcAllocation(codes, serves)
        violations = validate_uc(alloc, cfg)
    if violations:
        raise AllocationError("; ".join(violations))
    return alloc


def cmd_analyze(args) -> int:
    cfg, pop, _ = _load(args)
    alloc = _build_allocation(args, cfg)
    if args.design == "rlnc":
        breakdown = analysis.stp_rlnc(alloc, pop, cfg)
        serve_cell = None
    else:
        breakdown = analysis.stp_uc(alloc, pop, cfg)
        serve_cell = ",".join(str(m) for m in alloc.serve_counts)

    notes = []
    mc_cells = [None, None, None, None]
    if args.simulate:
        seed, notes = _resolve_seed(args.seed)
        if args.design == "rlnc":
            res = simulate.simulate_rlnc(
                alloc, pop, cfg, args.trials, seed, args.disc_scale
            )
        else:
            res = simulate.simulate_uc(
                alloc, pop, cfg, args.trials, seed, args.disc_scale
            )
        mc_cells = [res.overall.mean, res.overall.ci_half_width, args.trials, seed]

    row = [
        args.design,
        ",".join(str(c) for c in alloc.codes),
        serve_cell,
        breakdown.total,
        list(breakdown.per_file),
        *mc_cells,
    ]
    stream, close = _open_out(args.out)
    try:
        _write_csv(stream, _ANALYZE_HEADER, [row], notes)
    finally:
        if close:
            stream.close()
    return 0


# --------------------------------------------------------------------------
# optimize
# --------------------------------------------------------------------------

_OPTIMIZE_HEADER = ["design", "method", "guarantee", "codes", "serve", "objective"]


def cmd_optimize(args) -> int:
    cfg, pop, _ = _load(args)
    if args.design == "rlnc":
        result = optimize.solve_rlnc(pop, cfg, args.method)
        serve_cell = None
    else:
        result = optimize.solve_uc(pop, cfg, args.method)
        serve_cell = ",".join(str(m) for m in result.allocation.serve_counts)
    row = [
        result.design,
        result.method,
        result.guarantee,
        ",".join(str(c) for c in result.allocation.codes),
        serve_cell,
        result.objective,
    ]
    stream, close = _open_out(args.out)
    try:
        _write_csv(stream, _OPTIMIZE_HEADER, [row])
    finally:
        if close:
            stream.close()
    return 0


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

_SIMULATE_HEADER = [
    "design",
    "codes",
    "serve",
    "trials",
    "seed",
    "mc_mean",
    "mc_ci",
    "per_file_mean",
]


def cmd_simulate(args) -> int:
    cfg, pop, _ = _load(args)
    seed, notes = _resolve_seed(args.seed)
    codes_cell = serve_cell = per_file_cell = None
    if args.design in _BASELINES:
        if args.codes is not None or args.serve is not None:
            raise ConfigError("reference schemes fix their own placement; drop --codes/--serve")
        est = simulate.simulate_baseline(
            _BASELINES[args.design], pop, cfg, args.trials, seed, args.disc_scale
        )
    else:
        if args.codes is None:
            raise ConfigError(f"--codes is required for the {args.design} design")
        alloc = _build_allocation(args, cfg)
        if args.design == "rlnc":
            res = simulate.simulate_rlnc(
                alloc, pop, cfg, args.trials, seed, args.disc_scale
            )
        else:
            res = simulate.simulate_uc(
                alloc, pop, cfg, args.trials, seed, args.disc_scale
            )
            serve_cell = ",".join(str(m) for m in alloc.serve_counts)
        est = res.overall
        codes_cell = ",".join(str(c) for c in alloc.codes)
        per_file_cell = [e.mean for e in res.per_file]
    row = [
        args.design,
        codes_cell,
        serve_cell,
        args.trials,
        seed,
        est.mean,
        est.ci_half_width,
        per_file_cell,
    ]
    stream, close = _open_out(args.out)
    try:
        _write_csv(stream, _SIMULATE_HEADER, [row], notes)
    finally:
        if close:
            stream.close()
    return 0


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

_SWEEP_HEADER = [
    "variable",
    "value",
    "design",
    "objective",
    "mc_mean",
    "mc_ci",
    "trials",
    "seed",
]


@dataclass(frozen=True)
class SweepSpec:
    """Parsed sweep description: what to vary, over what, for which designs."""

    config_path: str
    variable: str
    grid: tuple[float, ...]
    designs: tuple[str, ...]
    evaluation: str
    trials: int
    seed: int | None


def load_sweep_spec(path) -> SweepSpec:
    """Parse a line-oriented sweep file (same key = value format as configs)."""
    import os

    keys = {
        "config": str,
        "variable": str,
        "grid": str,
        "designs": str,
        "evaluation": str,
        "trials": int,
        "seed": int,
    }
    seen: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read sweep spec {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            seen[key] = keys[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}") from exc

    for required in ("config", "variable", "grid", "designs"):
        if required not in seen:
            raise ConfigError(f"{path}: missing required key {required!r}")

    variable = str(seen["variable"])
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(
            f"{path}: variable must be one of {', '.join(SWEEP_VARIABLES)}"
        )
    try:
        grid = tuple(float(v) for v in str(seen["grid"]).split(","))
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot parse grid") from exc
    if not grid:
        raise ConfigError(f"{path}: grid must not be empty")
    if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
        raise ConfigError(f"{path}: grid must be strictly ascending")
    designs = tuple(d.strip() for d in str(seen["designs"]).split(",") if d.strip())
    if not designs:
        raise ConfigError(f"{path}: designs must not be empty")
    for d in designs:
        if d not in SWEEP_DESIGNS and _parse_fixed_design(d) is None:
            raise ConfigError(
                f"{path}: unknown design {d!r}; choose from "
                f"{', '.join(SWEEP_DESIGNS)} or a fixed allocation like rlnc:1-2-0"
            )
    evaluation = str(seen.get("evaluation", "analytic"))
    if evaluation not in ("analytic", "simulate", "both"):
        raise ConfigError(f"{path}: evaluation must be analytic, simulate or both")
    config_path = str(seen["config"])
    if not os.path.isabs(config_path):
        config_path = os.path.join(os.path.dirname(os.path.abspath(path)), config_path)
    return SweepSpec(
        config_path=config_path,
        variable=variable,
        grid=grid,
        designs=designs,
        evaluation=evaluation,
        trials=int(seen.get("trials", 10000)),
        seed=(int(seen["seed"]) if "seed" in seen else None),
    )


def _apply_variable(cfg: SystemConfig, gamma: float, variable: str, value: float):
    if variable == "file_size":
        return replace(cfg, file_size=value), gamma
    if variable == "zipf_gamma":
        return cfg, value
    if value != int(value):
        raise ConfigError(f"{variable} grid values must be integers, got {value}")
    if variable == "sic_capability":
        return replace(cfg, sic_capability=int(value)), gamma
    return replace(cfg, cache_size=int(value)), gamma


def _sweep_cell(design, pop, cfg, want_mc, trials, seed, disc_scale):
    """Evaluate one design at one grid point; returns (objective, estimate, note)."""
    if design in _BASELINES:
        estimate = simulate.simulate_baseline(
            _BASELINES[design], pop, cfg, trials, seed, disc_scale
        )
        return None, estimate, None

    fixed = _parse_fixed_design(design)
    if fixed is not None:
        kind, codes = fixed
        if len(codes) != cfg.n_files:
            raise ConfigError(
                f"design {design!r} lists {len(codes)} codes, config declares "
                f"{cfg.n_files} files"
            )
        if kind == "rlnc":
            allocation = RlncAllocation(codes)
            violations = validate_rlnc(allocation, cfg)
        else:
            allocation = UcAllocation(
                codes, default_serve_counts(codes, cfg.sic_capability)
            )
            violations = validate_uc(allocation, cfg)
        if violations:
            raise AllocationError("; ".join(violations))
        if kind == "rlnc":
            objective = analysis.stp_rlnc(allocation, pop, cfg).total
        else:
            objective = analysis.stp_uc(allocation, pop, cfg).total
    else:
        if design == "asymptotic-small":
            if cfg.cache_size * cfg.sic_capability > cfg.n_files:
                return None, None, (
                    "skipped asymptotic-small: cache_size * sic_capability "
                    "exceeds n_files"
                )
            result = optimize.asymptotic_opt_rlnc_small(pop, cfg)
        elif design == "asymptotic-large":
            result = optimize.asymptotic_opt_rlnc_large(pop, cfg)
        elif design == "rlnc-greedy":
            result = optimize.solve_rlnc(pop, cfg, "greedy")
        elif design == "rlnc-exhaustive":
            result = optimize.solve_rlnc(pop, cfg, "exhaustive")
        elif design == "uc-greedy":
            result = optimize.solve_uc(pop, cfg, "greedy")
        else:
            result = optimize.solve_uc(pop, cfg, "exhaustive")
        allocation, objective = result.allocation, result.objective

    estimate = None
    if want_mc:
        if isinstance(allocation, UcAllocation):
            estimate = simulate.simulate_uc(
                allocation, pop, cfg, trials, seed, disc_scale
            ).overall
        else:
            estimate = simulate.simulate_rlnc(
                allocation, pop, cfg, trials, seed, disc_scale
            ).overall
    return objective, estimate, None


def cmd_sweep(args) -> int:
    import os

    spec = load_sweep_spec(args.spec)
    cfg0, gamma0 = load_config(spec.config_path)

    want_mc = spec.evaluation in ("simulate", "both")
    want_analytic = spec.evaluation in ("analytic", "both")
    if not want_mc:
        for design in spec.designs:
            if design in _BASELINES:
                raise ConfigError(
                    f"{design} has no closed form here; set evaluation to "
                    "simulate or both"
                )

    seed = spec.seed if args.seed is None else args.seed
    notes = []
    if want_mc and seed is None:
        seed, notes = _resolve_seed(None)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)

    # The reference schemes decode without SIC, so a receiver-depth sweep
    # simulates each of them once and repeats its row across the grid.
    depth_free = spec.variable == "sic_capability"
    popularity = {}  # one profile per (n_files, gamma) the grid reaches
    written = []
    for design in spec.designs:
        rows = []
        design_notes = list(notes)
        reuse = depth_free and design in _BASELINES
        cell = None
        if reuse:
            design_notes.append(
                f"simulated once at sic_capability = {format_real(spec.grid[0])} "
                "and reused for every grid value; identical to a run per value "
                "whenever every sampled field holds more than "
                f"{format_real(spec.grid[-1])} stations"
            )
        for value in spec.grid:
            cfg, gamma = _apply_variable(cfg0, gamma0, spec.variable, value)
            if (cfg.n_files, gamma) not in popularity:
                popularity[cfg.n_files, gamma] = zipf_popularity(cfg.n_files, gamma)
            pop = popularity[cfg.n_files, gamma]
            if cell is None or not reuse:
                cell = _sweep_cell(
                    design, pop, cfg, want_mc, spec.trials, seed, args.disc_scale
                )
            objective, estimate, note = cell
            if note is not None:
                design_notes.append(f"value {format_real(value)}: {note}")
                continue
            rows.append(
                [
                    spec.variable,
                    value,
                    design,
                    objective if want_analytic else None,
                    estimate.mean if estimate else None,
                    estimate.ci_half_width if estimate else None,
                    estimate.trials if estimate else None,
                    seed if estimate else None,
                ]
            )
        stem = design.replace(":", "_")
        path = os.path.join(out_dir, f"sweep_{spec.variable}_{stem}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, _SWEEP_HEADER, rows, design_notes)
        written.append(path)
    for path in written:
        print(path)
    return 0


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationContext:
    seed: int
    trials: int


def _desk_cfg(ratio: float, sic_capability: int = 3) -> SystemConfig:
    return SystemConfig(
        n_files=5,
        cache_size=2,
        sic_capability=sic_capability,
        path_loss_exp=4.0,
        bandwidth=1.0e7,
        slot_duration=1.0e-3,
        file_size=ratio * 1.0e4,
        bs_density=1.0e-4,
    )


def _check_beta_closed_forms(ctx):
    errs = [
        abs(beta(0.5, 0.5) - math.pi),
        abs(beta(2.0 / 3.0, 1.0 / 3.0) - 2.0 * math.pi / math.sqrt(3.0)),
        abs(
            beta_complement(0.5, 0.5, 2.0**-0.5)
            - (math.pi - 2.0 * math.asin(2.0**-0.25))
        ),
    ]
    return max(errs) <= 1e-10, f"max closed-form error {max(errs):.2e}"


def _check_beta_additivity(ctx):
    rng = np.random.default_rng(np.random.SeedSequence(ctx.seed, spawn_key=(101,)))
    worst = 0.0
    for _ in range(20):
        x = float(rng.uniform(0.1, 0.95))
        y = float(rng.uniform(0.1, 0.95))
        z = float(rng.uniform(0.0, 0.95))
        lower, _ = integrate.quad(
            lambda u: (1.0 - u) ** (y - 1.0),
            0.0,
            z,
            weight="alg",
            wvar=(x - 1.0, 0.0),
            epsabs=1e-13,
        )
        worst = max(worst, abs(beta_complement(x, y, z) + lower - beta(x, y)))
    return worst <= 1e-10, f"max additivity error {worst:.2e}"


def _coupon_brute(s_code: int, i: int) -> float:
    import itertools

    hits = 0
    for combo in itertools.product(range(s_code), repeat=i):
        if len(set(combo)) == s_code and len(set(combo[:-1])) < s_code:
            hits += 1
    return hits / s_code**i


def _check_coupon_enumeration(ctx):
    worst = 0.0
    for s_code in (2, 3):
        for i in range(1, 7):
            got = analysis.coupon_pmf(s_code, i, 8)
            want = 0.0 if i < s_code else _coupon_brute(s_code, i)
            worst = max(worst, abs(got - want))
    return worst <= 1e-12, f"max pmf error vs enumeration {worst:.2e}"


def _check_coupon_mass(ctx):
    # the c=4 tail decays like (3/4)^i, so the sum needs ~120 terms
    # before truncation noise drops under the tolerance
    worst = 0.0
    for s_code in (2, 3, 4):
        mass = math.fsum(
            analysis.coupon_pmf(s_code, i, 120) for i in range(s_code, 121)
        )
        worst = max(worst, abs(mass - 1.0))
    return worst <= 1e-9, f"max mass defect {worst:.2e}"


def _check_zipf(ctx):
    pop = zipf_popularity(5, 1.0)
    err = abs(pop.probs[0] - 60.0 / 137.0)
    return err <= 1e-15, f"head probability error {err:.2e}"


def _check_rational_budget(ctx):
    cfg = _desk_cfg(1.0, sic_capability=3)
    ok_alloc = RlncAllocation((3, 3, 3, 3, 3))  # load 5/3 <= 2
    bad_alloc = RlncAllocation((1, 1, 3, 3, 3))  # load 3 > 2
    accepted = not validate_rlnc(ok_alloc, cfg)
    rejected = bool(validate_rlnc(bad_alloc, cfg))
    return accepted and rejected, "unit-fraction budget decided exactly"


def _check_noise_factor(ctx):
    cfg = _desk_cfg(1.0)
    err = abs(analysis.sic_noise_factor(1, cfg) - math.pi / 4.0)
    err = max(err, abs(analysis.stp_rlnc_file(1, cfg) - 1.0 / (1.0 + math.pi / 4.0)))
    return err <= 1e-10, f"closed-form noise factor error {err:.2e}"


def _check_design_ordering(ctx):
    rng = np.random.default_rng(np.random.SeedSequence(ctx.seed, spawn_key=(102,)))
    cfg = _desk_cfg(1.0)
    pop = zipf_popularity(cfg.n_files, 1.0)
    worst_gap = 0.0
    worst_eq = 0.0
    for _ in range(100):
        codes = _random_feasible_codes(rng, cfg)
        serves = default_serve_counts(codes, cfg.sic_capability)
        coded = analysis.stp_rlnc(RlncAllocation(codes), pop, cfg).total
        uncoded = analysis.stp_uc(UcAllocation(codes, serves), pop, cfg).total
        worst_gap = max(worst_gap, uncoded - coded)
        if all(c <= 1 for c in codes):
            worst_eq = max(worst_eq, abs(uncoded - coded))
    return (
        worst_gap <= 1e-12 and worst_eq <= 1e-12,
        f"max uncoded excess {worst_gap:.2e}, max depth-1 gap {worst_eq:.2e}",
    )


def _random_feasible_codes(rng, cfg) -> tuple[int, ...]:
    from fractions import Fraction

    codes = []
    load = Fraction(0)
    for _ in range(cfg.n_files):
        c = int(rng.integers(0, cfg.sic_capability + 1))
        if c >= 1 and load + Fraction(1, c) > cfg.cache_size:
            c = 0
        if c >= 1:
            load += Fraction(1, c)
        codes.append(c)
    if all(c == 0 for c in codes):
        codes[0] = 1
    return tuple(codes)


def _check_greedy_guarantee(ctx):
    rng = np.random.default_rng(np.random.SeedSequence(ctx.seed, spawn_key=(103,)))
    worst = math.inf
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        k = int(rng.integers(1, min(n, 3)))
        gamma = float(rng.uniform(0.4, 1.6))
        ratio = float(10.0 ** rng.uniform(-1.3, 1.0))
        cfg = SystemConfig(n, k, m, 4.0, 1.0e7, 1.0e-3, ratio * 1.0e4)
        pop = zipf_popularity(n, gamma)
        greedy = optimize.solve_rlnc(pop, cfg, "greedy").objective
        exact = optimize.solve_rlnc(pop, cfg, "exhaustive").objective
        if exact > 0:
            worst = min(worst, greedy / exact)
    return worst >= 0.5, f"min greedy/optimal ratio {worst:.4f}"


def _check_asymptotic_optima(ctx):
    cfg_small = _desk_cfg(1.0e-3, sic_capability=2)
    cfg_large = _desk_cfg(30.0, sic_capability=2)
    pop = zipf_popularity(5, 1.0)
    small = optimize.solve_rlnc(pop, cfg_small, "exhaustive").allocation.codes
    large_c = optimize.solve_rlnc(pop, cfg_large, "exhaustive").allocation.codes
    large_u = optimize.solve_uc(pop, cfg_large, "exhaustive").allocation.codes
    ok = (
        small == (2, 2, 2, 2, 0)
        and large_c == (1, 1, 0, 0, 0)
        and large_u == (1, 1, 0, 0, 0)
    )
    return ok, f"small {small}, large coded {large_c}, large uncoded {large_u}"


def _check_depth1_mc(ctx):
    cfg = _desk_cfg(1.0)
    pop = zipf_popularity(cfg.n_files, 1.0)
    alloc = RlncAllocation((1, 1, 0, 0, 0))
    want = analysis.stp_rlnc(alloc, pop, cfg).total
    got = simulate.simulate_rlnc(alloc, pop, cfg, ctx.trials, ctx.seed).overall
    gap = abs(got.mean - want)
    # 1.5x the confidence radius keeps the verdict stable across seeds
    return gap <= 1.5 * got.ci_half_width, (
        f"analytic {want:.5f} vs mc {got.mean:.5f}, gap {gap:.2e}, "
        f"allowance {1.5 * got.ci_half_width:.2e}"
    )


def _check_partition_mc(ctx):
    cfg = _desk_cfg(1.0)
    pop = zipf_popularity(cfg.n_files, 1.0)
    alloc = RlncAllocation((1, 2, 3, 0, 0))
    want = analysis.stp_rlnc(alloc, pop, cfg).total
    got = simulate.simulate_rlnc(alloc, pop, cfg, ctx.trials, ctx.seed + 1).overall
    gap = abs(got.mean - want)
    return gap <= 0.05, f"analytic {want:.5f} vs mc {got.mean:.5f}, gap {gap:.2e}"


def _check_uc_mc(ctx):
    cfg = _desk_cfg(1.0)
    pop = zipf_popularity(cfg.n_files, 1.0)
    alloc = UcAllocation((2, 2, 0, 0, 0), (3, 3, 0, 0, 0))
    want = analysis.stp_uc(alloc, pop, cfg).total
    got = simulate.simulate_uc(alloc, pop, cfg, ctx.trials, ctx.seed + 2).overall
    gap = abs(got.mean - want)
    return gap <= 0.05, f"analytic {want:.5f} vs mc {got.mean:.5f}, gap {gap:.2e}"


def _check_size_limits(ctx):
    pop = zipf_popularity(5, 1.0)
    worst_small = 0.0
    worst_large = 0.0
    for codes in ((1, 1, 0, 0, 0), (2, 2, 2, 2, 0), (1, 2, 3, 0, 0)):
        alloc = RlncAllocation(codes)
        cfg = _desk_cfg(1.0e-3)
        exact = analysis.stp_rlnc(alloc, pop, cfg).total
        limit = analysis.stp_rlnc_small_s(alloc, pop, cfg)
        worst_small = max(worst_small, abs(exact / limit - 1.0))
        cfg = _desk_cfg(30.0)
        exact = analysis.stp_rlnc(alloc, pop, cfg).total
        limit = analysis.stp_rlnc_large_s(alloc, pop, cfg)
        worst_large = max(worst_large, abs(exact / limit - 1.0))
    return worst_small <= 1.0e-3 and worst_large <= 1.0e-2, (
        f"limit mismatch {worst_small:.2e} (small), {worst_large:.2e} (large)"
    )


def _check_water_fill(ctx):
    pop_a = Popularity((0.5, 0.3, 0.2))
    mu_a, t_a = simulate.water_fill_mu(pop_a, 2)
    pop_b = Popularity((0.7, 0.2, 0.1))
    mu_b, t_b = simulate.water_fill_mu(pop_b, 2)
    errs = [
        abs(mu_a),
        max(abs(x - y) for x, y in zip(t_a, (1.0, 0.6, 0.4))),
        abs(mu_b - 0.2),
        max(abs(x - y) for x, y in zip(t_b, (1.0, 0.6, 0.4))),
        abs(math.fsum(t_a) - 2.0),
        abs(math.fsum(t_b) - 2.0),
    ]
    return max(errs) <= 1e-9, f"max water-fill error {max(errs):.2e}"


def _check_density_free(ctx):
    cfg_lo = _desk_cfg(1.0)
    cfg_hi = replace(cfg_lo, bs_density=4.0e-4)
    pop = zipf_popularity(cfg_lo.n_files, 1.0)
    alloc = RlncAllocation((1, 2, 0, 0, 0))
    trials = max(ctx.trials // 2, 2000)
    lo = simulate.simulate_rlnc(alloc, pop, cfg_lo, trials, ctx.seed + 3).overall
    hi = simulate.simulate_rlnc(alloc, pop, cfg_hi, trials, ctx.seed + 4).overall
    gap = abs(lo.mean - hi.mean)
    allowance = lo.ci_half_width + hi.ci_half_width
    return gap <= allowance, (
        f"density x4 shifts mean by {gap:.2e}, allowance {allowance:.2e}"
    )


def _check_determinism(ctx):
    cfg = _desk_cfg(1.0)
    pop = zipf_popularity(cfg.n_files, 1.0)
    alloc = RlncAllocation((1, 2, 0, 0, 0))
    a = simulate.simulate_rlnc(alloc, pop, cfg, 500, ctx.seed + 5).overall
    b = simulate.simulate_rlnc(alloc, pop, cfg, 500, ctx.seed + 5).overall
    return a.mean == b.mean, f"repeat gap {abs(a.mean - b.mean):.2e}"


VALIDATION_CHECKS = [
    ("beta-closed-forms", _check_beta_closed_forms),
    ("beta-additivity", _check_beta_additivity),
    ("coupon-pmf-enumeration", _check_coupon_enumeration),
    ("coupon-pmf-mass", _check_coupon_mass),
    ("zipf-head", _check_zipf),
    ("rational-budget", _check_rational_budget),
    ("noise-factor-closed-form", _check_noise_factor),
    ("coded-beats-uncoded", _check_design_ordering),
    ("greedy-half-guarantee", _check_greedy_guarantee),
    ("asymptotic-optima", _check_asymptotic_optima),
    ("whole-file-mc-exact", _check_depth1_mc),
    ("partition-mc-approx", _check_partition_mc),
    ("uncoded-mc-approx", _check_uc_mc),
    ("size-limit-consistency", _check_size_limits),
    ("water-fill", _check_water_fill),
    ("density-free", _check_density_free),
    ("mc-determinism", _check_determinism),
]


def run_validation(seed: int = 0, trials: int = 20000, emit=print) -> bool:
    """Run every desk-scale check; returns True when all pass."""
    ctx = ValidationContext(seed=seed, trials=trials)
    all_ok = True
    for name, check in VALIDATION_CHECKS:
        try:
            ok, detail = check(ctx)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        emit(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return all_ok


def cmd_validate(args) -> int:
    seed = 0 if args.seed is None else args.seed
    ok = run_validation(seed=seed, trials=args.trials)
    return 0 if ok else 5


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partcache",
        description="partition-based caching under SIC: analysis, optimization, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="system config file")
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        p.add_argument(
            "--trials", type=int, default=10000, help="Monte Carlo trials"
        )
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--disc-scale",
            type=float,
            default=simulate.DEFAULT_DISC_SCALE,
            help="truncation disc radius in units of the mean nearest-station spacing",
        )

    p = sub.add_parser("analyze", help="closed-form success probabilities")
    common(p)
    p.add_argument("--design", choices=("rlnc", "uc"), default="rlnc")
    p.add_argument("--codes", required=True, help="comma-separated split counts")
    p.add_argument("--serve", default=None, help="comma-separated serving depths (uc)")
    p.add_argument(
        "--simulate", action="store_true", help="append a Monte Carlo cross-check"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize", help="allocate the cache budget")
    common(p)
    p.add_argument("--design", choices=("rlnc", "uc"), default="rlnc")
    p.add_argument(
        "--method", choices=("greedy", "exhaustive"), default="greedy"
    )
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo estimate")
    common(p)
    p.add_argument(
        "--design",
        choices=("rlnc", "uc", "baseline1", "baseline2", "baseline3"),
        default="rlnc",
    )
    p.add_argument("--codes", default=None, help="comma-separated split counts")
    p.add_argument("--serve", default=None, help="comma-separated serving depths (uc)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="evaluate designs over a parameter grid")
    p.add_argument("spec", help="sweep spec file")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", default=None, help="output directory (default .)")
    p.add_argument(
        "--disc-scale", type=float, default=simulate.DEFAULT_DISC_SCALE
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="desk-scale self checks")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=20000)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AllocationError as exc:
        print(f"infeasible allocation: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
