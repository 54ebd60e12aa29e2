"""Cache allocation as a multiple-choice knapsack.

Each file is a class; the mutually exclusive items of a class are its
admissible split counts, item ``m`` meaning a split into ``m`` pieces at a
cache weight of ``1/m`` slots, plus a zero-profit zero-weight item for
leaving the file uncached.  Item profits are popularity-weighted success
probabilities, so every class carries the same profit profile scaled by its
popularity.  That proportionality lets all classes share one undominated
item set and makes the greedy's slope ordering globally consistent.

The greedy walks profit-per-weight slopes in nonincreasing order, applies
each upgrade whose incremental weight still fits, stops at the first
rejection (the split item), and finally keeps the better of the greedy
selection and the split item on its own.  Its value is at least half the
optimum.  A plain enumerative solver doubles as the optimality oracle for
small instances.

The greedy runs on arrays: profits are one float64 matrix (classes by
items), the slopes one matrix (classes by frontier steps), and the walk is
a single sort and a cumulative sum.  Weights stay exact without rational
arithmetic: with ``L`` the least common multiple of the weight
denominators, ``lcm(1..max_split)`` for the unit fractions of
``build_mckp``, every weight is a whole number of ``1/L`` units, so the
budget walk is an integer prefix sum compared with ``capacity * L``.  The
slopes are the same IEEE quotients of the same products a rational walk
over per-class tuples would form, and the sort key (slope descending, then
class, then frontier position) is the order of a stable sort of the
row-major slope matrix, so selections, values and loads are identical to
that walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import analysis
from .model import (
    Popularity,
    RlncAllocation,
    SystemConfig,
    UcAllocation,
    default_serve_counts,
)

__all__ = [
    "BudgetExceededError",
    "MckpInstance",
    "MckpSelection",
    "OptimizationResult",
    "UnsupportedInstanceError",
    "asymptotic_opt_rlnc_large",
    "asymptotic_opt_rlnc_small",
    "asymptotic_opt_uc_large",
    "build_mckp",
    "greedy_mckp",
    "solve_rlnc",
    "solve_uc",
    "undominated_indices",
]

# enumeration is the oracle for small instances only; beyond this many
# candidate vectors the exhaustive path refuses to run
EXHAUSTIVE_BUDGET = 10**7

_PROPORTIONALITY_TOL = 1e-9


class BudgetExceededError(RuntimeError):
    """The exhaustive solver was asked for more candidates than its budget."""


class UnsupportedInstanceError(ValueError):
    """Instance shape outside what the shared-frontier greedy supports."""


@dataclass(frozen=True, eq=False)
class MckpInstance:
    """One knapsack class per file with a weight profile shared by all classes.

    Item indices are 1-based: item ``m`` with ``m <= max_split`` stands for a
    split into ``m`` pieces, item ``max_split + 1`` is the uncached choice.
    ``profits[n][m - 1]`` is the profit of item ``m`` in class ``n``;
    ``weights[m - 1]`` its weight, identical across classes.  Profits are
    stored as one float64 array, classes by items; rows given as sequences
    are converted.  Instances compare by identity, as arrays have no single
    truth value.
    """

    profits: np.ndarray
    weights: tuple[Fraction, ...]
    capacity: Fraction

    def __post_init__(self) -> None:
        if len(self.profits) == 0:
            raise ValueError("instance needs at least one class")
        n_items = len(self.weights)
        if n_items < 2:
            raise ValueError("each class needs a cached item and the uncached item")
        try:
            profits = np.asarray(self.profits, dtype=float)
        except ValueError:  # ragged rows
            profits = None
        if profits is None or profits.ndim != 2 or profits.shape[1] != n_items:
            raise ValueError("profit rows must match the weight profile length")
        object.__setattr__(self, "profits", profits)
        for idx in range(n_items - 1):
            if self.weights[idx] <= self.weights[idx + 1]:
                raise ValueError("weights must strictly decrease over the items")
        if self.weights[-1] != 0:
            raise ValueError("the last item must be the weightless uncached choice")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    @property
    def n_classes(self) -> int:
        return len(self.profits)

    @property
    def n_items(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class MckpSelection:
    """One item index (1-based) per class, with the resulting value and load."""

    choice: tuple[int, ...]
    value: float
    weight_used: Fraction


@dataclass(frozen=True)
class OptimizationResult:
    """An allocation, its objective, and how it was obtained.

    ``guarantee`` is the certified fraction of the optimum: 1/2 for the
    greedy, 1 for enumeration, and 1 for the closed-form limits (exact only
    in their own size regime).
    """

    design: str
    allocation: RlncAllocation | UcAllocation
    objective: float
    method: str
    guarantee: float


# --------------------------------------------------------------------------
# instance construction
# --------------------------------------------------------------------------


def _profit_profile(cfg: SystemConfig, design: str) -> list[float]:
    """Per-split success probabilities shared by every class, split 1..max."""
    cap = cfg.sic_capability
    if design == "rlnc":
        return [analysis.stp_rlnc_file(m, cfg) for m in range(1, cap + 1)]
    if design == "uc":
        return [
            analysis.stp_uc_file(m, 1 if m == 1 else cap, cfg)
            for m in range(1, cap + 1)
        ]
    raise ValueError(f"unknown design {design!r}")


def build_mckp(design: str, pop: Popularity, cfg: SystemConfig) -> MckpInstance:
    """Assemble the knapsack instance for one design ("rlnc" or "uc")."""
    if len(pop) != cfg.n_files:
        raise ValueError(
            f"popularity covers {len(pop)} files, config declares {cfg.n_files}"
        )
    profile = _profit_profile(cfg, design)
    profits = np.multiply.outer(pop.probs, profile + [0.0])
    return MckpInstance(
        profits, _unit_weights(cfg.sic_capability), Fraction(cfg.cache_size)
    )


@lru_cache(maxsize=64)
def _unit_weights(max_split: int) -> tuple[Fraction, ...]:
    """Weights 1, 1/2, ..., 1/max_split and the uncached 0."""
    return tuple(Fraction(1, m) for m in range(1, max_split + 1)) + (Fraction(0),)


# --------------------------------------------------------------------------
# dominance pruning
# --------------------------------------------------------------------------


def _check_proportional(instance: MckpInstance) -> None:
    ref = instance.profits[0]
    j_star = int(ref.argmax())
    rows = instance.profits[1:]
    lhs = rows * ref[j_star]
    rhs = ref * rows[:, j_star, None]
    gap = np.abs(lhs - rhs)
    # in place: tol * (|lhs| + |rhs| + 1e-300), one temporary fewer per term
    tol = np.abs(lhs, out=lhs)
    tol += np.abs(rhs, out=rhs)
    tol += 1e-300
    tol *= _PROPORTIONALITY_TOL
    bad = gap > tol
    if bad.any():
        n = int(bad.any(axis=1).argmax()) + 1
        raise UnsupportedInstanceError(
            f"class {n} is not profit-proportional to class 0; "
            "the shared frontier would differ per class"
        )


def _weight_units(weights: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """L, the lcm of the weight denominators, and every weight in units of 1/L.

    A difference of units over L, as a float, is the correctly rounded
    rational weight difference, the same value ``float(Fraction)`` gives.
    """
    scale = math.lcm(*(w.denominator for w in weights))
    return scale, [w.numerator * (scale // w.denominator) for w in weights]


def undominated_indices(instance: MckpInstance) -> tuple[int, ...]:
    """Item indices surviving dominance and slope dominance, shared by all classes.

    Returned heaviest first, always ending with the uncached item.  An item
    is dropped when a lighter item earns at least as much, or when skipping
    it in favor of its lighter and heavier neighbors never loses value in
    the fractional relaxation.  Along the survivors the incremental
    profit-per-weight slopes strictly decrease, which is what the greedy
    relies on.
    """
    _check_proportional(instance)
    profile = instance.profits[0].tolist()
    scale, units = _weight_units(instance.weights)
    n_items = instance.n_items

    kept: list[int] = []  # 0-based positions, increasing weight
    best = -math.inf
    for pos in range(n_items - 1, -1, -1):
        if profile[pos] > best:
            kept.append(pos)
            best = profile[pos]

    hull: list[int] = []
    for pos in kept:
        while len(hull) >= 2:
            prev, last = hull[-2], hull[-1]
            slope_in = (profile[last] - profile[prev]) / (
                (units[last] - units[prev]) / scale
            )
            slope_out = (profile[pos] - profile[last]) / (
                (units[pos] - units[last]) / scale
            )
            if slope_out >= slope_in:
                hull.pop()
            else:
                break
        hull.append(pos)

    return tuple(pos + 1 for pos in reversed(hull))


# --------------------------------------------------------------------------
# greedy
# --------------------------------------------------------------------------


def greedy_mckp(instance: MckpInstance) -> MckpSelection:
    """Slope-ordered greedy with the split-item fallback.

    Every class starts uncached.  Upgrades move a class to the next heavier
    item on the shared frontier; they are taken in nonincreasing slope order
    (ties: lower class first, then the heavier item) while the incremental
    weight fits the remaining capacity.  The first upgrade that does not fit
    ends the walk; if capacity is not exactly filled, the better of the
    greedy selection and that split item alone is returned.

    The slopes form one array, classes by frontier steps, and a stable sort
    of its negated row-major ravel is exactly the order above.  Weights are
    counted in integer units of 1/L, L the lcm of the weight denominators,
    so the walk is one integer prefix sum and the first sum above
    ``capacity * L`` marks the split item.  The result equals that of
    the same walk in ``Fraction`` arithmetic over per-class tuples.
    """
    frontier = undominated_indices(instance)
    weights = instance.weights
    capacity = instance.capacity
    profits = instance.profits
    n_classes = instance.n_classes
    n_steps = len(frontier) - 1

    scale, units = _weight_units(weights)
    # step p moves a class from frontier[p + 1] up to frontier[p]
    heavy = [item - 1 for item in frontier[:-1]]
    light = [item - 1 for item in frontier[1:]]
    step_units = [units[h] - units[l] for h, l in zip(heavy, light)]
    slopes = (profits[:, heavy] - profits[:, light]) / [u / scale for u in step_units]
    order = (-slopes.ravel()).argsort(kind="stable")
    cls, pos = np.divmod(order, max(n_steps, 1))

    full = n_classes * sum(step_units)
    # int64 holds every prefix sum unless lcm(1..max_split) is huge
    dtype = np.int64 if full < 2**63 else object
    used_units = np.cumsum(np.array(step_units, dtype=dtype)[pos])
    # an integer sum exceeds capacity * L exactly when it exceeds its floor
    limit = min(capacity.numerator * scale // capacity.denominator, full)
    split = int(np.searchsorted(used_units, limit, side="right"))

    # frontier slopes decrease within a class, so a class's upgrade p sorts
    # after its upgrade p + 1 and is reached only once that one was applied;
    # an upgrade sorted ahead of it (slope no smaller, ties go to the lower
    # p) and reached by the walk, up to the split item, breaks the invariant
    ahead = slopes[:, :-1] >= slopes[:, 1:]
    if ahead.any():
        rank = np.empty(order.size, dtype=np.intp)
        rank[order] = np.arange(order.size)
        if (rank.reshape(n_classes, n_steps)[:, :-1][ahead] <= split).any():
            raise AssertionError("non-adjacent upgrade ordering")

    position = n_steps - np.bincount(cls[:split], minlength=n_classes)
    choice = np.asarray(frontier)[position]
    value = math.fsum(profits[np.arange(n_classes), choice - 1].tolist())
    used = Fraction(int(used_units[split - 1]), scale) if split else Fraction(0)

    if split < order.size and used < capacity:
        n_split, item_split = int(cls[split]), frontier[int(pos[split])]
        alone = float(profits[n_split, item_split - 1])
        if weights[item_split - 1] <= capacity and alone > value:
            empty = frontier[-1]
            choice = tuple(
                item_split if n == n_split else empty for n in range(n_classes)
            )
            return MckpSelection(choice, alone, weights[item_split - 1])
    return MckpSelection(tuple(choice.tolist()), value, used)


# --------------------------------------------------------------------------
# enumeration oracle
# --------------------------------------------------------------------------


def _exhaustive_codes(
    per_code_profit: list[list[float]], max_split: int, cache_size: int
) -> tuple[int, ...]:
    """Exact optimum by depth-first enumeration with rational capacity pruning.

    Weights are unit fractions with denominators up to max_split, so they
    are tracked as integer multiples of lcm(1..max_split); that keeps the
    capacity test exact without Fraction overhead in the hot loop.
    """
    n = len(per_code_profit)
    scale = math.lcm(*range(1, max_split + 1))
    step = [0] + [scale // c for c in range(1, max_split + 1)]
    cap = cache_size * scale

    best_val = -math.inf
    best_codes: tuple[int, ...] = (0,) * n
    codes = [0] * n

    def descend(idx: int, used: int, val: float) -> None:
        nonlocal best_val, best_codes
        if idx == n:
            if val > best_val:
                best_val = val
                best_codes = tuple(codes)
            return
        row = per_code_profit[idx]
        for c in range(max_split + 1):
            w = step[c]
            if used + w > cap:
                continue
            codes[idx] = c
            descend(idx + 1, used + w, val + row[c])
        codes[idx] = 0

    descend(0, 0, 0.0)
    return best_codes


def _budget_check(cfg: SystemConfig) -> None:
    candidates = (cfg.sic_capability + 1) ** cfg.n_files
    if candidates > EXHAUSTIVE_BUDGET:
        raise BudgetExceededError(
            f"enumeration would visit {candidates} candidate vectors "
            f"(budget {EXHAUSTIVE_BUDGET}); use the greedy method instead"
        )


# --------------------------------------------------------------------------
# design-level solvers
# --------------------------------------------------------------------------


def _top_k_codes(cfg: SystemConfig) -> tuple[int, ...]:
    return (1,) * cfg.cache_size + (0,) * (cfg.n_files - cfg.cache_size)


def _choice_to_codes(choice: tuple[int, ...], max_split: int) -> tuple[int, ...]:
    return tuple(m if m <= max_split else 0 for m in choice)


def solve_rlnc(
    pop: Popularity, cfg: SystemConfig, method: str = "greedy"
) -> OptimizationResult:
    """Near-optimal (greedy) or exact (exhaustive) coded allocation."""
    if method not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    guarantee = 1.0 if method == "exhaustive" else 0.5

    if cfg.sic_capability == 1:
        # without SIC the only choices are whole files, and filling the
        # budget with the most popular ones is exactly optimal
        codes = _top_k_codes(cfg)
    elif method == "greedy":
        selection = greedy_mckp(build_mckp("rlnc", pop, cfg))
        codes = _choice_to_codes(selection.choice, cfg.sic_capability)
    else:
        _budget_check(cfg)
        profile = [0.0] + _profit_profile(cfg, "rlnc")
        table = [[a * q for q in profile] for a in pop.probs]
        codes = _exhaustive_codes(table, cfg.sic_capability, cfg.cache_size)

    alloc = RlncAllocation(codes)
    objective = analysis.stp_rlnc(alloc, pop, cfg).total
    return OptimizationResult("rlnc", alloc, objective, method, guarantee)


def solve_uc(
    pop: Popularity, cfg: SystemConfig, method: str = "greedy"
) -> OptimizationResult:
    """Near-optimal or exact uncoded allocation with canonical serving depths."""
    if method not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    guarantee = 1.0 if method == "exhaustive" else 0.5

    if cfg.sic_capability == 1:
        codes = _top_k_codes(cfg)
    elif method == "greedy":
        selection = greedy_mckp(build_mckp("uc", pop, cfg))
        codes = _choice_to_codes(selection.choice, cfg.sic_capability)
    else:
        _budget_check(cfg)
        profile = [0.0] + _profit_profile(cfg, "uc")
        table = [[a * q for q in profile] for a in pop.probs]
        codes = _exhaustive_codes(table, cfg.sic_capability, cfg.cache_size)

    alloc = UcAllocation(codes, default_serve_counts(codes, cfg.sic_capability))
    objective = analysis.stp_uc(alloc, pop, cfg).total
    return OptimizationResult("uc", alloc, objective, method, guarantee)


# --------------------------------------------------------------------------
# closed-form limits
# --------------------------------------------------------------------------


def asymptotic_opt_rlnc_small(
    pop: Popularity, cfg: SystemConfig
) -> OptimizationResult:
    """Vanishing-size optimum: split the top cache_size*sic_capability files maximally.

    Defined only while that many files exist; otherwise the finest uniform
    split no longer exhausts the budget and this closed form does not apply.
    """
    covered = cfg.cache_size * cfg.sic_capability
    if covered > cfg.n_files:
        raise ValueError(
            "small-size optimum undefined: cache_size * sic_capability = "
            f"{covered} exceeds n_files = {cfg.n_files}"
        )
    if len(pop) != cfg.n_files:
        raise ValueError(
            f"popularity covers {len(pop)} files, config declares {cfg.n_files}"
        )
    codes = (cfg.sic_capability,) * covered + (0,) * (cfg.n_files - covered)
    alloc = RlncAllocation(codes)
    objective = analysis.stp_rlnc_small_s(alloc, pop, cfg)
    return OptimizationResult("rlnc", alloc, objective, "asymptotic-small", 1.0)


def asymptotic_opt_rlnc_large(
    pop: Popularity, cfg: SystemConfig
) -> OptimizationResult:
    """Diverging-size optimum: store the most popular files whole."""
    if len(pop) != cfg.n_files:
        raise ValueError(
            f"popularity covers {len(pop)} files, config declares {cfg.n_files}"
        )
    alloc = RlncAllocation(_top_k_codes(cfg))
    objective = analysis.stp_rlnc_large_s(alloc, pop, cfg)
    return OptimizationResult("rlnc", alloc, objective, "asymptotic-large", 1.0)


def asymptotic_opt_uc_large(
    pop: Popularity, cfg: SystemConfig
) -> OptimizationResult:
    """Diverging-size uncoded optimum; coincides with the coded one."""
    if len(pop) != cfg.n_files:
        raise ValueError(
            f"popularity covers {len(pop)} files, config declares {cfg.n_files}"
        )
    codes = _top_k_codes(cfg)
    alloc = UcAllocation(codes, default_serve_counts(codes, cfg.sic_capability))
    objective = analysis.stp_uc_large_s(alloc, pop, cfg)
    return OptimizationResult("uc", alloc, objective, "asymptotic-large", 1.0)
