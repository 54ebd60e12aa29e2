import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from partcache import (
    BudgetExceededError,
    MckpInstance,
    UcAllocation,
    UnsupportedInstanceError,
    asymptotic_opt_rlnc_large,
    asymptotic_opt_rlnc_small,
    asymptotic_opt_uc_large,
    build_mckp,
    cache_load,
    default_serve_counts,
    greedy_mckp,
    solve_rlnc,
    solve_uc,
    stp_rlnc,
    stp_rlnc_file,
    stp_rlnc_large_s,
    stp_rlnc_small_s,
    stp_uc,
    stp_uc_file,
    undominated_indices,
    zipf_popularity,
)
from partcache.optimize import _weight_units

from .conftest import make_cfg


def codes_of(choice, max_split):
    return tuple(m if m <= max_split else 0 for m in choice)


# --------------------------------------------------------- tuple oracle
# The greedy as a walk over per-class tuples in Fraction arithmetic: one
# Python product per profit, one tuple per upgrade, one rational addition
# per applied step.  The array greedy must reproduce it exactly.


def oracle_instance(design, pop, cfg):
    cap = cfg.sic_capability
    if design == "rlnc":
        profile = [stp_rlnc_file(m, cfg) for m in range(1, cap + 1)]
    else:
        profile = [stp_uc_file(m, 1 if m == 1 else cap, cfg) for m in range(1, cap + 1)]
    profits = tuple(tuple(a * q for q in profile) + (0.0,) for a in pop.probs)
    weights = tuple(Fraction(1, m) for m in range(1, cap + 1)) + (Fraction(0),)
    return profits, weights, Fraction(cfg.cache_size)


def oracle_frontier(profile, weights):
    kept = []
    best = -math.inf
    for pos in range(len(profile) - 1, -1, -1):
        if profile[pos] > best:
            kept.append(pos)
            best = profile[pos]
    hull = []
    for pos in kept:
        while len(hull) >= 2:
            prev, last = hull[-2], hull[-1]
            slope_in = (profile[last] - profile[prev]) / float(weights[last] - weights[prev])
            slope_out = (profile[pos] - profile[last]) / float(weights[pos] - weights[last])
            if slope_out >= slope_in:
                hull.pop()
            else:
                break
        hull.append(pos)
    return tuple(pos + 1 for pos in reversed(hull))


def oracle_greedy(profits, weights, capacity):
    frontier = oracle_frontier(profits[0], weights)
    n_classes = len(profits)
    upgrades = []
    for n in range(n_classes):
        row = profits[n]
        for p in range(len(frontier) - 1):
            heavy, light = frontier[p] - 1, frontier[p + 1] - 1
            slope = (row[heavy] - row[light]) / float(weights[heavy] - weights[light])
            upgrades.append((-slope, n, p))
    upgrades.sort()
    position = [len(frontier) - 1] * n_classes
    used = Fraction(0)
    split = None
    for _, n, p in upgrades:
        assert position[n] == p + 1
        heavy, light = frontier[p] - 1, frontier[p + 1] - 1
        step = weights[heavy] - weights[light]
        if used + step > capacity:
            split = (n, frontier[p])
            break
        used += step
        position[n] = p
    choice = tuple(frontier[p] for p in position)
    value = math.fsum(profits[n][choice[n] - 1] for n in range(n_classes))
    if split is not None and used < capacity:
        n_split, item_split = split
        alone = profits[n_split][item_split - 1]
        if weights[item_split - 1] <= capacity and alone > value:
            empty = frontier[-1]
            choice = tuple(item_split if n == n_split else empty for n in range(n_classes))
            return choice, alone, weights[item_split - 1]
    return choice, value, used


def assert_matches_oracle(design, pop, cfg):
    sel = greedy_mckp(build_mckp(design, pop, cfg))
    choice, value, used = oracle_greedy(*oracle_instance(design, pop, cfg))
    assert sel.choice == choice
    assert type(sel.value) is float and sel.value == value
    assert type(sel.weight_used) is Fraction and sel.weight_used == used


# ------------------------------------------------------------ construction


def test_build_mckp_shape(cfg5, pop5):
    inst = build_mckp("rlnc", pop5, cfg5)
    assert inst.n_classes == 5
    assert inst.n_items == 4
    assert inst.weights == (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(0))
    assert inst.capacity == Fraction(2)
    profile = tuple(stp_rlnc_file(m, cfg5) for m in (1, 2, 3)) + (0.0,)
    for a, row in zip(pop5.probs, inst.profits):
        assert row == pytest.approx(tuple(a * g for g in profile), abs=1e-15)


def test_build_mckp_uc_differs(cfg5, pop5):
    rlnc = build_mckp("rlnc", pop5, cfg5)
    uc = build_mckp("uc", pop5, cfg5)
    assert uc.weights == rlnc.weights
    # splitting is strictly worse without coding, whole files identical
    assert uc.profits[0][0] == rlnc.profits[0][0]
    assert uc.profits[0][1] < rlnc.profits[0][1]


def test_build_mckp_rejects_mismatch(cfg5):
    with pytest.raises(ValueError):
        build_mckp("rlnc", zipf_popularity(4, 1.0), cfg5)
    with pytest.raises(ValueError):
        build_mckp("nope", zipf_popularity(5, 1.0), cfg5)


def test_instance_validation():
    with pytest.raises(ValueError):
        MckpInstance(((0.5, 0.0),), (Fraction(1, 2), Fraction(1)), Fraction(1))
    with pytest.raises(ValueError):
        MckpInstance(((0.5, 0.1),), (Fraction(1), Fraction(1, 2)), Fraction(1))
    with pytest.raises(ValueError):
        MckpInstance(((0.5, 0.0),), (Fraction(1), Fraction(0)), Fraction(0))


# ---------------------------------------------------------------- frontier


def test_frontier_keeps_all_on_reference_instance(cfg5, pop5):
    inst = build_mckp("rlnc", pop5, cfg5)
    assert undominated_indices(inst) == (1, 2, 3, 4)


def test_frontier_drops_plainly_dominated():
    # the heavy item earns less than the lighter one: never worth taking
    inst = MckpInstance(
        ((0.4, 0.5, 0.0),),
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        Fraction(1),
    )
    assert undominated_indices(inst) == (2, 3)


def test_frontier_drops_slope_dominated():
    # item 2 lies under the hull chord from item 3 to item 1
    inst = MckpInstance(
        ((0.9, 0.5, 0.45, 0.0),),
        (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(0)),
        Fraction(1),
    )
    assert undominated_indices(inst) == (1, 3, 4)


def test_greedy_rejects_nonproportional_profits():
    inst = MckpInstance(
        ((0.5, 0.2, 0.0), (0.4, 0.3, 0.0)),
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        Fraction(1),
    )
    with pytest.raises(UnsupportedInstanceError):
        greedy_mckp(inst)


# ------------------------------------------------------------------ greedy


def test_greedy_reference_selection(cfg5, pop5):
    inst = build_mckp("rlnc", pop5, cfg5)
    sel = greedy_mckp(inst)
    assert codes_of(sel.choice, cfg5.sic_capability) == (1, 2, 2, 0, 0)
    want = pop5.probs[0] * stp_rlnc_file(1, cfg5) + (
        pop5.probs[1] + pop5.probs[2]
    ) * stp_rlnc_file(2, cfg5)
    assert sel.value == pytest.approx(want, abs=1e-12)
    assert sel.weight_used == Fraction(2)


def test_greedy_split_item_fallback():
    # small cheap items fill almost nothing; the rejected heavy item alone wins
    profile = (1.0, 0.02, 0.0)
    inst = MckpInstance(
        (
            tuple(0.4 * g for g in profile),
            tuple(0.6 * g for g in profile),
        ),
        (Fraction(1), Fraction(1, 100), Fraction(0)),
        Fraction(1),
    )
    sel = greedy_mckp(inst)
    assert sel.choice == (3, 1)
    assert sel.value == pytest.approx(0.6, abs=1e-15)
    assert sel.weight_used == Fraction(1)


@given(
    n_files=st.integers(min_value=2, max_value=300),
    max_split=st.integers(min_value=1, max_value=6),
    cache_frac=st.floats(min_value=0.0, max_value=1.0),
    log_ratio=st.floats(min_value=-2.0, max_value=1.5),
    gamma=st.floats(min_value=0.1, max_value=2.5),
    design=st.sampled_from(["rlnc", "uc"]),
)
def test_greedy_matches_tuple_oracle(n_files, max_split, cache_frac, log_ratio, gamma, design):
    cache_size = 1 + int(cache_frac * (n_files - 2))
    cfg = make_cfg(
        ratio=10.0**log_ratio,
        n_files=n_files,
        cache_size=cache_size,
        sic_capability=max_split,
    )
    assert_matches_oracle(design, zipf_popularity(n_files, gamma), cfg)


@pytest.mark.parametrize("design", ["rlnc", "uc"])
def test_greedy_matches_tuple_oracle_at_benchmark_scale(design):
    # the size of the analytic benchmark's allocations
    n = 20_000
    cfg = make_cfg(ratio=0.2, n_files=n, cache_size=n // 5, sic_capability=5)
    assert_matches_oracle(design, zipf_popularity(n, 1.0), cfg)


@pytest.mark.parametrize(
    "ratio, max_split",
    [
        (5000.0, 3),  # every split overflows: nothing but the uncached item survives
        (0.5, 44),  # lcm(1..44) units overflow int64: the walk sums Python ints
    ],
)
def test_greedy_matches_tuple_oracle_at_extremes(ratio, max_split):
    cfg = make_cfg(ratio=ratio, n_files=60, cache_size=7, sic_capability=max_split)
    pop = zipf_popularity(60, 0.8)
    for design in ("rlnc", "uc"):
        assert_matches_oracle(design, pop, cfg)


@pytest.mark.parametrize(
    "profile, weights, scales",
    [
        # non-unit weights; equal rows tie on every slope, in more places
        # than a sort keeps stable by accident
        (
            (0.9, 0.7, 0.3, 0.0),
            (Fraction(5, 7), Fraction(2, 5), Fraction(1, 9), Fraction(0)),
            (0.35,) + (0.3,) * 30 + (0.2, 0.05),
        ),
        # exact slopes (1, 2) and (2, 4): the tie at 2 goes to the lower class
        # even though its step is the lighter one
        ((1.5, 1.0, 0.0), (Fraction(1), Fraction(1, 2), Fraction(0)), (1.0, 2.0)),
        # cheap items fill almost nothing; the split item alone wins
        ((1.0, 0.02, 0.0), (Fraction(1), Fraction(1, 100), Fraction(0)), (0.4, 0.6)),
    ],
)
def test_greedy_matches_tuple_oracle_on_hand_built_instances(profile, weights, scales):
    profits = tuple(tuple(a * g for g in profile) for a in scales)
    # capacities that are not whole slots, too small for any item, and ample
    for capacity in (Fraction(1, 200), Fraction(1, 9), Fraction(1), Fraction(11, 6), Fraction(5)):
        sel = greedy_mckp(MckpInstance(profits, weights, capacity))
        assert (sel.choice, sel.value, sel.weight_used) == oracle_greedy(
            profits, weights, capacity
        )


@given(
    st.lists(
        st.fractions(min_value=0, max_value=3, max_denominator=10**6),
        min_size=2,
        max_size=8,
        unique=True,
    )
)
def test_weight_units_round_like_fractions(weights):
    scale, units = _weight_units(tuple(weights))
    for a, ua in zip(weights, units):
        assert Fraction(ua, scale) == a
        for b, ub in zip(weights, units):
            assert (ua - ub) / scale == float(a - b)


def test_greedy_flags_non_adjacent_upgrades():
    # class 1 is proportional to class 0 within tolerance, but its heavier
    # step is steeper than its lighter one, against the shared frontier
    inst = MckpInstance(
        ((2.0 - 1e-12, 1.0, 0.0), (2.0 + 3e-12, 1.0, 0.0)),
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        Fraction(2),
    )
    assert undominated_indices(inst) == (1, 2, 3)
    with pytest.raises(AssertionError, match="non-adjacent"):
        greedy_mckp(inst)


def test_greedy_respects_capacity_everywhere():
    rng = np.random.default_rng(123)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 4)))
        cfg = make_cfg(
            ratio=float(10 ** rng.uniform(-1.5, 1.3)),
            n_files=n,
            cache_size=k,
            sic_capability=m,
        )
        pop = zipf_popularity(n, float(rng.uniform(0.2, 2.0)))
        for design, solve in (("rlnc", solve_rlnc), ("uc", solve_uc)):
            res = solve(pop, cfg, "greedy")
            assert cache_load(res.allocation.codes) <= Fraction(k)
            assert res.design == design


# ------------------------------------------------------------- exhaustive


def brute_rlnc(pop, cfg):
    best_val, best_codes = -1.0, None
    for codes in itertools.product(range(cfg.sic_capability + 1), repeat=cfg.n_files):
        load = sum((Fraction(1, c) for c in codes if c), Fraction(0))
        if load > cfg.cache_size:
            continue
        val = math.fsum(
            a * stp_rlnc_file(c, cfg) for a, c in zip(pop.probs, codes)
        )
        if val > best_val:
            best_val, best_codes = val, codes
    return best_val, best_codes


def test_exhaustive_matches_blind_enumeration():
    cfg = make_cfg(ratio=0.7, n_files=3, cache_size=1, sic_capability=3)
    pop = zipf_popularity(3, 0.9)
    want_val, want_codes = brute_rlnc(pop, cfg)
    res = solve_rlnc(pop, cfg, "exhaustive")
    assert res.allocation.codes == want_codes
    assert res.objective == pytest.approx(want_val, abs=1e-12)
    assert res.guarantee == 1.0


def test_exhaustive_uc_matches_enumeration():
    cfg = make_cfg(ratio=1.3, n_files=3, cache_size=1, sic_capability=3)
    pop = zipf_popularity(3, 1.1)
    res = solve_uc(pop, cfg, "exhaustive")
    brute_best = -1.0
    for codes in itertools.product(range(cfg.sic_capability + 1), repeat=3):
        load = sum((Fraction(1, c) for c in codes if c), Fraction(0))
        if load > cfg.cache_size:
            continue
        serves = default_serve_counts(codes, cfg.sic_capability)
        alloc = UcAllocation(codes, serves)
        brute_best = max(brute_best, stp_uc(alloc, pop, cfg).total)
    assert res.objective == pytest.approx(brute_best, abs=1e-12)


def test_exhaustive_budget_guard():
    cfg = make_cfg(n_files=12, cache_size=3, sic_capability=4)
    pop = zipf_popularity(12, 1.0)
    with pytest.raises(BudgetExceededError):
        solve_rlnc(pop, cfg, "exhaustive")
    # the greedy path must stay usable at that size
    res = solve_rlnc(pop, cfg, "greedy")
    assert res.guarantee == 0.5


def test_single_stage_receiver_stores_top_files():
    cfg = make_cfg(sic_capability=1)
    pop = zipf_popularity(5, 1.0)
    for method in ("greedy", "exhaustive"):
        assert solve_rlnc(pop, cfg, method).allocation.codes == (1, 1, 0, 0, 0)
        assert solve_uc(pop, cfg, method).allocation.codes == (1, 1, 0, 0, 0)


def test_unknown_method_rejected(cfg5, pop5):
    with pytest.raises(ValueError):
        solve_rlnc(pop5, cfg5, "anneal")


def test_objective_consistency(cfg5, pop5):
    res = solve_rlnc(pop5, cfg5, "greedy")
    assert res.objective == pytest.approx(
        stp_rlnc(res.allocation, pop5, cfg5).total, abs=1e-12
    )
    res = solve_uc(pop5, cfg5, "greedy")
    assert res.objective == pytest.approx(
        stp_uc(res.allocation, pop5, cfg5).total, abs=1e-12
    )


def test_greedy_half_guarantee_spot_checks():
    rng = np.random.default_rng(321)
    worst = 1.0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 4)))
        cfg = make_cfg(
            ratio=float(10 ** rng.uniform(-1.5, 1.3)),
            n_files=n,
            cache_size=k,
            sic_capability=m,
        )
        pop = zipf_popularity(n, float(rng.uniform(0.2, 2.0)))
        exact = solve_rlnc(pop, cfg, "exhaustive").objective
        approx = solve_rlnc(pop, cfg, "greedy").objective
        assert approx >= 0.5 * exact - 1e-12
        assert approx <= exact + 1e-12
        if exact > 0:
            worst = min(worst, approx / exact)
    assert worst >= 0.5


# ------------------------------------------------------------- asymptotics


def test_small_size_optimum(pop5):
    cfg = make_cfg(ratio=1.0e-3, sic_capability=2)
    res = asymptotic_opt_rlnc_small(pop5, cfg)
    assert res.allocation.codes == (2, 2, 2, 2, 0)
    assert res.method == "asymptotic-small"
    assert res.guarantee == 1.0
    assert res.objective == pytest.approx(
        stp_rlnc_small_s(res.allocation, pop5, cfg), abs=1e-15
    )


def test_small_size_optimum_needs_room(pop5):
    with pytest.raises(ValueError):
        asymptotic_opt_rlnc_small(pop5, make_cfg(ratio=1e-3))  # 2*3 > 5 files


def test_large_size_optima(pop5):
    cfg = make_cfg(ratio=30.0)
    coded = asymptotic_opt_rlnc_large(pop5, cfg)
    assert coded.allocation.codes == (1, 1, 0, 0, 0)
    assert coded.method == "asymptotic-large"
    assert coded.objective == pytest.approx(
        stp_rlnc_large_s(coded.allocation, pop5, cfg), rel=1e-12
    )
    uncoded = asymptotic_opt_uc_large(pop5, cfg)
    assert uncoded.allocation.codes == (1, 1, 0, 0, 0)
    assert isinstance(uncoded.allocation, UcAllocation)
    # whole-file storage makes the two designs coincide in the limit
    assert uncoded.objective == pytest.approx(coded.objective, rel=1e-12)
