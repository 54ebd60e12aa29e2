import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from partcache import (
    AllocationError,
    Popularity,
    RlncAllocation,
    SicNoiseFactor,
    UcAllocation,
    coupon_pmf,
    per_bs_decode_prob,
    sic_chain_success,
    sic_noise_factor,
    stp_rlnc,
    stp_rlnc_file,
    stp_rlnc_large_s,
    stp_rlnc_small_s,
    stp_uc,
    stp_uc_file,
    stp_uc_large_s,
    stp_uc_small_s,
    zipf_popularity,
)
from .conftest import make_cfg


def arcsine_noise_factor(splits: int, ratio: float) -> float:
    """Independent route for the alpha = 4 penalty.

    At a path-loss exponent of 4 the weight integral has the closed form
    pi - 2*arcsin(sqrt(z)), so the whole factor reduces to elementary
    functions and never touches the quadrature backend.
    """
    t = ratio / splits
    return 0.5 * math.sqrt(2.0**t - 1.0) * (
        math.pi - 2.0 * math.asin(2.0 ** (-0.5 * t))
    )


# ------------------------------------------------------------- noise factor


def test_noise_factor_quarter_pi(cfg5):
    assert sic_noise_factor(1, cfg5) == pytest.approx(math.pi / 4.0, abs=1e-12)


@pytest.mark.parametrize("splits", [1, 2, 3])
@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_noise_factor_matches_arcsine_route(splits, ratio):
    cfg = make_cfg(ratio=ratio)
    assert sic_noise_factor(splits, cfg) == pytest.approx(
        arcsine_noise_factor(splits, ratio), abs=1e-12
    )


def test_noise_factor_vanishes_with_size():
    assert sic_noise_factor(2, make_cfg(ratio=0.0)) == 0.0


def test_noise_factor_monotone():
    # grows with file size, shrinks as the split spreads the rate demand
    cfgs = [make_cfg(ratio=r) for r in (0.25, 1.0, 4.0)]
    values = [sic_noise_factor(1, c) for c in cfgs]
    assert values[0] < values[1] < values[2]
    per_split = [sic_noise_factor(s, cfgs[1]) for s in (1, 2, 3)]
    assert per_split[0] > per_split[1] > per_split[2]


def test_noise_factor_rejects_zero_split(cfg5):
    with pytest.raises(AllocationError):
        sic_noise_factor(0, cfg5)


def test_noise_factor_value_object(cfg5):
    wrapped = SicNoiseFactor.for_rate(1, cfg5)
    assert wrapped.theta == sic_noise_factor(1, cfg5)
    with pytest.raises(ValueError):
        SicNoiseFactor(-0.1)


# ------------------------------------------------------------- decode chain


def test_stage_and_chain_consistency(cfg5):
    theta = sic_noise_factor(2, cfg5)
    for depth in (1, 2, 3):
        stages = [per_bs_decode_prob(2, j, cfg5) for j in range(1, depth + 1)]
        assert math.prod(stages) == pytest.approx(
            sic_chain_success(2, depth, cfg5), rel=1e-12
        )
        assert stages[-1] == pytest.approx((1.0 + theta) ** -depth, rel=1e-12)


def test_chain_decreases_with_depth(cfg5):
    values = [sic_chain_success(2, d, cfg5) for d in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_chain_rejects_bad_depth(cfg5):
    with pytest.raises(ValueError):
        sic_chain_success(2, 0, cfg5)
    with pytest.raises(ValueError):
        per_bs_decode_prob(2, -1, cfg5)


# ------------------------------------------------------------- coded design


def test_rlnc_file_anchors(cfg5):
    # frozen against the arcsine route above
    assert stp_rlnc_file(1, cfg5) == pytest.approx(1.0 / (1.0 + math.pi / 4.0), abs=1e-12)
    q2 = (1.0 + arcsine_noise_factor(2, 1.0)) ** -3
    q3 = (1.0 + arcsine_noise_factor(3, 1.0)) ** -6
    assert stp_rlnc_file(2, cfg5) == pytest.approx(q2, abs=1e-12)
    assert stp_rlnc_file(3, cfg5) == pytest.approx(q3, abs=1e-12)
    assert stp_rlnc_file(2, cfg5) == pytest.approx(0.3905699014450775, abs=1e-9)


def test_rlnc_uncached_file_never_succeeds(cfg5):
    assert stp_rlnc_file(0, cfg5) == 0.0


def test_rlnc_zero_size_always_succeeds():
    cfg = make_cfg(ratio=0.0)
    for m in (1, 2, 3):
        assert stp_rlnc_file(m, cfg) == pytest.approx(1.0, abs=1e-15)


def test_rlnc_breakdown(cfg5, pop5):
    alloc = RlncAllocation((1, 2, 2, 0, 0))
    out = stp_rlnc(alloc, pop5, cfg5)
    assert out.per_file == tuple(stp_rlnc_file(c, cfg5) for c in alloc.codes)
    assert out.total == pytest.approx(
        math.fsum(a * q for a, q in zip(pop5.probs, out.per_file)), abs=1e-15
    )


def test_rlnc_rejects_infeasible(cfg5, pop5):
    with pytest.raises(AllocationError):
        stp_rlnc(RlncAllocation((1, 1, 1, 0, 0)), pop5, cfg5)


@given(
    ratio=st.floats(min_value=0.01, max_value=8.0),
    codes=st.tuples(*[st.integers(min_value=0, max_value=3)] * 5),
)
def test_rlnc_stays_in_unit_interval(ratio, codes):
    assume(sum(Fraction(1, c) for c in codes if c) <= 2)
    cfg = make_cfg(ratio=ratio)
    pop = zipf_popularity(5, 1.0)
    out = stp_rlnc(RlncAllocation(codes), pop, cfg)
    assert all(0.0 <= q <= 1.0 for q in out.per_file)
    assert 0.0 <= out.total <= 1.0


# ------------------------------------------------------------- coupon counts


def test_coupon_exact_fractions():
    assert coupon_pmf(2, 2, 3) == 0.5
    assert coupon_pmf(2, 3, 3) == 0.25
    assert coupon_pmf(3, 3, 3) == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert coupon_pmf(1, 1, 3) == 1.0
    assert coupon_pmf(1, 2, 3) == 0.0
    assert coupon_pmf(3, 2, 3) == 0.0  # cannot cover 3 pieces in 2 draws


def brute_first_cover(splits: int, tries: int) -> float:
    import itertools

    hits = 0
    for seq in itertools.product(range(splits), repeat=tries):
        if len(set(seq)) == splits and len(set(seq[:-1])) < splits:
            hits += 1
    return hits / splits**tries


@pytest.mark.parametrize("splits", [2, 3])
def test_coupon_matches_enumeration(splits):
    for tries in range(1, 7):
        want = 0.0 if tries < splits else brute_first_cover(splits, tries)
        assert coupon_pmf(splits, tries, 8) == pytest.approx(want, abs=1e-12)


def test_coupon_preconditions():
    with pytest.raises(ValueError):
        coupon_pmf(0, 1, 3)
    with pytest.raises(ValueError):
        coupon_pmf(4, 4, 3)  # more pieces than the receiver can chain
    with pytest.raises(ValueError):
        coupon_pmf(2, 5, 3)  # deeper than the receiver can chain


# ------------------------------------------------------------- uncoded design


def test_uc_file_anchor(cfg5):
    theta = arcsine_noise_factor(2, 1.0)
    want = 0.5 * (1.0 + theta) ** -3 + 0.25 * (1.0 + theta) ** -6
    assert stp_uc_file(2, 3, cfg5) == pytest.approx(want, abs=1e-12)
    assert stp_uc_file(2, 3, cfg5) == pytest.approx(0.23342116270124316, abs=1e-9)


def test_uc_whole_file_equals_coded(cfg5):
    assert stp_uc_file(1, 1, cfg5) == stp_rlnc_file(1, cfg5)


def test_uc_more_serving_helps(cfg5):
    assert stp_uc_file(2, 3, cfg5) > stp_uc_file(2, 2, cfg5)


def test_uc_never_beats_coded(cfg5):
    for splits in (2, 3):
        coded = stp_rlnc_file(splits, cfg5)
        assert stp_uc_file(splits, 3, cfg5) <= coded + 1e-15


def test_uc_breakdown_and_equality(cfg5, pop5):
    codes = (1, 1, 0, 0, 0)
    uc = stp_uc(UcAllocation(codes, (1, 1, 0, 0, 0)), pop5, cfg5)
    coded = stp_rlnc(RlncAllocation(codes), pop5, cfg5)
    assert uc.total == pytest.approx(coded.total, abs=1e-15)
    assert uc.per_file == coded.per_file


def test_uc_rejects_bad_pairs(cfg5, pop5):
    with pytest.raises(AllocationError):
        stp_uc(UcAllocation((2, 0, 0, 0, 0), (1, 0, 0, 0, 0)), pop5, cfg5)


# ------------------------------------------------------------- size limits


def test_small_size_limit_hand_formula(pop5):
    ratio = 1.0e-3
    cfg = make_cfg(ratio=ratio)
    alloc = RlncAllocation((1, 1, 0, 0, 0))
    mass = pop5.probs[0] + pop5.probs[1]
    want = mass * (1.0 - math.log(2.0) * ratio)  # (1+c)/(alpha-2) = 1 here
    assert stp_rlnc_small_s(alloc, pop5, cfg) == pytest.approx(want, abs=1e-12)


def test_large_size_limit_hand_formula(pop5):
    ratio = 30.0
    cfg = make_cfg(ratio=ratio)
    alloc = RlncAllocation((1, 1, 0, 0, 0))
    mass = pop5.probs[0] + pop5.probs[1]
    want = mass * 2.0 ** (-2.0 * ratio / 4.0) / (0.5 * math.pi)
    assert stp_rlnc_large_s(alloc, pop5, cfg) == pytest.approx(want, rel=1e-12)


def test_large_size_base_is_one_quadrature_per_exponent(pop5, monkeypatch):
    from partcache import analysis
    from partcache.special import beta

    calls = []
    monkeypatch.setattr(analysis, "beta", lambda x, y: calls.append(x) or beta(x, y))
    analysis._whole_plane_base.cache_clear()
    alpha = 3.3 + 1e-9  # an exponent no other test uses
    codes = (2, 2, 0, 0, 0)
    values = []
    for ratio in (20.0, 30.0):
        cfg = make_cfg(ratio, alpha=alpha)
        values.append(stp_rlnc_large_s(RlncAllocation(codes), pop5, cfg))
        values.append(stp_uc_large_s(UcAllocation(codes, (3, 3, 0, 0, 0)), pop5, cfg))
    assert len(calls) == 1
    x = 2.0 / alpha
    base = x * beta(x, 1.0 - x)
    mass = pop5.probs[0] + pop5.probs[1]
    t = make_cfg(20.0, alpha=alpha).rate_ratio
    assert values[0] == 2.0 ** -(3 * t / alpha) / base**3.0 * mass


def test_limits_bracket_exact_values(pop5):
    alloc = RlncAllocation((2, 2, 2, 2, 0))
    small = make_cfg(ratio=1.0e-3)
    exact = stp_rlnc(alloc, pop5, small).total
    assert exact / stp_rlnc_small_s(alloc, pop5, small) == pytest.approx(1.0, abs=1e-3)
    large = make_cfg(ratio=30.0)
    exact = stp_rlnc(alloc, pop5, large).total
    assert exact / stp_rlnc_large_s(alloc, pop5, large) == pytest.approx(1.0, abs=2e-2)


def test_uc_limits(pop5):
    alloc = UcAllocation((2, 3, 0, 0, 0), (3, 3, 0, 0, 0))
    small = make_cfg(ratio=1.0e-5)
    exact = stp_uc(alloc, pop5, small).total
    assert exact / stp_uc_small_s(alloc, pop5, small) == pytest.approx(1.0, abs=1e-4)
    large = make_cfg(ratio=30.0)
    exact = stp_uc(alloc, pop5, large).total
    assert exact / stp_uc_large_s(alloc, pop5, large) == pytest.approx(1.0, abs=2e-2)


def test_uc_large_limit_is_coded_times_first_chance(pop5):
    cfg = make_cfg(ratio=30.0)
    codes = (2, 2, 0, 0, 0)
    uc = UcAllocation(codes, (3, 3, 0, 0, 0))
    want = stp_rlnc_large_s(RlncAllocation(codes), pop5, cfg) * coupon_pmf(2, 2, 3)
    assert stp_uc_large_s(uc, pop5, cfg) == pytest.approx(want, rel=1e-12)


def test_large_limit_needs_a_cached_file(pop5):
    cfg = make_cfg(ratio=30.0)
    with pytest.raises(AllocationError):
        stp_rlnc_large_s(RlncAllocation((0, 0, 0, 0, 0)), pop5, cfg)


def test_stp_decreases_with_file_size(pop5):
    alloc = RlncAllocation((1, 2, 3, 0, 0))
    values = [
        stp_rlnc(alloc, pop5, make_cfg(ratio=r)).total for r in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
