import gc
import math
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from partcache import (
    AllocationError,
    NetworkRealization,
    RlncAllocation,
    SimulationError,
    SubfilePlacement,
    UcAllocation,
    coupon_pmf,
    default_serve_counts,
    sample_network,
    sic_decode_chain,
    simulate_baseline,
    simulate_rlnc,
    simulate_uc,
    stp_rlnc,
    stp_uc_file,
    subfile_cover_index,
    water_fill_mu,
    zipf_popularity,
)
from partcache import simulate as simulate_module
from partcache.simulate import TABLE_HEAD, _stream, _strip_covers
from .conftest import make_cfg


# ----------------------------------------------------------- field sampling


def test_sample_network_shape(cfg5):
    rng = np.random.default_rng(1)
    counts = []
    for _ in range(200):
        net = sample_network(cfg5, rng, disc_scale=10.0)
        assert net.bs_distances.size == net.fading_powers.size
        assert net.bs_distances.size >= cfg5.sic_capability + 1
        assert np.all(np.diff(net.bs_distances) > 0)
        assert np.all(net.fading_powers > 0)
        counts.append(net.bs_distances.size)
    # station count is Poisson with mean disc_scale**2 (minus rare redraws)
    assert 90.0 < float(np.mean(counts)) < 110.0


def test_sample_network_rejects_bad_scale(cfg5):
    with pytest.raises(ValueError):
        sample_network(cfg5, np.random.default_rng(0), disc_scale=0.0)


def test_nearest_distance_distribution(cfg5):
    # d1^2 is exponential: F(x) = 1 - exp(-pi * density * x^2)
    rng = np.random.default_rng(7)
    draws = np.array(
        [sample_network(cfg5, rng, disc_scale=8.0).bs_distances[0] for _ in range(5000)]
    )
    lam = cfg5.bs_density

    def cdf(x):
        return 1.0 - np.exp(-math.pi * lam * np.asarray(x) ** 2)

    assert stats.kstest(draws, cdf).pvalue > 0.01


# ------------------------------------------------------------- decode chain


def crafted(distances, fading):
    return NetworkRealization(np.asarray(distances, float), np.asarray(fading, float))


def test_chain_passes_with_dominant_station(cfg5):
    net = crafted([1.0, 1000.0], [1.0, 1.0])
    assert sic_decode_chain(net, 1, 1, cfg5) is True


def test_chain_fails_under_heavy_interference(cfg5):
    net = crafted([1.0, 2.0], [1.0e-9, 1.0e9])
    assert sic_decode_chain(net, 1, 1, cfg5) is False


def test_chain_two_stage_outcomes(cfg5):
    # stage thresholds: 2**(1/2) - 1 per piece of a half-size split
    ok = crafted([1.0, 2.0, 1000.0], [1.0, 1.0, 1.0e-6])
    assert sic_decode_chain(ok, 2, 2, cfg5) is True
    # the near station is too weak once the second stage must be peeled first
    weak_near = crafted([1.0, 2.0, 1000.0], [0.02, 1.0, 1.0e-6])
    assert sic_decode_chain(weak_near, 2, 2, cfg5) is False


def test_chain_validation(cfg5):
    net = crafted([1.0, 2.0, 3.0, 4.0], [1.0] * 4)
    with pytest.raises(ValueError):
        sic_decode_chain(net, 2, 0, cfg5)
    with pytest.raises(ValueError):
        sic_decode_chain(net, 2, cfg5.sic_capability + 1, cfg5)
    with pytest.raises(AllocationError):
        sic_decode_chain(net, 0, 1, cfg5)
    with pytest.raises(SimulationError):
        sic_decode_chain(crafted([1.0, 2.0], [1.0, 1.0]), 2, 2, cfg5)


# ------------------------------------------------------------ piece covers


def test_cover_index_cases():
    assert subfile_cover_index((0, 1), 2) == 2
    assert subfile_cover_index((0, 0, 1), 2) == 3
    assert subfile_cover_index((1, 1), 2) == 0
    assert subfile_cover_index((0, 1, 0, 2), 3) == 4
    assert subfile_cover_index((), 2) == 0
    assert subfile_cover_index((0,), 1) == 1


def test_subfile_placement():
    placed = SubfilePlacement.from_draws(np.array([0, 1, 0]), 2)
    assert placed.piece_ids == (0, 1, 0)
    assert placed.first_cover == 2
    with pytest.raises(ValueError):
        SubfilePlacement.from_draws((0, 2), 2)


@pytest.mark.parametrize("splits", [2, 3])
def test_cover_index_distribution(splits):
    # frequency of each first-cover position against the closed-form pmf
    serve, m = 5, 100_000
    rng = np.random.default_rng(10 + splits)
    draws = rng.integers(0, splits, size=(m, serve))
    counts = np.zeros(serve + 1, dtype=np.int64)
    for row in draws:
        counts[subfile_cover_index(row, splits)] += 1
    probs = [coupon_pmf(splits, i, serve) for i in range(splits, serve + 1)]
    probs.insert(0, 1.0 - math.fsum(probs))  # fail bin
    keep = [0] + list(range(splits, serve + 1))  # positions below splits are impossible
    assert int(counts.sum()) == m and not counts[1:splits].any()
    assert stats.chisquare(counts[keep], np.array(probs) * m).pvalue > 0.01


# ------------------------------------------------------------- determinism


def test_simulation_is_reproducible(cfg5, pop5):
    alloc = RlncAllocation((1, 2, 2, 0, 0))
    a = simulate_rlnc(alloc, pop5, cfg5, 400, 11, disc_scale=20.0)
    b = simulate_rlnc(alloc, pop5, cfg5, 400, 11, disc_scale=20.0)
    assert a == b
    c = simulate_rlnc(alloc, pop5, cfg5, 400, 12, disc_scale=20.0)
    assert c.overall.mean != a.overall.mean


def test_input_validation(cfg5, pop5):
    alloc = RlncAllocation((1, 1, 0, 0, 0))
    for bad_seed in (-1, 2**64, True, 1.5):
        with pytest.raises(ValueError):
            simulate_rlnc(alloc, pop5, cfg5, 10, bad_seed)
    with pytest.raises(ValueError):
        simulate_rlnc(alloc, pop5, cfg5, 0, 1)
    with pytest.raises(AllocationError):
        simulate_rlnc(RlncAllocation((1, 1, 1, 0, 0)), pop5, cfg5, 10, 1)
    with pytest.raises(ValueError):
        simulate_baseline(5, pop5, cfg5, 10, 1)


# ----------------------------------------------------- design equivalences


def test_whole_file_designs_coincide(cfg5, pop5):
    codes = (1, 1, 0, 0, 0)
    coded = simulate_rlnc(RlncAllocation(codes), pop5, cfg5, 3000, 21, disc_scale=25.0)
    uncoded = simulate_uc(
        UcAllocation(codes, (1, 1, 0, 0, 0)), pop5, cfg5, 3000, 21, disc_scale=25.0
    )
    assert coded == uncoded


def test_top_files_baseline_equals_coded_whole_files(cfg5, pop5):
    top = simulate_rlnc(
        RlncAllocation((1, 1, 0, 0, 0)), pop5, cfg5, 2000, 99, disc_scale=25.0
    )
    base = simulate_baseline(1, pop5, cfg5, 2000, 99, disc_scale=25.0)
    assert base == top.overall


def test_uncoded_split_matches_analysis(cfg5, pop5):
    alloc = UcAllocation((1, 2, 0, 0, 0), (1, 3, 0, 0, 0))
    out = simulate_uc(alloc, pop5, cfg5, 10_000, 404, disc_scale=50.0)
    want = stp_uc_file(2, 3, cfg5)
    assert abs(out.per_file[1].mean - want) <= 0.05
    assert abs(out.per_file[1].mean - want) <= 3.0 * out.per_file[1].ci_half_width


def test_per_file_recomposition(cfg5, pop5):
    alloc = RlncAllocation((1, 2, 2, 0, 0))
    out = simulate_rlnc(alloc, pop5, cfg5, 1500, 8, disc_scale=20.0)
    assert sum(pf.trials for pf in out.per_file) == 1500
    successes = sum(round(pf.mean * pf.trials) for pf in out.per_file)
    assert successes == round(out.overall.mean * 1500)
    analytic = stp_rlnc(alloc, pop5, cfg5).total
    assert abs(out.overall.mean - analytic) <= 3.0 * out.overall.ci_half_width + 0.01


# ---------------------------------------------------------------- baselines


def test_strip_membership_marginals():
    rng = np.random.default_rng(5)
    u = rng.random(100_000)
    for lo, width in ((0.0, 0.3), (0.7, 0.35), (1.3, 0.25), (1.9, 0.1)):
        hit = _strip_covers(u, lo, width, 2)
        tol = 4.0 * math.sqrt(width * (1.0 - width) / u.size)
        assert abs(float(hit.mean()) - width) < tol


def test_water_fill_anchors():
    from partcache import Popularity

    mu, widths = water_fill_mu(Popularity((0.5, 0.3, 0.2)), 2)
    assert mu == pytest.approx(0.0, abs=1e-8)
    assert widths == pytest.approx((1.0, 0.6, 0.4), abs=1e-8)
    mu, widths = water_fill_mu(Popularity((0.7, 0.2, 0.1)), 2)
    assert mu == pytest.approx(0.2, abs=1e-8)
    assert widths == pytest.approx((1.0, 0.6, 0.4), abs=1e-8)
    with pytest.raises(ValueError):
        water_fill_mu(Popularity((0.5, 0.3, 0.2)), 3)


def test_water_fill_properties():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n))
        pop = zipf_popularity(n, float(rng.uniform(0.1, 3.0)))
        mu, widths = water_fill_mu(pop, k)
        assert mu >= 0.0
        assert math.fsum(widths) == pytest.approx(k, abs=1e-9)
        assert all(0.0 < w <= 1.0 for w in widths)
        assert all(a >= b - 1e-12 for a, b in zip(widths, widths[1:]))


def test_graded_baseline_runs(cfg5, pop5):
    out = simulate_baseline(3, pop5, cfg5, 1500, 13, disc_scale=25.0)
    assert 0.0 <= out.mean <= 1.0
    assert out.trials == 1500
    # grading toward popular files cannot fall behind uniform caching by much
    uniform = simulate_baseline(2, pop5, cfg5, 1500, 13, disc_scale=25.0)
    assert out.mean >= uniform.mean - 3.0 * (out.ci_half_width + uniform.ci_half_width)


# ------------------------------------------------------ literal replay oracle
#
# Trial by trial, as the contract states it: a fresh stream pair, the
# caller's own field, the decode chain and the baselines' nearest holder.
# The simulators read shared fields from a table; these must agree exactly.


def _literal_requests(pop, trials, seed):
    cum = np.cumsum(np.asarray(pop.probs, dtype=np.float64))
    for trial in range(trials):
        aux = _stream(seed, trial, 0)
        net = _stream(seed, trial, 1)
        n = min(int(np.searchsorted(cum, aux.random(), side="right")), len(pop) - 1)
        yield n, aux, net


def _literal_powers(realization, alpha):
    x = realization.bs_distances * realization.bs_distances
    gain = 1.0 / (x * x) if alpha == 4.0 else x ** (-0.5 * alpha)
    return gain * realization.fading_powers


def _literal_result(pop, cfg, trials, seed, outcome):
    successes = [0] * cfg.n_files
    requests = [0] * cfg.n_files
    for n, aux, net in _literal_requests(pop, trials, seed):
        requests[n] += 1
        successes[n] += bool(outcome(n, aux, net))
    estimate = simulate_module._estimate
    return simulate_module.SimulationResult(
        estimate(sum(successes), trials, seed),
        tuple(estimate(s, r, seed) for s, r in zip(successes, requests)),
    )


def literal_rlnc(alloc, pop, cfg, trials, seed, disc):
    def outcome(n, aux, net):
        c = alloc.codes[n]
        return c > 0 and sic_decode_chain(sample_network(cfg, net, disc), c, c, cfg)

    return _literal_result(pop, cfg, trials, seed, outcome)


def literal_uc(alloc, pop, cfg, trials, seed, disc):
    def outcome(n, aux, net):
        c = alloc.codes[n]
        if c == 0:
            return False
        depth = 1
        if c > 1:
            depth = subfile_cover_index(aux.integers(0, c, size=alloc.serve_counts[n]), c)
            if depth == 0:
                return False
        return sic_decode_chain(sample_network(cfg, net, disc), c, depth, cfg)

    return _literal_result(pop, cfg, trials, seed, outcome)


def literal_baseline(which, pop, cfg, trials, seed, disc):
    k = cfg.cache_size
    widths = None
    if which == 2:
        widths = (k / cfg.n_files,) * cfg.n_files
    elif which == 3:
        widths = water_fill_mu(pop, k)[1]
    edges = np.concatenate([[0.0], np.cumsum(widths)]) if widths else None
    threshold = 2.0**cfg.rate_ratio - 1.0

    def outcome(n, aux, net):
        if which == 1:
            if n >= k:
                return False
            powers = _literal_powers(sample_network(cfg, net, disc), cfg.path_loss_exp)
            serving = 0
        else:
            realization = sample_network(cfg, net, disc)
            member = _strip_covers(
                aux.random(realization.bs_distances.size), edges[n], widths[n], k
            )
            if not member.any():
                return False
            serving = int(member.argmax())
            powers = _literal_powers(realization, cfg.path_loss_exp)
        interference = float(powers[:serving].sum()) + float(powers[serving + 1 :].sum())
        return float(powers[serving]) > threshold * interference

    return _literal_result(pop, cfg, trials, seed, outcome).overall


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SimulationError as exc:
        return type(exc)


# (n_files, cache_size, sic_capability): the demo, a library whose ladder
# holders often sit beyond the table's head, and chains deeper than the head
_SYSTEMS = ((5, 2, 3), (24, 1, 5), (6, 2, TABLE_HEAD + 2))

_CALL = st.tuples(
    st.sampled_from(("rlnc", "uc", "baseline1", "baseline2", "baseline3")),
    st.integers(0, 2),  # seed
    st.sampled_from((2.5, 3.0, 4.0)),  # path loss exponent
    st.sampled_from((1.0e-4, 4.0e-4)),  # density
    st.sampled_from((1.0, 2.0, 8.0, 20.0)),  # disc scale; small ones force fallbacks
    st.sampled_from(_SYSTEMS),
    st.sampled_from((0.3, 1.0, 3.0)),  # size ratio
    st.integers(1, TABLE_HEAD + 2),  # split of the cached files, clipped to the depth
    st.integers(5, 40),  # trials
)


@settings(max_examples=40)
@given(st.lists(_CALL, min_size=1, max_size=8))
def test_table_replay_matches_literal_replay(calls):
    for design, seed, alpha, density, disc, system, ratio, split, trials in calls:
        n_files, k, depth = system
        cfg = replace(make_cfg(ratio, n_files, k, depth, alpha), bs_density=density)
        pop = zipf_popularity(n_files, 1.0)
        c = min(split, depth)
        codes = (c,) * min(n_files, k * c) + (0,) * max(0, n_files - k * c)
        if design == "rlnc":
            args = (RlncAllocation(codes), pop, cfg, trials, seed, disc)
            got, want = _outcome(simulate_rlnc, *args), _outcome(literal_rlnc, *args)
        elif design == "uc":
            alloc = UcAllocation(codes, default_serve_counts(codes, depth))
            args = (alloc, pop, cfg, trials, seed, disc)
            got, want = _outcome(simulate_uc, *args), _outcome(literal_uc, *args)
        else:
            args = (int(design[-1]), pop, cfg, trials, seed, disc)
            got, want = _outcome(simulate_baseline, *args), _outcome(literal_baseline, *args)
        assert got == want, (design, seed, alpha, density, disc, system, ratio, c, trials)


@pytest.mark.parametrize("disc", [1.0, 8.0])
def test_chains_deeper_than_the_table_head_match_literal_replay(disc):
    depth = TABLE_HEAD + 2
    cfg = make_cfg(0.05, 6, 2, depth)
    pop = zipf_popularity(6, 1.0)
    codes = (depth - 1,) * 6
    uncoded = UcAllocation(codes, default_serve_counts(codes, depth))
    for seed in (5, 6):
        args = (RlncAllocation(codes), pop, cfg, 40, seed, disc)
        assert _outcome(simulate_rlnc, *args) == _outcome(literal_rlnc, *args)
        args = (uncoded, pop, cfg, 40, seed, disc)
        assert _outcome(simulate_uc, *args) == _outcome(literal_uc, *args)


def test_designs_sharing_a_seed_draw_each_field_at_most_twice(cfg5, pop5, monkeypatch):
    draws = []
    real = simulate_module.sample_network

    def counting(*args):
        draws.append(1)
        return real(*args)

    monkeypatch.setattr(simulate_module, "sample_network", counting)
    seed, trials, disc = 123_457, 60, 12.0
    split = UcAllocation((2, 2, 2, 2, 0), (3, 3, 3, 3, 0))
    for ratio in (0.5, 1.0, 2.0):
        cfg = make_cfg(ratio)
        simulate_rlnc(RlncAllocation((1, 1, 0, 0, 0)), pop5, cfg, trials, seed, disc)
        simulate_rlnc(RlncAllocation((2, 2, 2, 2, 0)), pop5, cfg, trials, seed, disc)
        simulate_uc(split, pop5, cfg, trials, seed, disc)
        simulate_baseline(1, pop5, cfg, trials, seed, disc)
    assert 0 < len(draws) <= 2 * trials
    # a ladder scheme's serving station beyond the table's head needs the
    # whole field again; a literal replay would draw each field 16 times
    for ratio in (0.5, 1.0, 2.0):
        for which in (2, 3):
            simulate_baseline(which, pop5, make_cfg(ratio), trials, seed, disc)
    assert len(draws) < 3 * trials
    monkeypatch.undo()
    assert simulate_uc(split, pop5, cfg5, trials, seed, disc) == literal_uc(
        split, pop5, cfg5, trials, seed, disc
    )


def test_a_new_key_evicts_the_table(cfg5, pop5):
    alloc = RlncAllocation((1, 1, 0, 0, 0))
    simulate_rlnc(alloc, pop5, cfg5, 30, 3, disc_scale=10.0)
    table = weakref.ref(simulate_module._TABLE)
    assert table().key == (3, 10.0, cfg5.bs_density, cfg5.path_loss_exp)
    simulate_baseline(2, pop5, make_cfg(2.0), 30, 3, disc_scale=10.0)
    assert simulate_module._TABLE is table()  # file size is not part of the key
    simulate_rlnc(alloc, pop5, cfg5, 30, 3, disc_scale=11.0)
    gc.collect()
    assert table() is None
    assert simulate_module._TABLE.key == (3, 11.0, cfg5.bs_density, cfg5.path_loss_exp)


def test_threads_sharing_the_table_get_literal_results(pop5):
    alloc = RlncAllocation((1, 2, 2, 0, 0))
    # calls on one key with growing trial counts resize the table while
    # other calls fill it
    sizes = range(4, 240, 4)
    want = {n: literal_rlnc(alloc, pop5, make_cfg(), n, 1, 8.0) for n in sizes}
    wrong = []

    def worker():
        try:
            for n in sizes:
                if simulate_rlnc(alloc, pop5, make_cfg(), n, 1, 8.0) != want[n]:
                    wrong.append(n)
                simulate_rlnc(alloc, pop5, make_cfg(), 8, 2, 8.0)  # evicts the table
        except Exception as exc:  # a torn table shows as a bad index or shape
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_files_too_large_for_any_stage_never_succeed(pop5):
    # 2**(rate_ratio/s) overflows a float beyond a ratio of 1024 per piece
    cfg = make_cfg(2000.0)
    assert cfg.stage_threshold(1) == math.inf
    assert simulate_rlnc(RlncAllocation((1, 2, 2, 0, 0)), pop5, cfg, 50, 1, 10.0).overall.mean == 0.0
    uncoded = UcAllocation((1, 2, 2, 0, 0), (1, 3, 3, 0, 0))
    assert simulate_uc(uncoded, pop5, cfg, 50, 1, 10.0).overall.mean == 0.0
    for which in (1, 2, 3):
        assert simulate_baseline(which, pop5, cfg, 50, 1, 10.0).mean == 0.0
    assert stp_rlnc(RlncAllocation((1, 2, 2, 0, 0)), pop5, cfg).total == 0.0
