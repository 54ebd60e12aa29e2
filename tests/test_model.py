import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partcache import (
    AllocationError,
    ConfigError,
    Popularity,
    RlncAllocation,
    SystemConfig,
    UcAllocation,
    cache_load,
    default_serve_counts,
    load_config,
    validate_rlnc,
    validate_uc,
    zipf_popularity,
)
from .conftest import make_cfg


# ---------------------------------------------------------------- SystemConfig


def test_config_accepts_reference_values(cfg5):
    assert cfg5.n_files == 5
    assert cfg5.rate_ratio == pytest.approx(1.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("n_files", 1),
        ("cache_size", 0),
        ("cache_size", 5),
        ("cache_size", 7),
        ("sic_capability", 0),
        ("path_loss_exp", 2.0),
        ("path_loss_exp", 1.5),
        ("bandwidth", 0.0),
        ("slot_duration", -1.0),
        ("file_size", -5.0),
        ("bs_density", 0.0),
    ],
)
def test_config_rejects_out_of_domain(cfg5, field, value):
    with pytest.raises(ConfigError):
        replace(cfg5, **{field: value})


def test_config_zero_file_size_allowed():
    assert make_cfg(ratio=0.0).rate_ratio == 0.0


def test_rate_ratio_scales_with_file_size():
    assert make_cfg(ratio=2.0).rate_ratio == pytest.approx(2.0)
    assert make_cfg(ratio=0.5).rate_ratio == pytest.approx(0.5)


# ---------------------------------------------------------------- Popularity


def test_popularity_requires_strict_descent():
    Popularity((0.5, 0.3, 0.2))
    with pytest.raises(ConfigError):
        Popularity((0.4, 0.4, 0.2))
    with pytest.raises(ConfigError):
        Popularity((0.2, 0.5, 0.3))


def test_popularity_requires_unit_mass():
    with pytest.raises(ConfigError):
        Popularity((0.5, 0.3, 0.1))


def test_popularity_rejects_degenerate_entries():
    with pytest.raises(ConfigError):
        Popularity((1.0,))
    with pytest.raises(ConfigError):
        Popularity((1.2, -0.2))


def test_zipf_head_value():
    # exponent 1 over five files: weights 1, 1/2, 1/3, 1/4, 1/5 normalize
    # by 137/60, so the head mass is exactly 60/137
    pop = zipf_popularity(5, 1.0)
    assert pop.probs[0] == pytest.approx(60.0 / 137.0, abs=1e-15)
    assert math.fsum(pop.probs) == pytest.approx(1.0, abs=1e-12)


def test_zipf_rejects_flat_and_negative():
    with pytest.raises(ConfigError):
        zipf_popularity(5, 0.0)  # ties are not a valid popularity order
    with pytest.raises(ConfigError):
        zipf_popularity(5, -0.3)


@given(
    n=st.integers(min_value=2, max_value=40),
    gamma=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
)
def test_zipf_shape(n, gamma):
    pop = zipf_popularity(n, gamma)
    assert len(pop) == n
    assert all(a > b for a, b in zip(pop.probs, pop.probs[1:]))
    assert math.fsum(pop.probs) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- allocations


def test_code_vectors_reject_non_integers():
    with pytest.raises(AllocationError):
        RlncAllocation((1, 2.0, 0))
    with pytest.raises(AllocationError):
        RlncAllocation((1, True, 0))
    with pytest.raises(AllocationError):
        RlncAllocation((1, -1, 0))


def test_cache_load_is_exact():
    assert cache_load((2, 3, 6)) == Fraction(1)
    assert cache_load((3, 3, 3)) == Fraction(1)
    assert cache_load((0, 0, 0)) == Fraction(0)
    # floating point would round 1/3 here; the rational sum must not
    assert cache_load((3,) * 9) == Fraction(3)


@given(
    codes=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12),
    extra=st.integers(min_value=1, max_value=6),
)
def test_cache_load_is_additive(codes, extra):
    base = cache_load(tuple(codes))
    assert cache_load(tuple(codes) + (extra,)) == base + Fraction(1, extra)
    assert cache_load(tuple(codes) + (0,)) == base


@given(
    codes=st.one_of(
        st.lists(st.integers(min_value=0, max_value=12), max_size=40),
        st.lists(st.integers(min_value=0, max_value=12), min_size=500, max_size=3000),
    )
)
def test_cache_load_matches_per_file_fraction_sum(codes):
    want = sum((Fraction(1, c) for c in codes if c >= 1), Fraction(0))
    got = cache_load(tuple(codes))
    assert type(got) is Fraction
    assert got == want
    assert str(got) == str(want)


def test_over_budget_message_prints_exact_load(cfg5):
    # 1 + 1 + 1/3 = 7/3 slots against a budget of 2
    want = "cache load 7/3 exceeds the per-station budget 2"
    assert want in validate_rlnc(RlncAllocation((1, 1, 3, 0, 0)), cfg5)
    assert want in validate_uc(UcAllocation((1, 1, 3, 0, 0), (1, 1, 3, 0, 0)), cfg5)


def test_validate_rlnc_flags_budget_and_range(cfg5):
    assert validate_rlnc(RlncAllocation((1, 2, 2, 0, 0)), cfg5) == []
    over = validate_rlnc(RlncAllocation((1, 1, 1, 0, 0)), cfg5)
    assert any("cache" in v or "budget" in v for v in over)
    deep = validate_rlnc(RlncAllocation((4, 0, 0, 0, 0)), cfg5)
    assert deep


def test_validate_rlnc_boundary_load(cfg5):
    # exactly full is legal: 1 + 1/2 + 1/2 = 2
    assert validate_rlnc(RlncAllocation((1, 2, 2, 0, 0)), cfg5) == []
    # rationals must not be rounded: 1 + 1/2 + 1/3 + 1/6 = 2 at a deeper receiver
    deep = make_cfg(sic_capability=6)
    assert validate_rlnc(RlncAllocation((1, 2, 3, 6, 0)), deep) == []


def test_validate_length_mismatch_raises(cfg5):
    with pytest.raises(ValueError):
        validate_rlnc(RlncAllocation((1, 1)), cfg5)
    with pytest.raises(ValueError):
        validate_uc(UcAllocation((1, 1), (1, 1)), cfg5)


def test_uc_pairing_rules(cfg5):
    ok = UcAllocation((2, 1, 0, 0, 0), (3, 1, 0, 0, 0))
    assert validate_uc(ok, cfg5) == []
    # an uncached file cannot be served
    assert validate_uc(UcAllocation((0, 1, 0, 0, 0), (2, 1, 0, 0, 0)), cfg5)
    # a whole file is served by exactly one station
    assert validate_uc(UcAllocation((1, 1, 0, 0, 0), (2, 1, 0, 0, 0)), cfg5)
    # serving fewer stations than pieces can never cover the file
    assert validate_uc(UcAllocation((3, 0, 0, 0, 0), (2, 0, 0, 0, 0)), cfg5)
    # serving depth is capped by the receiver
    assert validate_uc(UcAllocation((2, 0, 0, 0, 0), (4, 0, 0, 0, 0)), cfg5)


def test_uc_requires_serve_length_match():
    with pytest.raises(AllocationError):
        UcAllocation((2, 1, 0), (3, 1))


def test_default_serve_counts():
    assert default_serve_counts((0, 1, 2, 3), 3) == (0, 1, 3, 3)
    with pytest.raises(AllocationError):
        default_serve_counts((0, 1, 4), 3)


# ---------------------------------------------------------------- config files


CONFIG_TEXT = """\
# reference system
n_files = 5
cache_size = 2
sic_capability = 3
path_loss_exp = 4.0
bandwidth_hz = 1.0e7
slot_duration_s = 1.0e-3
file_size_bits = 1.0e4
"""


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text(CONFIG_TEXT + "bs_density = 2.0e-4\nzipf_gamma = 0.8\n")
    cfg, gamma = load_config(path)
    assert cfg.n_files == 5
    assert cfg.bs_density == pytest.approx(2.0e-4)
    assert gamma == pytest.approx(0.8)


def test_load_config_defaults(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text(CONFIG_TEXT)
    cfg, gamma = load_config(path)
    assert cfg.bs_density == pytest.approx(1.0e-4)
    assert gamma == pytest.approx(1.0)


def test_load_config_reports_line_numbers(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text(CONFIG_TEXT + "mystery_knob = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "mystery_knob" in str(err.value)
    assert ":9" in str(err.value)


def test_load_config_rejects_duplicates(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text(CONFIG_TEXT + "n_files = 7\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "n_files" in str(err.value)


def test_load_config_lists_missing_keys(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text("n_files = 5\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "cache_size" in msg and "file_size_bits" in msg


def test_load_config_bad_value(tmp_path):
    path = tmp_path / "sys.cfg"
    path.write_text(CONFIG_TEXT.replace("= 5", "= five"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "n_files" in str(err.value)
