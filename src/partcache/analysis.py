"""Closed-form successful-transmission probabilities under SIC.

The typical user sits at the origin of a homogeneous Poisson field of base
stations and listens to the nearest ones in distance order.  Decoding is
successive: at stage i the signals of the first i-1 stations have been
removed, station i is the desired transmitter, and everything farther away
is Rayleigh-faded interference.  Stage i succeeds when the instantaneous
rate clears the per-piece bit budget; with a file split into c pieces each
piece carries file_size/c bits.

All probabilities here are interference limited and therefore independent
of the base station density; density only matters to the simulator.  The
per-stage success probability is exact.  Joint success across stages is
approximated by treating stages as independent, so whole-file values
(split count 0 or 1) are exact while partitioned values are approximations
that the simulator is used to calibrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import (
    AllocationError,
    Popularity,
    RlncAllocation,
    SystemConfig,
    UcAllocation,
    rate_threshold,
    validate_rlnc,
    validate_uc,
)
from .special import beta, beta_complement

__all__ = [
    "SicNoiseFactor",
    "StpBreakdown",
    "coupon_pmf",
    "per_bs_decode_prob",
    "sic_chain_success",
    "sic_noise_factor",
    "stp_rlnc",
    "stp_rlnc_file",
    "stp_rlnc_large_s",
    "stp_rlnc_small_s",
    "stp_uc",
    "stp_uc_file",
    "stp_uc_large_s",
    "stp_uc_small_s",
]


@dataclass(frozen=True)
class StpBreakdown:
    """Per-file success probabilities and their popularity-weighted total."""

    per_file: tuple[float, ...]
    total: float


@dataclass(frozen=True)
class SicNoiseFactor:
    """Per-stage interference penalty of a decode chain, as a value object.

    theta is zero for zero-size files and strictly increasing in file size
    for a fixed split count.  ``sic_noise_factor`` returns the bare float;
    this wrapper exists for callers that want to carry the quantity around
    with its meaning attached.
    """

    theta: float

    def __post_init__(self) -> None:
        if not self.theta >= 0.0:
            raise ValueError(f"noise factor must be nonnegative, got {self.theta}")

    @classmethod
    def for_rate(cls, s_code: int, cfg: SystemConfig) -> "SicNoiseFactor":
        return cls(sic_noise_factor(s_code, cfg))


# --------------------------------------------------------------------------
# per-stage building blocks
# --------------------------------------------------------------------------


def sic_noise_factor(s_code: int, cfg: SystemConfig) -> float:
    """Interference penalty of one decode stage for a file split ``s_code`` ways.

    This is the factor by which each additional interfering neighbor scales
    down the per-stage success probability.  It is zero for zero-size files
    and grows with the per-piece rate demand.  It depends on the
    configuration only through the per-piece rate t = rate_ratio/s_code and
    the path loss exponent, and is cached on that pair.
    """
    if s_code < 1:
        raise AllocationError(f"split count must be at least 1, got {s_code}")
    return _noise_factor(cfg.rate_ratio / s_code, cfg.path_loss_exp)


@lru_cache(maxsize=4096)
def _noise_factor(t: float, path_loss_exp: float) -> float:
    if t == 0.0:
        return 0.0
    threshold = rate_threshold(t)
    if threshold == math.inf:  # no finite SINR clears the stage
        return math.inf
    x = 2.0 / path_loss_exp
    return x * threshold**x * beta_complement(x, 1.0 - x, 2.0**-t)


def _chain_from_factor(noise_factor: float, depth: int) -> float:
    # stage j succeeds with probability (1+factor)**(-j); the independence
    # approximation multiplies stages 1..depth
    return (1.0 + noise_factor) ** (-0.5 * depth * (depth + 1))


def per_bs_decode_prob(s_code: int, stage: int, cfg: SystemConfig) -> float:
    """Probability that decode stage ``stage`` alone succeeds."""
    if stage < 1:
        raise ValueError(f"stage must be at least 1, got {stage}")
    return (1.0 + sic_noise_factor(s_code, cfg)) ** (-stage)


def sic_chain_success(s_code: int, depth: int, cfg: SystemConfig) -> float:
    """Probability that decode stages 1..depth all succeed."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    return _chain_from_factor(sic_noise_factor(s_code, cfg), depth)


# --------------------------------------------------------------------------
# coded design
# --------------------------------------------------------------------------


def stp_rlnc_file(s_code: int, cfg: SystemConfig) -> float:
    """Success probability for one file under the coded design.

    Any ``s_code`` distinct coded pieces reconstruct the file, so the user
    must decode exactly the ``s_code`` nearest base stations.
    """
    if s_code < 0:
        raise AllocationError(f"split count must be nonnegative, got {s_code}")
    if s_code == 0:
        return 0.0
    return _chain_from_factor(sic_noise_factor(s_code, cfg), s_code)


def stp_rlnc(
    alloc: RlncAllocation, pop: Popularity, cfg: SystemConfig
) -> StpBreakdown:
    """Per-file and total success probability of a coded allocation."""
    _require_valid(validate_rlnc, alloc, pop, cfg)
    per_code: dict[int, float] = {}
    per_file = []
    for c in alloc.codes:
        if c not in per_code:
            per_code[c] = stp_rlnc_file(c, cfg)
        per_file.append(per_code[c])
    total = math.fsum(a * q for a, q in zip(pop.probs, per_file))
    return StpBreakdown(tuple(per_file), total)


# --------------------------------------------------------------------------
# uncoded design
# --------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def coupon_pmf(s_code: int, i: int, sic_capability: int) -> float:
    """Probability that piece collection completes exactly at the i-th station.

    Each of the nearest stations holds one of ``s_code`` distinct pieces
    chosen uniformly at random; collection completes when all pieces have
    been seen.  Evaluated in exact rational arithmetic, so the alternating
    inclusion-exclusion sum cannot lose digits; the final clamp only guards
    the float conversion.  Memoized: the value depends on the three
    integers alone and is read once per file form and allocation.
    """
    if not 1 <= s_code <= sic_capability:
        raise ValueError(
            f"split count {s_code} outside [1, {sic_capability}]"
        )
    if not 1 <= i <= sic_capability:
        raise ValueError(f"station index {i} outside [1, {sic_capability}]")
    if s_code == 1:
        return 1.0 if i == 1 else 0.0
    if i < s_code:
        return 0.0
    m = s_code
    acc = Fraction(0)
    for k in range(m):
        term = Fraction(m - 1 - k, m) ** (i - 1)
        acc += (-term if k % 2 else term) * math.comb(m - 1, k)
    val = float(acc)
    if abs(val) < 1e-12:
        return 0.0
    return min(max(val, 0.0), 1.0)


def stp_uc_file(s_code: int, serve_count: int, cfg: SystemConfig) -> float:
    """Success probability for one file under the uncoded design.

    The user keeps decoding until either every distinct piece has been seen
    (success requires the whole chain up to that station) or the serving
    depth is exhausted.
    """
    _require_pair(s_code, serve_count, cfg.sic_capability)
    if s_code == 0:
        return 0.0
    factor = sic_noise_factor(s_code, cfg)
    return math.fsum(
        coupon_pmf(s_code, i, cfg.sic_capability) * _chain_from_factor(factor, i)
        for i in range(s_code, serve_count + 1)
    )


def stp_uc(alloc: UcAllocation, pop: Popularity, cfg: SystemConfig) -> StpBreakdown:
    """Per-file and total success probability of an uncoded allocation."""
    _require_valid(validate_uc, alloc, pop, cfg)
    per_pair: dict[tuple[int, int], float] = {}
    per_file = []
    for c, m in zip(alloc.codes, alloc.serve_counts):
        key = (c, m)
        if key not in per_pair:
            per_pair[key] = stp_uc_file(c, m, cfg)
        per_file.append(per_pair[key])
    total = math.fsum(a * q for a, q in zip(pop.probs, per_file))
    return StpBreakdown(tuple(per_file), total)


# --------------------------------------------------------------------------
# asymptotic regimes
# --------------------------------------------------------------------------


def stp_rlnc_small_s(
    alloc: RlncAllocation, pop: Popularity, cfg: SystemConfig
) -> float:
    """First-order total success probability as the file size tends to zero."""
    _require_valid(validate_rlnc, alloc, pop, cfg)
    slope = math.log(2.0) * cfg.rate_ratio / (cfg.path_loss_exp - 2.0)
    return math.fsum(
        a * (1.0 - (1 + c) * slope)
        for a, c in zip(pop.probs, alloc.codes)
        if c >= 1
    )


def stp_rlnc_large_s(
    alloc: RlncAllocation, pop: Popularity, cfg: SystemConfig
) -> float:
    """Leading-order total success probability as the file size tends to infinity.

    Only the files with the coarsest split (smallest positive split count)
    survive at this order.
    """
    _require_valid(validate_rlnc, alloc, pop, cfg)
    cached = [c for c in alloc.codes if c >= 1]
    if not cached:
        raise AllocationError("large-size limit needs at least one cached file")
    c_min = min(cached)
    mass = math.fsum(
        a for a, c in zip(pop.probs, alloc.codes) if c == c_min
    )
    return _large_size_scale(c_min, cfg) * mass


@lru_cache(maxsize=4096)
def _whole_plane_base(path_loss_exp: float) -> float:
    """x * B(x, 1 - x) with x = 2/alpha: a function of alpha alone."""
    x = 2.0 / path_loss_exp
    return x * beta(x, 1.0 - x)


def _large_size_scale(c_min: int, cfg: SystemConfig) -> float:
    base = _whole_plane_base(cfg.path_loss_exp)
    chain_len = c_min * (c_min + 1) / 2.0
    exponent = (1 + c_min) * cfg.rate_ratio / cfg.path_loss_exp
    return 2.0**-exponent / base**chain_len


def stp_uc_small_s(
    alloc: UcAllocation, pop: Popularity, cfg: SystemConfig
) -> float:
    """Small-size limit of the uncoded total success probability."""
    _require_valid(validate_uc, alloc, pop, cfg)
    slope = math.log(2.0) * cfg.rate_ratio / (cfg.path_loss_exp - 2.0)
    acc = 0.0
    for a, c, m in zip(pop.probs, alloc.codes, alloc.serve_counts):
        if c == 0:
            continue
        mass = math.fsum(
            coupon_pmf(c, i, cfg.sic_capability) for i in range(c, m + 1)
        )
        weighted = math.fsum(
            coupon_pmf(c, i, cfg.sic_capability) * (i + 1) * i
            for i in range(c, m + 1)
        )
        acc += a * (mass - slope * weighted / c)
    return acc


def stp_uc_large_s(
    alloc: UcAllocation, pop: Popularity, cfg: SystemConfig
) -> float:
    """Large-size limit of the uncoded total success probability.

    Matches the coded limit damped by the probability that the coarsest
    split completes its collection with no redundant station.
    """
    _require_valid(validate_uc, alloc, pop, cfg)
    cached = [c for c in alloc.codes if c >= 1]
    if not cached:
        raise AllocationError("large-size limit needs at least one cached file")
    c_min = min(cached)
    mass = math.fsum(
        a for a, c in zip(pop.probs, alloc.codes) if c == c_min
    )
    first_chance = coupon_pmf(c_min, c_min, max(cfg.sic_capability, c_min))
    return _large_size_scale(c_min, cfg) * mass * first_chance


# --------------------------------------------------------------------------
# shared validation plumbing
# --------------------------------------------------------------------------


def _require_valid(validator, alloc, pop: Popularity, cfg: SystemConfig) -> None:
    if len(pop) != cfg.n_files:
        raise ValueError(
            f"popularity covers {len(pop)} files, config declares {cfg.n_files}"
        )
    violations = validator(alloc, cfg)
    if violations:
        raise AllocationError("; ".join(violations))


def _require_pair(s_code: int, serve_count: int, sic_capability: int) -> None:
    if s_code < 0:
        raise AllocationError(f"split count must be nonnegative, got {s_code}")
    if s_code == 0:
        if serve_count != 0:
            raise AllocationError(
                f"uncached file cannot be served, got serve_count={serve_count}"
            )
    elif s_code == 1:
        if serve_count != 1:
            raise AllocationError(
                f"whole file must have serve_count 1, got {serve_count}"
            )
    else:
        if s_code > sic_capability:
            raise AllocationError(
                f"split count {s_code} exceeds the SIC capability {sic_capability}"
            )
        if not s_code <= serve_count <= sic_capability:
            raise AllocationError(
                f"serve_count {serve_count} outside [{s_code}, {sic_capability}]"
            )
