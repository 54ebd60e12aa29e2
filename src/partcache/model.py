"""Static system model: configuration, popularity, and cache allocations.

Base stations form a homogeneous planar Poisson field.  Every base station
carries the same cache budget, counted in whole files.  A file may be stored
in one of two partitioned forms:

* coded: the file is cut into ``c`` equal pieces and each base station keeps
  one random linear combination of them, so collecting combinations from any
  ``c`` distinct base stations reconstructs the file;
* uncoded: each base station keeps one of the ``c`` plain pieces chosen
  uniformly at random, so the user must come across every distinct piece.

Allocations are encoded per file by the integer split count ``c``:
``c == 0`` means the file is not cached at all, ``c == 1`` means every base
station keeps the whole file, and ``c >= 2`` means partitioned storage.  A
split into ``c`` pieces costs ``1/c`` of a cache slot per base station, so
the budget constraint is a sum of unit fractions and is checked in exact
rational arithmetic; float accumulation would misjudge boundary cases such
as three files at one third each.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "AllocationError",
    "ConfigError",
    "Popularity",
    "RlncAllocation",
    "SystemConfig",
    "UcAllocation",
    "cache_load",
    "default_serve_counts",
    "load_config",
    "validate_rlnc",
    "validate_uc",
    "zipf_popularity",
]


class ConfigError(ValueError):
    """Unreadable or inconsistent configuration input."""


class AllocationError(ValueError):
    """An allocation violates a hard feasibility constraint."""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    """Network and traffic parameters shared by analysis and simulation.

    Attributes:
        n_files: library size, at least 2.
        cache_size: per-base-station budget in whole files, 1 <= K < n_files.
        sic_capability: maximum number of decode stages the receiver can peel.
        path_loss_exp: path loss exponent, strictly above 2 so that far
            interference has finite mean.
        bandwidth: channel bandwidth in Hz.
        slot_duration: transmission slot length in seconds.
        file_size: file size in bits; zero is allowed and makes every
            transmission succeed.
        bs_density: base station density in points per square meter.  Only
            the simulator consumes it; the closed forms are density free.
    """

    n_files: int
    cache_size: int
    sic_capability: int
    path_loss_exp: float
    bandwidth: float
    slot_duration: float
    file_size: float
    bs_density: float = 1e-4

    def __post_init__(self) -> None:
        if self.n_files < 2:
            raise ConfigError(f"n_files must be at least 2, got {self.n_files}")
        if not 1 <= self.cache_size < self.n_files:
            raise ConfigError(
                f"cache_size must satisfy 1 <= K < n_files, got {self.cache_size}"
            )
        if self.sic_capability < 1:
            raise ConfigError(
                f"sic_capability must be at least 1, got {self.sic_capability}"
            )
        if not self.path_loss_exp > 2.0:
            raise ConfigError(
                f"path_loss_exp must exceed 2, got {self.path_loss_exp}"
            )
        if not self.bandwidth > 0.0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        if not self.slot_duration > 0.0:
            raise ConfigError(
                f"slot_duration must be positive, got {self.slot_duration}"
            )
        if self.file_size < 0.0:
            raise ConfigError(f"file_size must be nonnegative, got {self.file_size}")
        if not self.bs_density > 0.0:
            raise ConfigError(f"bs_density must be positive, got {self.bs_density}")

    @property
    def rate_ratio(self) -> float:
        """File size divided by the slot's bit budget, file_size/(bandwidth*slot_duration)."""
        return self.file_size / (self.bandwidth * self.slot_duration)

    def stage_threshold(self, s_code: int) -> float:
        """SINR a decode stage must clear to carry one of ``s_code`` pieces.

        See ``rate_threshold``, at t = rate_ratio/s_code.
        """
        return rate_threshold(self.rate_ratio / s_code)


def rate_threshold(t: float) -> float:
    """SINR that carries t bits per unit bandwidth and time: 2**t - 1.

    +inf once 2**t overflows a float: no finite SINR then clears the stage,
    so its success is exactly zero.
    """
    try:
        return 2.0**t - 1.0
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# popularity
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Popularity:
    """Request distribution over files, strictly descending by index.

    Strict descent is a modeling requirement, not a convenience: the
    optimizers and the closed-form optima identify "the top n files" and
    ties would make that set ambiguous.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        p = self.probs
        if len(p) < 2:
            raise ConfigError("popularity needs at least two files")
        for idx, v in enumerate(p):
            if not 0.0 < v < 1.0:
                raise ConfigError(
                    f"popularity[{idx}] = {v} outside the open interval (0, 1)"
                )
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"popularity sums to {total!r}, expected 1")
        for idx in range(len(p) - 1):
            if p[idx] <= p[idx + 1]:
                raise ConfigError(
                    "popularity must be strictly descending; "
                    f"probs[{idx}] = {p[idx]} <= probs[{idx + 1}] = {p[idx + 1]}"
                )

    def __len__(self) -> int:
        return len(self.probs)


def zipf_popularity(n_files: int, gamma: float) -> Popularity:
    """Zipf profile with exponent ``gamma``; probabilities n**(-gamma), normalized.

    ``gamma == 0`` yields a uniform profile, which the Popularity invariant
    rejects because of ties.
    """
    if n_files < 2:
        raise ConfigError(f"n_files must be at least 2, got {n_files}")
    if gamma < 0.0:
        raise ConfigError(f"zipf exponent must be nonnegative, got {gamma}")
    weights = [float(k) ** (-gamma) for k in range(1, n_files + 1)]
    norm = math.fsum(weights)
    return Popularity(tuple(w / norm for w in weights))


# --------------------------------------------------------------------------
# allocations
# --------------------------------------------------------------------------


def _check_codes(codes: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for idx, c in enumerate(codes):
        if isinstance(c, bool) or not isinstance(c, int):
            raise AllocationError(f"codes[{idx}] = {c!r} is not an integer")
        if c < 0:
            raise AllocationError(f"codes[{idx}] = {c} is negative")
        out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class RlncAllocation:
    """Per-file split counts for the coded design."""

    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _check_codes(tuple(self.codes)))

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class UcAllocation:
    """Split counts plus per-file serving depths for the uncoded design.

    ``serve_counts[n]`` is how many nearest base stations the user is willing
    to visit while collecting the pieces of file ``n``.
    """

    codes: tuple[int, ...]
    serve_counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _check_codes(tuple(self.codes)))
        object.__setattr__(
            self, "serve_counts", _check_codes(tuple(self.serve_counts))
        )
        if len(self.codes) != len(self.serve_counts):
            raise AllocationError(
                f"codes ({len(self.codes)}) and serve_counts "
                f"({len(self.serve_counts)}) differ in length"
            )

    def __len__(self) -> int:
        return len(self.codes)


def cache_load(codes: tuple[int, ...]) -> Fraction:
    """Cache slots consumed per base station, as an exact rational.

    Files are counted per split count and the counts summed in whole units
    of 1/L, L the lcm of the split counts present, so the value is exact
    with one rational per call instead of one per file.
    """
    counts = {c: k for c, k in Counter(codes).items() if c >= 1}
    scale = math.lcm(*counts)
    return Fraction(sum(k * (scale // c) for c, k in counts.items()), scale)


def validate_rlnc(alloc: RlncAllocation, cfg: SystemConfig) -> list[str]:
    """Return the list of violated feasibility constraints (empty when valid).

    Raises ValueError on a length mismatch, which is a malformed input
    rather than an infeasible one.
    """
    if len(alloc) != cfg.n_files:
        raise ValueError(
            f"allocation covers {len(alloc)} files, config declares {cfg.n_files}"
        )
    violations = []
    for idx, c in enumerate(alloc.codes):
        if c > cfg.sic_capability:
            violations.append(
                f"codes[{idx}] = {c} exceeds the SIC capability {cfg.sic_capability}; "
                "a file cannot be split into more pieces than the receiver can peel"
            )
    load = cache_load(alloc.codes)
    if load > cfg.cache_size:
        violations.append(
            f"cache load {load} exceeds the per-station budget {cfg.cache_size}"
        )
    return violations


def validate_uc(alloc: UcAllocation, cfg: SystemConfig) -> list[str]:
    """Like validate_rlnc, plus the coupling between codes and serving depths.

    Admissible pairs: an uncached file is never served (0, 0); a whole file
    is served by the nearest station only (1, 1); a file split into c >= 2
    pieces may be served by c..sic_capability stations.
    """
    if len(alloc) != cfg.n_files:
        raise ValueError(
            f"allocation covers {len(alloc)} files, config declares {cfg.n_files}"
        )
    violations = []
    for idx, c in enumerate(alloc.codes):
        if c > cfg.sic_capability:
            violations.append(
                f"codes[{idx}] = {c} exceeds the SIC capability {cfg.sic_capability}; "
                "a file cannot be split into more pieces than the receiver can peel"
            )
    for idx, (c, m) in enumerate(zip(alloc.codes, alloc.serve_counts)):
        if c == 0:
            if m != 0:
                violations.append(
                    f"file {idx} is uncached but serve_counts[{idx}] = {m}"
                )
        elif c == 1:
            if m != 1:
                violations.append(
                    f"file {idx} is stored whole, so serve_counts[{idx}] must be 1, got {m}"
                )
        else:
            if not c <= m <= cfg.sic_capability:
                violations.append(
                    f"serve_counts[{idx}] = {m} outside [{c}, {cfg.sic_capability}] "
                    f"for a file split into {c} pieces"
                )
    load = cache_load(alloc.codes)
    if load > cfg.cache_size:
        violations.append(
            f"cache load {load} exceeds the per-station budget {cfg.cache_size}"
        )
    return violations


def default_serve_counts(codes: tuple[int, ...], sic_capability: int) -> tuple[int, ...]:
    """Canonical serving depths: 0 for uncached, 1 for whole, else the SIC cap.

    Listening as deep as the receiver allows can only help an uncoded
    partitioned file, so the widest admissible depth is the default.
    """
    out = []
    for idx, c in enumerate(codes):
        if c > sic_capability:
            raise AllocationError(
                f"codes[{idx}] = {c} exceeds the SIC capability {sic_capability}"
            )
        if c == 0:
            out.append(0)
        elif c == 1:
            out.append(1)
        else:
            out.append(sic_capability)
    return tuple(out)


# --------------------------------------------------------------------------
# config files
# --------------------------------------------------------------------------

_INT_KEYS = {"n_files", "cache_size", "sic_capability"}
_FLOAT_KEYS = {
    "path_loss_exp",
    "bandwidth_hz",
    "slot_duration_s",
    "file_size_bits",
    "bs_density",
    "zipf_gamma",
}
_OPTIONAL = {"bs_density": 1e-4, "zipf_gamma": 1.0}


def load_config(path) -> tuple[SystemConfig, float]:
    """Parse a line-oriented ``key = value`` file.

    Recognized keys: n_files, cache_size, sic_capability, path_loss_exp,
    bandwidth_hz, slot_duration_s, file_size_bits, bs_density (default 1e-4)
    and zipf_gamma (default 1.0).  Blank lines and ``#`` comments are
    ignored.  Unknown or repeated keys are errors, as is a missing required
    key.  Returns the system configuration and the Zipf exponent.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    seen: dict[str, float] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _INT_KEYS and key not in _FLOAT_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            if key in _INT_KEYS:
                seen[key] = int(value)
            else:
                seen[key] = float(value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse value {value!r} for key {key!r}"
            ) from exc

    required = (_INT_KEYS | _FLOAT_KEYS) - set(_OPTIONAL)
    missing = sorted(required - set(seen))
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    for key, default in _OPTIONAL.items():
        seen.setdefault(key, default)

    cfg = SystemConfig(
        n_files=int(seen["n_files"]),
        cache_size=int(seen["cache_size"]),
        sic_capability=int(seen["sic_capability"]),
        path_loss_exp=seen["path_loss_exp"],
        bandwidth=seen["bandwidth_hz"],
        slot_duration=seen["slot_duration_s"],
        file_size=seen["file_size_bits"],
        bs_density=seen["bs_density"],
    )
    return cfg, seen["zipf_gamma"]
