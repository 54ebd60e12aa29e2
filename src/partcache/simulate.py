"""Stochastic-geometry Monte Carlo oracle for the closed-form analysis.

Each trial builds a fresh Poisson field of base stations in a disc around
the user, draws Rayleigh fading per station, draws the requested file, and
replays the successive decoding procedure literally: stage i treats the
i nearest stations' already-decoded signals as removed and everything
farther out as interference.  Nothing here reuses the analysis module's
approximations, so agreement between the two is evidence, not tautology.

Reproducibility contract: trial t of a run with seed s draws from two
dedicated substreams derived as SeedSequence(s, spawn_key=(t, lane)).
Lane 0 carries the request draw followed by any design-specific draws
(piece placement, per-station cache membership); lane 1 carries the
network, one exponential spacing and one fading value interleaved per
station.  Trials therefore commute: results depend on (inputs, seed) only,
never on execution order, and per-station draws stay aligned when the same
seed is replayed with a larger disc.

Field table: calls sharing a seed replay trial t's field, so a one-slot
table keyed on (seed, disc_scale, bs_density, path_loss_exp) keeps what
each trial's field leaves behind: its station count, its request uniform,
the TABLE_HEAD nearest received powers and the tails
R[d] = float(powers[d:].sum()) for d <= TABLE_HEAD, each computed when
first needed.  That is 16 + 16 * TABLE_HEAD bytes a trial (about 27 MB for
100 000 trials); a call with a new key evicts the table.  A field is
sampled when a design first needs it and at most once more, for a tail
not yet stored.  Chains and the baselines' SINR tests read the table with
the literal replay's own expressions, so every estimate is bit-identical to
a trial-by-trial replay.  Fields that hold no more stations than the
receiver's depth (sample_network would redraw them for this receiver) and
chains deeper than TABLE_HEAD are replayed literally; a reference scheme
serving from beyond the head is decided on the whole field, drawn again
unless still in hand.  Simulator calls from several threads take turns on
the table.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import (
    AllocationError,
    Popularity,
    RlncAllocation,
    SystemConfig,
    UcAllocation,
    validate_rlnc,
    validate_uc,
)

__all__ = [
    "DEFAULT_DISC_SCALE",
    "McEstimate",
    "NetworkRealization",
    "SimulationError",
    "SimulationResult",
    "SubfilePlacement",
    "sample_network",
    "sic_decode_chain",
    "simulate_baseline",
    "simulate_rlnc",
    "simulate_uc",
    "subfile_cover_index",
    "water_fill_mu",
]

# The disc radius is DEFAULT_DISC_SCALE / sqrt(pi * density), so the
# expected station count is the square of the scale.  10^4 stations keep
# the truncated far-field interference orders of magnitude below the
# in-disc interference; the doubling check in the test suite certifies it.
DEFAULT_DISC_SCALE = 100.0


class SimulationError(RuntimeError):
    """A realization could not support the requested measurement."""


@dataclass(frozen=True)
class NetworkRealization:
    """Base stations visible to one trial, nearest first.

    bs_distances are in meters, ascending; fading_powers holds the
    unit-mean exponential power gain of each station's channel to the
    user.
    """

    bs_distances: np.ndarray
    fading_powers: np.ndarray


@dataclass(frozen=True)
class McEstimate:
    """Success frequency with a 95% normal-approximation confidence radius."""

    mean: float
    ci_half_width: float
    trials: int
    seed: int


@dataclass(frozen=True)
class SimulationResult:
    """Overall estimate plus conditional per-file estimates.

    per_file[n] is conditioned on file n being the one requested; its
    trial count is the number of such requests.
    """

    overall: McEstimate
    per_file: tuple[McEstimate, ...]


# --------------------------------------------------------------------------
# randomness plumbing
# --------------------------------------------------------------------------


def _check_seed(seed: int) -> None:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


def _stream(seed: int, trial: int, lane: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, lane))
    return np.random.Generator(np.random.PCG64(ss))


# --------------------------------------------------------------------------
# network construction
# --------------------------------------------------------------------------


def _block_size(disc_scale: float, need: int) -> int:
    # stations drawn per block: enough to cover the disc almost always
    return max(int(disc_scale * disc_scale + 8.0 * disc_scale) + 16, 2 * need + 16)


def sample_network(
    cfg: SystemConfig,
    rng: np.random.Generator,
    disc_scale: float = DEFAULT_DISC_SCALE,
) -> NetworkRealization:
    """Sample the Poisson field inside the truncation disc, nearest first.

    Ordered squared distances of a planar Poisson field are the arrival
    times of a unit-rate process on the squared-radius axis, so the field
    is generated already sorted from cumulative exponential spacings; the
    station count inside the disc is then Poisson with mean disc_scale**2
    by construction.  A realization too small to carry a full decode chain
    plus one interferer is redrawn from the same stream rather than
    silently accepted; persistent failure raises.
    """
    if not disc_scale > 0.0:
        raise ValueError(f"disc_scale must be positive, got {disc_scale}")
    target = disc_scale * disc_scale
    need = cfg.sic_capability + 1
    block = _block_size(disc_scale, need)
    for _attempt in range(16):
        raw = rng.standard_exponential(2 * block)
        spacings = raw[0::2]
        fading = raw[1::2]
        arrivals = np.cumsum(spacings)
        while arrivals[-1] < target:
            raw = rng.standard_exponential(2 * block)
            arrivals = np.concatenate(
                [arrivals, arrivals[-1] + np.cumsum(raw[0::2])]
            )
            fading = np.concatenate([fading, raw[1::2]])
        count = int(np.searchsorted(arrivals, target, side="right"))
        if count >= need:
            distances = np.sqrt(arrivals[:count] / (math.pi * cfg.bs_density))
            return NetworkRealization(distances, fading[:count])
    raise SimulationError(
        f"disc with {target:.3g} expected stations kept yielding fewer than "
        f"{need}; enlarge disc_scale"
    )


def _received_powers(realization: NetworkRealization, alpha: float) -> np.ndarray:
    x = realization.bs_distances * realization.bs_distances
    if alpha == 4.0:
        gain = 1.0 / (x * x)
    else:
        gain = x ** (-0.5 * alpha)
    return gain * realization.fading_powers


def sic_decode_chain(
    realization: NetworkRealization, s_code: int, depth: int, cfg: SystemConfig
) -> bool:
    """Replay successive decoding of the ``depth`` nearest stations.

    Stage i succeeds when its instantaneous rate clears the per-piece bit
    budget of a file split ``s_code`` ways.  Interference sums are built from
    the far tail inward, avoiding the cancellation that total-minus-prefix
    subtraction would suffer when the nearest station dominates.
    """
    if s_code < 1:
        raise AllocationError(f"split count must be at least 1, got {s_code}")
    if not 1 <= depth <= cfg.sic_capability:
        raise ValueError(
            f"depth {depth} outside [1, {cfg.sic_capability}]"
        )
    powers = _received_powers(realization, cfg.path_loss_exp)
    if powers.size <= depth:
        raise SimulationError(
            f"realization holds {powers.size} stations, need more than {depth}"
        )
    threshold = cfg.stage_threshold(s_code)
    interference = float(powers[depth:].sum())
    for stage in range(depth, 0, -1):
        signal = float(powers[stage - 1])
        if not signal > threshold * interference:
            return False
        interference += signal
    return True


# --------------------------------------------------------------------------
# field table
# --------------------------------------------------------------------------

# Received powers a field table keeps per trial, nearest first.  Chains
# deeper than this and serving stations at or beyond it replay the field.
TABLE_HEAD = 16


class _FieldTable:
    """What each trial's field leaves behind, for every call that replays it.

    Trial t of every call with one seed draws the same field, and its
    received powers depend on nothing else but (disc_scale, bs_density,
    path_loss_exp), the table's key with the seed.  Row t holds the station
    count (0 until sampled), the request uniform (NaN until drawn), the
    TABLE_HEAD nearest received powers and, in column d - 1, the tail
    R[d] = float(powers[d:].sum()) (NaN until needed).  Each is computed by
    the expression the literal replay uses, so verdicts read from the table
    are bit-identical to it.
    """

    def __init__(self, key, cfg: SystemConfig):
        self.key = key
        self.alpha = cfg.path_loss_exp
        # sample_network redraws a field too small for the receiver.  The
        # table keeps the first draw any receiver accepts (two stations);
        # a field no larger than the caller's receiver falls back to the
        # literal path, which makes the caller's own redraw decision.
        self.probe = replace(cfg, sic_capability=1)
        self.counts = np.zeros(0, dtype=np.int64)
        self.requests = np.zeros(0)
        self.heads = np.zeros((0, TABLE_HEAD))
        self.tails = np.zeros((0, TABLE_HEAD))
        self._held = (-1, None)  # the last sampled trial and its powers

    def reserve(self, trials: int) -> None:
        grow = trials - self.counts.size
        if grow > 0:
            self.counts = np.concatenate([self.counts, np.zeros(grow, dtype=np.int64)])
            self.requests = np.concatenate([self.requests, np.full(grow, np.nan)])
            self.heads = np.concatenate([self.heads, np.zeros((grow, TABLE_HEAD))])
            self.tails = np.concatenate(
                [self.tails, np.full((grow, TABLE_HEAD), np.nan)]
            )

    def request_uniforms(self, seed: int, trials: int) -> np.ndarray:
        """The first lane-0 draw of trials 0..trials-1."""
        u = self.requests[:trials]
        for t in np.flatnonzero(np.isnan(u)).tolist():
            u[t] = _stream(seed, t, 0).random()
        return u

    def _sample(self, seed: int, disc_scale: float, t: int) -> np.ndarray:
        redraw = self.counts[t] > 0
        realization = sample_network(self.probe, _stream(seed, t, 1), disc_scale)
        powers = _received_powers(realization, self.alpha)
        head = powers[:TABLE_HEAD]
        self.heads[t, : head.size] = head
        self.counts[t] = powers.size
        if redraw:  # store every tail, so that no field is drawn a third time
            for d in range(1, TABLE_HEAD + 1):
                self.tails[t, d - 1] = float(powers[d:].sum())
        self._held = (t, powers)
        return powers

    def count(self, seed: int, disc_scale: float, t: int) -> int:
        if not self.counts[t]:
            self._sample(seed, disc_scale, t)
        return int(self.counts[t])

    def tail(self, seed: int, disc_scale: float, t: int, d: int) -> float:
        """R[d] of trial t, from the table, the field in hand, or a redraw."""
        if math.isnan(self.tails[t, d - 1]):
            powers = self.powers(seed, disc_scale, t)
            self.tails[t, d - 1] = float(powers[d:].sum())
        return float(self.tails[t, d - 1])

    def powers(self, seed: int, disc_scale: float, t: int) -> np.ndarray:
        """Trial t's received powers: the field in hand, or drawn again."""
        held, powers = self._held
        return powers if held == t else self._sample(seed, disc_scale, t)


_TABLE: _FieldTable | None = None
_TABLE_LOCK = threading.Lock()  # held by each simulator call that reads the table


def _field_table(seed: int, disc_scale: float, cfg: SystemConfig) -> _FieldTable:
    """The one live table; a new key evicts the old one."""
    global _TABLE
    key = (seed, disc_scale, cfg.bs_density, cfg.path_loss_exp)
    if _TABLE is None or _TABLE.key != key:
        _TABLE = None  # free the old slot before filling a new one
        _TABLE = _FieldTable(key, cfg)
    return _TABLE


# --------------------------------------------------------------------------
# trial driver
# --------------------------------------------------------------------------


def _serving_sinr_clears(powers: np.ndarray, serving: int, threshold: float) -> bool:
    # a reference scheme's test: one station against all the others, no SIC
    signal = float(powers[serving])
    interference = float(powers[:serving].sum()) + float(powers[serving + 1 :].sum())
    return signal > threshold * interference


def _estimate(successes: int, trials: int, seed: int) -> McEstimate:
    mean = successes / trials if trials > 0 else 0.0
    half = (
        1.96 * math.sqrt(mean * (1.0 - mean) / trials) if trials > 0 else 0.0
    )
    return McEstimate(mean, half, trials, seed)


class _Run:
    """One simulator call: its requests, its table and the literal fallbacks."""

    def __init__(self, pop, cfg, trials, seed, disc_scale):
        _check_seed(seed)
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        if len(pop) != cfg.n_files:
            raise ValueError(
                f"popularity covers {len(pop)} files, config declares {cfg.n_files}"
            )
        self.cfg, self.seed, self.disc_scale = cfg, seed, disc_scale
        self.table = _field_table(seed, disc_scale, cfg)
        self.table.reserve(trials)
        cum = np.cumsum(np.asarray(pop.probs, dtype=np.float64))
        n = np.searchsorted(cum, self.table.request_uniforms(seed, trials), side="right")
        # cumulative rounding can leave a sliver above the top
        self.requests = np.minimum(n, cfg.n_files - 1)

    @cached_property
    def replays(self) -> bool:
        """Whether the table's fields are the caller's: draws come in blocks
        whose size can depend on the receiver depth in very small discs."""
        need = self.cfg.sic_capability + 1
        return _block_size(self.disc_scale, 2) == _block_size(self.disc_scale, need)

    def chains(self, trials: np.ndarray, s_code: int, depth: int) -> np.ndarray:
        """sic_decode_chain's verdicts on the listed trials' fields."""
        if depth > TABLE_HEAD or not self.replays:
            return np.array(
                [self.literal_chain(t, s_code, depth) for t in trials.tolist()], dtype=bool
            )
        table = self.table
        for t in trials[np.isnan(table.tails[trials, depth - 1])].tolist():
            table.tail(self.seed, self.disc_scale, t, depth)
        interference = table.tails[trials, depth - 1]
        heads = table.heads[trials]
        threshold = self.cfg.stage_threshold(s_code)
        ok = np.ones(trials.size, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for stage in range(depth, 0, -1):
                signal = heads[:, stage - 1]
                ok &= signal > threshold * interference
                interference = interference + signal
        for i in np.flatnonzero(table.counts[trials] <= self.cfg.sic_capability).tolist():
            ok[i] = self.literal_chain(int(trials[i]), s_code, depth)
        return ok

    def literal_chain(self, t: int, s_code: int, depth: int) -> bool:
        realization = sample_network(self.cfg, _stream(self.seed, t, 1), self.disc_scale)
        return sic_decode_chain(realization, s_code, depth, self.cfg)

    def ladder(self, t: int, lo: float, width: float, threshold: float) -> bool:
        """The ladder baselines' verdict on trial t, from the table when it can."""
        table, k = self.table, self.cfg.cache_size
        if not self.replays:
            return self.literal_ladder(t, lo, width, threshold)
        count = table.count(self.seed, self.disc_scale, t)
        if count <= self.cfg.sic_capability:  # the caller would redraw it
            return self.literal_ladder(t, lo, width, threshold)
        aux = _stream(self.seed, t, 0)
        aux.random()  # the request, already in the table
        # PCG64 draws are sequential: the near stations' uniforms and then
        # the rest's are the literal path's one draw of ``count``
        near = min(count, TABLE_HEAD)
        member = _strip_covers(aux.random(near), lo, width, k)
        offset = 0
        if not member.any() and near < count:
            offset = near
            member = _strip_covers(aux.random(count - near), lo, width, k)
        if not member.any():
            return False
        serving = offset + int(member.argmax())
        if serving < TABLE_HEAD:
            tail = table.tail(self.seed, self.disc_scale, t, serving + 1)
            interference = float(table.heads[t, :serving].sum()) + tail
            return float(table.heads[t, serving]) > threshold * interference
        powers = table.powers(self.seed, self.disc_scale, t)
        return _serving_sinr_clears(powers, serving, threshold)

    def literal_ladder(self, t: int, lo: float, width: float, threshold: float) -> bool:
        aux = _stream(self.seed, t, 0)
        aux.random()  # the request
        realization = sample_network(self.cfg, _stream(self.seed, t, 1), self.disc_scale)
        u = aux.random(realization.bs_distances.size)
        member = _strip_covers(u, lo, width, self.cfg.cache_size)
        if not member.any():
            return False
        powers = _received_powers(realization, self.cfg.path_loss_exp)
        return _serving_sinr_clears(powers, int(member.argmax()), threshold)

    def grouped_chains(self, splits: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Chain verdicts per trial; a split or depth of 0 fails outright."""
        ok = np.zeros(splits.size, dtype=bool)
        live = (splits > 0) & (depths > 0)
        for c, d in sorted(set(zip(splits[live].tolist(), depths[live].tolist()))):
            picked = np.flatnonzero((splits == c) & (depths == d))
            ok[picked] = self.chains(picked, c, d)
        return ok

    def result(self, ok: np.ndarray) -> SimulationResult:
        n_files, seed = self.cfg.n_files, self.seed
        requests = np.bincount(self.requests, minlength=n_files)
        successes = np.bincount(self.requests[ok], minlength=n_files)
        overall = _estimate(int(successes.sum()), self.requests.size, seed)
        per_file = tuple(
            _estimate(int(s), int(r), seed) for s, r in zip(successes, requests)
        )
        return SimulationResult(overall, per_file)


# --------------------------------------------------------------------------
# cached designs
# --------------------------------------------------------------------------


def simulate_rlnc(
    alloc: RlncAllocation,
    pop: Popularity,
    cfg: SystemConfig,
    trials: int,
    seed: int,
    disc_scale: float = DEFAULT_DISC_SCALE,
) -> SimulationResult:
    """Monte Carlo success frequency of a coded allocation.

    A request succeeds when the file is cached and the decode chain clears
    exactly its split count of nearest stations.
    """
    violations = validate_rlnc(alloc, cfg)
    if violations:
        raise AllocationError("; ".join(violations))
    with _TABLE_LOCK:
        run = _Run(pop, cfg, trials, seed, disc_scale)
        splits = np.asarray(alloc.codes, dtype=np.int64)[run.requests]
        return run.result(run.grouped_chains(splits, splits))


def subfile_cover_index(piece_ids, s_code: int) -> int:
    """First position whose prefix holds all distinct pieces; 0 when none does."""
    want = (1 << s_code) - 1
    seen = 0
    for pos, piece in enumerate(piece_ids, start=1):
        seen |= 1 << int(piece)
        if seen == want:
            return pos
    return 0


@dataclass(frozen=True)
class SubfilePlacement:
    """Which piece each serving station holds, nearest first, plus the
    first station count whose prefix covers every piece (0 when the listed
    stations never cover the file)."""

    piece_ids: tuple[int, ...]
    first_cover: int

    @classmethod
    def from_draws(cls, piece_ids, s_code: int) -> "SubfilePlacement":
        ids = tuple(int(p) for p in piece_ids)
        if any(not 0 <= p < s_code for p in ids):
            raise ValueError(f"piece ids must lie in 0..{s_code - 1}")
        return cls(ids, subfile_cover_index(ids, s_code))


def simulate_uc(
    alloc: UcAllocation,
    pop: Popularity,
    cfg: SystemConfig,
    trials: int,
    seed: int,
    disc_scale: float = DEFAULT_DISC_SCALE,
) -> SimulationResult:
    """Monte Carlo success frequency of an uncoded allocation.

    Each of the serving stations holds one uniformly chosen piece; the
    request succeeds when some prefix of them covers every piece within the
    serving depth and the decode chain reaches exactly that prefix.
    """
    violations = validate_uc(alloc, cfg)
    if violations:
        raise AllocationError("; ".join(violations))
    serves = alloc.serve_counts
    with _TABLE_LOCK:
        run = _Run(pop, cfg, trials, seed, disc_scale)
        splits = np.asarray(alloc.codes, dtype=np.int64)[run.requests]
        depths = np.minimum(splits, 1)
        for t in np.flatnonzero(splits >= 2).tolist():
            c = int(splits[t])
            aux = _stream(seed, t, 0)
            aux.random()  # the request, already in the table
            pieces = aux.integers(0, c, size=serves[run.requests[t]])
            depths[t] = subfile_cover_index(pieces, c)
        return run.result(run.grouped_chains(splits, depths))


# --------------------------------------------------------------------------
# reference schemes
# --------------------------------------------------------------------------


def water_fill_mu(pop: Popularity, cache_size: int) -> tuple[float, tuple[float, ...]]:
    """Water level and per-file caching probabilities of the graded scheme.

    Solves sum(min(a_n * cache_size + mu, 1)) == cache_size by bisection on
    the monotone left side.  The level is never negative because clamping
    at one only removes mass.
    """
    probs = pop.probs
    if not 1 <= cache_size < len(probs):
        raise ValueError(
            f"cache_size must satisfy 1 <= K < {len(probs)}, got {cache_size}"
        )

    def total(mu: float) -> float:
        return math.fsum(min(a * cache_size + mu, 1.0) for a in probs)

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if total(mid) < cache_size:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return mu, tuple(min(a * cache_size + mu, 1.0) for a in probs)


def _strip_covers(
    u: np.ndarray, lo: float, width: float, cache_size: int
) -> np.ndarray:
    # Membership test for the ladder placement: each station lays the
    # per-file probabilities end to end over [0, cache_size] and keeps the
    # files whose strip contains u + j for some integer j in [0, K).  The
    # unique candidate offset for the strip starting at lo is ceil(lo - u).
    j = np.ceil(lo - u)
    return (j >= 0.0) & (j <= cache_size - 1) & (u + j < lo + width)


def simulate_baseline(
    which: int,
    pop: Popularity,
    cfg: SystemConfig,
    trials: int,
    seed: int,
    disc_scale: float = DEFAULT_DISC_SCALE,
) -> McEstimate:
    """Monte Carlo success frequency of a whole-file reference scheme.

    Scheme 1 caches the most popular cache_size files everywhere; scheme 2
    caches every file with equal probability; scheme 3 grades the caching
    probability toward popular files by water filling.  Schemes 2 and 3 use
    the ladder placement, so each station holds exactly cache_size files.
    The user connects to the nearest station holding the request and decodes
    it against all other stations' interference, with no SIC and the whole
    file's bit budget.
    """
    if which not in (1, 2, 3):
        raise ValueError(f"baseline must be 1, 2 or 3, got {which}")
    k = cfg.cache_size
    if which == 2:
        widths = (k / cfg.n_files,) * cfg.n_files
    elif which == 3:
        _, widths = water_fill_mu(pop, k)
    else:
        widths = None

    if widths is not None:
        edges = [0.0]
        for w in widths:
            edges.append(edges[-1] + w)
    with _TABLE_LOCK:
        run = _Run(pop, cfg, trials, seed, disc_scale)
        if widths is None:  # the top files' nearest station is a one-stage chain
            splits = (run.requests < k).astype(np.int64)
            return run.result(run.grouped_chains(splits, splits)).overall
        threshold = cfg.stage_threshold(1)
        ok = np.array(
            [
                run.ladder(t, edges[n], widths[n], threshold)
                for t, n in enumerate(run.requests.tolist())
            ],
            dtype=bool,
        )
        return run.result(ok).overall
