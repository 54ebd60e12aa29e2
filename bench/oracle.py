"""Reference values and correctness checks that do not rest on partcache's code.

The per-stage interference factor comes from the Gauss hypergeometric form

    rho(T, alpha) = (2T/(alpha-2)) * 2F1(1, 1-2/alpha; 2-2/alpha; -T),  T = 2**t - 1,

(Andrews, Baccelli & Ganti, IEEE TCOM 2011) instead of the package's
quadrature.  The coupon-collector law uses Stirling numbers of the second
kind instead of inclusion-exclusion, the water-filling level is solved
exactly instead of by bisection, and the knapsack bound is the fractional
relaxation over the upper concave hull of the split profile.

Every ``check_*`` function returns ``None`` when the value passes and a
one-line reason when it does not, so ``selftest.py`` can feed each one a
deliberately wrong value and see it fail.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import hyp2f1

# relative agreement demanded of closed-form values; the package's quadrature
# is asked for 1e-12 absolute and chains raise the factor to powers up to 15
CLOSED_FORM_RTOL = 1e-9
# Monte Carlo estimates must lie within this many 95% half-widths
MC_HALF_WIDTHS = 3.0
# absolute gap allowed between a partitioned closed form (independent-stage
# approximation) and the simulator; the acceptance suite's C4 limit
SPLIT_GAP = 0.05


# --------------------------------------------------------------------------
# physics
# --------------------------------------------------------------------------


@lru_cache(maxsize=8192)
def stage_factor(t: float, alpha: float) -> float:
    """rho for a per-piece rate ratio ``t`` (file size over slot bit budget)."""
    if t == 0.0:
        return 0.0
    threshold = math.expm1(t * math.log(2.0))
    d = 2.0 / alpha
    return 2.0 * threshold / (alpha - 2.0) * hyp2f1(1.0, 1.0 - d, 2.0 - d, -threshold)


def whole_plane_factor(t: float, alpha: float) -> float:
    """Interference factor of stations anywhere in the plane, T**d * pi*d / sin(pi*d)."""
    threshold = math.expm1(t * math.log(2.0))
    d = 2.0 / alpha
    return threshold**d * math.pi * d / math.sin(math.pi * d)


def chain(rho: float, depth: int) -> float:
    """Independent-stage success of decode stages 1..depth."""
    return (1.0 + rho) ** (-0.5 * depth * (depth + 1))


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def coupon_pmf(c: int, i: int) -> float:
    """P(all ``c`` pieces are first seen at station ``i``) = c!/c**i * S(i-1, c-1)."""
    if i < c:
        return 0.0
    return float(Fraction(math.factorial(c) * _stirling2(i - 1, c - 1), c**i))


def rlnc_file(c: int, t: float, alpha: float) -> float:
    return 0.0 if c == 0 else chain(stage_factor(t / c, alpha), c)


def uc_file(c: int, serve: int, t: float, alpha: float) -> float:
    if c == 0:
        return 0.0
    rho = stage_factor(t / c, alpha)
    return math.fsum(coupon_pmf(c, i) * chain(rho, i) for i in range(c, serve + 1))


def _mass_by(keys, probs) -> dict:
    mass = defaultdict(list)
    for key, a in zip(keys, probs):
        mass[key].append(a)
    return {key: math.fsum(parts) for key, parts in mass.items()}


def stp_rlnc(probs, codes, t, alpha) -> float:
    mass = _mass_by(codes, probs)
    return math.fsum(m * rlnc_file(c, t, alpha) for c, m in mass.items())


def stp_uc(probs, codes, serves, t, alpha) -> float:
    mass = _mass_by(zip(codes, serves), probs)
    return math.fsum(m * uc_file(c, s, t, alpha) for (c, s), m in mass.items())


def _small_slope(t: float, alpha: float) -> float:
    return math.log(2.0) * t / (alpha - 2.0)


def stp_rlnc_small(probs, codes, t, alpha) -> float:
    slope = _small_slope(t, alpha)
    return math.fsum(a * (1.0 - (1 + c) * slope) for a, c in zip(probs, codes) if c)


def stp_uc_small(probs, codes, serves, t, alpha) -> float:
    slope = _small_slope(t, alpha)
    acc = []
    for a, c, m in zip(probs, codes, serves):
        if c == 0:
            continue
        pmf = [(i, coupon_pmf(c, i)) for i in range(c, m + 1)]
        mass = math.fsum(p for _, p in pmf)
        weighted = math.fsum(p * (i + 1) * i for i, p in pmf)
        acc.append(a * (mass - slope * weighted / c))
    return math.fsum(acc)


def _large_scale(c: int, t: float, alpha: float) -> float:
    d = 2.0 / alpha
    beta_term = d * math.pi / math.sin(math.pi * d)  # d * B(d, 1-d)
    return 2.0 ** (-(1 + c) * t / alpha) / beta_term ** (c * (c + 1) / 2.0)


def stp_rlnc_large(probs, codes, t, alpha) -> float:
    c_min = min(c for c in codes if c)
    mass = math.fsum(a for a, c in zip(probs, codes) if c == c_min)
    return _large_scale(c_min, t, alpha) * mass


def stp_uc_large(probs, codes, t, alpha) -> float:
    c_min = min(c for c in codes if c)
    return stp_rlnc_large(probs, codes, t, alpha) * coupon_pmf(c_min, c_min)


# --------------------------------------------------------------------------
# whole-file reference schemes
# --------------------------------------------------------------------------


def water_fill(probs, cache_size: int) -> list[float]:
    """Caching probabilities min(a*K + mu, 1) summing to K, solved exactly.

    The clamped files are a head of the descending profile, so the level
    follows from the first head size whose remaining files stay unclamped.
    """
    n = len(probs)
    tail = math.fsum(probs)
    for head in range(n):
        mu = (cache_size - head - cache_size * tail) / (n - head)
        if probs[head] * cache_size + mu <= 1.0:
            return [1.0] * head + [a * cache_size + mu for a in probs[head:]]
        tail -= probs[head]
    raise ValueError("cache_size must be below the library size")


def baseline_success(which: int, probs, cache_size: int, t: float, alpha: float) -> float:
    """Whole-file success of reference scheme 1, 2 or 3.

    A file held by each station with probability p is served by the nearest
    holder (a p-thinned field); holders beyond it and non-holders anywhere
    interfere, so success is p / (p (1 + rho) + (1 - p) C).
    """
    n = len(probs)
    if which == 1:
        hold = [1.0] * cache_size + [0.0] * (n - cache_size)
    elif which == 2:
        hold = [cache_size / n] * n
    else:
        hold = water_fill(probs, cache_size)
    rho = stage_factor(t, alpha)
    full = whole_plane_factor(t, alpha)
    return math.fsum(
        a * p / (p * (1.0 + rho) + (1.0 - p) * full)
        for a, p in zip(probs, hold)
        if p > 0.0
    )


# --------------------------------------------------------------------------
# allocation bounds
# --------------------------------------------------------------------------


def split_profile(design: str, max_split: int, t: float, alpha: float) -> list[float]:
    """Per-file success of splits 1..max_split, serving uncoded splits to the cap."""
    if design == "rlnc":
        return [rlnc_file(m, t, alpha) for m in range(1, max_split + 1)]
    return [
        uc_file(m, 1 if m == 1 else max_split, t, alpha)
        for m in range(1, max_split + 1)
    ]


def fractional_bound(probs, profile, capacity: int) -> float:
    """Optimum of the fractional multiple-choice knapsack relaxation.

    Split m weighs 1/m and earns a_n * profile[m-1]; leaving a file uncached
    is free.  The relaxation fills capacity along the upper concave hull of
    each file's items in falling slope order, so it bounds every feasible
    allocation from above.
    """
    points = [(0.0, 0.0)] + [
        (1.0 / m, profile[m - 1]) for m in range(len(profile), 0, -1)
    ]
    hull: list[tuple[float, float]] = []
    for w, q in points:
        while len(hull) >= 2:
            (w0, q0), (w1, q1) = hull[-2], hull[-1]
            if (q1 - q0) * (w - w0) <= (q - q0) * (w1 - w0):
                hull.pop()
            else:
                break
        hull.append((w, q))
    widths = np.array([b[0] - a[0] for a, b in zip(hull, hull[1:])])
    gains = np.array([b[1] - a[1] for a, b in zip(hull, hull[1:])])
    keep = gains > 0.0
    widths, gains = widths[keep], gains[keep]
    a = np.asarray(probs, dtype=np.float64)
    seg_slope = np.outer(a, gains / widths).ravel()
    seg_width = np.tile(widths, a.size)
    order = np.argsort(-seg_slope, kind="stable")
    seg_slope, seg_width = seg_slope[order], seg_width[order]
    filled = np.cumsum(seg_width)
    full = filled <= capacity
    bound = float(np.sum(seg_slope[full] * seg_width[full]))
    if not full.all():
        first = int(np.argmin(full))
        room = capacity - (filled[first - 1] if first else 0.0)
        bound += float(seg_slope[first] * room)
    return bound


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def check_close(label: str, got: float, want: float, rtol: float = CLOSED_FORM_RTOL):
    if math.isfinite(got) and abs(got - want) <= rtol * abs(want) + 1e-300:
        return None
    return f"{label}: {got!r} differs from reference {want!r} beyond rtol {rtol:g}"


def _half_width(p: float, trials: int) -> float:
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def check_mc(label: str, mean: float, trials: int, exact: float):
    """A whole-file estimate within a few 95% half-widths of an exact value."""
    allowed = MC_HALF_WIDTHS * _half_width(exact, trials)
    if abs(mean - exact) <= allowed + 1e-12:
        return None
    return f"{label}: estimate {mean:.5f} is {abs(mean - exact):.5f} from {exact:.5f} (allowed {allowed:.5f})"


def check_split_gap(label: str, mean: float, trials: int, approx: float):
    """A partitioned estimate within the approximation gap plus sampling noise."""
    allowed = SPLIT_GAP + MC_HALF_WIDTHS * _half_width(approx, trials)
    if abs(mean - approx) <= allowed:
        return None
    return f"{label}: estimate {mean:.5f} is {abs(mean - approx):.5f} from {approx:.5f} (allowed {allowed:.5f})"


def check_dominates(label: str, coded: float, uncoded: float, slack: float = 0.0):
    if coded + slack >= uncoded:
        return None
    return f"{label}: coded {coded!r} below uncoded {uncoded!r}"


def check_budget(label: str, codes, max_split: int, cache_size: int):
    """Split counts within the receiver depth and a load sum(1/c) <= K, exactly."""
    counts = Counter(codes)
    if min(counts) < 0 or max(counts) > max_split:
        return f"{label}: split counts outside 0..{max_split}"
    load = sum((Fraction(k, c) for c, k in counts.items() if c), Fraction(0))
    if load <= cache_size:
        return None
    return f"{label}: cache load {load} exceeds the budget {cache_size}"


def check_half_optimal(label: str, objective: float, bound: float):
    """A greedy objective between half and all of the fractional upper bound."""
    tol = CLOSED_FORM_RTOL * bound
    if 0.5 * bound - tol <= objective <= bound + tol:
        return None
    return f"{label}: objective {objective!r} outside [{0.5 * bound!r}, {bound!r}]"


def check_poisson_mean(label: str, mean: float, samples: int, expected: float):
    """A mean of Poisson counts within four standard errors of their mean."""
    allowed = 4.0 * math.sqrt(expected / samples)
    if abs(mean - expected) <= allowed:
        return None
    return f"{label}: mean {mean:.2f} is {abs(mean - expected):.2f} from {expected:.2f} (allowed {allowed:.2f})"
