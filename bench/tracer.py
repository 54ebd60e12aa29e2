"""Call counts and inclusive and self times at partcache's module boundaries.

A ``Tracer`` wraps public functions by rebinding every attribute of every
``partcache`` module that refers to them, so a call from one module into
another (``simulate_rlnc`` -> ``sample_network``, ``optimize`` ->
``analysis.stp_rlnc`` ...) passes through the wrapper.  Self time is a
call's duration minus the time spent in wrapped calls it made.  Spans are
kept as running sums in memory.  A name the package no longer defines is
listed in ``missing`` and the run goes on without it.

Hooks turn a call's arguments and result into counters (stations per
network, trials per run).  A hook that no longer fits the call records the
counter as broken instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class CallStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    callers: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Install with ``with Tracer(package, hooks):``; read ``stats`` and ``counters``."""

    def __init__(self, package, hooks: dict):
        self._package = package
        self._hooks = hooks
        self.stats: dict[str, CallStats] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.broken: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        prefix = self._package.__name__ + "."
        modules = [self._package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        for qualname, hook in self._hooks.items():
            mod_name, _, attr = qualname.rpartition(".")
            mod = sys.modules.get(prefix + mod_name)
            original = getattr(mod, attr, None)
            if not callable(original):
                self.missing.append(qualname)
                continue
            self.stats[qualname] = CallStats()
            wrapper = self._wrap(qualname, original, hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._patches.append((m, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for m, name, original in reversed(self._patches):
            setattr(m, name, original)
        self._patches.clear()

    def _wrap(self, qualname, original, hook):
        stack = self._stack
        stats = self.stats[qualname]
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [qualname, 0.0]
            if stack:
                stats.callers[stack[-1][0]] += 1
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - frame[1]
            if hook is not None and qualname not in self.broken:
                try:
                    hook(counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.broken.add(qualname)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # sums over several wrapped names; None when none of them exists

    def _sum(self, attr: str, names) -> float | None:
        present = [self.stats[n] for n in names if n in self.stats]
        if not present:
            return None
        return sum(getattr(s, attr) for s in present)

    def calls(self, *names):
        return self._sum("calls", names)

    def inclusive(self, *names):
        return self._sum("inclusive_s", names)

    def self_time(self, *names):
        return self._sum("self_s", names)
