"""Lightweight statistics primitives: counters, time series, histograms.

Every subsystem exposes its observable behaviour through a
:class:`StatsRegistry` so experiments can inspect migration volume, NVM
writes, sample drops, etc. without reaching into private state.

Components owned by a *manager* (migrator, tracker, userfaultfd, private
copy engines) create their stats through a scoped view
(:meth:`StatsRegistry.scoped`), which prefixes every name with the
manager's name — so two managers sharing one machine can never silently
merge their counters.  Machine-owned hardware (devices, the DMA engine,
the PEBS unit) stays unprefixed: there is one of each per machine.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf
from typing import Dict, List, Sequence, Tuple


class Counter:
    """A monotonically increasing counter with an optional rate window."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    def __init__(self, name: str):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(
                f"time series {self.name} is append-only: {t} < {self.times[-1]}"
            )
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)


def log_bounds(lo: float, hi: float, per_decade: int = 4) -> Tuple[float, ...]:
    """Geometric bucket boundaries from ``lo`` to at least ``hi``."""
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi: {lo}, {hi}")
    if per_decade <= 0:
        raise ValueError(f"per_decade must be positive: {per_decade}")
    ratio = 10.0 ** (1.0 / per_decade)
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * ratio)
    return tuple(bounds)


#: default buckets for migration latencies: one tick (10 ms) up to ~100 s
LATENCY_BOUNDS = log_bounds(0.01, 100.0, per_decade=4)


class Histogram:
    """Fixed-boundary histogram with exact count/sum/min/max.

    ``counts[i]`` holds values in ``[bounds[i-1], bounds[i])`` (the first
    bucket is everything below ``bounds[0]``, the last everything at or
    above ``bounds[-1]``).  Quantiles are bucket-resolution approximations;
    ``min``/``max``/``mean`` are exact.
    """

    def __init__(self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS):
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one boundary")
        if any(b >= a for b, a in zip(bounds, list(bounds)[1:])):
            raise ValueError(f"histogram {name} bounds must strictly increase")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile (exact
        ``min``/``max`` for the extremes; 0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of [0, 1]: {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                # overflow bucket has no upper boundary; max is exact there
                return self.max if i >= len(self.bounds) else self.bounds[i]
        return self.max

    def to_dict(self) -> dict:
        """JSON-able snapshot (inverse: :meth:`from_dict`)."""
        return {
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        hist = cls(data["name"], data["bounds"])
        hist.counts = list(data["counts"])
        hist.count = data["count"]
        hist.total = data["total"]
        hist.min = data["min"] if data["min"] is not None else inf
        hist.max = data["max"] if data["max"] is not None else -inf
        return hist

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean():.4g})"


class StatsRegistry:
    """Namespace of counters, series, and histograms shared by one simulation."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def histogram(self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds)
        elif hist.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name} already registered with different bounds"
            )
        return hist

    def scoped(self, prefix: str) -> "ScopedStats":
        """A view that prefixes every stat name with ``prefix.``."""
        return ScopedStats(self, prefix)

    def counters(self) -> Dict[str, float]:
        """Snapshot of all counter values."""
        return {name: c.value for name, c in self._counters.items()}

    def histograms(self) -> Dict[str, dict]:
        """Snapshot of all histograms (JSON-able)."""
        return {name: h.to_dict() for name, h in self._histograms.items()}

    def series_data(self) -> Dict[str, dict]:
        """Snapshot of all time series (JSON-able)."""
        return {
            name: {"times": list(s.times), "values": list(s.values)}
            for name, s in self._series.items()
        }


class ScopedStats:
    """Prefixing view over a :class:`StatsRegistry`.

    ``registry.scoped("hemem").counter("pages_migrated")`` is the counter
    named ``hemem.pages_migrated`` in the underlying registry — manager
    components get collision-free names without knowing who owns them.
    """

    def __init__(self, registry: StatsRegistry, prefix: str):
        if not prefix:
            raise ValueError("scope prefix cannot be empty")
        self.registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._name(name))

    def series(self, name: str) -> TimeSeries:
        return self.registry.series(self._name(name))

    def histogram(self, name: str, bounds: Sequence[float] = LATENCY_BOUNDS) -> Histogram:
        return self.registry.histogram(self._name(name), bounds)

    def scoped(self, prefix: str) -> "ScopedStats":
        return ScopedStats(self.registry, self._name(prefix))

    def __repr__(self) -> str:
        return f"ScopedStats({self.prefix!r} -> {self.registry!r})"
