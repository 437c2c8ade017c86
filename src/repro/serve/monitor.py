"""Windowed fleet SLO monitoring: attainment, storms, tail heatmap.

:class:`FleetMonitor` is an engine service, and each of its runs is one
window.  A run samples each SLO tenant's achieved ops/s over the window
(a delta of its workload's cumulative counter — O(active tenants) per
pass, no event capture) and counts the window as an eviction storm when
the fleet-wide arbiter-eviction delta since the previous run reaches
``storm_pages``.  :meth:`fleet_summary` reduces the samples to the
serving scoreboard: fleet SLO attainment, eviction storms survived, and
slowdown tail percentiles per day-phase quarter — the
tail-latency-over-time heatmap row of the ``fleet_diurnal`` table.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.sim.service import Service

#: day-phase labels (quarters of the diurnal period, q1 = around midnight)
PHASES = ("q1", "q2", "q3", "q4")


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return ordered[min(rank - 1, len(ordered) - 1)]


class FleetMonitor(Service):
    """Per-window fleet SLO sampler (runs as an engine service)."""

    def __init__(self, colo, window: float = 0.5, warmup: float = 0.0,
                 storm_pages: int = 256, slowdown_cap: float = 100.0):
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        super().__init__("fleet_monitor", period=window)
        self.colo = colo
        self.window = window
        self.warmup = warmup
        self.storm_pages = storm_pages
        self.slowdown_cap = slowdown_cap
        #: per-tenant cumulative-op baseline at the previous window edge
        self._last_ops: Dict[str, float] = {}
        #: per-tenant slowdown of the latest measured window (pruned with
        #: ``_last_ops`` when the tenant departs)
        self._last_slowdown: Dict[str, float] = {}
        self._last_evicted = 0.0
        #: measured windows whose fleet eviction delta reached storm_pages
        self.storm_windows = 0
        #: slowdown samples per day-phase label ("" key = all phases);
        #: one float per (SLO tenant, window) pair
        self._slowdowns: Dict[str, List[float]] = {"": []}
        self._attained: Dict[str, int] = {"": 0}
        self._samples: Dict[str, int] = {"": 0}
        self._windows = 0
        self._day_seconds: Optional[float] = None

    def bind_day(self, day_seconds: float) -> None:
        """Set the diurnal period used to bucket samples into phases."""
        if day_seconds <= 0:
            raise ValueError(f"day_seconds must be positive: {day_seconds}")
        self._day_seconds = day_seconds

    def _phase(self, t: float) -> str:
        if not self._day_seconds:
            return PHASES[0]
        frac = (t % self._day_seconds) / self._day_seconds
        return PHASES[min(int(frac * 4), 3)]

    # -- sampling -------------------------------------------------------------
    def run(self, engine, now: float, dt: float) -> float:
        colo = self.colo
        measuring = now > self.warmup + 1e-9
        phase = self._phase(now)
        active_names = set()
        for tenant in colo.active_tenants():
            name = tenant.name
            active_names.add(name)
            ops = tenant.workload.total_ops
            prev = self._last_ops.get(name)
            self._last_ops[name] = ops
            slo = tenant.spec.slo_ops_per_sec
            if not measuring or slo is None or prev is None:
                continue
            rate = max(ops - prev, 0.0) / self.window
            if rate >= slo:
                slowdown = 1.0
            elif rate > 0.0:
                slowdown = min(slo / rate, self.slowdown_cap)
            else:
                slowdown = self.slowdown_cap
            self._last_slowdown[name] = slowdown
            for key in ("", phase):
                bucket = self._slowdowns.setdefault(key, [])
                bucket.append(slowdown)
                self._samples[key] = self._samples.get(key, 0) + 1
                if slowdown <= 1.0:
                    self._attained[key] = self._attained.get(key, 0) + 1
        # Departed tenants keep their history but stop costing memory.
        for name in list(self._last_ops):
            if name not in active_names:
                del self._last_ops[name]
                self._last_slowdown.pop(name, None)
        evicted = float(sum(t.evicted_pages for t in colo.all_tenants()))
        delta = evicted - self._last_evicted
        self._last_evicted = evicted
        if measuring:
            self._windows += 1
            if delta >= self.storm_pages:
                self.storm_windows += 1
        return 0.0

    def export_metrics(self, put) -> None:
        """Telemetry export of the scoreboard as of the latest window."""
        for name, ops in self._last_ops.items():
            put("ops_total", ops, tenant=name)
        for name, slowdown in self._last_slowdown.items():
            put("slo_slowdown", slowdown, tenant=name)
            put("slo_attained", 1.0 if slowdown <= 1.0 else 0.0, tenant=name)
        put("slo_tenant_windows_total", self._samples.get("", 0))
        put("slo_attained_windows_total", self._attained.get("", 0))
        attainment = self._ratio("")
        if attainment is not None:
            put("slo_attainment", attainment)

    # -- reduction ------------------------------------------------------------
    def fleet_summary(self, day_seconds: Optional[float] = None) -> dict:
        """Reduce the windowed samples to the fleet scoreboard."""
        if day_seconds is not None:
            self._day_seconds = day_seconds
        out = {
            "windows": self._windows,
            "tenant_windows": self._samples.get("", 0),
            "attainment": self._ratio(""),
            "evicted_pages": self._last_evicted,
            "storm_windows": self.storm_windows,
            "storm_threshold_pages": self.storm_pages,
            "phases": {},
        }
        for phase in PHASES:
            samples = self._slowdowns.get(phase, [])
            out["phases"][phase] = {
                "samples": len(samples),
                "attainment": self._ratio(phase),
                "slowdown_p50": percentile(samples, 50),
                "slowdown_p90": percentile(samples, 90),
                "slowdown_p99": percentile(samples, 99),
            }
        overall = self._slowdowns.get("", [])
        out["slowdown_p50"] = percentile(overall, 50)
        out["slowdown_p90"] = percentile(overall, 90)
        out["slowdown_p99"] = percentile(overall, 99)
        return out

    def _ratio(self, key: str) -> Optional[float]:
        samples = self._samples.get(key, 0)
        if not samples:
            return None
        return self._attained.get(key, 0) / samples
