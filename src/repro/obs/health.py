"""Automated anomaly detection over simulation traces.

``run_health(trace)`` runs a catalogue of pluggable detectors over a
:class:`~repro.obs.replay.Trace` and returns a :class:`HealthReport` of
structured :class:`Finding`\\ s — each with a severity, the time window
in which the anomaly occurred, the pages implicated, and (where pages
are implicated) their placement-provenance chains rendered from
:mod:`repro.obs.diagnose`.

Built-in detectors (:data:`DEFAULT_DETECTORS`):

- :class:`PebsLossSpike` — windows where the PEBS ring dropped a large
  fraction of records (classification quality degrades silently);
- :class:`MigrationStallStorm` — retry/abort storms on the copy path
  (injected faults or a saturated mover);
- :class:`ThrashDetector` — the same page completing DRAM↔NVM round
  trips within a short window (promote/demote thrash);
- :class:`QuotaChurn` — a tenant's DRAM quota direction-flipping
  repeatedly within a window (arbiter instability);
- :class:`DramFlatline` — DRAM occupancy flat for a sustained window
  while NVM pages keep classifying hot (promotion pipeline wedged);
- :class:`SloBurn` — a colo tenant losing DRAM to arbiter evictions at
  a sustained rate (quota pressure turning into an SLO breach).

Custom detectors subclass :class:`Detector` and are passed via
``run_health(trace, detectors=[...])``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.obs.diagnose import PlacementProvenance
from repro.obs.events import (
    MigrationAborted,
    MigrationDone,
    MigrationRetried,
    PageClassified,
    PageFault,
    PebsDrain,
    PebsDrop,
    QuotaUpdated,
    TenantEvicted,
)

SEVERITIES = ("info", "warning", "critical")


class Finding:
    """One detected anomaly: what, when, how bad, and which pages."""

    def __init__(
        self,
        detector: str,
        severity: str,
        start: float,
        end: float,
        message: str,
        pages: Optional[List[Tuple[str, int]]] = None,
        provenance: Optional[List[str]] = None,
        data: Optional[dict] = None,
    ):
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {severity!r}")
        self.detector = detector
        self.severity = severity
        self.start = float(start)
        self.end = float(end)
        self.message = message
        self.pages = list(pages or [])
        self.provenance = list(provenance or [])
        self.data = dict(data or {})

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "start": self.start,
            "end": self.end,
            "message": self.message,
            "pages": [[region, page] for region, page in self.pages],
            "provenance": self.provenance,
            "data": self.data,
        }

    def __repr__(self) -> str:
        return (
            f"Finding({self.detector}, {self.severity}, "
            f"[{self.start:.3f}s, {self.end:.3f}s], {self.message!r})"
        )


class HealthReport:
    """All findings from one :func:`run_health` pass."""

    def __init__(self, findings: List[Finding], detectors: List[str]):
        self.findings = sorted(findings, key=lambda f: (f.start, f.detector))
        self.detectors = list(detectors)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def by_severity(self, severity: str) -> List[Finding]:
        return [f for f in self.findings if f.severity == severity]

    def by_detector(self, detector: str) -> List[Finding]:
        return [f for f in self.findings if f.detector == detector]

    @property
    def worst(self) -> Optional[str]:
        for severity in reversed(SEVERITIES):
            if self.by_severity(severity):
                return severity
        return None

    def to_dict(self) -> dict:
        return {
            "kind": "health",
            "detectors": self.detectors,
            "counts": {s: len(self.by_severity(s)) for s in SEVERITIES},
            "findings": [f.to_dict() for f in self.findings],
        }

    def summary(self) -> str:
        if not self.findings:
            return f"health: OK ({len(self.detectors)} detectors, no findings)"
        lines = [
            f"health: {len(self.findings)} finding(s), worst={self.worst}"
        ]
        for f in self.findings:
            lines.append(
                f"  [{f.severity:>8}] {f.detector} "
                f"@ {f.start:.2f}-{f.end:.2f}s: {f.message}"
            )
        return "\n".join(lines)


class HealthContext:
    """Shared state handed to every detector (provenance built lazily)."""

    def __init__(self, trace, max_chains_per_finding: int = 3):
        self.trace = trace
        self.max_chains_per_finding = max_chains_per_finding
        self._provenance: Optional[PlacementProvenance] = None

    @property
    def provenance(self) -> PlacementProvenance:
        if self._provenance is None:
            self._provenance = PlacementProvenance.from_trace(self.trace)
        return self._provenance

    def chains_for(self, pages: List[Tuple[str, int]]) -> List[str]:
        """Render provenance chains for up to ``max_chains_per_finding``."""
        prov = self.provenance
        return [
            prov.explain_text(region, page)
            for region, page in pages[: self.max_chains_per_finding]
        ]


class Detector:
    """Base class: subclasses set ``name`` and implement :meth:`scan`."""

    name = "detector"

    def scan(self, trace, ctx: HealthContext) -> List[Finding]:
        raise NotImplementedError


# Fixed-bin detectors scan two grids: the aligned grid (windows starting at
# k*width) and a half-offset grid (windows starting at k*width - width/2).
# A burst straddling an aligned bin boundary splits its mass across two
# aligned windows — and can evade a per-window threshold — but always lands
# whole inside exactly one offset window.  Aligned findings are canonical;
# an offset finding survives only when it overlaps no aligned finding with
# the same dedupe key, so traces that never straddle a boundary report
# exactly what they always did.

def _dual_windows(t: float, width: float):
    """The (grid, window-index) keys of the two windows containing ``t``."""
    return ((0, int(t // width)), (1, int((t + 0.5 * width) // width)))


def _window_span(grid: int, win: int, width: float):
    start = win * width - (0.5 * width if grid else 0.0)
    return start, start + width


def _merge_grids(entries: List[Tuple[int, object, Finding]]) -> List[Finding]:
    """Dedupe offset-grid findings against aligned ones.

    ``entries`` is ``[(grid, dedupe_key, finding), ...]``; aligned-grid
    (``grid == 0``) findings always survive, offset ones only when no
    aligned finding with the same key overlaps their time window.
    """
    aligned = [(key, f) for grid, key, f in entries if grid == 0]
    out = [f for _, f in aligned]
    for grid, key, finding in entries:
        if grid == 0:
            continue
        if any(
            k == key and a.start < finding.end and finding.start < a.end
            for k, a in aligned
        ):
            continue
        out.append(finding)
    out.sort(key=lambda f: (f.start, f.end))
    return out


class PebsLossSpike(Detector):
    """Windows where the PEBS ring dropped a large record fraction."""

    name = "pebs-loss-spike"

    def __init__(self, window: float = 1.0, warn_fraction: float = 0.2,
                 critical_fraction: float = 0.5, min_lost: int = 16):
        self.window = window
        self.warn_fraction = warn_fraction
        self.critical_fraction = critical_fraction
        self.min_lost = min_lost

    def scan(self, trace, ctx: HealthContext) -> List[Finding]:
        lost: Dict[Tuple[int, int], int] = defaultdict(int)
        drained: Dict[Tuple[int, int], int] = defaultdict(int)
        for event in trace.events:
            kind = type(event)
            if kind is PebsDrop:
                for key in _dual_windows(event.t, self.window):
                    lost[key] += event.n
            elif kind is PebsDrain:
                for key in _dual_windows(event.t, self.window):
                    drained[key] += event.drained
        entries = []
        for (grid, win), n_lost in sorted(lost.items()):
            if n_lost < self.min_lost:
                continue
            total = n_lost + drained.get((grid, win), 0)
            fraction = n_lost / total if total else 1.0
            if fraction < self.warn_fraction:
                continue
            severity = (
                "critical" if fraction >= self.critical_fraction else "warning"
            )
            start, end = _window_span(grid, win, self.window)
            entries.append((grid, None, Finding(
                self.name, severity, max(start, 0.0), end,
                f"PEBS dropped {n_lost} records "
                f"({fraction:.0%} of the window's traffic) — "
                "hot/cold classification is sampling blind",
                data={"lost": n_lost,
                      "drained": drained.get((grid, win), 0),
                      "fraction": fraction},
            )))
        return _merge_grids(entries)


class MigrationStallStorm(Detector):
    """Copy retries/aborts clustering in a window (mover failing)."""

    name = "migration-stall-storm"

    def __init__(self, window: float = 1.0, warn_retries: int = 5,
                 critical_aborts: int = 1):
        self.window = window
        self.warn_retries = warn_retries
        self.critical_aborts = critical_aborts

    def scan(self, trace, ctx: HealthContext) -> List[Finding]:
        retries: Dict[Tuple[int, int], List] = defaultdict(list)
        aborts: Dict[Tuple[int, int], List] = defaultdict(list)
        for event in trace.events:
            kind = type(event)
            if kind is MigrationRetried:
                for key in _dual_windows(event.t, self.window):
                    retries[key].append(event)
            elif kind is MigrationAborted:
                for key in _dual_windows(event.t, self.window):
                    aborts[key].append(event)
        entries = []
        for grid, win in sorted(set(retries) | set(aborts)):
            n_retries = len(retries.get((grid, win), []))
            n_aborts = len(aborts.get((grid, win), []))
            if n_retries < self.warn_retries and n_aborts < self.critical_aborts:
                continue
            severity = (
                "critical" if n_aborts >= self.critical_aborts else "warning"
            )
            pages = sorted({
                (e.region, e.page)
                for e in retries.get((grid, win), []) + aborts.get((grid, win), [])
            })
            start, end = _window_span(grid, win, self.window)
            message = f"{n_retries} copy retries"
            if n_aborts:
                message += f" and {n_aborts} aborted migrations"
            message += (
                f" within {self.window:g}s — the migration path is stalling"
            )
            entries.append((grid, None, Finding(
                self.name, severity, max(start, 0.0), end, message,
                pages=pages, provenance=ctx.chains_for(pages),
                data={"retries": n_retries, "aborts": n_aborts},
            )))
        return _merge_grids(entries)


class ThrashDetector(Detector):
    """Same page completing DRAM↔NVM round trips inside a short window."""

    name = "placement-thrash"

    def __init__(self, window: float = 5.0, min_round_trips: int = 2):
        self.window = window
        self.min_round_trips = min_round_trips

    def scan(self, trace, ctx: HealthContext) -> List[Finding]:
        # Completions per page, in order; a round trip is two consecutive
        # completions in opposite directions.
        moves: Dict[Tuple[str, int], List[MigrationDone]] = defaultdict(list)
        for record in trace.migrations():
            done = record.done
            if done is not None:
                moves[(done.region, done.page)].append(done)
        thrashing: List[Tuple[str, int]] = []
        t_lo, t_hi = float("inf"), float("-inf")
        per_page: Dict[str, int] = {}
        for key, done in moves.items():
            trips = 0
            for prev, cur in zip(done, done[1:]):
                if prev.dst == cur.src and cur.dst == prev.src:
                    if cur.t - prev.t <= self.window:
                        trips += 1
                        t_lo = min(t_lo, prev.t)
                        t_hi = max(t_hi, cur.t)
            if trips >= self.min_round_trips:
                thrashing.append(key)
                per_page[f"{key[0]}[{key[1]}]"] = trips
        if not thrashing:
            return []
        thrashing.sort()
        severity = "critical" if len(thrashing) >= 8 else "warning"
        return [Finding(
            self.name, severity, t_lo, t_hi,
            f"{len(thrashing)} page(s) ping-ponged DRAM<->NVM "
            f">= {self.min_round_trips} round trips within {self.window:g}s "
            "windows — promotion and demotion are fighting",
            pages=thrashing, provenance=ctx.chains_for(thrashing),
            data={"round_trips": per_page},
        )]


class QuotaChurn(Detector):
    """A tenant's quota direction-flipping repeatedly (arbiter unstable)."""

    name = "quota-churn"

    def __init__(self, window: float = 2.0, min_flips: int = 4):
        self.window = window
        self.min_flips = min_flips

    def scan(self, trace, ctx: HealthContext) -> List[Finding]:
        updates: Dict[str, List[QuotaUpdated]] = defaultdict(list)
        for event in trace.events:
            if type(event) is QuotaUpdated:
                updates[event.tenant].append(event)
        findings = []
        for tenant, series in sorted(updates.items()):
            flips: List[QuotaUpdated] = []
            prev_dir = None
            for prev, cur in zip(series, series[1:]):
                direction = cur.quota_bytes > prev.quota_bytes
                if prev_dir is not None and direction != prev_dir:
                    flips.append(cur)
                prev_dir = direction
            # count flips inside a sliding window
            best, best_span = 0, (0.0, 0.0)
            for i, flip in enumerate(flips):
                j = i
                while (
                    j + 1 < len(flips)
                    and flips[j + 1].t - flip.t <= self.window
                ):
                    j += 1
                n = j - i + 1
                if n > best:
                    best, best_span = n, (flip.t, flips[j].t)
            if best >= self.min_flips:
                findings.append(Finding(
                    self.name, "warning", best_span[0], best_span[1],
                    f"tenant {tenant}: quota direction flipped {best}x "
                    f"within {self.window:g}s — the sharing policy is "
                    "oscillating",
                    data={"tenant": tenant, "flips": best,
                          "updates": len(series)},
                ))
        return findings


class DramFlatline(Detector):
    """DRAM occupancy flat while NVM pages keep classifying hot."""

    name = "dram-flatline"

    def __init__(self, min_duration: float = 2.0, min_hot_events: int = 8):
        self.min_duration = min_duration
        self.min_hot_events = min_hot_events

    def scan(self, trace, ctx: HealthContext) -> List[Finding]:
        # Change-points of DRAM occupancy, and NVM hot-classification times.
        change_times: List[float] = []
        hot_nvm: List[PageClassified] = []
        for event in trace.events:
            kind = type(event)
            if kind is PageFault:
                if event.fault == "missing" and event.tier == "DRAM":
                    change_times.append(event.t)
            elif kind is MigrationDone:
                if "DRAM" in (event.src, event.dst):
                    change_times.append(event.t)
            elif kind is PageClassified:
                if event.hot and event.tier == "NVM":
                    hot_nvm.append(event)
        if not hot_nvm:
            return []
        t_end = trace.time_span()[1]
        # Gaps between consecutive occupancy changes (plus the tail).
        edges = sorted(change_times) + [t_end]
        prev = edges[0] if change_times else 0.0
        findings = []
        for t in edges:
            gap = t - prev
            if gap >= self.min_duration:
                pressure = [e for e in hot_nvm if prev <= e.t <= t]
                if len(pressure) >= self.min_hot_events:
                    pages = sorted({(e.region, e.page) for e in pressure})
                    findings.append(Finding(
                        self.name, "warning", prev, t,
                        f"DRAM occupancy flat for {gap:.2f}s while "
                        f"{len(pressure)} NVM pages classified hot — "
                        "promotions are not landing",
                        pages=pages, provenance=ctx.chains_for(pages),
                        data={"gap_s": gap, "hot_events": len(pressure)},
                    ))
            prev = max(prev, t)
        return findings


class SloBurn(Detector):
    """A colo tenant bleeding DRAM to arbiter evictions at a high rate."""

    name = "slo-burn"

    def __init__(self, window: float = 1.0, warn_pages: int = 32,
                 critical_pages: int = 128):
        self.window = window
        self.warn_pages = warn_pages
        self.critical_pages = critical_pages

    def severity(self, pages) -> Optional[str]:
        """Burn severity of ``pages`` evicted within one window.

        ``None`` below ``warn_pages``.  The online controller classifies
        each tenant's per-window eviction delta with this too, so both
        share one definition of a burn.
        """
        if pages < self.warn_pages:
            return None
        return "critical" if pages >= self.critical_pages else "warning"

    def scan(self, trace, ctx: HealthContext) -> List[Finding]:
        evicted: Dict[Tuple[str, int, int], int] = defaultdict(int)
        for event in trace.events:
            if type(event) is TenantEvicted:
                for grid, win in _dual_windows(event.t, self.window):
                    evicted[(event.tenant, grid, win)] += event.pages
        entries = []
        for (tenant, grid, win), pages in sorted(evicted.items()):
            severity = self.severity(pages)
            if severity is None:
                continue
            start, end = _window_span(grid, win, self.window)
            entries.append((grid, tenant, Finding(
                self.name, severity, max(start, 0.0), end,
                f"tenant {tenant}: {pages} pages evicted from DRAM within "
                f"{self.window:g}s — sustained quota pressure is burning "
                "its SLO headroom",
                data={"tenant": tenant, "evicted_pages": pages},
            )))
        return _merge_grids(entries)


DEFAULT_DETECTORS: Tuple[Detector, ...] = (
    PebsLossSpike(),
    MigrationStallStorm(),
    ThrashDetector(),
    QuotaChurn(),
    DramFlatline(),
    SloBurn(),
)


def run_health(trace, detectors=None,
               max_chains_per_finding: int = 3) -> HealthReport:
    """Run ``detectors`` (default :data:`DEFAULT_DETECTORS`) over a trace."""
    if detectors is None:
        detectors = DEFAULT_DETECTORS
    ctx = HealthContext(trace, max_chains_per_finding=max_chains_per_finding)
    findings: List[Finding] = []
    for detector in detectors:
        findings.extend(detector.scan(trace, ctx))
    return HealthReport(findings, [d.name for d in detectors])
