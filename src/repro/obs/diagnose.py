"""Placement provenance: fold a trace into per-page decision lineage.

HeMem's output is *where pages end up*; this module answers *why*.  A
:class:`PlacementProvenance` folds the event stream — first-touch
placements, hot/cold classification flips, policy and arbiter migration
decisions, copy retries/aborts, quota changes, fault injections — into an
ordered causal chain per page, exposed as :meth:`explain`::

    prov = PlacementProvenance.from_trace(trace)
    for step in prov.explain("t0.heap", 3):
        print(step.t, step.action, step.detail)

Each page's chain is ring-buffer bounded (``max_steps_per_page``), so
memory stays O(pages tracked) regardless of trace length; the number of
steps dropped from the front is recorded per page.  Cross-cutting context
(tenant quota history, active injected faults) is kept as bounded
per-tenant / global state and cited *inside* the implicated steps — an
arbiter eviction step names the quota shrink that caused it — rather than
stored per page.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.obs.events import (
    FaultInjected,
    FaultRecovered,
    MigrationAborted,
    MigrationDone,
    MigrationRetried,
    MigrationStart,
    PageClassified,
    PageFault,
    QuotaUpdated,
    TenantArrived,
    TenantDeparted,
)
from repro.obs.replay import tenant_of


class ProvenanceStep(NamedTuple):
    """One link in a page's causal chain."""

    t: float
    action: str  # short machine-readable label ("placed", "promoted", ...)
    detail: str  # human-readable explanation, context already folded in
    event: object  # the underlying trace event (None for synthetic steps)

    def __str__(self) -> str:
        return f"t={self.t:.3f}s {self.action}: {self.detail}"


class PageLineage:
    """The bounded decision history of one page."""

    __slots__ = ("region", "page", "steps", "dropped", "tier", "hot")

    def __init__(self, region: str, page: int, max_steps: int):
        self.region = region
        self.page = page
        self.steps: Deque[ProvenanceStep] = deque(maxlen=max_steps)
        self.dropped = 0  # steps evicted from the front of the ring
        self.tier: Optional[str] = None  # last known residence
        self.hot: Optional[bool] = None  # last known classification

    def append(self, step: ProvenanceStep) -> None:
        if (
            self.steps.maxlen is not None
            and len(self.steps) == self.steps.maxlen
        ):
            self.dropped += 1
        self.steps.append(step)


class PlacementProvenance:
    """Folds an event stream into per-page lineages (offline or live)."""

    def __init__(self, max_steps_per_page: int = 64):
        if max_steps_per_page < 1:
            raise ValueError(
                f"max_steps_per_page must be >= 1: {max_steps_per_page}"
            )
        self.max_steps_per_page = max_steps_per_page
        self._pages: Dict[Tuple[str, int], PageLineage] = {}
        self._tenants: List[str] = []
        #: tenant -> most recent QuotaUpdated (and the last *shrink*, which
        #: is what arbiter evictions cite)
        self._last_quota: Dict[str, QuotaUpdated] = {}
        self._last_shrink: Dict[str, QuotaUpdated] = {}
        #: fault name -> injection event, for faults currently active
        self._active_faults: Dict[str, FaultInjected] = {}

    # -- construction --------------------------------------------------------
    @classmethod
    def from_trace(cls, trace, max_steps_per_page: int = 64) -> "PlacementProvenance":
        """Fold a :class:`~repro.obs.replay.Trace` (or any event iterable)."""
        prov = cls(max_steps_per_page=max_steps_per_page)
        events = getattr(trace, "events", trace)
        for event in events:
            prov.feed(event)
        return prov

    # -- folding -------------------------------------------------------------
    def feed(self, event) -> None:
        """Apply one event to the provenance state."""
        kind = type(event)
        if kind is PageFault:
            if event.fault == "missing":
                self._on_placed(event)
            else:
                self._on_wp_fault(event)
        elif kind is PageClassified:
            self._on_classified(event)
        elif kind is MigrationStart:
            self._on_migration_start(event)
        elif kind is MigrationDone:
            self._on_migration_done(event)
        elif kind is MigrationRetried:
            self._on_migration_retried(event)
        elif kind is MigrationAborted:
            self._on_migration_aborted(event)
        elif kind is QuotaUpdated:
            self._last_quota[event.tenant] = event
            if event.reason.endswith(":shrink"):
                self._last_shrink[event.tenant] = event
        elif kind is TenantArrived:
            if event.tenant not in self._tenants:
                self._tenants.append(event.tenant)
        elif kind is TenantDeparted:
            self._last_quota.pop(event.tenant, None)
            self._last_shrink.pop(event.tenant, None)
        elif kind is FaultInjected:
            self._active_faults[event.fault] = event
        elif kind is FaultRecovered:
            self._active_faults.pop(event.fault, None)

    # -- queries -------------------------------------------------------------
    def explain(self, region: str, page: int) -> List[ProvenanceStep]:
        """The ordered causal chain of one page (empty if never seen)."""
        lineage = self._pages.get((region, int(page)))
        if lineage is None:
            return []
        return list(lineage.steps)

    def explain_text(self, region: str, page: int) -> str:
        """Human-readable rendering of :meth:`explain`, one step per line."""
        lineage = self._pages.get((region, int(page)))
        if lineage is None:
            return f"{region}[{page}]: no recorded history"
        header = f"{region}[{page}]"
        tenant = self.tenant_of(region)
        if tenant is not None:
            header += f" (tenant {tenant})"
        lines = [header]
        if lineage.dropped:
            lines.append(f"  ... {lineage.dropped} earlier steps dropped")
        lines.extend(f"  {step}" for step in lineage.steps)
        return "\n".join(lines)

    def lineage(self, region: str, page: int) -> Optional[PageLineage]:
        return self._pages.get((region, int(page)))

    def pages(self) -> Iterable[Tuple[str, int]]:
        """Every (region, page) with recorded history."""
        return self._pages.keys()

    def tenant_of(self, region: str) -> Optional[str]:
        """Map a region name to its colocation tenant (None outside colo);
        see :func:`repro.obs.replay.tenant_of`."""
        return tenant_of(region, self._tenants)

    def __len__(self) -> int:
        return len(self._pages)

    # -- per-event folds -----------------------------------------------------
    def _lineage(self, region: str, page: int) -> PageLineage:
        key = (region, page)
        lineage = self._pages.get(key)
        if lineage is None:
            lineage = PageLineage(region, page, self.max_steps_per_page)
            self._pages[key] = lineage
        return lineage

    def _on_placed(self, event: PageFault) -> None:
        lineage = self._lineage(event.region, event.page)
        lineage.tier = event.tier
        why = f" ({event.reason})" if event.reason else ""
        lineage.append(ProvenanceStep(
            event.t, "placed",
            f"first touch installed in {event.tier}{why}", event,
        ))

    def _on_wp_fault(self, event: PageFault) -> None:
        lineage = self._lineage(event.region, event.page)
        lineage.append(ProvenanceStep(
            event.t, "wp-stall",
            f"store hit the page while write-protected in {event.tier} "
            "(writer stalls until the copy finishes)", event,
        ))

    def _on_classified(self, event: PageClassified) -> None:
        lineage = self._lineage(event.region, event.page)
        lineage.hot = event.hot
        label = "hot" if event.hot else "cold"
        lineage.append(ProvenanceStep(
            event.t, f"classified-{label}",
            f"sampled {label} in {event.tier} "
            f"(reads={event.reads}, writes={event.writes})", event,
        ))

    def _on_migration_start(self, event: MigrationStart) -> None:
        lineage = self._lineage(event.region, event.page)
        why = event.reason or "unlabelled"
        detail = f"copy {event.src}->{event.dst} submitted ({why})"
        if event.reason == "arbiter-evict":
            tenant = self.tenant_of(event.region)
            shrink = self._last_shrink.get(tenant) if tenant else None
            if shrink is not None:
                detail += (
                    f"; tenant quota shrank to {shrink.quota_bytes} bytes "
                    f"at t={shrink.t:.3f}s ({shrink.reason})"
                )
        lineage.append(ProvenanceStep(event.t, "migration-start", detail, event))

    def _on_migration_done(self, event: MigrationDone) -> None:
        lineage = self._lineage(event.region, event.page)
        lineage.tier = event.dst
        action = "promoted" if event.dst == "DRAM" else "demoted"
        lineage.append(ProvenanceStep(
            event.t, action,
            f"remapped {event.src}->{event.dst} "
            f"(copy latency {event.latency * 1e3:.2f} ms)", event,
        ))

    def _on_migration_retried(self, event: MigrationRetried) -> None:
        lineage = self._lineage(event.region, event.page)
        detail = (
            f"copy failed, retry #{event.attempt} "
            f"after {event.backoff * 1e3:.0f} ms backoff"
        )
        if self._active_faults:
            names = ", ".join(sorted(self._active_faults))
            detail += f" (active injected faults: {names})"
        lineage.append(ProvenanceStep(event.t, "migration-retried", detail, event))

    def _on_migration_aborted(self, event: MigrationAborted) -> None:
        lineage = self._lineage(event.region, event.page)
        lineage.tier = event.src
        lineage.append(ProvenanceStep(
            event.t, "migration-aborted",
            f"copy {event.src}->{event.dst} abandoned after "
            f"{event.attempts} attempts; page stays in {event.src}", event,
        ))
