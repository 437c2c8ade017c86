"""Per-tick metrics capture and per-run metric summaries.

A :class:`MetricsSampler` is attached to a machine (by
:mod:`repro.obs.runtime` or by hand) before the engine is built; the engine
then calls :meth:`MetricsSampler.sample` once per tick.  It records the
observability time series the paper's figures are built from:

- ``obs.dram_bytes`` / ``obs.nvm_bytes`` — placement split across all
  regions (Figs 6, 9: where the working set lives over time),
- ``obs.pebs_loss_rate`` — per-tick PEBS sample-loss fraction (Fig 10),
- ``obs.migration_queue_bytes`` — bytes queued across all data movers
  (migration backlog; Fig 9's dynamic phases).

Colocation runs additionally get per-tenant series prefixed with the
tenant name — ``obs.<tenant>.dram_bytes`` / ``.nvm_bytes`` /
``.pebs_loss_rate`` — so ``--metrics-out`` CSV columns from different
tenants never collide, and the machine-global loss rate aggregates every
tenant's *private* PEBS unit (in colo runs the machine-global unit sits
idle, which used to leave ``obs.pebs_loss_rate`` pinned at zero).

With a :mod:`repro.obs.telemetry` session installed, the sampler also
exports one snapshot per window boundary, read from live state.

:func:`metrics_summary` snapshots a machine's whole stats registry —
counters, histograms, and every recorded time series — into a JSON-able
dict, which is what the bench runner caches per case and what
``--metrics-out`` exports.
"""

from __future__ import annotations

# NOTE: nothing here may import repro.mem/repro.sim at module level —
# repro.obs sits below both in the import graph (the engine and the machine
# import it), so a top-level import would be circular.

from repro.obs import telemetry


class MetricsSampler:
    """Records per-tick observability series into the machine's stats."""

    def __init__(self, machine):
        # Deferred import: a machine exists, so repro.mem is fully loaded.
        from repro.mem.page import Tier

        self._dram_tier = Tier.DRAM
        self.machine = machine
        stats = machine.stats
        self._dram = stats.series("obs.dram_bytes")
        self._nvm = stats.series("obs.nvm_bytes")
        self._loss = stats.series("obs.pebs_loss_rate")
        self._queue = stats.series("obs.migration_queue_bytes")
        self._last_sampled = 0.0
        self._last_dropped = 0.0
        # per-region occupancy memo keyed by tier_version: most ticks move
        # nothing, so sampling must not rescan every region's tier array
        self._occupancy = {}
        # colocation: per-tenant series + loss bookkeeping, created lazily
        # the first tick a colo manager is seen (single-manager runs never
        # touch any of this beyond one getattr per tick)
        self._colo = None
        self._tenant_series = {}
        self._tenant_last = {}
        # live telemetry: base labels are taken lazily the first tick a
        # session is installed; with no session the publish path is the
        # single module-attribute test in sample() below
        self._labels = None
        self._next_pub = 0.0

    def sample(self, now: float, dt: float) -> None:
        """Record one tick's worth of samples (engine bookkeeping step)."""
        machine = self.machine
        dram, nvm = self._split(machine.regions)
        self._dram.record(now, float(dram))
        self._nvm.record(now, float(nvm))

        tenants = self._tenants()
        pebs_units = [machine.pebs]
        if tenants:
            pebs_units.extend(
                unit for unit in (
                    getattr(t.manager, "pebs_unit", None) for t in tenants
                ) if unit is not None
            )
        sampled = float(sum(u.records_sampled for u in pebs_units))
        dropped = float(sum(u.records_dropped for u in pebs_units))
        # deltas clamp at 0: a departing tenant takes its counters with it
        d_sampled = max(sampled - self._last_sampled, 0.0)
        d_dropped = max(dropped - self._last_dropped, 0.0)
        self._last_sampled, self._last_dropped = sampled, dropped
        total = d_sampled + d_dropped
        self._loss.record(now, d_dropped / total if total else 0.0)

        queued = sum(mover.pending_bytes for mover in machine.movers())
        self._queue.record(now, float(queued))

        if tenants:
            self._sample_tenants(tenants, now)

        # Live telemetry: publish a snapshot at each aligned window boundary.
        # With no session installed this is one module-attribute test; the
        # grid alignment means sharded and unsharded runs snapshot at the
        # same virtual instants, so their merged series line up pointwise.
        session = telemetry._session
        if session is not None and now + 1e-9 >= self._next_pub:
            self._publish(session, now, dram, nvm, sampled, dropped,
                          queued, tenants)
            self._next_pub = session.next_boundary(now)

    def tenant_departed(self, name: str) -> None:
        """Finalize a departed tenant's bookkeeping (colo churn hook).

        Only *active* tenants are sampled, so a departed tenant's
        ``obs.<tenant>.*`` series stop growing on their own — but the loss
        baseline must be dropped, or a same-name re-arrival (whose fresh
        PEBS unit restarts its counters at zero) would clamp against the
        previous incarnation's totals and report a zero loss rate until the
        new counters catch up.  The series objects are kept: a re-arrival
        appends to the same named series, which is what the exporters want.
        """
        self._tenant_last.pop(name, None)

    def _publish(self, session, now, dram, nvm, sampled, dropped,
                 queued, tenants) -> None:
        """Export one level snapshot of the machine's current state.

        Every quantity is read from the state that holds it: the values
        this tick sampled, the stats registry's allow-listed counters and
        histograms, the active tenants, and each engine service that
        defines ``export_metrics(put)`` (the serving monitor and
        controller).  Nothing is kept between windows, so a departed
        tenant's series end at its departure.

        Everything machine-global is *extensive* (bytes, cumulative
        counts): when a colo fleet is sharded across processes, each
        shard's machine holds a disjoint subset of the tenants, so the
        collector's pointwise sum over shard channels reproduces the
        unsharded machine's values exactly.  Ratio-shaped quantities
        (PEBS loss rate) are published only as their cumulative
        numerator/denominator counters — the frontends derive rates from
        window deltas.
        """
        if self._labels is None:
            self._labels = session.publisher_labels()
        base = self._labels
        metric_key = telemetry.metric_key
        counters = {}
        gauges = {}

        def put(name, value, **labels):
            """Record ``name{labels}``: a counter if it ends in ``_total``."""
            section = counters if name.endswith("_total") else gauges
            section[metric_key(name, {**base, **labels})] = float(value)

        put("dram_bytes", dram)
        put("nvm_bytes", nvm)
        put("migration_queue_bytes", queued)
        put("pebs_sampled_total", sampled)
        put("pebs_dropped_total", dropped)
        stats = self.machine.stats
        for name, value in stats.counters().items():
            scoped = _stats_metric(name, telemetry.STATS_COUNTERS)
            if scoped is not None:
                put(scoped[0], value, scope=scoped[1])
        histograms = {}
        for name, snapshot in stats.histograms().items():
            scoped = _stats_metric(name, telemetry.STATS_HISTOGRAMS)
            if scoped is not None:
                hist = dict(snapshot)
                del hist["name"]
                histograms[metric_key(scoped[0],
                                      {**base, "scope": scoped[1]})] = hist
        if tenants:
            for tenant in tenants:
                name = tenant.name
                t_dram, t_nvm = self._split(tenant.manager.managed_regions())
                put("dram_bytes", t_dram, tenant=name)
                put("nvm_bytes", t_nvm, tenant=name)
                put("hot_bytes", tenant.hot_bytes(), tenant=name)
                put("evicted_pages_total", tenant.evicted_pages, tenant=name)
                last = self._tenant_last.get(name)
                if last is not None:
                    put("pebs_sampled_total", last[0], tenant=name)
                    put("pebs_dropped_total", last[1], tenant=name)
        for service in self.machine.engine.services:
            export = getattr(service, "export_metrics", None)
            if export is not None:
                export(put)
        session.emit(now, counters, gauges, histograms)

    # -- helpers ---------------------------------------------------------------
    def _split(self, regions):
        """(dram, nvm) byte split over ``regions`` via the occupancy memo."""
        occupancy = self._occupancy
        dram = 0
        nvm = 0
        for region in regions:
            version = region.tier_version
            cached = occupancy.get(region.region_id)
            if cached is not None and cached[0] == version:
                in_dram = cached[1]
            else:
                in_dram = region.bytes_in(self._dram_tier)
                occupancy[region.region_id] = (version, in_dram)
            dram += in_dram
            nvm += region.size - in_dram
        return dram, nvm

    def _tenants(self):
        """Active colo tenants, or None when this is not a colo run."""
        if self._colo is None:
            engine = getattr(self.machine, "engine", None)
            manager = getattr(engine, "manager", None)
            if manager is None or not hasattr(manager, "active_tenants"):
                return None
            self._colo = manager
        return self._colo.active_tenants()

    def _sample_tenants(self, tenants, now: float) -> None:
        stats = self.machine.stats
        for tenant in tenants:
            name = tenant.name
            series = self._tenant_series.get(name)
            if series is None:
                prefix = f"obs.{name}"
                series = (
                    stats.series(f"{prefix}.dram_bytes"),
                    stats.series(f"{prefix}.nvm_bytes"),
                    stats.series(f"{prefix}.pebs_loss_rate"),
                )
                self._tenant_series[name] = series
            dram_s, nvm_s, loss_s = series
            dram, nvm = self._split(tenant.manager.managed_regions())
            dram_s.record(now, float(dram))
            nvm_s.record(now, float(nvm))
            unit = getattr(tenant.manager, "pebs_unit", None)
            if unit is None:
                continue
            sampled = float(unit.records_sampled)
            dropped = float(unit.records_dropped)
            last = self._tenant_last.get(name, (0.0, 0.0))
            d_sampled = max(sampled - last[0], 0.0)
            d_dropped = max(dropped - last[1], 0.0)
            self._tenant_last[name] = (sampled, dropped)
            total = d_sampled + d_dropped
            loss_s.record(now, d_dropped / total if total else 0.0)


def _stats_metric(name, table):
    """``(metric, scope)`` for a stats name ``<scope><suffix>`` whose suffix
    the export table lists, else ``None``."""
    for suffix, metric in table.items():
        if name.endswith(suffix):
            return metric, name[: -len(suffix)]
    return None


def metrics_summary(machine) -> dict:
    """JSON-able snapshot of everything the machine's stats registry holds.

    Includes counters (namespaced per manager), histogram states, and the
    full data of every time series (engine throughput, CPU utilisation, and
    the sampler's ``obs.*`` series when metrics capture was on).
    """
    stats = machine.stats
    return {
        "counters": stats.counters(),
        "histograms": stats.histograms(),
        "series": stats.series_data(),
    }
