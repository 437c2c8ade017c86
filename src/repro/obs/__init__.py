"""Structured observability for the simulator (tracing + metrics).

``repro.obs`` exposes the simulator's internal dynamics — migration
lifecycles, PEBS sample drops, cooling passes, policy decisions, service
scheduling — as a typed, timestamped event stream (:mod:`repro.obs.trace`)
plus derived per-run metrics (:mod:`repro.obs.metrics`).  Both are strictly
opt-in: with observability disabled every instrumentation site is a single
``is None`` check.  :mod:`repro.obs.spans` profiles the layers with timing
wrappers installed only while ``REPRO_PROFILE`` or ``--profile-out`` asks.

Three ways in:

- explicit: ``machine.install_tracer(Tracer())`` before building the engine,
- scoped: ``with obs.capture(trace=True) as cap: ...`` auto-instruments
  every :class:`~repro.mem.machine.Machine` created inside the block,
- CLI: ``python -m repro.bench fig9 --trace-out trace.json`` (and
  ``--metrics-out``) through the bench runner.

Traces round-trip through :mod:`repro.obs.replay`, which computes derived
views (migration latencies, migration-rate time series, tier byte deltas).

:mod:`repro.obs.telemetry` is the *in-run* counterpart: on the window
grid each machine's :class:`MetricsSampler` exports one snapshot read
from live state (its own samples, the stats registry, and the serving
services' ``export_metrics``), spooled per worker and merged fleet-wide
by a parent-side collector, with Prometheus export and the ``bench
watch`` dashboard on top (DESIGN.md §15).

On top of the event stream sits the diagnosis layer:
:mod:`repro.obs.diagnose` folds a trace into per-page placement
provenance (``explain(region, page)``), :mod:`repro.obs.perfetto`
exports Perfetto/Chrome trace-event timelines, and
:mod:`repro.obs.health` runs pluggable anomaly detectors over a trace.
"""

from repro.obs.diagnose import PlacementProvenance, ProvenanceStep
from repro.obs.events import (
    CoolingPass,
    DmaTransfer,
    EVENT_KINDS,
    MigrationDone,
    MigrationStart,
    PageClassified,
    PageFault,
    PebsDrain,
    PebsDrop,
    PolicyPass,
    ServiceRun,
    event_from_dict,
    event_to_dict,
)
from repro.obs.health import (
    DEFAULT_DETECTORS,
    Detector,
    Finding,
    HealthReport,
    run_health,
)
from repro.obs import telemetry
from repro.obs.metrics import MetricsSampler, metrics_summary
from repro.obs.perfetto import (
    export_traces,
    perfetto_document,
    validate_chrome_trace,
)
from repro.obs.replay import Trace, load_bench_export
from repro.obs.runtime import capture, capture_active, is_metrics, is_tracing
from repro.obs.stream import (
    StreamingTracer,
    TraceSegmentWriter,
    iter_segment_events,
    load_segment_trace,
)
from repro.obs.trace import Tracer

__all__ = [
    "CoolingPass",
    "DEFAULT_DETECTORS",
    "Detector",
    "DmaTransfer",
    "EVENT_KINDS",
    "Finding",
    "HealthReport",
    "MetricsSampler",
    "MigrationDone",
    "MigrationStart",
    "PageClassified",
    "PageFault",
    "PebsDrain",
    "PebsDrop",
    "PlacementProvenance",
    "PolicyPass",
    "ProvenanceStep",
    "ServiceRun",
    "StreamingTracer",
    "Trace",
    "TraceSegmentWriter",
    "Tracer",
    "capture",
    "capture_active",
    "event_from_dict",
    "event_to_dict",
    "export_traces",
    "is_metrics",
    "is_tracing",
    "iter_segment_events",
    "load_bench_export",
    "load_segment_trace",
    "metrics_summary",
    "perfetto_document",
    "telemetry",
    "run_health",
    "validate_chrome_trace",
]
