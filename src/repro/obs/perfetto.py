"""Chrome ``trace_event`` / Perfetto exporter for simulation traces.

Renders a :class:`~repro.obs.replay.Trace` as a JSON document that loads
directly in ``ui.perfetto.dev`` (or ``chrome://tracing``):

- **migrations** become async slices (``ph: b``/``e``) named
  ``SRC->DST``, one per :meth:`Trace.migrations` record (this module
  pairs no events itself), with the record's retries as async-instant
  markers inside the slice and an abort closing it with
  ``aborted: true``;
- **service activations** become complete slices (``ph: X``) on one
  thread track per service, ``dur`` = the core-seconds charged;
- **per-tier occupancy, hot-page counts, PEBS loss, DMA bytes and tenant
  quotas** become counter tracks (``ph: C``), coalesced so each track
  emits at most one sample per distinct timestamp;
- **colocation tenants** become separate *processes* (``pid`` + process
  metadata), so Perfetto groups each tenant's migrations, quota and
  hot-set tracks under its own expandable header.

Timestamps are virtual-time microseconds (the format's native unit).

:func:`validate_chrome_trace` structurally checks a document against the
trace-event format contract — the slow test suite runs it on real exports.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.events import (
    CoolingPass,
    DmaTransfer,
    FaultInjected,
    FaultRecovered,
    MigrationDone,
    PageClassified,
    PageFault,
    PebsDrop,
    PolicyPass,
    QuotaUpdated,
    ServiceRun,
    TenantArrived,
    TenantDeparted,
)
from repro.obs.replay import Trace, tenant_of

_US = 1e6  # virtual seconds -> trace-event microseconds


def _ts(t: float) -> int:
    return int(round(t * _US))


class _ProcessTracks:
    """Track (tid / counter / async-id) bookkeeping for one pid."""

    def __init__(self, exporter: "_Exporter", pid: int, name: str, sort: int):
        self.exporter = exporter
        self.pid = pid
        self._tids: Dict[str, int] = {}
        exporter.out.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": name},
        })
        exporter.out.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_sort_index",
            "args": {"sort_index": sort},
        })

    def tid(self, thread: str) -> int:
        tid = self._tids.get(thread)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[thread] = tid
            self.exporter.out.append({
                "ph": "M", "pid": self.pid, "tid": tid, "name": "thread_name",
                "args": {"name": thread},
            })
        return tid


class _Exporter:
    """One trace -> trace-event list fold (see :func:`export_trace`)."""

    def __init__(self, first_pid: int = 1):
        self.out: List[dict] = []
        self._next_pid = first_pid
        self._next_async_id = 1
        # (pid, counter name) -> {ts_us: args}; emitted sorted at the end,
        # so repeated updates within one tick coalesce to the last value.
        self._counters: Dict[Tuple[int, str], Dict[int, dict]] = {}
        self._counter_state: Dict[Tuple[int, str], dict] = {}

    def new_process(self, name: str, sort: int) -> _ProcessTracks:
        pid = self._next_pid
        self._next_pid += 1
        return _ProcessTracks(self, pid, name, sort)

    def async_id(self) -> int:
        aid = self._next_async_id
        self._next_async_id += 1
        return aid

    def counter(self, pid: int, name: str, ts_us: int, updates: dict) -> None:
        key = (pid, name)
        state = self._counter_state.setdefault(key, {})
        state.update(updates)
        self._counters.setdefault(key, {})[ts_us] = dict(state)

    def flush_counters(self) -> None:
        for (pid, name), samples in self._counters.items():
            for ts_us in sorted(samples):
                self.out.append({
                    "ph": "C", "pid": pid, "tid": 0, "name": name,
                    "ts": ts_us, "args": samples[ts_us],
                })
        self._counters.clear()


def export_trace(trace: Trace, label: str = "machine",
                 exporter: Optional[_Exporter] = None) -> List[dict]:
    """Fold one trace into a trace-event list (shared ``exporter`` allows
    several traces — bench cases — in one document without pid clashes).

    Raises ``ValueError`` on a migration end without a start, as
    :meth:`Trace.migrations` does."""
    own = exporter is None
    if own:
        exporter = _Exporter()
    events = trace.events

    # Tenants become processes; pre-scan so their pids exist up front.
    tenants = []
    for event in events:
        if type(event) is TenantArrived and event.tenant not in tenants:
            tenants.append(event.tenant)
    machine = exporter.new_process(label, sort=0)
    tenant_procs = {
        name: exporter.new_process(f"{label} · tenant {name}", sort=i + 1)
        for i, name in enumerate(tenants)
    }

    def proc_for(region: str) -> _ProcessTracks:
        tenant = tenant_of(region, tenants)
        return tenant_procs[tenant] if tenant is not None else machine

    out = exporter.out
    occupancy: Dict[str, int] = {}
    hot_pages: Dict[Tuple[int, str], int] = {}
    pebs_lost = 0
    dma_bytes: Dict[str, int] = {}
    last_ts = 0

    for event in events:
        kind = type(event)
        ts = _ts(event.t)
        last_ts = max(last_ts, ts)

        if kind is ServiceRun:
            out.append({
                "ph": "X", "pid": machine.pid,
                "tid": machine.tid(event.service),
                "name": event.service, "cat": "service", "ts": ts,
                "dur": max(int(round(event.cpu * _US)), 0),
            })
        elif kind is MigrationDone:
            occupancy[event.src] = occupancy.get(event.src, 0) - event.nbytes
            occupancy[event.dst] = occupancy.get(event.dst, 0) + event.nbytes
            exporter.counter(machine.pid, "tier occupancy (bytes)", ts, {
                tier: occupancy.get(tier, 0) for tier in ("DRAM", "NVM")
            })
        elif kind is PageFault:
            if event.fault == "missing":
                occupancy[event.tier] = occupancy.get(event.tier, 0) + event.nbytes
                exporter.counter(machine.pid, "tier occupancy (bytes)", ts, {
                    tier: occupancy.get(tier, 0) for tier in ("DRAM", "NVM")
                })
        elif kind is PageClassified:
            proc = proc_for(event.region)
            key = (proc.pid, event.tier)
            hot_pages[key] = hot_pages.get(key, 0) + (1 if event.hot else -1)
            exporter.counter(proc.pid, "hot pages", ts, {
                event.tier: hot_pages[key],
            })
        elif kind is PebsDrop:
            pebs_lost += event.n
            exporter.counter(machine.pid, "pebs lost (cum.)", ts, {
                "records": pebs_lost,
            })
        elif kind is DmaTransfer:
            dma_bytes[event.mover] = dma_bytes.get(event.mover, 0) + event.nbytes
            exporter.counter(machine.pid, f"dma bytes · {event.mover}", ts, {
                "bytes": dma_bytes[event.mover],
            })
        elif kind is QuotaUpdated:
            proc = tenant_procs.get(event.tenant, machine)
            exporter.counter(proc.pid, "dram quota (bytes)", ts, {
                "bytes": event.quota_bytes,
            })
            out.append({
                "ph": "i", "pid": proc.pid, "tid": proc.tid("arbiter"),
                "name": f"quota {event.reason or 'updated'}", "cat": "colo",
                "ts": ts, "s": "t",
                "args": {"quota_bytes": event.quota_bytes},
            })
        elif kind is TenantArrived:
            proc = tenant_procs.get(event.tenant, machine)
            out.append({
                "ph": "i", "pid": proc.pid, "tid": proc.tid("lifecycle"),
                "name": "tenant arrived", "cat": "colo", "ts": ts, "s": "p",
            })
        elif kind is TenantDeparted:
            proc = tenant_procs.get(event.tenant, machine)
            out.append({
                "ph": "i", "pid": proc.pid, "tid": proc.tid("lifecycle"),
                "name": "tenant departed", "cat": "colo", "ts": ts, "s": "p",
                "args": {"freed_pages": event.freed_pages},
            })
        elif kind is CoolingPass:
            out.append({
                "ph": "i", "pid": machine.pid, "tid": machine.tid("tracker"),
                "name": f"cooling clock -> {event.clock}", "cat": "tracker",
                "ts": ts, "s": "t",
            })
        elif kind is PolicyPass:
            out.append({
                "ph": "i", "pid": machine.pid, "tid": machine.tid("policy"),
                "name": "policy pass", "cat": "policy", "ts": ts, "s": "t",
                "args": {"promoted": event.promoted, "demoted": event.demoted},
            })
        elif kind is FaultInjected:
            out.append({
                "ph": "i", "pid": machine.pid, "tid": machine.tid("faults"),
                "name": f"inject {event.fault}", "cat": "fault", "ts": ts,
                "s": "g", "args": {"value": event.value},
            })
        elif kind is FaultRecovered:
            out.append({
                "ph": "i", "pid": machine.pid, "tid": machine.tid("faults"),
                "name": f"recover {event.fault}", "cat": "fault", "ts": ts,
                "s": "g",
            })

    # One async slice per migration record, ids in start order; a slice
    # still in flight at the end of the trace closes at its last timestamp
    # so every "b" has its "e" (the balance validate_chrome_trace checks).
    for record in trace.migrations():
        start = record.start
        track = {"pid": proc_for(start.region).pid, "tid": 0,
                 "cat": "migration", "id": exporter.async_id()}
        out.append({
            "ph": "b", **track, "name": f"{start.src}->{start.dst}",
            "ts": _ts(start.t),
            "args": {"region": start.region, "page": start.page,
                     "reason": start.reason},
        })
        for retry in record.retries:
            out.append({
                "ph": "n", **track, "name": f"retry #{retry.attempt}",
                "ts": _ts(retry.t),
                "args": {"backoff_ms": retry.backoff * 1e3},
            })
        end = record.done if record.completed else record.aborted
        if end is None:
            name, ts = "in-flight", last_ts
            args = {"unfinished": True, "region": start.region,
                    "page": start.page}
        else:
            name, ts = f"{end.src}->{end.dst}", _ts(end.t)
            args = ({"latency_ms": end.latency * 1e3} if record.completed
                    else {"aborted": True, "attempts": end.attempts})
        out.append({"ph": "e", **track, "name": name, "ts": ts, "args": args})

    if own:
        exporter.flush_counters()
    return exporter.out


def export_traces(traces: Dict[str, object]) -> dict:
    """Fold several labelled traces into one document (label -> Trace)."""
    exporter = _Exporter()
    for label, trace in traces.items():
        export_trace(trace, label=label, exporter=exporter)
    exporter.flush_counters()
    return perfetto_document(exporter.out)


def perfetto_document(events: List[dict]) -> dict:
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_file(traces: Dict[str, object], path) -> dict:
    """Write :func:`export_traces` output to ``path``; returns the doc."""
    doc = export_traces(traces)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


# -- validation ---------------------------------------------------------------

_KNOWN_PH = {"B", "E", "X", "i", "I", "C", "b", "e", "n", "M",
             "s", "t", "f", "P", "N", "O", "D"}
_TS_OPTIONAL_PH = {"M"}


def validate_chrome_trace(doc) -> List[str]:
    """Structurally validate a Chrome trace-event JSON document.

    Returns a list of problems (empty when the document conforms): the
    object-format envelope, per-event required fields (``ph``/``name``/
    ``ts``/``pid``/``tid``), phase-specific requirements (``dur`` on
    ``X``, ``id``+``cat`` on async events, numeric ``args`` on ``C``),
    and async begin/end balance per ``(pid, cat, id)``.
    """
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not an object with a traceEvents array"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not an array"]
    async_depth: Dict[Tuple, int] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PH:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                problems.append(f"{where}: {field} must be an int")
        if ph not in _TS_OPTIONAL_PH:
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"{where}: missing numeric ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0")
        if ph == "C":
            args = ev.get("args")
            if (
                not isinstance(args, dict)
                or not args
                or not all(isinstance(v, (int, float)) for v in args.values())
            ):
                problems.append(f"{where}: C event needs numeric args")
        if ph in ("b", "e", "n"):
            if "id" not in ev:
                problems.append(f"{where}: async event needs an id")
            if not isinstance(ev.get("cat"), str) or not ev["cat"]:
                problems.append(f"{where}: async event needs a cat")
            key = (ev.get("pid"), ev.get("cat"), ev.get("id"))
            if ph == "b":
                depth = async_depth.get(key, 0)
                if depth > 0:
                    problems.append(f"{where}: async id reused while open: {key}")
                async_depth[key] = depth + 1
            elif ph == "e":
                depth = async_depth.get(key, 0)
                if depth <= 0:
                    problems.append(f"{where}: async end without begin: {key}")
                else:
                    async_depth[key] = depth - 1
            else:  # "n": instant inside an open slice
                if async_depth.get(key, 0) <= 0:
                    problems.append(f"{where}: async instant outside a slice: {key}")
    for key, depth in async_depth.items():
        if depth != 0:
            problems.append(f"async slice never closed: {key}")
    return problems
