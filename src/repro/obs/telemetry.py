"""Live telemetry plane: in-run metric collection, merging, and export.

Everything else in ``repro.obs`` is post-hoc — traces, replay, health
reports all exist only after the run finishes.  This module is the
*in-run* half: an exporter that the metrics sampler drives at window
boundaries (it reads each quantity from the state that already holds it
and keeps no copy between windows), a cross-process spool protocol so
sharded runs produce one coherent view, and two live frontends (a
Prometheus text exporter and the ``bench watch`` dashboard).

Pieces, bottom up:

- :func:`metric_key` — canonical ``name{label="v",...}`` series keys
  (sorted labels, Prometheus-style), so merged series compare key for
  key across runs and shard layouts.  Names ending in ``_total`` are
  cumulative counters, everything else an instantaneous gauge.
- :data:`STATS_COUNTERS` / :data:`STATS_HISTOGRAMS` — the export format
  of the stats registry's allow-listed counters and histograms.
- :class:`TelemetrySession` + :func:`session` — the process-global
  opt-in scope, mirroring :mod:`repro.obs.runtime`'s capture discipline:
  with no session installed (:func:`active` is ``None``) the publish
  site reduces to one attribute test, allocating and formatting nothing.
  Each worker process installs its own session around its case, spooling
  level snapshots (every metric's value at one instant) to a per-worker
  JSONL *channel* (:class:`JsonlSink`).
- :class:`Collector` — the parent-side merge: reads every channel under
  a spool root and folds the snapshots into fleet-wide series.  Keys
  carrying disjoint labels (per-tenant series of a sharded fleet) merge
  by union; the same key appearing in several channels (machine-global
  extensive quantities: bytes, cumulative counts) merges by pointwise
  *sum* — which is exactly the unsharded machine's value, since shards
  partition the tenants.  Ratio-shaped quantities are therefore only
  published per tenant, or as the cumulative numerator/denominator
  counters they derive from.
- :func:`render_prometheus` / :func:`serve_metrics` — the Prometheus
  text-format exposition of a collected spool, and a background
  ``http.server`` thread serving it at ``/metrics`` while the run is
  still writing.
- Profiling rows: sessions opened with ``profile=True`` run their scope
  under the span wrappers of :mod:`repro.obs.spans` and spool one
  span-tree row on exit; :func:`merge_profiles` folds the per-worker
  rows into one aggregate with flamegraph-ready collapsed-stack lines.

Nothing here imports ``repro.mem``/``repro.sim`` at module level —
``repro.obs`` sits below both in the import graph.
"""

from __future__ import annotations

import json
import os
import re
import threading
from math import inf
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import spans

#: default publish window (virtual seconds): every sampler publishes on
#: this aligned grid, so sharded and unsharded runs snapshot at the same
#: instants and their merged series line up point for point.
DEFAULT_INTERVAL = 0.5

#: stats-registry counter suffixes exported at each window boundary,
#: mapped to their telemetry metric name.  The scope prefix
#: (manager or tenant name) becomes a ``scope`` label, so per-tenant
#: counters of a sharded fleet merge by label union.
STATS_COUNTERS = {
    ".pages_migrated": "pages_migrated_total",
    ".pages_promoted": "pages_promoted_total",
    ".pages_demoted": "pages_demoted_total",
    ".demotions_nocopy": "demotions_nocopy_total",
    ".migration_retries": "migration_retries_total",
    ".migrations_aborted": "migrations_aborted_total",
    ".evicted_pages": "evicted_pages_total",
}

#: stats-registry histogram suffixes exported the same way
STATS_HISTOGRAMS = {
    ".migration_latency_s": "migration_latency_seconds",
}


def metric_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """Canonical series key: ``name`` or ``name{k="v",...}``, labels sorted."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{_escape_label(str(labels[k]))}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


_KEY_RE = re.compile(r"^([^{]+)(?:\{(.*)\})?$")
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key` (label escapes folded back)."""
    match = _KEY_RE.match(key)
    if match is None:
        raise ValueError(f"malformed metric key: {key!r}")
    name, inner = match.group(1), match.group(2)
    labels: Dict[str, str] = {}
    if inner:
        for label_match in _LABEL_RE.finditer(inner):
            raw = label_match.group(2)
            labels[label_match.group(1)] = (
                raw.replace(r"\n", "\n").replace(r"\"", '"')
                .replace(r"\\", "\\")
            )
    return name, labels


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

class MemorySink:
    """In-memory sink (tests, programmatic use): a list of emitted rows."""

    def __init__(self):
        self.rows: List[dict] = []

    def emit(self, row: dict) -> None:
        self.rows.append(row)

    def close(self) -> None:
        pass


class JsonlSink:
    """Per-worker JSONL channel: one header row, then snapshot/profile rows.

    Every row is flushed as written so a parent-side :class:`Collector`
    (or ``bench watch``) sees the channel grow while the run is live.
    """

    def __init__(self, path: str, labels: Optional[Dict[str, str]] = None):
        self.path = str(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.labels = dict(labels or {})
        self.rows_written = 0
        self._fh = None

    def emit(self, row: dict) -> None:
        if self._fh is None:
            self._fh = open(self.path, "w")
            header = {"kind": "channel", "version": 1, "labels": self.labels}
            self._fh.write(json.dumps(header))
            self._fh.write("\n")
        self._fh.write(json.dumps(row))
        self._fh.write("\n")
        self._fh.flush()
        self.rows_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# session (the process-global opt-in scope)
# ---------------------------------------------------------------------------

_session: Optional["TelemetrySession"] = None


def active() -> Optional["TelemetrySession"]:
    """The installed session, or ``None`` (the publish-site guard)."""
    return _session


def profiling_active() -> bool:
    """True when an installed session asked for structured profiling."""
    return _session is not None and _session.profile


class TelemetrySession:
    """One process's telemetry scope: publisher labels, cadence, the sink.

    Each publisher (machine) asks :meth:`publisher_labels` once and calls
    :meth:`emit` with its snapshot at each window boundary.  ``interval``
    is virtual seconds on an aligned grid (see :meth:`next_boundary`).
    """

    def __init__(self, sink, interval: float = DEFAULT_INTERVAL,
                 profile: bool = False):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.sink = sink
        self.interval = interval
        self.profile = profile
        self.snapshots = 0
        self.profiles = 0
        self._publishers = 0

    def publisher_labels(self) -> Dict[str, str]:
        """Base labels for one publisher's keys.  The first is unlabelled;
        later ones get a ``run`` label, so sequential engines (whose
        virtual clocks each restart at zero) never interleave a series."""
        index = self._publishers
        self._publishers += 1
        return {} if index == 0 else {"run": str(index)}

    def next_boundary(self, now: float) -> float:
        """First grid point strictly after ``now`` (grid = k * interval)."""
        return (int(now / self.interval + 1e-9) + 1) * self.interval

    def emit(self, t: float, counters: Dict[str, float],
             gauges: Dict[str, float],
             histograms: Optional[Dict[str, dict]] = None) -> None:
        """Spool one level snapshot: every metric's value at time ``t``."""
        row: Dict[str, Any] = {"kind": "snapshot", "t": t,
                               "counters": counters, "gauges": gauges}
        if histograms:
            row["histograms"] = histograms
        self.sink.emit(row)
        self.snapshots += 1

    def add_profile(self, payload: dict) -> None:
        """Spool one structured profiling record (one per session)."""
        row = {"kind": "profile", "version": 2}
        row.update(payload)
        self.sink.emit(row)
        self.profiles += 1

    # -- scope ---------------------------------------------------------------
    def __enter__(self) -> "TelemetrySession":
        global _session
        if _session is not None:
            raise RuntimeError("a telemetry session is already installed")
        self._profile = spans.Profile().__enter__() if self.profile else None
        _session = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _session
        if _session is not self:
            raise RuntimeError("telemetry sessions must unwind LIFO")
        _session = None
        if self._profile is not None:
            self._profile.__exit__(exc_type, exc, tb)
            self.add_profile(self._profile.row())
        self.sink.close()


def session(sink, interval: float = DEFAULT_INTERVAL,
            profile: bool = False) -> TelemetrySession:
    """Shorthand: ``with telemetry.session(JsonlSink(path)): ...``."""
    return TelemetrySession(sink, interval=interval, profile=profile)


# ---------------------------------------------------------------------------
# the parent-side collector
# ---------------------------------------------------------------------------

def _relabel(key: str, extra: Dict[str, str]) -> str:
    """Fold channel-identity labels into a series key (collector-side)."""
    name, labels = parse_key(key)
    merged = dict(extra)
    merged.update(labels)  # snapshot's own labels win on collision
    return metric_key(name, merged)


def merge_histogram(into: Optional[dict], snapshot: dict) -> dict:
    """Fold one histogram snapshot into an accumulator (sum semantics)."""
    if into is None:
        return {
            "bounds": list(snapshot["bounds"]),
            "counts": list(snapshot["counts"]),
            "count": snapshot["count"],
            "total": snapshot["total"],
            "min": snapshot["min"],
            "max": snapshot["max"],
        }
    if list(into["bounds"]) != list(snapshot["bounds"]):
        raise ValueError("cannot merge histograms with different bounds")
    into["counts"] = [a + b for a, b in zip(into["counts"],
                                            snapshot["counts"])]
    into["count"] += snapshot["count"]
    into["total"] += snapshot["total"]
    for side, pick in (("min", min), ("max", max)):
        a, b = into[side], snapshot[side]
        if a is None:
            into[side] = b
        elif b is not None:
            into[side] = pick(a, b)
    return into


class Collector:
    """Merge every JSONL channel under a spool root into fleet-wide series.

    The spool layout is ``<root>/<experiment>/<case>.jsonl`` (bare
    ``<root>/*.jsonl`` channels land under experiment ``""``).  Channels
    are re-read in full on every :meth:`collect` — they are small
    (window-cadence rows) and the reader must tolerate a live writer, so
    a partial trailing line is simply skipped.

    Merge semantics hinge on the channel header's labels: a channel
    marked ``merge: "sum"`` (fleet shards of a shardable experiment)
    keeps its keys bare, so the same key across shard channels sums
    pointwise into the unsharded machine's values; every other channel's
    ``case`` identity is folded into its keys as a ``case`` label, so
    unrelated cases (different systems, configs) never sum into one
    series.
    """

    def __init__(self, root: str):
        self.root = str(root)

    def channels(self) -> List[str]:
        """Relative channel paths under the root, sorted."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(".jsonl"):
                    full = os.path.join(dirpath, filename)
                    found.append(os.path.relpath(full, self.root))
        return sorted(found)

    def collect(self) -> dict:
        """One merged, JSON-able document over the whole spool root."""
        experiments: Dict[str, dict] = {}
        profiles: List[dict] = []
        for rel in self.channels():
            experiment = os.path.dirname(rel).replace(os.sep, "/")
            exp = experiments.setdefault(experiment, {
                "channels": [],
                "_series": {},      # key -> {t: summed value}
                "_types": {},       # key -> "counter" | "gauge"
                "_hists": {},       # key -> {t: merged snapshot}
            })
            labels: Dict[str, str] = {}
            extra: Dict[str, str] = {}
            snapshots = 0
            channel_profiles = 0
            for row in self._read_rows(os.path.join(self.root, rel)):
                kind = row.get("kind")
                if kind == "channel":
                    labels = row.get("labels", {})
                    # Sum-merged channels (fleet shards) keep their keys
                    # bare, so shard series fold into the unsharded view;
                    # any other channel's case identity becomes a label —
                    # unrelated cases must not sum into one series.
                    if labels.get("merge") != "sum" and "case" in labels:
                        extra = {"case": labels["case"]}
                elif kind == "snapshot":
                    snapshots += 1
                    self._fold_snapshot(exp, row, extra)
                elif kind == "profile":
                    channel_profiles += 1
                    entry = dict(row)
                    entry["experiment"] = experiment
                    entry["channel_labels"] = labels
                    profiles.append(entry)
            exp["channels"].append({
                "file": rel.replace(os.sep, "/"),
                "labels": labels,
                "snapshots": snapshots,
                "profiles": channel_profiles,
            })
        doc: Dict[str, Any] = {"kind": "telemetry", "version": 1,
                               "experiments": {}}
        for name, exp in experiments.items():
            series = {}
            for key in sorted(exp["_series"]):
                points = sorted(exp["_series"][key].items())
                series[key] = {
                    "type": exp["_types"][key],
                    "times": [t for t, _v in points],
                    "values": [v for _t, v in points],
                }
            hists = {}
            for key in sorted(exp["_hists"]):
                t, merged = max(exp["_hists"][key].items())
                hists[key] = dict(merged, t=t)
            doc["experiments"][name] = {
                "channels": exp["channels"],
                "series": series,
                "histograms": hists,
            }
        if profiles:
            doc["profiles"] = profiles
        return doc

    # -- internals ------------------------------------------------------------
    @staticmethod
    def _read_rows(path: str):
        try:
            fh = open(path)
        except OSError:
            return
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue  # live writer mid-line; next collect sees it

    @staticmethod
    def _fold_snapshot(exp: dict, row: dict,
                       extra: Dict[str, str]) -> None:
        t = row["t"]
        series, types = exp["_series"], exp["_types"]
        for section, type_name in (("counters", "counter"),
                                   ("gauges", "gauge")):
            for key, value in row.get(section, {}).items():
                if extra:
                    key = _relabel(key, extra)
                points = series.get(key)
                if points is None:
                    points = series[key] = {}
                    types[key] = type_name
                points[t] = points.get(t, 0.0) + value
        for key, snapshot in row.get("histograms", {}).items():
            if extra:
                key = _relabel(key, extra)
            per_t = exp["_hists"].setdefault(key, {})
            per_t[t] = merge_histogram(per_t.get(t), snapshot)


# ---------------------------------------------------------------------------
# schema validation (CI's telemetry-smoke contract)
# ---------------------------------------------------------------------------

def snapshot_schema_errors(doc: dict) -> List[str]:
    """Structural problems in a collected telemetry document ([] = valid)."""
    problems = []
    if doc.get("kind") != "telemetry":
        problems.append(f"kind is {doc.get('kind')!r}, expected 'telemetry'")
    if doc.get("version") != 1:
        problems.append(f"unsupported version {doc.get('version')!r}")
    experiments = doc.get("experiments")
    if not isinstance(experiments, dict):
        return problems + ["experiments is not a dict"]
    for name, exp in experiments.items():
        where = f"experiments[{name!r}]"
        if not isinstance(exp.get("channels"), list) or not exp["channels"]:
            problems.append(f"{where}: no channels")
        series = exp.get("series")
        if not isinstance(series, dict):
            problems.append(f"{where}: series is not a dict")
            continue
        for key, entry in series.items():
            times, values = entry.get("times"), entry.get("values")
            if entry.get("type") not in ("counter", "gauge"):
                problems.append(f"{where}[{key!r}]: bad type "
                                f"{entry.get('type')!r}")
            if not isinstance(times, list) or not isinstance(values, list) \
                    or len(times) != len(values):
                problems.append(f"{where}[{key!r}]: times/values mismatch")
                continue
            if any(b <= a for a, b in zip(times, times[1:])):
                problems.append(f"{where}[{key!r}]: times not increasing")
            try:
                parse_key(key)
            except ValueError:
                problems.append(f"{where}: malformed key {key!r}")
    return problems


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: exposition metric-name prefix
PROM_PREFIX = "repro_"


def _prom_name(name: str) -> str:
    sanitized = _NAME_SANITIZE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return PROM_PREFIX + sanitized


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_NAME_SANITIZE.sub("_", k)}="{_escape_label(str(labels[k]))}"'
        for k in sorted(labels)
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == inf:
        return "+Inf"
    if value == -inf:
        return "-Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


def render_prometheus(collected: dict) -> str:
    """Prometheus text-format exposition of a collected spool.

    Each series contributes its *latest* point; the experiment name
    becomes an ``experiment`` label.  Histograms render as cumulative
    ``_bucket{le=...}`` series plus ``_sum``/``_count``.
    """
    by_name: Dict[str, List[Tuple[str, str]]] = {}
    type_of: Dict[str, str] = {}

    def add(name: str, type_name: str, labels: Dict[str, str],
            value: float) -> None:
        prom = _prom_name(name)
        type_of[prom] = type_name
        by_name.setdefault(prom, []).append(
            (_prom_labels(labels), _format_value(value))
        )

    for experiment, exp in sorted(collected.get("experiments", {}).items()):
        base = {"experiment": experiment} if experiment else {}
        for key, entry in exp.get("series", {}).items():
            if not entry["values"]:
                continue
            name, labels = parse_key(key)
            labels.update(base)
            add(name, entry["type"], labels, entry["values"][-1])
        for key, hist in exp.get("histograms", {}).items():
            name, labels = parse_key(key)
            labels.update(base)
            cumulative = 0
            for bound, count in zip(list(hist["bounds"]) + [inf],
                                    hist["counts"]):
                cumulative += count
                bucket_labels = dict(labels, le=_format_value(bound))
                add(name + "_bucket", "histogram", bucket_labels, cumulative)
            add(name + "_sum", "histogram", labels, hist["total"])
            add(name + "_count", "histogram", labels, hist["count"])
    lines = []
    for prom in sorted(by_name):
        type_name = type_of[prom]
        if type_name == "histogram":
            # _bucket/_sum/_count share one TYPE under the family name
            if prom.endswith("_bucket"):
                lines.append(f"# TYPE {prom[:-len('_bucket')]} histogram")
        else:
            lines.append(f"# TYPE {prom} {type_name}")
        for labels_text, value in sorted(by_name[prom]):
            lines.append(f"{prom}{labels_text} {value}")
    return "\n".join(lines) + "\n"


_EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$"
)


def exposition_errors(text: str) -> List[str]:
    """Malformed lines in a Prometheus text exposition ([] = valid)."""
    problems = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        if _EXPOSITION_LINE.match(line) is None:
            problems.append(f"line {i}: malformed sample {line!r}")
    return problems


def serve_metrics(root: str, port: int = 0):
    """Serve ``/metrics`` for the spool under ``root`` on a daemon thread.

    Returns the server; read the bound port off ``server.server_port``
    (``port=0`` binds an ephemeral one) and stop it with
    ``server.shutdown()``.  Each scrape re-collects the spool, so the
    exposition tracks the run live.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    collector = Collector(root)

    class MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            if self.path.split("?")[0] not in ("/metrics", "/"):
                self.send_error(404)
                return
            body = render_prometheus(collector.collect()).encode()
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):  # noqa: A002
            pass  # scrapes are not run output

    server = ThreadingHTTPServer(("", port), MetricsHandler)
    thread = threading.Thread(target=server.serve_forever,
                              name="telemetry-metrics", daemon=True)
    thread.start()
    return server


# ---------------------------------------------------------------------------
# structured profiling merge
# ---------------------------------------------------------------------------

def merge_profiles(rows: List[dict]) -> dict:
    """Fold per-worker span-tree rows into one document: the rows, their
    :func:`repro.obs.spans.summarize` aggregate, and collapsed-stack
    lines (``;``-joined span path, self microseconds) for flamegraphs."""
    aggregate, collapsed = spans.summarize(rows)
    return {
        "kind": "profile",
        "version": 2,
        "workers": rows,
        "aggregate": aggregate,
        "collapsed": collapsed,
    }
