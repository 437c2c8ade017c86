"""Checks on whole-experiment CLI runs: exports, parallel determinism and
shard equivalence.

Each check reads a run that :data:`tests.bench.cli.RUNS` makes once per
session: instrumented fig9 + colo_matrix, fleet_diurnal with telemetry
at ``-j 1`` and ``-j 3``, colo_sharded unsharded and as 8 shards, and
policy_matrix + tpcc_buffer over ``-j 4``.
"""

import json
import re
import urllib.request

import pytest

from repro.bench.__main__ import main
from repro.bench.diagnostics import health_summary
from repro.obs.perfetto import validate_chrome_trace
from repro.obs.telemetry import (
    exposition_errors,
    parse_key,
    render_prometheus,
    serve_metrics,
    snapshot_schema_errors,
)
from tests.bench.golden import GOLDEN_DIR
from tests.colo.series import series_differences

pytestmark = pytest.mark.slow


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class TestInstrumentedFig9AndColoMatrix:
    """fig9 (dynamic hot-set shift) and colo_matrix (four tenants under
    every arbiter policy) with every export written in one pass."""

    def test_tables_equal_the_goldens(self, fig9_colo_instrumented):
        # the span wrappers and the captures change no result
        for name in ("fig9", "colo_matrix"):
            fresh = (fig9_colo_instrumented / "golden" / f"{name}.csv")
            assert fresh.read_text() == (GOLDEN_DIR / f"{name}.csv").read_text()

    def test_chrome_trace_schema(self, fig9_colo_instrumented):
        # the structural contract ui.perfetto.dev relies on: required
        # fields per phase, numeric counter args, async b/e balance
        doc = _load(fig9_colo_instrumented / "diagnose.perfetto.json")
        assert doc["traceEvents"]
        assert validate_chrome_trace(doc) == []

    def test_health_report_is_well_formed(self, fig9_colo_instrumented):
        doc = _load(fig9_colo_instrumented / "diagnose.health.json")
        assert doc["kind"] == "health" and doc["runs"], "empty health report"
        assert health_summary(doc)

    def test_telemetry_schema_and_prometheus(self, fig9_colo_instrumented):
        # offline rendering and a live /metrics scrape of the spool must
        # both be well-formed Prometheus text
        doc = _load(fig9_colo_instrumented / "telemetry.json")
        problems = snapshot_schema_errors(doc)
        problems += exposition_errors(render_prometheus(doc))
        server = serve_metrics(
            str(fig9_colo_instrumented / "telemetry.json.live"), port=0)
        try:
            url = f"http://localhost:{server.server_port}/metrics"
            live = urllib.request.urlopen(url, timeout=30).read().decode()
        finally:
            server.shutdown()
        problems += exposition_errors(live)
        assert problems == []

    def test_profile_aggregate(self, fig9_colo_instrumented):
        profile = _load(fig9_colo_instrumented / "profile.json")
        aggregate = profile["aggregate"]
        assert aggregate["runs"] > 0, "no profile records"
        assert profile["collapsed"], "no collapsed-stack lines"
        for span in ("sim.engine.tick", "core.tracking.record_samples"):
            assert aggregate["self_s"][span] > 0, f"no {span} self time"
        overhead = aggregate["trace.overhead_frac"]
        assert isinstance(overhead, (int, float)), overhead

    def test_dashboard_renders_a_frame(self, fig9_colo_instrumented):
        live = fig9_colo_instrumented / "telemetry.json.live"
        assert main(["watch", str(live), "--once"]) == 0


class TestFleetDiurnalTelemetry:
    """The sampler exports the serving monitor's and SLO controller's
    state at each window boundary."""

    def test_serial_and_three_workers_byte_identical(
            self, fleet_diurnal_telemetry):
        serial = fleet_diurnal_telemetry / "fleet-telemetry.json"
        parallel = fleet_diurnal_telemetry / "fleet-telemetry-j3.json"
        assert serial.read_bytes() == parallel.read_bytes()

    def test_schema_and_series(self, fleet_diurnal_telemetry):
        doc = _load(fleet_diurnal_telemetry / "fleet-telemetry.json")
        problems = snapshot_schema_errors(doc)
        problems += exposition_errors(render_prometheus(doc))
        assert problems == []
        keys = [parse_key(k) for e in doc["experiments"].values()
                for k in e["series"]]
        names = {name for name, _ in keys}
        assert "slo_attainment" in names, "no slo_attainment series"
        for name, label in (("ops_total", "tenant"),
                            ("controller_actions_total", "action")):
            assert any(n == name and label in labels
                       for n, labels in keys), f"no {name}{{{label}=...}}"

    def test_dashboard_frame(self, fleet_diurnal_telemetry, capsys):
        live = fleet_diurnal_telemetry / "fleet-telemetry.json.live"
        assert main(["watch", str(live), "--once"]) == 0
        frame = capsys.readouterr().out
        assert re.search(r"^  slo ", frame, re.M)
        assert re.search(r"^  controller ", frame, re.M)
        assert re.search(r"^  tenants    \([0-9]* live, [0-9]* departed\)",
                         frame, re.M)


class TestShardedFleet:
    """64 tenants, unsharded and as 8 shards over two workers."""

    def test_tables_identical(self, colo_sharded_telemetry):
        _, tables = colo_sharded_telemetry
        assert tables["sharded"] == tables["unsharded"]

    def test_telemetry_merges_to_the_unsharded_series(
            self, colo_sharded_telemetry):
        out, _ = colo_sharded_telemetry
        series = {
            mode: _load(out / f"fleet-{mode}.json")
            ["experiments"]["colo_sharded"]["series"]
            for mode in ("unsharded", "sharded")
        }
        assert series["unsharded"]
        assert series_differences(series["unsharded"],
                                  series["sharded"]) == []


def test_goldens_rederived_over_the_worker_pool(policy_tpcc_parallel):
    """The policy zoo (learned policy) and the TPC-C engine re-rendered
    with ``-j 4`` match the goldens the serial suite checks."""
    for table in ("policy_matrix", "tpcc_buffer"):
        fresh = policy_tpcc_parallel / "par-golden" / f"{table}.csv"
        assert fresh.read_text() == (GOLDEN_DIR / f"{table}.csv").read_text()
