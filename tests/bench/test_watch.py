"""``bench watch``: frame rendering over collected telemetry, CLI."""

import json

from repro.bench.watch import (
    fmt_bytes,
    render_frame,
    series_last,
    series_rate,
    watch_main,
)

GIB = 1024.0 ** 3


def _series(type_name, points):
    return {"type": type_name,
            "times": [t for t, _v in points],
            "values": [v for _t, v in points]}


def _doc(series, channels=1, profiles=0):
    doc = {
        "kind": "telemetry", "version": 1,
        "experiments": {
            "fig9": {
                "channels": [{"file": f"fig9/c{i}.jsonl", "labels": {},
                              "snapshots": 2, "profiles": 0}
                             for i in range(channels)],
                "series": series,
                "histograms": {},
            },
        },
    }
    if profiles:
        doc["profiles"] = [{"kind": "profile"}] * profiles
    return doc


class TestHelpers:
    def test_fmt_bytes_units(self):
        assert fmt_bytes(2.5 * GIB) == "2.50 GiB"
        assert fmt_bytes(3 * 1024.0 ** 2) == "3.00 MiB"
        assert fmt_bytes(512.0) == "512 B"

    def test_series_last_and_rate(self):
        series = {"c": _series("counter", [(0.5, 10.0), (1.0, 25.0)])}
        assert series_last(series, "c") == 25.0
        assert series_rate(series, "c") == 30.0  # 15 over 0.5s
        assert series_last(series, "missing") is None
        assert series_rate(series, "missing") is None

    def test_rate_needs_two_points(self):
        series = {"c": _series("counter", [(0.5, 10.0)])}
        assert series_rate(series, "c") is None

    def test_counter_reset_clamps_to_zero(self):
        series = {"c": _series("counter", [(0.5, 10.0), (1.0, 3.0)])}
        assert series_rate(series, "c") == 0.0


class TestRenderFrame:
    def test_empty_spool(self):
        frame = render_frame({"kind": "telemetry", "version": 1,
                              "experiments": {}})
        assert "(no telemetry channels yet)" in frame

    def test_tiers_rates_and_loss(self):
        series = {
            "dram_bytes": _series("gauge", [(1.0, 2.0 * GIB)]),
            "nvm_bytes": _series("gauge", [(1.0, 6.0 * GIB)]),
            "migration_queue_bytes": _series("gauge", [(1.0, GIB)]),
            'pages_migrated_total{scope="hemem"}': _series(
                "counter", [(0.5, 0.0), (1.0, 50.0)]),
            "pebs_sampled_total": _series(
                "counter", [(0.5, 0.0), (1.0, 90.0)]),
            "pebs_dropped_total": _series(
                "counter", [(0.5, 0.0), (1.0, 10.0)]),
        }
        frame = render_frame(_doc(series), now="12:00:00")
        assert "12:00:00" in frame
        assert "== fig9" in frame and "t=1.0s" in frame
        assert "DRAM 2.00 GiB" in frame and "NVM 6.00 GiB" in frame
        assert "(25.0% in DRAM)" in frame
        assert "1.00 GiB pending migration" in frame
        assert "migrations 100.0 pages/s" in frame
        assert "10.00% sample loss" in frame

    def test_tenant_mirror_keys_not_double_counted(self):
        # the same tenant's evictions arrive scoped (stats mirror) and
        # tenant-labelled (sampler); the fleet rate must count them once
        series = {
            'evicted_pages_total{scope="t00"}': _series(
                "counter", [(0.5, 0.0), (1.0, 20.0)]),
            'evicted_pages_total{tenant="t00"}': _series(
                "counter", [(0.5, 0.0), (1.0, 20.0)]),
        }
        frame = render_frame(_doc(series))
        assert "evictions 40.0 pages/s" in frame

    def test_slo_controller_and_tenant_table(self):
        series = {
            "slo_attainment": _series("gauge", [(1.0, 0.875)]),
            'controller_actions_total{action="boost"}': _series(
                "counter", [(1.0, 3.0)]),
            'controller_actions_total{action="decay"}': _series(
                "counter", [(1.0, 1.0)]),
            'dram_bytes{tenant="web-000"}': _series(
                "gauge", [(1.0, GIB)]),
            'hot_bytes{tenant="web-000"}': _series(
                "gauge", [(1.0, 0.5 * GIB)]),
            'evicted_pages_total{tenant="web-000"}': _series(
                "counter", [(1.0, 12.0)]),
            'slo_slowdown{tenant="web-000"}': _series(
                "gauge", [(1.0, 1.5)]),
            'slo_attained{tenant="web-000"}': _series(
                "gauge", [(1.0, 0.0)]),
        }
        frame = render_frame(_doc(series))
        assert "slo        87.5% fleet attainment" in frame
        assert "boost=3" in frame and "decay=1" in frame
        assert "tenants    (1)" in frame
        row = next(line for line in frame.splitlines()
                   if line.strip().startswith("web-000"))
        assert "1.00 GiB" in row
        assert "512.00 MiB" in row
        assert "12" in row
        assert "1.50x" in row
        assert row.rstrip().endswith("n")

    def test_tenant_table_capped_at_16(self):
        series = {}
        for i in range(20):
            series[f'dram_bytes{{tenant="t{i:02d}"}}'] = _series(
                "gauge", [(1.0, GIB)])
        frame = render_frame(_doc(series))
        assert "tenants    (20)" in frame
        assert "... and 4 more" in frame

    def test_departed_tenants_leave_the_table(self):
        # a departed tenant's series end at its departure; the table keeps
        # only tenants with a point at the section's latest instant
        series = {
            'dram_bytes{tenant="web-000"}': _series(
                "gauge", [(0.5, GIB), (1.0, GIB)]),
            'dram_bytes{tenant="web-001"}': _series("gauge", [(0.5, GIB)]),
            'ops_total{tenant="web-002"}': _series("counter", [(0.5, 9.0)]),
        }
        frame = render_frame(_doc(series))
        assert "tenants    (1 live, 2 departed)" in frame
        rows = [line.split()[0] for line in frame.splitlines()
                if line.startswith("    web-")]
        assert rows == ["web-000"]

    def test_all_departed_shows_only_the_count(self):
        series = {
            "dram_bytes": _series("gauge", [(0.5, GIB), (1.0, GIB)]),
            'dram_bytes{tenant="web-000"}': _series("gauge", [(0.5, GIB)]),
        }
        frame = render_frame(_doc(series))
        assert "tenants    (0 live, 1 departed)" in frame
        assert "slowdown" not in frame  # no table header without rows

    def test_case_labelled_series_get_their_own_sections(self):
        # non-sum channels (fig9's systems) arrive with case-labelled
        # keys; each case renders as its own section with bare lookups
        series = {
            'dram_bytes{case="hemem"}': _series("gauge", [(1.0, 2.0 * GIB)]),
            'nvm_bytes{case="hemem"}': _series("gauge", [(1.0, 6.0 * GIB)]),
            'dram_bytes{case="mm"}': _series("gauge", [(1.0, GIB)]),
            'nvm_bytes{case="mm"}': _series("gauge", [(1.0, 7.0 * GIB)]),
        }
        frame = render_frame(_doc(series, channels=2))
        assert "== fig9/hemem" in frame
        assert "== fig9/mm" in frame
        assert "DRAM 2.00 GiB" in frame
        assert "(12.5% in DRAM)" in frame  # mm's 1/8 split

    def test_profiles_footer(self):
        frame = render_frame(_doc({}, profiles=3))
        assert "profiles   3 structured records spooled" in frame


class TestWatchCli:
    def _spool(self, tmp_path):
        root = tmp_path / "out.json.live"
        channel = root / "fig9" / "hemem.jsonl"
        channel.parent.mkdir(parents=True)
        rows = [
            {"kind": "channel", "version": 1,
             "labels": {"case": "hemem"}},
            {"kind": "snapshot", "t": 0.5, "counters": {},
             "gauges": {"dram_bytes": 2.0 * GIB, "nvm_bytes": 6.0 * GIB}},
        ]
        channel.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return root

    def test_once_renders_single_frame(self, tmp_path, capsys):
        assert watch_main([str(self._spool(tmp_path)), "--once"]) == 0
        out = capsys.readouterr().out
        assert "== fig9/hemem" in out
        assert "DRAM 2.00 GiB" in out
        assert "\x1b[2J" not in out  # --once implies no ANSI clear

    def test_once_on_finished_spool_lists_live_tenants(self, tmp_path,
                                                       capsys):
        root = tmp_path / "out.json.live"
        channel = root / "fleet" / "slo.jsonl"
        channel.parent.mkdir(parents=True)
        rows = [
            {"kind": "channel", "version": 1, "labels": {"case": "slo"}},
            {"kind": "snapshot", "t": 0.5, "counters": {}, "gauges": {
                'dram_bytes{tenant="a"}': GIB,
                'dram_bytes{tenant="b"}': GIB}},
            {"kind": "snapshot", "t": 1.0, "counters": {}, "gauges": {
                'dram_bytes{tenant="a"}': 2.0 * GIB}},
        ]
        channel.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert watch_main([str(root), "--once"]) == 0
        out = capsys.readouterr().out
        assert "tenants    (1 live, 1 departed)" in out
        assert "2.00 GiB" in out
        assert not any(line.startswith("    b ")
                       for line in out.splitlines())

    def test_once_on_empty_dir(self, tmp_path, capsys):
        assert watch_main([str(tmp_path), "--once"]) == 0
        assert "(no telemetry channels yet)" in capsys.readouterr().out

    def test_bad_interval_rejected(self, tmp_path, capsys):
        import pytest

        with pytest.raises(SystemExit):
            watch_main([str(tmp_path), "--interval", "0"])
