"""End-to-end run_fleet: structure, determinism, bounded-memory capture."""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import run_fleet
from repro.serve import FleetSpec, TenantClass
from repro.sim.units import MB
from repro.workloads.gups import GupsConfig, GupsWorkload

SCALE = 256.0
TICK = 0.01
WINDOW = 0.25


def small_fleet():
    return FleetSpec(
        classes=(
            TenantClass("web", working_set=64 * MB, hot_set=16 * MB,
                        slo_ops_per_sec=1e6, share=0.6),
            TenantClass("batch", working_set=128 * MB, hot_set=32 * MB,
                        slo_ops_per_sec=None, share=0.4),
        ),
        base_rate=2.0, day_seconds=1.5, diurnal_amplitude=0.5,
        mean_lifetime=1.0, min_lifetime=0.25, initial_tenants=2,
    )


def make_workload(cls, rng):
    return GupsWorkload(GupsConfig(
        working_set=cls.working_set, hot_set=cls.hot_set, threads=1,
    ), warmup=0.1)


def run(controller="slo", duration=3.0, workload=make_workload, **kw):
    return run_fleet(
        small_fleet(), duration=duration, make_workload=workload,
        controller=controller, policy="fair", scale=SCALE, seed=7,
        tick=TICK, window=WINDOW, warmup=0.5, **kw,
    )


@pytest.mark.slow
class TestRunFleet:
    def test_summary_structure(self):
        result = run()
        s = result["fleet"]
        assert s["windows"] > 0
        assert s["tenant_windows"] > 0
        assert 0.0 <= s["attainment"] <= 1.0
        assert set(s["phases"]) == {"q1", "q2", "q3", "q4"}
        assert result["controller"] == "slo"
        assert result["controller_actions"] >= 0
        assert len(result["tenants_slo"]) >= 2

    def test_fleet_runs_are_deterministic(self):
        a = run()
        b = run()
        assert a["fleet"] == b["fleet"]
        assert a["controller_actions"] == b["controller_actions"]

    def test_arms_share_the_same_compiled_fleet(self):
        names = {arm: sorted(run(controller=arm)["tenants_slo"])
                 for arm in ("none", "static", "slo")}
        assert names["none"] == names["static"] == names["slo"]

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError, match="control arm"):
            run(controller="pid")

    def test_only_slo_arm_acts(self):
        assert run(controller="static")["controller_actions"] == 0
        assert run(controller="none")["controller_actions"] == 0


@pytest.mark.slow
class TestBoundedMemoryCapture:
    # The fleet does most of its work in its first two seconds: doubling
    # a 3 s run adds only about a fifth more trace events, too few to tell
    # an O(window) buffer from an O(run) one, while doubling a 1 s run
    # more than doubles them.
    SHORT, LONG = 1.0, 2.0

    def _capture(self, tmp_path, duration, tag, **kw):
        """(events traced, buffer high-water mark) of one streamed run."""
        with obs.capture(trace=True, metrics=False,
                         stream_dir=str(tmp_path / tag)) as cap:
            run(duration=duration, **kw)
        traces = [p["trace"] for p in cap.payloads() if "trace" in p]
        assert traces and all(t["streamed"] for t in traces)
        assert all(t["events"] > 0 for t in traces)
        return (sum(t["events"] for t in traces),
                max(t["max_buffered"] for t in traces))

    def _assert_o_window(self, tmp_path, **kw):
        events_short, short = self._capture(tmp_path, self.SHORT, "short", **kw)
        events_long, long = self._capture(tmp_path, self.LONG, "long", **kw)
        # A buffer that kept the whole run would break the bound below.
        assert events_long > events_short * 1.5 + 16
        # Streaming keeps at most a tick's burst in memory: doubling the
        # run must not double the buffer high-water mark.
        assert long <= short * 1.5 + 16

    def test_capture_is_o_window_not_o_run(self, tmp_path):
        self._assert_o_window(tmp_path)

    def test_capture_is_o_window_with_default_gups_threads(self, tmp_path):
        # GUPS tenants at the default thread count issue a larger burst
        # per tick; the bound holds all the same.
        def workload(cls, rng):
            return GupsWorkload(GupsConfig(working_set=cls.working_set,
                                           hot_set=cls.hot_set), warmup=0.1)

        self._assert_o_window(tmp_path, workload=workload)
