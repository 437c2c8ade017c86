"""Zero-overhead-when-disabled guard for the telemetry plane.

Mirror of ``test_zero_overhead.py``'s event-class swap: with no telemetry
session installed, a metrics-captured run must not construct a single
telemetry object or format a single metric key — the publish sites must
reduce to the one ``telemetry._session is not None`` test.  Enforced by
swapping the registry/sink classes (and the key formatter) for stand-ins
that raise on use.
"""

import importlib

import pytest

import repro.obs as obs
import repro.obs.telemetry
from repro.core.hemem import HeMemManager
from repro.mem.machine import MachineSpec
from repro.obs import spans
from repro.workloads.gups import GupsConfig


def _bomb(name):
    class Bomb:
        def __new__(cls, *args, **kwargs):
            raise AssertionError(
                f"{name} allocated with telemetry disabled"
            )

    Bomb.__name__ = name
    return Bomb


def _bomb_fn(name):
    def exploder(*args, **kwargs):
        raise AssertionError(f"{name} called with telemetry disabled")

    return exploder


@pytest.fixture
def armed_telemetry(monkeypatch):
    for name in ("TelemetryRegistry", "JsonlSink", "MemorySink",
                 "TelemetrySession"):
        monkeypatch.setattr(repro.obs.telemetry, name, _bomb(name))
    for name in ("metric_key", "publish_stats_counters",
                 "publish_stats_histograms"):
        monkeypatch.setattr(repro.obs.telemetry, name, _bomb_fn(name))


def _migratory_gups():
    spec = MachineSpec().scaled(2048)
    return GupsConfig(working_set=int(spec.dram_capacity * 2), threads=4,
                      hot_set=int(spec.dram_capacity * 0.25))


def test_sessionless_run_touches_no_telemetry(armed_telemetry):
    from tests.conftest import run_gups_quick

    with obs.capture(trace=False, metrics=True) as cap:
        result = run_gups_quick(HeMemManager(), _migratory_gups(),
                                duration=6.0, warmup=1.0, scale=2048)
    engine = result["engine"]
    # the sampler ran every tick and never created a registry
    assert engine.metrics is not None
    assert engine.metrics.telemetry is None
    # no profiling scope is open and no layer method is wrapped
    assert spans._active is None
    for _, target in spans.SPANS:
        module, _, qualname = target.partition(":")
        owner_name, _, attr = qualname.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name)
        assert not hasattr(vars(owner)[attr], "__wrapped__"), target
    # the run did real migration work — the guard covered the hot publish
    # sites, not an idle machine
    counters = engine.machine.stats.counters()
    migrated = sum(
        v for k, v in counters.items() if k.endswith("pages_migrated")
    )
    assert migrated > 0
    assert cap.payloads()  # metrics capture itself still worked


def test_session_run_still_publishes():
    # Sanity check on the guard approach: without the bombs and with a
    # session installed, the same scenario spools window snapshots.
    from tests.conftest import run_gups_quick

    from repro.obs import telemetry
    from repro.obs.telemetry import MemorySink

    sink = MemorySink()
    with telemetry.session(sink):
        with obs.capture(trace=False, metrics=True):
            run_gups_quick(HeMemManager(), _migratory_gups(),
                           duration=6.0, warmup=1.0, scale=2048)
    assert any(row["kind"] == "snapshot" for row in sink.rows)
