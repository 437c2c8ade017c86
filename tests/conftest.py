"""Shared fixtures: small scaled machines and quick engine runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pagestore import TRACKED
from repro.mem.machine import Machine, MachineSpec
from repro.mem.pebs import PebsEventKind
from repro.sim.stats import StatsRegistry
from repro.sim.units import GB, MB


@pytest.fixture
def stats():
    return StatsRegistry()


@pytest.fixture
def spec64():
    """Machine scaled 64x: 3 GB DRAM, 12 GB NVM, 2 MB pages."""
    return MachineSpec().scaled(64)


@pytest.fixture
def machine64(spec64):
    return Machine(spec64, seed=123)


@pytest.fixture
def machine():
    """Full-size machine (192 GB DRAM / 768 GB NVM)."""
    return Machine(MachineSpec(), seed=123)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class IdleWorkload:
    """A workload that allocates nothing and issues no traffic."""

    name = "idle"
    warmup = 0.0

    def setup(self, manager, machine, rng):
        pass

    def access_mix(self, now, dt):
        return []

    def on_progress(self, stream, result, now, dt):
        pass

    def finished(self, now):
        return False

    def result(self):
        return {}


def sample(tracker, region, page, is_store=False, times=1):
    """Apply ``times`` PEBS records of one page through ``record_samples``."""
    kind = PebsEventKind.STORE if is_store else PebsEventKind.DRAM_READ
    tracker.record_samples([(kind, region, [page] * times)])


def tracked_pids(tracker):
    """Pids of every page ``tracker`` tracks, in pid order."""
    flags = tracker.store.flags
    return [pid for pid in range(tracker.store.capacity) if flags[pid] & TRACKED]


def pages_in(region, tier):
    """Indices of ``region``'s pages currently placed in ``tier``."""
    return np.nonzero(region.tier == tier)[0]


def is_hot(tracker, pid):
    """Whether ``pid``'s sampled counters reach a hot threshold."""
    config = tracker.config
    return (tracker.store.reads[pid] >= config.hot_read_threshold
            or tracker.store.writes[pid] >= config.hot_write_threshold)


def fifo_remove(fifo, pid):
    """Unlink ``pid`` from ``fifo``; a pid on another list is refused
    (``PageStore.unlink`` trusts its caller and would corrupt both)."""
    if fifo.store.list_id[pid] != fifo.lid:
        raise ValueError(f"pid {pid} is not on list {fifo.name}")
    fifo.store.unlink(fifo.lid, pid)


def fifo_pop_front(fifo):
    """Pop and return ``fifo``'s front pid, or -1 when it is empty."""
    head = fifo.front_pid
    if head >= 0:
        fifo.store.unlink(fifo.lid, head)
    return head


def run_gups_quick(manager, gups_config, duration=6.0, warmup=2.0, scale=64,
                   seed=42, tick=0.01):
    """Short GUPS run helper used across integration tests."""
    from repro.api import run_gups

    return run_gups(
        manager, gups_config, duration=duration, warmup=warmup, scale=scale,
        seed=seed, tick=tick,
    )


# -- whole-experiment CLI runs, one per experiment and mode (tests/bench/cli.py)

def _cli_run_names(items):
    from tests.bench.cli import RUNS

    return [name for name in RUNS
            if any(name in getattr(item, "fixturenames", ()) for item in items)]


def pytest_collection_modifyitems(config, items):
    # Checks on the background CLI runs go last, so the runs get a head start.
    names = set(_cli_run_names(items))
    items.sort(key=lambda item: bool(
        names.intersection(getattr(item, "fixturenames", ()))))


def pytest_collection_finish(session):
    from tests.bench.cli import BackgroundRuns

    runs = BackgroundRuns(session.config._tmp_path_factory)
    session.config._cli_runs = runs
    runs.start(_cli_run_names(session.items))


def pytest_sessionfinish(session):
    runs = getattr(session.config, "_cli_runs", None)
    if runs is not None:
        runs.stop()


def _cli_run(request, name):
    return request.config._cli_runs.result(name)


@pytest.fixture(scope="session")
def fig9_colo_instrumented(request):
    return _cli_run(request, "fig9_colo_instrumented")[0]


@pytest.fixture(scope="session")
def fleet_diurnal_telemetry(request):
    return _cli_run(request, "fleet_diurnal_telemetry")[0]


@pytest.fixture(scope="session")
def colo_sharded_telemetry(request):
    """Output dir and ``{mode: rendered tables}`` of the two runs."""
    from tests.bench.cli import table_text

    out, (unsharded, sharded) = _cli_run(request, "colo_sharded_telemetry")
    return out, {"unsharded": table_text(unsharded),
                 "sharded": table_text(sharded)}


@pytest.fixture(scope="session")
def policy_tpcc_parallel(request):
    return _cli_run(request, "policy_tpcc_parallel")[0]
