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


def run_gups_quick(manager, gups_config, duration=6.0, warmup=2.0, scale=64,
                   seed=42, tick=0.01):
    """Short GUPS run helper used across integration tests."""
    from repro.api import run_gups

    return run_gups(
        manager, gups_config, duration=duration, warmup=warmup, scale=scale,
        seed=seed, tick=tick,
    )
