"""Transactional migration retry/rollback: no DAX page leaked or double-freed.

These drive the migrator's failure handling directly through
``copy_fault_hook`` (the injector's integration is covered separately), so
every assertion about accounting is exact: the mover is advanced without
the policy thread interleaving its own migrations.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.hemem import HeMemManager
from repro.core.invariants import violations
from repro.core.pagestore import NO_LIST, UNDER_MIGRATION
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.obs import capture
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB

from tests.conftest import IdleWorkload

SCALE = 64


def make_setup(seed=3):
    manager = HeMemManager()
    machine = Machine(MachineSpec().scaled(SCALE), seed=seed)
    engine = Engine(machine, manager, IdleWorkload(),
                    EngineConfig(tick=0.01, seed=seed))
    region = manager.mmap(4 * GB, name="big")
    manager.prefault(region)
    return engine, manager, machine, region


def drain_direct(machine, manager, ticks=500):
    """Advance only the movers + retry queue (no policy interleaving)."""
    now = 0.0
    for _ in range(ticks):
        machine.begin_tick(now, 0.01)
        manager.migrator.flush_retries(now)
        if not manager.migrator.busy:
            break
        now += 0.01
    assert not manager.migrator.busy, "migration never settled"


def fail_times(pid, n):
    """Hook failing the first ``n`` completions of ``pid``'s copies only."""
    state = {"left": n, "calls": 0}

    def hook(request, now):
        if request.tag[0] != pid:  # tags carry pids
            return False
        state["calls"] += 1
        if state["left"] > 0:
            state["left"] -= 1
            return True
        return False

    return hook, state


class TestRetryThenSuccess:
    def test_completes_after_transient_failures(self):
        engine, manager, machine, region = make_setup()
        page = int(region.pages_in(Tier.NVM)[0])
        pid = manager.tracker.pid_of(region, page)
        hook, state = fail_times(pid, 2)
        manager.migrator.copy_fault_hook = hook
        dram_free = manager.dax[Tier.DRAM].free_pages
        nvm_free = manager.dax[Tier.NVM].free_pages
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        drain_direct(machine, manager)
        assert Tier(region.tier[page]) is Tier.DRAM
        assert not manager.tracker.store.flags[pid] & UNDER_MIGRATION
        assert state["calls"] == 3  # two failures + the success draw
        assert machine.stats.counter("hemem.migration_retries").value == 2
        assert machine.stats.counter("hemem.migrations_aborted").value == 0
        # Exactly one page changed hands; nothing leaked across retries.
        assert manager.dax[Tier.DRAM].free_pages == dram_free - 1
        assert manager.dax[Tier.NVM].free_pages == nvm_free + 1
        assert violations(engine) == []

    def test_backoff_is_capped_exponential(self):
        with capture(trace=True, metrics=False) as cap:
            engine, manager, machine, region = make_setup()
            page = int(region.pages_in(Tier.NVM)[0])
            pid = manager.tracker.pid_of(region, page)
            hook, _ = fail_times(pid, 5)
            manager.migrator.copy_fault_hook = hook
            assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
            drain_direct(machine, manager)
        [payload] = cap.payloads()
        retried = [e for e in payload["trace"] if e["kind"] == "migration_retried"]
        assert [e["attempt"] for e in retried] == [1, 2, 3, 4, 5]
        assert [e["backoff"] for e in retried] == [0.01, 0.02, 0.04, 0.08, 0.16]
        assert Tier(region.tier[page]) is Tier.DRAM  # sixth attempt landed


class TestAbortRollsBack:
    def test_permanent_failure_aborts_cleanly(self):
        engine, manager, machine, region = make_setup()
        page = int(region.pages_in(Tier.NVM)[0])
        pid = manager.tracker.pid_of(region, page)
        manager.migrator.copy_fault_hook = lambda request, now: True
        dram_free = manager.dax[Tier.DRAM].free_pages
        nvm_free = manager.dax[Tier.NVM].free_pages
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        drain_direct(machine, manager)
        # Page stays put, fully accessible, reservation rolled back.
        assert Tier(region.tier[page]) is Tier.NVM
        assert not manager.tracker.store.flags[pid] & UNDER_MIGRATION
        assert not manager.uffd.is_write_protected(region, page)
        assert manager.tracker.store.list_id[pid] != NO_LIST
        assert manager.dax[Tier.DRAM].free_pages == dram_free
        assert manager.dax[Tier.NVM].free_pages == nvm_free
        migrator = manager.migrator
        assert machine.stats.counter("hemem.migrations_aborted").value == 1
        assert (machine.stats.counter("hemem.migration_retries").value
                == migrator.MAX_RETRIES)
        assert machine.stats.counter("hemem.pages_migrated").value == 0
        assert violations(engine) == []

    def test_aborted_page_can_migrate_again(self):
        engine, manager, machine, region = make_setup()
        page = int(region.pages_in(Tier.NVM)[0])
        pid = manager.tracker.pid_of(region, page)
        manager.migrator.copy_fault_hook = lambda request, now: True
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        drain_direct(machine, manager)
        manager.migrator.copy_fault_hook = None
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        drain_direct(machine, manager)
        assert Tier(region.tier[page]) is Tier.DRAM
        assert violations(engine) == []


class TestNoLeakNoDoubleFree:
    @settings(max_examples=20, deadline=None)
    @given(
        fails=st.lists(st.booleans(), max_size=40),
        n_pages=st.integers(min_value=1, max_value=4),
    )
    def test_arbitrary_failure_patterns_conserve_dax_pages(self, fails, n_pages):
        """Across any injected copy-failure pattern, every DAX page is
        either free or backs exactly one mapped page / in-flight copy."""
        engine, manager, machine, region = make_setup()
        draws = iter(fails)
        manager.migrator.copy_fault_hook = (
            lambda request, now: next(draws, False)
        )
        pids = [
            manager.tracker.pid_of(region, int(p))
            for p in region.pages_in(Tier.NVM)[:n_pages]
        ]
        for pid in pids:
            assert manager.migrator.migrate(pid, Tier.DRAM, 0.0)
        drain_direct(machine, manager)
        assert violations(engine) == []
        migrated = machine.stats.counter("hemem.pages_migrated").value
        aborted = machine.stats.counter("hemem.migrations_aborted").value
        assert migrated + aborted == n_pages
        store = manager.tracker.store
        for pid in pids:
            assert not store.flags[pid] & UNDER_MIGRATION
            assert not manager.uffd.is_write_protected(region, store.page_no[pid])
        assert manager.tracker.violations() == []
