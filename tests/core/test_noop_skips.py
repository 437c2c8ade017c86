"""The per-tick no-op skips are exact.

Three hot paths return early when they provably have nothing to do: the
PEBS feed while an event carry stays below the sample period, the drain
thread on an empty buffer, and a HeMem/Nomad policy pass with no NVM-hot
page and DRAM free at or above the watermark.  Each test pins both that
the skip is taken and that taking it changes nothing a full run would
have changed (see DESIGN.md §6, "Per-tick no-op skips").
"""

import pytest

from repro.core.hemem import HeMemManager
from repro.mem.access import AccessStream, StreamResult, TierSplit
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.mem.pebs import PebsEventKind, PebsSpec, PebsUnit
from repro.mem.region import Region
from repro.obs.events import PebsDrain
from repro.obs.trace import Tracer
from repro.sim.engine import Engine, EngineConfig
from repro.sim.rng import make_rng
from repro.sim.units import GB, MB

from tests.conftest import IdleWorkload, sample
from tests.core.test_placement_policies import drain_direct, make_setup

SCALE = 64


@pytest.fixture
def region():
    return Region(0x1000000, 16 * 2 * MB)


_COLUMNS = ("reads", "writes", "clock", "flags", "tier", "list_id", "prev",
            "next", "psize", "page_no", "shadow")


def snapshot(manager):
    """Everything a policy pass could move: pagestore columns and lists,
    DAX occupancy, the migrator's queue."""
    store = manager.tracker.store
    migrator = manager.migrator
    return (
        {name: bytes(getattr(store, name)) for name in _COLUMNS},
        [len(fifo) for fifo in store.fifos],
        store.shadow_pages,
        manager.dax[Tier.DRAM].used_pages,
        manager.dax[Tier.NVM].used_pages,
        migrator.queued_bytes,
        migrator.busy,
        len(migrator.retry_requests()),
    )


def refuse(*args, **kwargs):
    raise AssertionError("the no-op skip was not taken")


def idle_condition(manager):
    """No NVM-hot page and DRAM free at or above the watermark."""
    return (not manager.tracker.list_for(Tier.NVM, hot=True)
            and manager.dram_free_bytes() >= manager.config.dram_free_watermark)


class TestPolicyPassSkip:
    def test_noop_hemem_pass_changes_nothing(self, monkeypatch):
        engine, manager, machine, region = make_setup()
        assert idle_condition(manager)
        before = snapshot(manager)
        policy = manager.policy
        monkeypatch.setattr(policy, "_full_pass", refuse)
        assert policy.run_pass(0.0) == (0, 0)
        assert snapshot(manager) == before
        # The pass it skipped would have done exactly nothing as well.
        monkeypatch.undo()
        assert policy._full_pass(0.0) == (0, 0)
        assert snapshot(manager) == before

    def test_nvm_hot_page_defeats_the_skip(self):
        engine, manager, machine, region = make_setup()
        page = int(region.pages_in(Tier.NVM)[0])
        sample(manager.tracker, region, page, is_store=True, times=4)
        assert manager.tracker.list_for(Tier.NVM, hot=True)
        promoted, demoted = manager.policy.run_pass(0.0)
        assert promoted == 1

    def test_dram_below_watermark_defeats_the_skip(self):
        engine, manager, machine, region = make_setup()
        dram = manager.dax[Tier.DRAM]
        grabbed = dram.alloc_page()  # one page under the watermark
        assert manager.dram_free_bytes() < manager.config.dram_free_watermark
        promoted, demoted = manager.policy.run_pass(0.0)
        # Demotions free DRAM only when their copies complete, so the
        # watermark loop queues up to the migration queue limit.
        assert promoted == 0 and demoted > 0
        assert manager.migrator.busy
        dram.free_page(grabbed)

    def test_noop_nomad_pass_still_reclaims_shadows(self, monkeypatch):
        engine, manager, machine, region = make_setup(policy="nomad")
        store = manager.tracker.store
        migrator = manager.migrator
        # A promoted page keeps its NVM shadow ...
        nvm_pid = manager.tracker.pid_of(region, int(region.pages_in(Tier.NVM)[0]))
        assert migrator.migrate(nvm_pid, Tier.DRAM, 0.0, retain_shadow=True)
        # ... and a copy-demotion gives DRAM its watermark back.
        dram_pid = manager.tracker.pid_of(region, int(region.pages_in(Tier.DRAM)[0]))
        assert migrator.migrate(dram_pid, Tier.NVM, 0.0)
        drain_direct(machine, manager)
        assert store.shadow_pages == 1
        # Fill NVM until the free-page reserve is short.
        nvm = manager.dax[Tier.NVM]
        policy = manager.policy
        grabbed = [nvm.alloc_page()
                   for _ in range(nvm.free_pages - policy._reserve_pages + 1)]
        assert nvm.free_pages < policy._reserve_pages
        assert idle_condition(manager)
        monkeypatch.setattr(policy, "_full_pass", refuse)
        assert policy.run_pass(1.0) == (0, 0)
        assert store.shadow_pages == 0
        assert store.shadow[nvm_pid] == -1
        assert nvm.free_pages == policy._reserve_pages
        for page in grabbed:
            nvm.free_page(page)

    def test_learned_pass_is_never_skipped(self):
        engine, manager, machine, region = make_setup(policy="learned")
        policy = manager.policy
        page = int(region.pages_in(Tier.NVM)[0])
        sample(manager.tracker, region, page)  # NVM cold list, not hot
        pid = manager.tracker.pid_of(region, page)
        assert idle_condition(manager)
        assert policy._pass_no == 0
        for expected in (1, 2):
            assert policy.run_pass(0.0) == (0, 0)
            assert policy._pass_no == expected
        # The NVM-cold scan ran: the page's EWMA state was folded.
        assert policy._state[pid][2] == 2.0


def drain_engine():
    machine = Machine(MachineSpec().scaled(SCALE), seed=5)
    machine.install_tracer(Tracer())
    manager = HeMemManager()
    engine = Engine(machine, manager, IdleWorkload(), EngineConfig(seed=5))
    service = next(s for s in engine.services if s.name == "pebs_drain")
    return engine, manager, machine, service


class TestEmptyDrainSkip:
    def test_empty_buffer_applies_and_emits_nothing(self, monkeypatch):
        engine, manager, machine, service = drain_engine()
        calls = []
        monkeypatch.setattr(manager.tracker, "record_samples", calls.append)
        assert len(machine.pebs) == 0
        assert service.run(engine, 0.0, 0.01) == 0.01
        assert calls == []
        assert machine.tracer.count(PebsDrain) == 0

    def test_buffered_records_are_drained_once(self, monkeypatch):
        engine, manager, machine, service = drain_engine()
        region = manager.mmap(1 * GB, name="big")
        stream = AccessStream(name="s", region=region, threads=1)
        manager.observe(stream, TierSplit(1.0, 1.0), StreamResult(ops=1e8),
                        0.0, 0.01)
        buffered = len(machine.pebs)
        assert buffered > 0
        calls = []
        monkeypatch.setattr(manager.tracker, "record_samples", calls.append)
        assert service.run(engine, 0.0, 1.0) == 1.0
        assert [len(batch) for batch in calls] == [buffered]
        assert [e.drained for e in machine.tracer.of_type(PebsDrain)] == [buffered]


class TestCarryFirstFeed:
    def test_unit_feeds_below_the_period_never_sample(self, stats, region):
        unit = PebsUnit(PebsSpec(sample_period=100), stats, make_rng(1, "t"))
        total = 0.0
        for n_events in (30.25, 0.5, 60.0, 9.0):
            assert unit.feed(PebsEventKind.STORE, region, n_events, refuse) == 0
            total += n_events
            assert unit.carry[PebsEventKind.STORE] == total
        assert len(unit) == 0 and unit.records_sampled == 0

    def test_unit_small_feeds_sum_to_one_large_feed(self, stats, region):
        def sampler(_stream, n):
            return [0] * n

        small = PebsUnit(PebsSpec(sample_period=100), stats.scoped("a"),
                         make_rng(1, "t"))
        large = PebsUnit(PebsSpec(sample_period=100), stats.scoped("b"),
                         make_rng(1, "t"))
        for _ in range(1000):
            small.feed(PebsEventKind.NVM_READ, region, 0.75, sampler)
        large.feed(PebsEventKind.NVM_READ, region, 750.0, sampler)
        assert small.records_sampled == large.records_sampled == 7
        assert small.carry == large.carry

    @staticmethod
    def observed(n_observes, ops):
        """A HeMem engine after ``n_observes`` observe() calls of ``ops``
        ops each on a 1 GB region, half of it in NVM."""
        manager = HeMemManager()
        machine = Machine(MachineSpec().scaled(SCALE), seed=3)
        Engine(machine, manager, IdleWorkload(), EngineConfig(seed=3))
        region = manager.mmap(1 * GB, name="big")
        region.tier[region.n_pages // 2:] = Tier.NVM
        stream = AccessStream(name="s", region=region, threads=1,
                              reads_per_op=1.0, writes_per_op=0.5)
        for _ in range(n_observes):
            manager.observe(stream, TierSplit(0.5, 0.5), StreamResult(ops=ops),
                            0.0, 0.01)
        return manager, machine.pebs

    def test_source_builds_no_sampler_below_the_period(self, monkeypatch):
        ops = float(2 ** 17)  # every per-kind event count is 2**16: exact sums
        manager, pebs = self.observed(0, ops)
        source = manager.source
        for name in ("_dram_pages", "_nvm_pages", "_store_pages"):
            monkeypatch.setattr(source, name, refuse)
        monkeypatch.setattr(pebs, "feed", refuse)
        (region,) = manager.managed_regions()
        stream = AccessStream(name="s", region=region, threads=1,
                              reads_per_op=1.0, writes_per_op=0.5)
        per_kind = ops / 2
        n = int(pebs.period // per_kind)
        assert n >= 2
        for i in range(1, n + 1):
            manager.observe(stream, TierSplit(0.5, 0.5), StreamResult(ops=ops),
                            0.0, 0.01)
            assert pebs.carry == {kind: i * per_kind for kind in PebsEventKind}
        assert len(pebs) == 0 and pebs.records_sampled == 0

    def test_source_record_count_matches_one_large_feed(self):
        ops = float(2 ** 17)
        _, small = self.observed(10, ops)
        _, large = self.observed(1, 10 * ops)
        assert small.records_sampled == large.records_sampled > 0
        assert small.carry == large.carry

