"""The policy zoo: selection plumbing, Nomad shadows, the learned policy,
and the previously-untested ``pick_demotion_victim`` freshly-hot skip."""

import pytest

from repro.core.config import HeMemConfig
from repro.core.hemem import HeMemManager
from repro.core.pagestore import DIRTY
from repro.core.placement import (
    POLICIES,
    HeMemPolicy,
    LearnedPolicy,
    LogisticModel,
    NomadPolicy,
    StumpModel,
    make_policy,
    pick_demotion_victim,
)
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB, MB
from repro.workloads.gups import GupsConfig, GupsWorkload

from tests.conftest import IdleWorkload, sample

SCALE = 64  # DRAM 3 GB, NVM 12 GB


def make_setup(seed=3, policy=None, config=None):
    manager = HeMemManager(config=config, policy=policy)
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


class TestPolicySelection:
    def test_default_is_hemem(self):
        engine, manager, machine, region = make_setup()
        assert manager.policy is not None
        assert manager.policy.name == "hemem"
        assert isinstance(manager.policy, HeMemPolicy)
        assert manager.tracker._shadow_tracking is False

    def test_constructor_name_selects_nomad(self):
        engine, manager, machine, region = make_setup(policy="nomad")
        assert isinstance(manager.policy, NomadPolicy)
        # Nomad's bind turns on dirty-bit folding in the tracker.
        assert manager.tracker._shadow_tracking is True

    def test_config_field_selects_learned(self):
        engine, manager, machine, region = make_setup(
            config=HeMemConfig(policy="learned")
        )
        assert isinstance(manager.policy, LearnedPolicy)

    def test_constructor_overrides_config(self):
        engine, manager, machine, region = make_setup(
            policy="nomad", config=HeMemConfig(policy="learned")
        )
        assert isinstance(manager.policy, NomadPolicy)

    def test_policy_class_plugs_in(self):
        class QuietPolicy(HeMemPolicy):
            name = "quiet"

            def run_pass(self, now):
                return 0, 0

        engine, manager, machine, region = make_setup(policy=QuietPolicy)
        assert manager.policy.name == "quiet"

    def test_unknown_name_rejected_at_attach(self):
        manager = HeMemManager(policy="thermodynamic")
        machine = Machine(MachineSpec().scaled(SCALE), seed=1)
        with pytest.raises(ValueError, match="unknown placement policy"):
            Engine(machine, manager, IdleWorkload(), EngineConfig(tick=0.01))

    def test_registry_is_complete(self):
        assert set(POLICIES) == {"hemem", "nomad", "learned"}
        engine, manager, machine, region = make_setup()
        for name in POLICIES:
            assert make_policy(name, manager).name == name


class TestPickDemotionVictimFreshlyHot:
    """A DRAM cold-list front that turns out to be hot after lazy cooling
    must be skipped (cool_if_stale re-homes it), not demoted."""

    def test_freshly_hot_front_is_skipped(self):
        engine, manager, machine, region = make_setup()
        tracker = manager.tracker
        store = tracker.store
        dram_cold = tracker.list_for(Tier.DRAM, hot=False)
        dram_hot = tracker.list_for(Tier.DRAM, hot=True)
        first = dram_cold.front_pid
        assert first >= 0
        second = store.next[first]
        assert second >= 0
        # The front page accumulated heavy reads, then the cooling clock
        # ticked without it being examined: it is stale *and* still hot.
        store.reads[first] = 64
        tracker.global_clock += 1
        victim = pick_demotion_victim(dram_cold, tracker)
        assert victim == second
        # The freshly-hot page was re-homed, not returned as a victim.
        assert store.list_id[first] == dram_hot.lid
        assert store.reads[first] == 32  # halved once for the missed tick

    def test_every_entry_freshly_hot_yields_none(self):
        engine, manager, machine, region = make_setup()
        tracker = manager.tracker
        store = tracker.store
        dram_cold = tracker.list_for(Tier.DRAM, hot=False)
        for pid in list(dram_cold):
            store.reads[pid] = 64
        tracker.global_clock += 1
        assert pick_demotion_victim(dram_cold, tracker) == -1
        assert not dram_cold

    def test_current_clock_front_is_taken_as_is(self):
        engine, manager, machine, region = make_setup()
        tracker = manager.tracker
        dram_cold = tracker.list_for(Tier.DRAM, hot=False)
        front = dram_cold.front_pid
        assert pick_demotion_victim(dram_cold, tracker) == front


class TestNomadShadows:
    def _promote_retained(self, manager, machine, region):
        page = int(region.pages_in(Tier.NVM)[0])
        pid = manager.tracker.pid_of(region, page)
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0,
                                        reason="promote-hot",
                                        retain_shadow=True)
        drain_direct(machine, manager)
        return page, pid

    def test_promotion_retains_nvm_shadow(self):
        engine, manager, machine, region = make_setup(policy="nomad")
        store = manager.tracker.store
        nvm_used = manager.dax[Tier.NVM].used_pages
        page, pid = self._promote_retained(manager, machine, region)
        assert Tier(region.tier[page]) is Tier.DRAM
        assert store.shadow[pid] >= 0
        assert not store.flags[pid] & DIRTY
        assert store.shadow_pages == 1
        # The source NVM page was retained, not freed.
        assert manager.dax[Tier.NVM].used_pages == nvm_used
        assert machine.stats.counter("hemem.shadows_created").value == 1

    def test_clean_demotion_is_a_nocopy_remap(self):
        engine, manager, machine, region = make_setup(policy="nomad")
        store = manager.tracker.store
        page, pid = self._promote_retained(manager, machine, region)
        shadow_offset = store.shadow[pid]
        dram_free = manager.dax[Tier.DRAM].free_pages
        assert manager.migrator.remap_demote(pid, 1.0)
        # Instant: no mover involvement at all.
        assert not manager.migrator.busy
        assert Tier(region.tier[page]) is Tier.NVM
        assert int(manager.offsets(region)[page]) == shadow_offset
        assert store.shadow[pid] == -1
        assert store.shadow_pages == 0
        assert manager.dax[Tier.DRAM].free_pages == dram_free + 1
        counters = machine.stats
        assert counters.counter("hemem.demotions_nocopy").value == 1
        assert counters.counter("hemem.pages_demoted").value == 1
        assert counters.counter("hemem.pages_migrated").value == 2

    def test_dirty_page_is_never_nocopy_demoted(self):
        engine, manager, machine, region = make_setup(policy="nomad")
        store = manager.tracker.store
        page, pid = self._promote_retained(manager, machine, region)
        # A sampled store hits the shadowed page: the tracker folds it
        # into the dirty bit (shadow tracking was enabled by bind()).
        sample(manager.tracker, region, page, is_store=True)
        assert store.flags[pid] & DIRTY
        with pytest.raises(ValueError, match="dirty"):
            manager.migrator.remap_demote(pid, 1.0)
        # The nomad policy's demotion path drops the shadow and falls back
        # to the transactional copy.
        policy = manager.policy
        assert policy._submit_demotion(pid, 1.0, "demote-watermark")
        assert store.shadow[pid] == -1
        assert manager.migrator.busy  # a real copy is in flight
        drain_direct(machine, manager)
        assert Tier(region.tier[page]) is Tier.NVM
        assert machine.stats.counter("hemem.demotions_nocopy").value == 0
        assert machine.stats.counter("hemem.shadows_dropped").value == 1

    def test_copy_demotion_auto_drops_stale_shadow(self):
        engine, manager, machine, region = make_setup(policy="nomad")
        store = manager.tracker.store
        page, pid = self._promote_retained(manager, machine, region)
        assert manager.migrator.migrate(pid, Tier.NVM, 1.0, reason="arbiter-evict")
        assert store.shadow[pid] == -1  # dropped at submit
        drain_direct(machine, manager)
        assert Tier(region.tier[page]) is Tier.NVM
        assert store.shadow_pages == 0

    def test_reclaim_drops_oldest_first_and_skips_stale(self):
        engine, manager, machine, region = make_setup(policy="nomad")
        store = manager.tracker.store
        migrator = manager.migrator
        pages = [int(p) for p in region.pages_in(Tier.NVM)[:3]]
        pids = [manager.tracker.pid_of(region, p) for p in pages]
        for pid in pids:
            assert migrator.migrate(pid, Tier.DRAM, 0.0, retain_shadow=True)
        drain_direct(machine, manager)
        assert store.shadow_pages == 3
        # Drop the oldest by hand: its FIFO entry goes stale.
        migrator.drop_shadow(pids[0], 0.5, reason="test")
        assert migrator.reclaim_shadows(1, 1.0) == 1
        # The stale entry was skipped; the *second*-oldest was reclaimed.
        assert store.shadow[pids[1]] == -1
        assert store.shadow[pids[2]] >= 0
        assert store.shadow_pages == 1

    def test_munmap_frees_shadow_pages(self):
        engine, manager, machine, region = make_setup(policy="nomad")
        nvm = manager.dax[Tier.NVM]
        free_before_any = nvm.free_pages + nvm.used_pages  # == n_pages
        self._promote_retained(manager, machine, region)
        manager.munmap(region)
        assert manager.tracker.store.shadow_pages == 0
        assert nvm.used_pages == 0
        assert nvm.free_pages == free_before_any

    def test_nomad_end_to_end_produces_nocopy_demotions(self):
        """A read-mostly hot set larger than DRAM thrashes pages between
        the tiers; most of those demotions commit without copying."""
        from dataclasses import replace

        spec = replace(MachineSpec().scaled(SCALE),
                       dram_capacity=256 * MB,  # hot set (512 MB) > DRAM
                       pebs_period_scale=8.0)   # enough heat to classify
        config = GupsConfig(
            working_set=2 * GB,
            hot_set=512 * MB,
            write_only_bytes=64 * MB,  # the other 448 MB stays clean
        )
        manager = HeMemManager(policy="nomad")
        machine = Machine(spec, seed=11)
        engine = Engine(machine, manager, GupsWorkload(config, warmup=0.5),
                        EngineConfig(tick=0.01, seed=11))
        engine.run(20.0)
        stats = machine.stats
        created = stats.counter("hemem.shadows_created").value
        nocopy = stats.counter("hemem.demotions_nocopy").value
        demoted = stats.counter("hemem.pages_demoted").value
        assert created > 0
        assert nocopy > 0
        # The headline claim: clean ping-pong demotions dominate.
        assert nocopy / demoted > 0.5


class TestLearnedPolicy:
    def _run(self, seed=5, duration=6.0):
        config = GupsConfig(working_set=8 * GB, hot_set=256 * MB)
        manager = HeMemManager(policy="learned")
        machine = Machine(MachineSpec().scaled(SCALE), seed=seed)
        engine = Engine(machine, manager, GupsWorkload(config, warmup=0.5),
                        EngineConfig(tick=0.01, seed=seed))
        result = engine.run(duration)
        return result, machine

    def test_promotes_the_hot_set(self):
        result, machine = self._run()
        assert machine.stats.counter("hemem.pages_promoted").value > 0

    def test_deterministic_across_runs(self):
        first, machine_a = self._run()
        second, machine_b = self._run()
        assert first["counters"] == second["counters"]

    def test_logistic_model_orders_by_heat(self):
        model = LogisticModel.default()
        cold = model.score((0.0, 0.0, 0.0, 0.0, 0.0))
        read_hot = model.score((8.0, 0.0, 0.0, 0.0, 0.0))
        write_hot = model.score((0.0, 4.0, 0.0, 0.0, 0.0))
        stale_hot = model.score((8.0, 0.0, 0.0, 0.0, 8.0))
        assert cold < 0.5
        assert read_hot >= 0.5
        assert write_hot >= 0.5
        assert stale_hot < read_hot  # old evidence counts for less

    def test_logistic_model_requires_five_weights(self):
        with pytest.raises(ValueError, match="5 feature weights"):
            LogisticModel((1.0, 2.0), bias=0.0)

    def test_stump_model_is_a_threshold(self):
        stump = StumpModel(read_threshold=8, write_threshold=4)
        assert stump.score((7.9, 3.9, 0, 0, 0)) == 0.0
        assert stump.score((8.0, 0.0, 0, 0, 0)) == 1.0
        assert stump.score((0.0, 4.0, 0, 0, 0)) == 1.0

    def test_stump_model_plugs_into_the_policy(self):
        engine, manager, machine, region = make_setup()
        policy = LearnedPolicy(manager, model=StumpModel())
        policy.bind()
        tracker = manager.tracker
        store = tracker.store
        page = int(region.pages_in(Tier.NVM)[0])
        pid = tracker.pid_of(region, page)
        store.reads[pid] = 50  # EWMA folds toward 20 on the first pass
        policy._pass_no = 1
        assert policy._score(pid) == 1.0
