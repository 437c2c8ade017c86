"""Shadow-copy invariants under arbitrary op interleavings (Nomad tiering).

Driven through the real manager/migrator/tracker stack with the policy
thread held off (ops are applied directly), so the accounting assertions
are exact.  After every op, :func:`repro.core.invariants.violations`
must report nothing; that covers:

- a page holds at most one shadow, and shadow offsets are never shared;
- only DRAM-resident pages hold shadows;
- exact conservation at every step: NVM used == mapped + in-flight +
  shadows.

On top of that, the tests here assert:

- a dirty page is never demoted via the no-copy remap;
- an aborted copy (injected failure) leaves the shadow columns untouched.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.hemem import HeMemManager
from repro.core.invariants import violations
from repro.core.pagestore import DIRTY
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB

from tests.conftest import IdleWorkload, pages_in, sample

SCALE = 64
N_CAND = 6  # ops address the first N_CAND initially-NVM pages


def make_setup(seed=3):
    manager = HeMemManager(policy="nomad")
    machine = Machine(MachineSpec().scaled(SCALE), seed=seed)
    engine = Engine(machine, manager, IdleWorkload(),
                    EngineConfig(tick=0.01, seed=seed))
    region = manager.mmap(4 * GB, name="big")
    manager.prefault(region)
    return engine, manager, machine, region


def drain_direct(machine, manager, now, ticks=500):
    for _ in range(ticks):
        machine.begin_tick(now, 0.01)
        manager.migrator.flush_retries(now)
        if not manager.migrator.busy:
            break
        now += 0.01
    assert not manager.migrator.busy, "migration never settled"
    return now


op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("promote"),
                  st.integers(min_value=0, max_value=N_CAND - 1)),
        st.tuples(st.just("dirty"),
                  st.integers(min_value=0, max_value=N_CAND - 1)),
        st.tuples(st.just("demote"),
                  st.integers(min_value=0, max_value=N_CAND - 1)),
        st.tuples(st.just("reclaim"),
                  st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("tick"), st.just(0)),
    ),
    max_size=120,
)


class TestShadowInvariants:
    @settings(max_examples=25, deadline=None)
    @given(ops=op_strategy)
    def test_arbitrary_op_sequences_conserve_shadow_accounting(self, ops):
        engine, manager, machine, region = make_setup()
        tracker = manager.tracker
        store = tracker.store
        migrator = manager.migrator
        policy = manager.policy
        pages = [int(p) for p in pages_in(region, Tier.NVM)[:N_CAND]]
        pids = [tracker.pid_of(region, p) for p in pages]
        now = 0.0
        for op, arg in ops:
            if op == "promote":
                pid = pids[arg]
                # migrate() itself refuses under-migration pages.
                if store.tier[pid] == int(Tier.NVM):
                    policy._submit_promotion(pid, now, "promote-hot")
            elif op == "dirty":
                pid = pids[arg]
                if store.shadow[pid] >= 0:
                    sample(tracker, region, pages[arg], is_store=True)
                    assert store.flags[pid] & DIRTY
            elif op == "demote":
                pid = pids[arg]
                if store.tier[pid] == int(Tier.DRAM):
                    was_dirty_shadow = (
                        store.shadow[pid] >= 0
                        and bool(store.flags[pid] & DIRTY)
                    )
                    before = machine.stats.counter(
                        "hemem.demotions_nocopy").value
                    policy._submit_demotion(pid, now, "demote-watermark")
                    if was_dirty_shadow:
                        # A dirty page must take the copy path.
                        after = machine.stats.counter(
                            "hemem.demotions_nocopy").value
                        assert after == before
            elif op == "reclaim":
                migrator.reclaim_shadows(arg, now, reason="pressure")
            elif op == "tick":
                machine.begin_tick(now, 0.01)
                migrator.flush_retries(now)
            now += 0.01
            assert violations(engine) == []
        now = drain_direct(machine, manager, now)
        assert violations(engine) == []

    @settings(max_examples=25, deadline=None)
    @given(
        n_shadows=st.integers(min_value=1, max_value=N_CAND),
        reclaim=st.integers(min_value=0, max_value=N_CAND + 2),
    )
    def test_reclaim_frees_exactly_min_requested_available(self, n_shadows,
                                                           reclaim):
        engine, manager, machine, region = make_setup()
        tracker = manager.tracker
        store = tracker.store
        migrator = manager.migrator
        for p in pages_in(region, Tier.NVM)[:n_shadows]:
            assert migrator.migrate(tracker.pid_of(region, int(p)),
                                    Tier.DRAM, 0.0, retain_shadow=True)
        drain_direct(machine, manager, 0.0)
        assert store.shadow_pages == n_shadows
        nvm_free = manager.dax[Tier.NVM].free_pages
        freed = migrator.reclaim_shadows(reclaim, 1.0)
        assert freed == min(reclaim, n_shadows)
        assert store.shadow_pages == n_shadows - freed
        assert manager.dax[Tier.NVM].free_pages == nvm_free + freed
        assert violations(engine) == []


class TestAbortLeavesShadowsAlone:
    def test_failed_copy_demotion_rolls_back_without_touching_shadows(self):
        """A permanently failing copy-demotion aborts; every shadow column
        is bit-identical to its pre-submit state."""
        engine, manager, machine, region = make_setup()
        tracker = manager.tracker
        store = tracker.store
        migrator = manager.migrator
        nvm_pages = [int(p) for p in pages_in(region, Tier.NVM)[:3]]
        pids = [tracker.pid_of(region, p) for p in nvm_pages]
        for pid in pids:
            assert migrator.migrate(pid, Tier.DRAM, 0.0, retain_shadow=True)
        drain_direct(machine, manager, 0.0)
        # Dirty the victim so the policy takes the copy path.
        victim, victim_page = pids[0], nvm_pages[0]
        sample(tracker, region, victim_page, is_store=True)
        assert store.flags[victim] & DIRTY
        migrator.copy_fault_hook = lambda request, now: True  # always fail
        assert manager.policy._submit_demotion(victim, 1.0, "demote-watermark")
        # The dirty shadow was dropped at submit (deliberate); snapshot the
        # post-submit shadow state — the abort must not disturb it further.
        snapshot = list(store.shadow)
        snapshot_count = store.shadow_pages
        drain_direct(machine, manager, 1.0)
        assert machine.stats.counter("hemem.migrations_aborted").value == 1
        assert list(store.shadow) == snapshot
        assert store.shadow_pages == snapshot_count
        # The page survived the abort in DRAM, still mapped.
        assert Tier(region.tier[victim_page]) is Tier.DRAM
        assert violations(engine) == []

    @settings(max_examples=20, deadline=None)
    @given(fails=st.lists(st.booleans(), max_size=30))
    def test_arbitrary_failures_never_corrupt_shadow_columns(self, fails):
        engine, manager, machine, region = make_setup()
        tracker = manager.tracker
        store = tracker.store
        migrator = manager.migrator
        nvm_pages = [int(p) for p in pages_in(region, Tier.NVM)[:4]]
        pids = [tracker.pid_of(region, p) for p in nvm_pages]
        # Two retained shadows that must survive everything below.
        for pid in pids[:2]:
            assert migrator.migrate(pid, Tier.DRAM, 0.0, retain_shadow=True)
        drain_direct(machine, manager, 0.0)
        snapshot = list(store.shadow)
        draws = iter(fails)
        migrator.copy_fault_hook = lambda request, now: next(draws, False)
        # Plain (shadowless) copy-promotions under the failure pattern.
        for pid in pids[2:]:
            assert migrator.migrate(pid, Tier.DRAM, 1.0)
        drain_direct(machine, manager, 1.0)
        assert list(store.shadow) == snapshot
        assert violations(engine) == []
