"""The conservation checker: each law fires on exactly its own corruption.

Every test starts from a sound state (``violations(engine) == []``),
breaks exactly one thing and asserts the one named violation.  The
regression cases are configurations that earlier, per-config copies of
the ledger misjudged: unmanaged small regions (policy_matrix
``silo/hemem``) and Nomad shadows in a shared colocation pool.
"""

from repro.api import run_colocation
from repro.colo import TenantSpec
from repro.core.hemem import HeMemManager
from repro.core.invariants import violations
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB, MB
from repro.workloads.gups import GupsConfig, GupsWorkload

from tests.conftest import IdleWorkload, pages_in

SCALE = 64


def make_setup(policy=None):
    manager = HeMemManager(policy=policy)
    machine = Machine(MachineSpec().scaled(SCALE), seed=3)
    engine = Engine(machine, manager, IdleWorkload(),
                    EngineConfig(tick=0.01, seed=3))
    region = manager.mmap(4 * GB, name="big")
    manager.prefault(region)
    assert violations(engine) == []
    return engine, manager, region


def drain(engine, manager):
    now = 0.0
    while manager.migrator.busy:
        engine.machine.begin_tick(now, 0.01)
        manager.migrator.flush_retries(now)
        now += 0.01
        assert now < 5.0, "migration never settled"


def shadow_holders(engine, manager, region, n):
    """Promote ``n`` NVM pages keeping their shadows; their pids."""
    tracker = manager.tracker
    pids = [tracker.pid_of(region, int(page))
            for page in pages_in(region, Tier.NVM)[:n]]
    for pid in pids:
        assert manager.migrator.migrate(pid, Tier.DRAM, 0.0,
                                        retain_shadow=True)
    drain(engine, manager)
    assert violations(engine) == []
    return pids


def gups_tenant(name, policy=None):
    return TenantSpec(
        name,
        GupsWorkload(GupsConfig(working_set=4 * GB, hot_set=256 * MB),
                     warmup=1.0),
        manager_factory=lambda: HeMemManager(policy=policy),
    )


def colo_engine(policy=None):
    result = run_colocation([gups_tenant("a", policy), gups_tenant("b", policy)],
                            duration=4.0, policy="fair", scale=SCALE, seed=7,
                            tick=0.01)
    return result["engine"]


def only(problems, needle):
    """The single violation reported, which must mention ``needle``."""
    assert len(problems) == 1, problems
    assert needle in problems[0], problems
    return problems[0]


class TestLedger:
    def test_leaked_dax_page(self):
        engine, manager, _region = make_setup()
        manager.dax[Tier.NVM].alloc_page()
        only(violations(engine), "NVM: used")

    def test_freed_reservation_of_a_mapped_page(self):
        engine, manager, region = make_setup()
        page = int(pages_in(region, Tier.DRAM)[0])
        manager.dax[Tier.DRAM].free_page(int(manager.offsets(region)[page]))
        only(violations(engine), "DRAM: used")

    def test_backoff_waiting_copy_holds_its_reservation(self):
        engine, manager, region = make_setup()
        migrator = manager.migrator
        pid = manager.tracker.pid_of(region, int(pages_in(region, Tier.NVM)[0]))
        migrator.copy_fault_hook = lambda request, now: True
        assert migrator.migrate(pid, Tier.DRAM, 0.0)
        engine.machine.begin_tick(0.0, 0.01)  # the copy fails once
        assert migrator.retry_requests()
        assert violations(engine) == []

    def test_tenant_sum_drift(self):
        engine = colo_engine()
        assert violations(engine) == []
        engine.manager.get_tenant("a").nvm_dax.used_pages += 1
        only(violations(engine), "NVM: tenant used sum")


class TestShadowStructure:
    def test_shadow_on_an_nvm_page(self):
        engine, manager, region = make_setup(policy="nomad")
        [holder] = shadow_holders(engine, manager, region, 1)
        tracker = manager.tracker
        nvm_pid = tracker.pid_of(region, int(pages_in(region, Tier.NVM)[0]))
        store = tracker.store
        store.set_shadow(nvm_pid, store.clear_shadow(holder))
        only(violations(engine), "shadow on an NVM page")

    def test_shared_shadow_offset(self):
        engine, manager, region = make_setup(policy="nomad")
        first, second = shadow_holders(engine, manager, region, 2)
        store = manager.tracker.store
        store.shadow[second] = store.shadow[first]
        only(violations(engine), "shares shadow offset")


class TestRegressions:
    """Configurations the per-config ledger copies reported falsely."""

    def test_policy_matrix_silo_hemem(self):
        from repro.bench.experiments import policy_matrix
        from repro.bench.scenario import fast
        from repro.obs.runtime import capture

        with capture(trace=False, metrics=False) as cap:
            policy_matrix._silo_case(fast(), "hemem")
        [machine] = cap.machines()
        # Silo's small allocations are unmanaged: mapped, but no DAX pages.
        assert any(not region.managed for region in machine.regions)
        assert violations(machine.engine) == []

    def test_two_colocated_nomad_tenants(self):
        engine = colo_engine(policy="nomad")
        # Shadows sit in the shared NVM pool at the end of the run.
        assert sum(tenant.manager.tracker.store.shadow_pages
                   for tenant in engine.manager.all_tenants()) > 0
        assert violations(engine) == []
