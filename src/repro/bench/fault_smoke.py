"""Fault-matrix smoke runs: one short GUPS per fault kind.

CI's graceful-degradation gate: for every kind in
:data:`repro.faults.plan.FAULT_KINDS` this runs a migration-heavy GUPS
configuration under HeMem with a representative fault window, then asserts

- the injector fired (``faults.injected`` > 0) and, for windowed plans,
  recovered (``faults.recovered`` > 0),
- the kind's degradation path engaged (copy-thread fallback moved bytes,
  copy failures were retried, ...),
- DAX occupancy is consistent: in each tier ``used + free == total`` and
  every used page is accounted for by a mapped page or an in-flight
  migration reservation — i.e. no leak and no double-free survived the
  fault,
- the tracker's page lists obey their structural laws
  (:meth:`~repro.core.tracking.HotColdTracker.violations`),
- the run still made forward progress (non-zero GUPS).

Run as ``python -m repro.bench.fault_smoke [--out DIR]``; with ``--out``
each case's structured event trace is written to ``DIR/<kind>.trace.json``
for artifact upload.  Exits non-zero on the first violated invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.hemem import HeMemManager
from repro.faults.plan import FAULT_KINDS
from repro.mem.machine import Machine, MachineSpec
from repro.mem.page import Tier
from repro.obs.runtime import capture
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB, MB
from repro.workloads.gups import GupsConfig, GupsWorkload

#: per-kind smoke plan: injected after warmup, recovered before the end
SMOKE_PLANS: Dict[str, str] = {
    "dma_channel_down": "dma_channel_down:1@t=1.5+2.0",
    "dma_down": "dma_down@t=1.5+2.0",
    "nvm_degrade": "nvm_degrade:0.5@t=1.5+2.0",
    "nvm_wear": "nvm_wear:0.25@t=1.0+3.0",
    "copy_fail": "copy_fail:0.5@t=1.0+3.0",
    # same failure window, but under the Nomad policy: shadow-retaining
    # promotions and no-copy demotions must keep the NVM occupancy ledger
    # (mapped + in-flight + shadows) exact through aborts and retries
    "nomad": "copy_fail:0.5@t=1.0+3.0",
    "pebs_spike": "pebs_spike:0.05@t=1.5+2.0",
    # colocation: the fault targets tenant "a" only; tenant "b" must ride
    # through untouched while the shared DAX pools stay leak-free
    "colo": "copy_fail:0.5@t=1.0+3.0@tenant=a",
}


def run_smoke_case(kind: str, plan: str, duration: float = 6.0,
                   scale: float = 64.0, seed: int = 11,
                   trace: bool = False) -> Tuple[dict, List[str]]:
    """Run one fault-kind smoke case; returns (report, violations)."""
    if kind == "colo":
        return run_colo_smoke_case(plan, duration=duration, scale=scale,
                                   seed=seed, trace=trace)
    with capture(trace=trace, metrics=False) as cap:
        machine = Machine(MachineSpec().scaled(scale), seed=seed)
        from repro.faults import FaultPlan

        machine.install_faults(FaultPlan.parse(plan))
        manager = HeMemManager(policy="nomad" if kind == "nomad" else None)
        workload = GupsWorkload(
            GupsConfig(working_set=8 * GB, hot_set=256 * MB), warmup=1.0
        )
        engine = Engine(machine, manager, workload,
                        EngineConfig(tick=0.01, seed=seed))
        engine.run(duration)
    counters = machine.stats.counters()
    gups = workload.gups(engine.clock.now)
    violations = check_case(kind, plan, counters, gups, manager, machine)
    report = {
        "kind": kind,
        "plan": plan,
        "gups": gups,
        "injected": counters.get("faults.injected", 0.0),
        "recovered": counters.get("faults.recovered", 0.0),
        "migrated": counters.get("hemem.pages_migrated", 0.0),
        "retries": counters.get("hemem.migration_retries", 0.0),
        "aborted": counters.get("hemem.migrations_aborted", 0.0),
        "trace": cap.payloads()[0]["trace"] if trace else None,
    }
    return report, violations


def run_colo_smoke_case(plan: str, duration: float = 6.0,
                        scale: float = 64.0, seed: int = 11,
                        trace: bool = False) -> Tuple[dict, List[str]]:
    """Tenant-targeted fault under colocation: the targeted tenant's
    migrations retry, its neighbour is untouched, and the *shared* DAX
    pools survive the failure window without leaks."""
    from repro.api import run_colocation
    from repro.colo import TenantSpec

    def tenant_workload() -> GupsWorkload:
        # Oversubscribed vs the per-tenant DRAM share, so migrations flow.
        return GupsWorkload(
            GupsConfig(working_set=4 * GB, hot_set=256 * MB), warmup=1.0
        )

    with capture(trace=trace, metrics=False) as cap:
        result = run_colocation(
            [TenantSpec("a", tenant_workload()),
             TenantSpec("b", tenant_workload())],
            duration=duration, policy="fair", scale=scale, seed=seed,
            faults=plan,
        )
    engine = result["engine"]
    machine = engine.machine
    colo = engine.manager
    counters = machine.stats.counters()
    gups = sum(slo.get("gups", 0.0) for slo in result["tenants_slo"].values())

    bad: List[str] = []
    if counters.get("faults.injected", 0.0) < 1:
        bad.append("fault was never injected")
    if "+" in plan and counters.get("faults.recovered", 0.0) < 1:
        bad.append("windowed fault never recovered")
    for name, slo in result["tenants_slo"].items():
        if slo.get("gups", 0.0) <= 0:
            bad.append(f"tenant {name}: no forward progress under fault")
    if counters.get("a.migration_retries", 0.0) < 1:
        bad.append("targeted tenant 'a' saw no copy retries")
    if counters.get("b.migration_retries", 0.0) != 0:
        bad.append("untargeted tenant 'b' was hit by a tenant-scoped fault")
    bad.extend(colo_occupancy_violations(colo, machine))
    for tenant in colo.all_tenants():
        tracker = getattr(tenant.manager, "tracker", None)
        if tracker is not None:
            bad.extend(f"tenant {tenant.name}: {problem}"
                       for problem in tracker.violations())

    report = {
        "kind": "colo",
        "plan": plan,
        "gups": gups,
        "injected": counters.get("faults.injected", 0.0),
        "recovered": counters.get("faults.recovered", 0.0),
        "migrated": sum(counters.get(f"{t}.pages_migrated", 0.0)
                        for t in ("a", "b")),
        "retries": counters.get("a.migration_retries", 0.0),
        "aborted": sum(counters.get(f"{t}.migrations_aborted", 0.0)
                       for t in ("a", "b")),
        "trace": cap.payloads()[0]["trace"] if trace else None,
    }
    return report, bad


def check_case(kind: str, plan: str, counters: dict, gups: float,
               manager, machine) -> List[str]:
    """All smoke invariants for one completed case; returns violations."""
    bad: List[str] = []
    if counters.get("faults.injected", 0.0) < 1:
        bad.append("fault was never injected")
    if "+" in plan and counters.get("faults.recovered", 0.0) < 1:
        bad.append("windowed fault never recovered")
    if gups <= 0:
        bad.append("no forward progress under fault")
    # Kind-specific evidence that the degradation path actually engaged.
    if kind == "dma_down":
        if counters.get("faults.copy_threads.bytes_moved", 0.0) <= 0:
            bad.append("copy-thread fallback moved no bytes")
        if manager.migrator.mover is not machine.dma:
            bad.append("migration not routed back to DMA after recovery")
    if kind in ("copy_fail", "nomad"):
        if counters.get("hemem.migration_retries", 0.0) < 1:
            bad.append("injected copy failures produced no retries")
    if kind == "nomad":
        if counters.get("hemem.shadows_created", 0.0) < 1:
            bad.append("nomad policy retained no shadows")
    bad.extend(occupancy_violations(manager, machine))
    bad.extend(manager.tracker.violations())
    return bad


def occupancy_violations(manager, machine) -> List[str]:
    """DAX leak / double-free check, tolerant of in-flight migrations.

    A migration holds its destination reservation from submit (or retry
    wait) until completion, so at any instant
    ``used == mapped + in-flight destinations`` per tier — plus, in NVM,
    the shadow copies a non-exclusive policy (Nomad) has retained for
    DRAM-resident pages.  An aborted or failed copy that leaked would push
    ``used`` above that; a double-free would push it below (or corrupt the
    free list's used+free total).
    """
    bad: List[str] = []
    inflight = {Tier.DRAM: 0, Tier.NVM: 0}
    for mover in machine.movers():
        for request in mover._queue:
            inflight[request.dst_tier] += 1
    for _ready_at, request in manager.migrator._retry_queue:
        inflight[request.dst_tier] += 1
    store = getattr(manager.tracker, "store", None)
    shadow_pages = getattr(store, "shadow_pages", 0)
    for tier, dax in manager.dax.items():
        if dax.used_pages + dax.free_pages != dax.n_pages:
            bad.append(f"{tier.name}: used {dax.used_pages} + free "
                       f"{dax.free_pages} != total {dax.n_pages}")
        mapped = sum(
            int((region.mapped & (region.tier == tier)).sum())
            for region in machine.regions
        )
        shadows = shadow_pages if tier == Tier.NVM else 0
        expected = mapped + inflight[tier] + shadows
        if dax.used_pages != expected:
            bad.append(f"{tier.name}: used {dax.used_pages} != mapped "
                       f"{mapped} + in-flight {inflight[tier]} + "
                       f"shadows {shadows}")
    return bad


def colo_occupancy_violations(colo, machine) -> List[str]:
    """Shared-pool variant of :func:`occupancy_violations`.

    Per tier the *shared* DAX file must satisfy used + free == total,
    used == mapped + in-flight (summing every mover queue and every
    tenant migrator's retry queue), and the per-tenant used counts must
    sum to the shared used count — cross-tenant eviction and departure
    reclaim conserve pages exactly.
    """
    bad: List[str] = []
    inflight = {Tier.DRAM: 0, Tier.NVM: 0}
    for mover in machine.movers():
        for request in mover._queue:
            inflight[request.dst_tier] += 1
    for migrator in colo.migrators():
        for request in migrator.retry_requests():
            inflight[request.dst_tier] += 1
    for tier, shared in colo.shared_dax.items():
        if shared.used_pages + shared.free_pages != shared.n_pages:
            bad.append(f"{tier.name}: used {shared.used_pages} + free "
                       f"{shared.free_pages} != total {shared.n_pages}")
        mapped = sum(
            int((region.mapped & (region.tier == tier)).sum())
            for region in machine.regions
        )
        expected = mapped + inflight[tier]
        if shared.used_pages != expected:
            bad.append(f"{tier.name}: shared used {shared.used_pages} != "
                       f"mapped {mapped} + in-flight {inflight[tier]}")
        tenant_used = sum(
            (t.dram_dax if tier == Tier.DRAM else t.nvm_dax).used_pages
            for t in colo.all_tenants() if t.dram_dax is not None
        )
        if tenant_used != shared.used_pages:
            bad.append(f"{tier.name}: tenant used sum {tenant_used} != "
                       f"shared used {shared.used_pages}")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.fault_smoke",
        description="Run one short GUPS per fault kind and check recovery.",
    )
    parser.add_argument("kinds", nargs="*", metavar="kind",
                        help=f"fault kinds (default: all of "
                             f"{', '.join(sorted(FAULT_KINDS))})")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write per-kind event traces to DIR (artifacts)")
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--scale", type=float, default=64.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    kinds = args.kinds or sorted(SMOKE_PLANS)
    unknown = [k for k in kinds if k not in SMOKE_PLANS]
    if unknown:
        parser.error(f"unknown fault kinds: {unknown}")

    out_dir: Optional[Path] = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for kind in kinds:
        plan = SMOKE_PLANS[kind]
        report, violations = run_smoke_case(
            kind, plan, duration=args.duration, scale=args.scale,
            seed=args.seed, trace=out_dir is not None,
        )
        trace = report.pop("trace")
        if out_dir is not None and trace is not None:
            (out_dir / f"{kind}.trace.json").write_text(json.dumps(trace))
        status = "ok" if not violations else "FAIL"
        print(f"[{status}] {kind:18s} plan={plan:32s} "
              f"gups={report['gups']:.4f} injected={report['injected']:.0f} "
              f"recovered={report['recovered']:.0f} "
              f"migrated={report['migrated']:.0f} "
              f"retries={report['retries']:.0f}")
        for violation in violations:
            failures += 1
            print(f"       violation: {violation}")
    if failures:
        print(f"fault smoke FAILED: {failures} violated invariant(s)")
        return 1
    print(f"fault smoke passed: {len(kinds)} kinds, all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
