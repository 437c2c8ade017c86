"""Fault-matrix smoke runs: one short GUPS per fault kind.

CI's graceful-degradation gate: for every kind in
:data:`repro.faults.plan.FAULT_KINDS` (plus an aborting ``copy_abort``
plan and Nomad and colocation variants) this runs a migration-heavy GUPS
configuration with a representative fault window, then asserts

- the injector fired (``faults.injected`` > 0) and, for windowed plans,
  recovered (``faults.recovered`` > 0),
- the kind's degradation path engaged (copy-thread fallback moved bytes,
  copy failures were retried, ``copy_abort`` rolled a migration back,
  ...),
- every conservation law of :mod:`repro.core.invariants` holds at the end
  (DAX ledger, tenant sums, tracker structure): no page leaked or was
  double-freed under the fault,
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

from repro.core import invariants
from repro.core.hemem import HeMemManager
from repro.faults.plan import FAULT_KINDS
from repro.mem.machine import Machine, MachineSpec
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
    # failure rate high enough that some migrations exhaust their retries
    # and abort: rollback must release the reserved destination page
    "copy_abort": "copy_fail:0.9@t=1.0+3.0",
    # same failure window, but under the Nomad policy: shadow-retaining
    # promotions and no-copy demotions must keep the NVM occupancy ledger
    # (mapped + in-flight + shadows) exact through aborts and retries
    "nomad": "copy_fail:0.5@t=1.0+3.0",
    "pebs_spike": "pebs_spike:0.05@t=1.5+2.0",
    # colocation: the fault targets tenant "a" only; tenant "b" must ride
    # through untouched while the shared DAX pools stay leak-free
    "colo": "copy_fail:0.5@t=1.0+3.0@tenant=a",
    # the same with two Nomad tenants: shadows live in the shared NVM pool
    "colo_nomad": "copy_fail:0.5@t=1.0+3.0@tenant=a",
}

#: kinds whose managers run the Nomad (shadow-retaining) policy
NOMAD_KINDS = ("nomad", "colo_nomad")


def run_smoke_case(kind: str, plan: str, duration: float = 6.0,
                   scale: float = 64.0, seed: int = 11,
                   trace: bool = False) -> Tuple[dict, List[str]]:
    """Run one smoke case; returns (report, violations)."""
    policy = "nomad" if kind in NOMAD_KINDS else None
    run = _run_colo if kind.startswith("colo") else _run_single
    with capture(trace=trace, metrics=False) as cap:
        engine, gups = run(plan, policy, duration, scale, seed)
    counters = engine.machine.stats.counters()
    violations = check_case(kind, plan, counters, gups, engine)
    violations += invariants.violations(engine)

    def total(name: str) -> float:
        return sum(counters.get(f"{scope}.{name}", 0.0) for scope in gups)

    report = {
        "kind": kind,
        "plan": plan,
        "gups": sum(gups.values()),
        "injected": counters.get("faults.injected", 0.0),
        "recovered": counters.get("faults.recovered", 0.0),
        "migrated": total("pages_migrated"),
        "retries": total("migration_retries"),
        "aborted": total("migrations_aborted"),
        "trace": cap.payloads()[0]["trace"] if trace else None,
    }
    return report, violations


def _run_single(plan: str, policy: Optional[str], duration: float,
                scale: float, seed: int) -> Tuple[Engine, Dict[str, float]]:
    """One HeMem manager under the fault; GUPS keyed by its stats scope."""
    from repro.faults import FaultPlan

    machine = Machine(MachineSpec().scaled(scale), seed=seed)
    machine.install_faults(FaultPlan.parse(plan))
    manager = HeMemManager(policy=policy)
    workload = GupsWorkload(
        GupsConfig(working_set=8 * GB, hot_set=256 * MB), warmup=1.0
    )
    engine = Engine(machine, manager, workload,
                    EngineConfig(tick=0.01, seed=seed))
    engine.run(duration)
    return engine, {manager.name: workload.gups(engine.clock.now)}


def _run_colo(plan: str, policy: Optional[str], duration: float,
              scale: float, seed: int) -> Tuple[Engine, Dict[str, float]]:
    """Two colocated tenants "a" and "b" sharing the DAX pools; GUPS per
    tenant (each tenant's stats scope is its name)."""
    from repro.api import run_colocation
    from repro.colo import TenantSpec

    def tenant(name: str) -> TenantSpec:
        # Oversubscribed vs the per-tenant DRAM share, so migrations flow.
        workload = GupsWorkload(
            GupsConfig(working_set=4 * GB, hot_set=256 * MB), warmup=1.0
        )
        return TenantSpec(name, workload,
                          manager_factory=lambda: HeMemManager(policy=policy))

    result = run_colocation(
        [tenant("a"), tenant("b")], duration=duration, policy="fair",
        scale=scale, seed=seed, faults=plan,
    )
    return result["engine"], {
        name: slo.get("gups", 0.0)
        for name, slo in result["tenants_slo"].items()
    }


def check_case(kind: str, plan: str, counters: dict,
               gups: Dict[str, float], engine) -> List[str]:
    """Evidence that the fault fired and its degradation path engaged.

    ``gups`` maps each manager's stats scope (``hemem``, or the tenant
    names) to its throughput.  The conservation laws are checked
    separately, by :func:`repro.core.invariants.violations`.
    """
    bad: List[str] = []
    if counters.get("faults.injected", 0.0) < 1:
        bad.append("fault was never injected")
    if "+" in plan and counters.get("faults.recovered", 0.0) < 1:
        bad.append("windowed fault never recovered")
    for scope, rate in gups.items():
        if rate <= 0:
            bad.append(f"{scope}: no forward progress under fault")
    if kind == "dma_down":
        if counters.get("faults.copy_threads.bytes_moved", 0.0) <= 0:
            bad.append("copy-thread fallback moved no bytes")
        if engine.manager.migrator.mover is not engine.machine.dma:
            bad.append("migration not routed back to DMA after recovery")
    if plan.startswith("copy_fail"):
        # A tenant-scoped plan must hit its tenant and nobody else.
        target = plan.partition("@tenant=")[2]
        for scope in gups:
            retries = counters.get(f"{scope}.migration_retries", 0.0)
            if scope == target or not target:
                if retries < 1:
                    bad.append(f"{scope}: injected copy failures produced "
                               f"no retries")
            elif retries != 0:
                bad.append(f"{scope}: hit by a fault scoped to {target!r}")
    if kind == "copy_abort":
        if sum(counters.get(f"{scope}.migrations_aborted", 0.0)
               for scope in gups) < 1:
            bad.append("no migration exhausted its retries and aborted")
    if kind in NOMAD_KINDS:
        if sum(counters.get(f"{scope}.shadows_created", 0.0)
               for scope in gups) < 1:
            bad.append("nomad policy retained no shadows")
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
              f"retries={report['retries']:.0f} "
              f"aborted={report['aborted']:.0f}")
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
