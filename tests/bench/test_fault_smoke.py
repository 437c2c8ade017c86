"""Fault-matrix smoke runs: one short GUPS per fault kind.

The graceful-degradation gate: for every kind in
:data:`repro.faults.plan.FAULT_KINDS` (plus an aborting ``copy_abort``
plan and Nomad and colocation variants) a migration-heavy GUPS
configuration runs with a representative fault window, and the test
asserts

- the injector fired (``faults.injected`` > 0) and, for windowed plans,
  recovered (``faults.recovered`` > 0),
- the kind's degradation path engaged (copy-thread fallback moved bytes,
  copy failures were retried, ``copy_abort`` rolled a migration back,
  ...),
- every conservation law of :mod:`repro.core.invariants` holds at the end
  (DAX ledger, tenant sums, tracker structure): no page leaked or was
  double-freed under the fault,
- the run still made forward progress (non-zero GUPS).

The ``copy_abort`` run is traced: migrations that exhaust their retries
roll back, ``Trace.migrations()`` records each abort with its retries,
and both the Perfetto export and an offline ``repro.bench diagnose`` of
the saved trace close one slice per abort.
"""

import json
from typing import Dict, List, Optional, Tuple

import pytest

from repro.bench.diagnostics import diagnose_main
from repro.core import invariants
from repro.core.hemem import HeMemManager
from repro.core.migrate import Migrator
from repro.mem.machine import Machine, MachineSpec
from repro.obs.perfetto import export_traces, validate_chrome_trace
from repro.obs.replay import Trace
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

DURATION, SCALE, SEED = 6.0, 64.0, 11


def run_smoke_case(kind: str, trace: bool = False) -> Tuple[dict, List[str]]:
    """Run one smoke case; returns (report, violations)."""
    plan = SMOKE_PLANS[kind]
    policy = "nomad" if kind in NOMAD_KINDS else None
    run = _run_colo if kind.startswith("colo") else _run_single
    with capture(trace=trace, metrics=False) as cap:
        engine, gups = run(plan, policy)
    counters = engine.machine.stats.counters()
    violations = check_case(kind, plan, counters, gups, engine)
    violations += invariants.violations(engine)
    report = {
        "aborted": sum(counters.get(f"{scope}.migrations_aborted", 0.0)
                       for scope in gups),
        "trace": cap.payloads()[0]["trace"] if trace else None,
    }
    return report, violations


def _run_single(plan: str, policy: Optional[str]
                ) -> Tuple[Engine, Dict[str, float]]:
    """One HeMem manager under the fault; GUPS keyed by its stats scope."""
    from repro.faults import FaultPlan

    machine = Machine(MachineSpec().scaled(SCALE), seed=SEED)
    machine.install_faults(FaultPlan.parse(plan))
    manager = HeMemManager(policy=policy)
    workload = GupsWorkload(
        GupsConfig(working_set=8 * GB, hot_set=256 * MB), warmup=1.0
    )
    engine = Engine(machine, manager, workload,
                    EngineConfig(tick=0.01, seed=SEED))
    engine.run(DURATION)
    return engine, {manager.name: workload.gups(engine.clock.now)}


def _run_colo(plan: str, policy: Optional[str]
              ) -> Tuple[Engine, Dict[str, float]]:
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
        [tenant("a"), tenant("b")], duration=DURATION, policy="fair",
        scale=SCALE, seed=SEED, faults=plan,
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


@pytest.fixture(scope="module")
def smoke_runs():
    """``kind -> (report, violations)``, each kind run once per module;
    ``copy_abort`` runs traced."""
    runs: Dict[str, Tuple[dict, List[str]]] = {}

    def get(kind: str) -> Tuple[dict, List[str]]:
        if kind not in runs:
            runs[kind] = run_smoke_case(kind, trace=kind == "copy_abort")
        return runs[kind]

    return get


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(SMOKE_PLANS))
def test_smoke_plan(kind, smoke_runs):
    _, violations = smoke_runs(kind)
    assert violations == []


def test_copy_abort_plan_aborts_and_replays(smoke_runs):
    report, violations = smoke_runs("copy_abort")
    assert violations == []
    trace = Trace.from_dicts(report["trace"])
    aborted = [r for r in trace.migrations() if r.aborted is not None]
    assert len(aborted) == report["aborted"] >= 1
    for record in aborted:
        assert record.done is None
        assert record.aborted.attempts == Migrator.MAX_RETRIES
        assert len(record.retries) == Migrator.MAX_RETRIES

    doc = export_traces({"copy_abort": trace})
    assert validate_chrome_trace(doc) == []
    abort_ends = [
        e for e in doc["traceEvents"]
        if e["ph"] == "e" and e["args"].get("aborted") is True
    ]
    assert len(abort_ends) == len(aborted)


@pytest.mark.slow
def test_offline_diagnose_of_the_copy_abort_trace(smoke_runs, tmp_path):
    """``repro.bench diagnose`` on the saved trace: the health detectors
    run, and the Perfetto export validates with at least one aborted
    migration slice."""
    report, _ = smoke_runs("copy_abort")
    trace_path = tmp_path / "copy_abort.trace.json"
    trace_path.write_text(json.dumps(report["trace"]))
    perfetto = tmp_path / "copy_abort.perfetto.json"
    health = tmp_path / "copy_abort.health.json"
    assert diagnose_main([str(trace_path), "--perfetto-out", str(perfetto),
                          "--health-out", str(health)]) == 0
    doc = json.loads(perfetto.read_text())
    assert validate_chrome_trace(doc) == []
    aborts = sum(1 for e in doc["traceEvents"]
                 if e["ph"] == "e" and e["args"].get("aborted"))
    assert aborts >= 1
    assert json.loads(health.read_text())["kind"] == "health"
