"""Fig 8: HeMem overhead breakdown (512 GB working set, 16 GB hot).

Configurations, cumulative from an oracle:

- **Opt** — hot set manually placed in DRAM, no tracking, no migration.
- **PEBS** — Opt placement + the PEBS thread running (shows sampling is
  nearly free).
- **PT Scan** — Opt placement + page-table scanning instead of PEBS
  (TLB shootdowns cost ~18%).
- **PEBS + Migrate** — full HeMem, no oracle (within ~6% of Opt).
- **PT + M. Async** — page-table HeMem, separate scan thread (~43% of Opt).
- **PT + M. Sync** — scan and migration sharing one thread (~18% of Opt).
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.bench.gups_common import run_gups_case
from repro.bench.report import Table
from repro.bench.runner import Case
from repro.bench.scenario import Scenario
from repro.core.hemem import HeMemManager, hemem_pt_async, hemem_pt_sync
from repro.mem.page import Tier
from repro.workloads.gups import GupsConfig
from repro.sim.units import GB

#: label -> (manager factory, oracle placement?, services to disable)
CONFIGS = {
    "Opt": (HeMemManager, True,
            ("pebs_drain", "hemem_policy", "hemem_fault", "hemem_cooling")),
    "PEBS": (HeMemManager, True, ("hemem_policy",)),
    "PT Scan": (hemem_pt_async, True, ("hemem_policy",)),
    "PEBS + Migrate": (HeMemManager, False, ()),
    "PT + M. Async": (hemem_pt_async, False, ()),
    "PT + M. Sync": (hemem_pt_sync, False, ()),
}


def _gups_config(scenario: Scenario) -> GupsConfig:
    return GupsConfig(
        working_set=scenario.size(512 * GB),
        hot_set=scenario.size(16 * GB),
        threads=16,
    )


def _oracle_placement(engine) -> None:
    """Place the hot set in DRAM by fiat (the 'Opt' baseline).

    Each moved page takes its DAX reservation along, so the page ledger
    stays balanced; demotions go first to free the DRAM promotions need.
    """
    workload = engine.workload
    manager = engine.manager
    region = workload.region
    target = np.full(region.n_pages, Tier.NVM, dtype=region.tier.dtype)
    target[workload._hot_pages] = Tier.DRAM
    offsets = manager.offsets(region)
    for dst in (Tier.NVM, Tier.DRAM):
        for page in np.flatnonzero((region.tier != dst) & (target == dst)):
            manager.dax[Tier(region.tier[page])].free_page(int(offsets[page]))
            offsets[page] = manager.dax[dst].alloc_page()
            region.tier[page] = dst
    region.tier_version += 1
    # Bulk move behind the migrator's back: re-home the tracker's pages.
    manager.tracker.refresh_tiers(region)


def _disable(engine, *service_names) -> None:
    for service in list(engine.services):
        if service.name in service_names:
            engine.remove_service(service)


def _case(scenario: Scenario, label: str) -> float:
    manager_factory, oracle, disable_services = CONFIGS[label]
    gups = _gups_config(scenario)
    manager = manager_factory()
    result = run_gups_case(scenario, label, gups, manager=manager, duration=0.0)
    engine = result["engine"]
    if oracle:
        _oracle_placement(engine)
    if disable_services:
        _disable(engine, *disable_services)
    engine.run(scenario.duration)
    return result["workload"].gups(engine.clock.now)


def cases(scenario: Scenario) -> List[Case]:
    return [Case(label, _case, {"label": label}) for label in CONFIGS]


def assemble(scenario: Scenario, results: Dict[str, Any]) -> Table:
    table = Table(
        "Fig 8 — HeMem overhead breakdown (GUPS)",
        ["config", "gups", "vs Opt"],
        expectation=(
            "PEBS ~= Opt; PT Scan -18% (TLB shootdowns); PEBS+Migrate within "
            "~6% of Opt; PT+M.Async ~43% of Opt; PT+M.Sync ~18% of Opt"
        ),
    )
    opt = results["Opt"] or 1e-12
    for label in CONFIGS:
        table.row(label, f"{results[label]:.4f}", f"{results[label] / opt:.2f}")
    return table


def run(scenario: Scenario) -> Table:
    results = {c.key: c.fn(scenario, **c.kwargs) for c in cases(scenario)}
    return assemble(scenario, results)
