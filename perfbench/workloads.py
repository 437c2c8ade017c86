"""The benchmark's workloads: fixed sets of existing experiment cases.

Each workload names experiments from :mod:`repro.bench.registry` and,
optionally, the case keys it keeps from each.  An experiment listed
without keys contributes every case, which is what lets the harness
re-assemble its table and compare it with the committed golden CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: (experiment name, case keys kept, or None for all of them)
Part = Tuple[str, Optional[Tuple[str, ...]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: Tuple[Part, ...]

    def cases(self, scenario) -> List[tuple]:
        """``[(experiment, Case), ...]`` in run order."""
        from repro.bench.registry import get_module

        out = []
        for experiment, keys in self.parts:
            module_cases = get_module(experiment).cases(scenario)
            if keys is not None:
                by_key = {case.key: case for case in module_cases}
                module_cases = [by_key[key] for key in keys]
            out.extend((experiment, case) for case in module_cases)
        return out

    def whole_experiments(self) -> List[str]:
        """Experiments whose every case runs here (golden-checkable)."""
        return [experiment for experiment, keys in self.parts if keys is None]


#: run order is the order of this tuple
WORKLOADS = (
    Workload(
        "gups_sweep",
        "Single-stream GUPS over every manager: per-tick engine, split and "
        "resolve cost dominate, sampling is light; bypasses db, colo and "
        "serve.",
        (("fig5", None), ("fig7", None), ("fig12", None)),
    ),
    Workload(
        "pebs_sampling",
        "Raw PEBS period 1000: sample synthesis and the tracker drain take "
        "most host time while placement hardly moves.",
        (("fig10", ("1000/run0",)),),
    ),
    Workload(
        "policy_churn",
        "Hot set exceeds DRAM, so hemem/nomad/learned migrate all run long "
        "and nomad keeps dirty shadows; stresses placement and migration.",
        (("policy_matrix", None),),
    ),
    Workload(
        "tpcc_db",
        "Functional TPC-C: the only workload with material setup (load + "
        "profile) and the heaviest workload-side work (live txn pricing).",
        (("tpcc_buffer", None),),
    ),
    Workload(
        "colo_fleet",
        "64-tenant colocation plus diurnal serving: per-stream cost times "
        "the tenant count, churn, arbiter, monitor and controller passes.",
        (("colo_sharded", None), ("fleet_diurnal", None)),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
