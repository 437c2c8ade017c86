"""Experiment registry and runner."""

from __future__ import annotations

from typing import Callable, Dict

from repro.bench.experiments import (
    ablations,
    colo_matrix,
    colo_sharded,
    colo_table4,
    dma_sweep,
    fig1_thread_scaling,
    fig2_access_size,
    fig3_pt_scan,
    fig5_gups_uniform,
    fig6_gups_hotset,
    fig7_scalability,
    fig8_overheads,
    fig9_dynamic,
    fig10_pebs_period,
    fig11_hot_threshold,
    fig12_cooling,
    fig13_silo,
    fig14_bc_small,
    fig15_bc_large,
    fig16_nvm_wear,
    fleet_diurnal,
    policy_matrix,
    table1_devices,
    table2_write_skew,
    table3_kvs,
    table4_kvs_priority,
    tpcc_buffer,
)
from repro.bench.report import Table
from repro.bench.scenario import Scenario

#: experiment name -> module implementing cases()/assemble()/run()
MODULES = {
    "table1": table1_devices,
    "fig1": fig1_thread_scaling,
    "fig2": fig2_access_size,
    "fig3": fig3_pt_scan,
    "fig5": fig5_gups_uniform,
    "fig6": fig6_gups_hotset,
    "fig7": fig7_scalability,
    "fig8": fig8_overheads,
    "fig9": fig9_dynamic,
    "fig10": fig10_pebs_period,
    "fig11": fig11_hot_threshold,
    "fig12": fig12_cooling,
    "table2": table2_write_skew,
    "fig13": fig13_silo,
    "table3": table3_kvs,
    "table4": table4_kvs_priority,
    "fig14": fig14_bc_small,
    "fig15": fig15_bc_large,
    "fig16": fig16_nvm_wear,
    "ablations": ablations,
    "dma": dma_sweep,
    "colo_matrix": colo_matrix,
    "colo_sharded": colo_sharded,
    "colo_table4": colo_table4,
    "fleet_diurnal": fleet_diurnal,
    "policy_matrix": policy_matrix,
    "tpcc_buffer": tpcc_buffer,
}

EXPERIMENTS: Dict[str, Callable[[Scenario], Table]] = {
    name: module.run for name, module in MODULES.items()
}


def get_module(name: str):
    try:
        return MODULES[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(MODULES)}"
        ) from None


def get_experiment(name: str) -> Callable[[Scenario], Table]:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(name: str, scenario: Scenario) -> Table:
    return get_experiment(name)(scenario)
