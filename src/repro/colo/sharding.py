"""Sharding colocation runs across independent simulations.

A colocation fleet can be *sharded* — split into disjoint tenant subsets,
each run as its own simulation (typically in its own worker process via
the bench runner's ``ProcessPoolExecutor``) — whenever per-tenant results
do not depend on which other tenants share the machine.  The conditions
for that independence, all checked by construction in the experiments
that opt in (``shardable = True``):

- **DRAM quotas** come from the ``floor`` sharing policy, so a tenant's
  quota is a function of its own reservation only.
- **RNG substreams** are tenant-named: workload draws use
  ``make_rng(seed, "workload", name)`` and PEBS draws
  ``make_rng(seed, "pebs", name)`` / ``("pebs_source", name)``, so a
  tenant's random sequence is identical no matter who runs beside it.
- **No shared-device congestion**: the experiment's machine spec leaves
  every bandwidth channel and the CPU uncongested, so the performance
  model's per-stream throttle is exactly 1.0 with or without co-runners,
  and each tenant uses a private copy engine (``use_dma=False``) rather
  than the shared DMA channels.

Under those conditions the merged per-tenant summaries of an N-shard run
are bit-identical to the unsharded run — which is what lets a 64-tenant
fleet fan out over worker processes and still produce one canonical
table (and lets every shard be cached independently by the result
cache's content addressing).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.colo.tenant import TenantSpec


def shard_specs(specs: Sequence[TenantSpec], shard: int,
                shards: int) -> List[TenantSpec]:
    """Round-robin subset of ``specs`` for one shard.

    Round-robin (rather than contiguous blocks) keeps heterogeneous
    fleets balanced: with tenants laid out in size-class order, every
    shard gets an equal slice of each class.  The partition is
    deterministic and disjoint, and the union over ``range(shards)``
    is exactly ``specs``.
    """
    if shards <= 0:
        raise ValueError(f"shards must be positive: {shards}")
    if not 0 <= shard < shards:
        raise ValueError(f"shard index {shard} out of range for {shards} shards")
    return list(specs[shard::shards])


def merge_tenant_results(parts: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Union per-shard ``{tenant: summary}`` maps into one fleet map.

    Shards hold disjoint tenant subsets, so a duplicate name means the
    partition (or a case key) is wrong — fail loudly rather than let one
    shard's numbers silently overwrite another's.
    """
    merged: Dict[str, Any] = {}
    for part in parts:
        for name, summary in part.items():
            if name in merged:
                raise ValueError(f"tenant {name!r} appears in multiple shards")
            merged[name] = summary
    return merged

