"""Per-tenant device bandwidth partitioning.

The perf model throttles all streams on a congested channel
*proportionally to their demand* — which means one scan-heavy tenant can
take an arbitrarily large share of a device simply by issuing more
traffic.  The partitioner replaces that with an explicit share: per
congested (tier, op) channel it runs weighted max-min water-filling over
the tenants' demands (or serves priority classes in order), converts
each tenant's allocation into a rate multiplier, and hands the
multipliers to :meth:`PerfModel.resolve` as per-stream ``factors``.
Channel demand and capacity come from :meth:`PerfModel.demand`, the same
pass 1 that ``resolve`` runs.

Uncongested channels are untouched, and a run with no attributed streams
(or a single stream) returns ``None``, so ``resolve`` runs unscaled.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mem.perf import _N_CHANNELS

_EPS = 1e-12


def water_fill(
    demands: Dict[str, float], weights: Dict[str, float], cap: float
) -> Dict[str, float]:
    """Weighted max-min allocation of ``cap`` across ``demands``.

    Progressive filling: every unsatisfied tenant gets its weight-share
    of the remaining capacity, satisfied tenants drop out, and their
    unused share is redistributed — the classic water-filling fixpoint,
    reached in at most ``len(demands)`` rounds.
    """
    alloc = {name: 0.0 for name in demands}
    active = {name for name, demand in demands.items() if demand > 0}
    cap = max(cap, 0.0)
    while active and cap > _EPS:
        weight_sum = sum(weights.get(name, 1.0) for name in active)
        if weight_sum <= 0:
            per = {name: cap / len(active) for name in active}
        else:
            per = {
                name: cap * weights.get(name, 1.0) / weight_sum
                for name in active
            }
        satisfied = set()
        used = 0.0
        for name in active:
            grant = min(per[name], demands[name] - alloc[name])
            alloc[name] += grant
            used += grant
            if alloc[name] >= demands[name] - _EPS:
                satisfied.add(name)
        cap -= used
        if not satisfied:
            break  # every tenant is capacity-bound; cap is fully spent
        active -= satisfied
    return alloc


class BandwidthPartitioner:
    """Machine hook computing per-stream rate factors for colocation."""

    MODES = ("fair", "priority")

    def __init__(self, colo, mode: str = "fair"):
        if mode not in self.MODES:
            raise ValueError(
                f"unknown bandwidth mode {mode!r}; have {self.MODES}"
            )
        self.colo = colo
        self.mode = mode

    def stream_factors(
        self, streams, splits, speed_factor, perf, reserved
    ) -> Optional[List[float]]:
        if len(streams) < 2 or speed_factor <= 0:
            return None
        # Unthrottled per-stream rates, channel totals and capacities from
        # the perf model's own pass 1, so the demand figures match what
        # resolve() will compute to the last bit.
        per_stream, totals, caps = perf.demand(
            streams, splits, speed_factor, reserved
        )
        owners = [self.colo.tenant_of_stream(stream) for stream in streams]
        tenants = {t.name: t for t in owners if t is not None}
        if not tenants:
            return None

        demand: List[Dict[Optional[str], float]] = [
            {} for _ in range(_N_CHANNELS)
        ]
        for tenant, (_stream, rate, _op_t, entries) in zip(owners, per_stream):
            key = tenant.name if tenant is not None else None
            for chan, bytes_per_op, _cap, _pat in entries:
                d = rate * bytes_per_op
                if d > 0:
                    demand[chan][key] = demand[chan].get(key, 0.0) + d

        tenant_factor: List[Dict[str, float]] = [{} for _ in range(_N_CHANNELS)]
        congested = False
        for chan in range(_N_CHANNELS):
            cap = caps[chan]
            if cap is None or totals[chan] <= cap:
                continue  # channel idle or uncongested: everyone runs free
            congested = True
            chan_demand = demand[chan]
            # Streams we cannot attribute (none in a standard colocation
            # run) keep their full demand off the top; the perf model's
            # global throttle still binds them.
            tenant_demand = {
                name: d for name, d in chan_demand.items() if name is not None
            }
            cap_for_tenants = max(cap - chan_demand.get(None, 0.0), 1e-9)
            alloc = self._allocate(tenant_demand, tenants, cap_for_tenants)
            for name, d in tenant_demand.items():
                tenant_factor[chan][name] = (
                    min(1.0, alloc.get(name, 0.0) / d) if d > 0 else 1.0
                )
        if not congested:
            return None

        factors = []
        for tenant, (_stream, _rate, _op_t, entries) in zip(owners, per_stream):
            factor = 1.0
            if tenant is not None:
                for chan, _bytes_per_op, _cap, _pat in entries:
                    t = tenant_factor[chan].get(tenant.name)
                    if t is not None and t < factor:
                        factor = t
            factors.append(factor)
        return factors

    def _allocate(
        self, demands: Dict[str, float], tenants: Dict[str, object], cap: float
    ) -> Dict[str, float]:
        weights = {name: tenants[name].spec.weight for name in demands}
        if self.mode == "fair":
            return water_fill(demands, weights, cap)
        # priority: serve classes high-to-low, water-filling within each
        alloc: Dict[str, float] = {}
        remaining = cap
        priorities = sorted(
            {tenants[name].spec.priority for name in demands}, reverse=True
        )
        for prio in priorities:
            if remaining <= _EPS:
                group_names = [
                    n for n in demands
                    if tenants[n].spec.priority == prio
                ]
                alloc.update({n: 0.0 for n in group_names})
                continue
            group = {
                name: d for name, d in demands.items()
                if tenants[name].spec.priority == prio
            }
            got = water_fill(group, weights, remaining)
            alloc.update(got)
            remaining -= sum(got.values())
        return alloc
