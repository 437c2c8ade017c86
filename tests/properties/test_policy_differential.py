"""Differential test: the pluggable ``policy="hemem"`` path vs the frozen
pre-refactor policy thread (``tests.oracles.legacy_policy``).

Same oracle pattern as ``test_pagestore_differential.py``: two complete
simulations — one through :class:`LegacyPolicyService` (the policy loop
exactly as it stood before the placement-policy refactor), one through the
new :class:`PlacementPolicy` protocol — must agree bit-for-bit on every
externally observable outcome: throughput, counters, final page placement
and tracker state.  Any divergence means the refactor changed a decision.
"""

import numpy as np
import pytest

from repro.core.hemem import HeMemManager
from repro.mem.machine import Machine, MachineSpec
from repro.sim.engine import Engine, EngineConfig
from repro.sim.units import GB, MB
from repro.workloads.gups import GupsConfig, GupsWorkload

from tests.oracles.legacy_policy import LegacyPolicyService

SCALE = 64


class LegacyHeMem(HeMemManager):
    """HeMem wired to the frozen pre-refactor policy thread.

    Only the policy-service construction differs; overriding the hook
    keeps service registration order (and so CPU-core accounting)
    identical to the real manager.
    """

    def _make_policy_service(self):
        return LegacyPolicyService(self)


def run_sim(manager, seed, duration=6.0, gups=None):
    machine = Machine(MachineSpec().scaled(SCALE), seed=seed)
    config = gups or GupsConfig(working_set=8 * GB, hot_set=256 * MB)
    engine = Engine(machine, manager, GupsWorkload(config, warmup=0.5),
                    EngineConfig(tick=0.01, seed=seed))
    result = engine.run(duration)
    result["gups"] = engine.workload.gups(engine.clock.now)
    return result, engine


def state_snapshot(engine):
    """Everything the policy can influence, in comparable form."""
    manager = engine.manager
    store = manager.tracker.store
    region = engine.workload.region
    return {
        "tier": region.tier.copy(),
        "mapped": region.mapped.copy(),
        "reads": list(store.reads),
        "writes": list(store.writes),
        "clock": list(store.clock),
        "list_id": list(store.list_id),
        "global_clock": manager.tracker.global_clock,
        "dram_free": manager.dram_free_bytes(),
    }


@pytest.mark.parametrize("seed", [7, 21, 99])
def test_hemem_policy_is_bit_identical_to_legacy(seed):
    new_result, new_engine = run_sim(HeMemManager(policy="hemem"), seed)
    old_result, old_engine = run_sim(LegacyHeMem(), seed)

    assert new_result["gups"] == old_result["gups"]
    assert new_result["counters"] == old_result["counters"]

    new_state = state_snapshot(new_engine)
    old_state = state_snapshot(old_engine)
    assert np.array_equal(new_state.pop("tier"), old_state.pop("tier"))
    assert np.array_equal(new_state.pop("mapped"), old_state.pop("mapped"))
    assert new_state == old_state


def test_default_policy_matches_explicit_hemem():
    """``HeMemManager()`` (config default) and ``policy="hemem"`` are the
    same code path."""
    a, _ = run_sim(HeMemManager(), 13, duration=3.0)
    b, _ = run_sim(HeMemManager(policy="hemem"), 13, duration=3.0)
    assert a["gups"] == b["gups"]
    assert a["counters"] == b["counters"]


def test_divergence_is_detectable():
    """Sanity check on the oracle: a policy that *does* decide differently
    (nomad) must not slip through the equality net — otherwise the
    differential test proves nothing."""
    legacy, _ = run_sim(LegacyHeMem(), 7)
    nomad, _ = run_sim(HeMemManager(policy="nomad", name="hemem"), 7)
    assert legacy["counters"] != nomad["counters"]
