"""The HeMem policy thread (§3.3): runs every 10 ms.

The *thread* — its dedicated core, the 10 ms decision cadence, and the
``PolicyPass`` trace — lives here.  The *decision* (what to promote, what
to demote, and how each page moves) is a pluggable
:class:`~repro.core.placement.PlacementPolicy`, selected by
``HeMemConfig.policy`` (``hemem`` — the paper's loop — ``nomad`` or
``learned``; see :mod:`repro.core.placement`) or injected directly via
``HeMemManager(policy=...)``.

Per activation the selected policy:

1. *Promotes* — moves predicted-hot NVM pages to DRAM, using free DRAM
   above the watermark first and swapping against DRAM victims otherwise.
2. *Enforces the free-DRAM watermark* — demotes DRAM pages until the
   configured amount of DRAM is free for new allocations.

The amount of work queued per activation is bounded so the migration
backlog never exceeds ``migration_queue_limit`` bytes.
"""

from __future__ import annotations

from repro.core.placement import PlacementPolicy, make_policy
from repro.obs.events import PolicyPass, PolicySelected
from repro.sim.service import Service

__all__ = ["PolicyService"]


class PolicyService(Service):
    """HeMem's policy thread: a dedicated core, acting every 10 ms.

    The thread exists (and occupies a core) continuously; the *policy*
    decisions fire once per period.  Charging the full tick models the
    dedicated thread, which is what contends with the application at high
    thread counts (Fig 7).

    ``policy`` may be a :class:`PlacementPolicy` instance, a
    ``manager -> policy`` callable (e.g. a policy class), a registry name,
    or None to use ``manager.config.policy``.
    """

    def __init__(self, manager, policy=None):
        super().__init__("hemem_policy", period=0.0)
        self.manager = manager
        if policy is None:
            policy = getattr(manager.config, "policy", "hemem")
        if isinstance(policy, str):
            policy = make_policy(policy, manager)
        elif not isinstance(policy, PlacementPolicy):
            policy = policy(manager)  # class or factory callable
        self.policy = policy
        self.policy.bind()
        self._next_decision = 0.0
        tracer = manager.machine.tracer
        if tracer is not None:
            tracer.emit(PolicySelected(tracer.now, manager.name, policy.name))

    def run(self, engine, now, dt) -> float:
        if now + 1e-12 >= self._next_decision:
            promoted, demoted = self.policy.run_pass(now)
            self._next_decision = now + self.manager.config.policy_period
            tracer = engine.machine.tracer
            if tracer is not None and (promoted or demoted):
                tracer.emit(PolicyPass(now, promoted, demoted))
        return dt
