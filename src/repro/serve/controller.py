"""Online SLO control: per-window eviction burns drive arbiter knobs.

:class:`SloController` closes the MaxMem-style loop: each run is one
window.  It classifies every tenant's arbiter-eviction delta since the
previous run with :meth:`~repro.obs.health.SloBurn.severity` (the burn
thresholds the offline health report scans with) and turns the burns
into bounded knob adjustments on the live tenants:

- **defend**: a tenant currently *meeting* its SLO gets its
  ``floor_boost_pages`` pinned to its current DRAM residency (capped at
  ``max_floor_pages``, and admitted only while the fleet-wide defended
  total stays under ``defend_frac`` of DRAM).  This is the load-bearing
  move: cold working-set pages evicted by the arbiter are never
  resampled hot, so post-eviction quota grants cannot restore a
  tenant's rate — residency must be defended *before* the squeeze.  The
  floor claims only pages the tenant already holds, so it never takes
  DRAM from anyone else; the budget keeps the floors from ever
  oversubscribing DRAM (which would make the floor scale-down shave
  every incumbent a little each pass — a fleet-wide ratchet to zero).
- **attack**: a tenant burning for ``attack_windows`` consecutive windows
  gets its ``weight_boost`` multiplied by ``1 + step`` (capped at
  ``max_boost``); a *critical* burn additionally grants
  ``floor_step_pages`` of ``floor_boost_pages`` (capped).
- **release**: after ``release_windows`` consecutive windows neither
  burning nor attaining, the boosts decay one step per window back
  toward neutral (1.0 / 0) — the tenant has lost its residency and
  holding a claim it cannot use would only starve the rest of the fleet.

Floors only bind under floor-honouring sharing policies (``fair``,
``priority``, ``floor``); under plain ``static`` sharing the weight
boosts are the controller's only effective knob.

Everything is deterministic — no randomness, state advances only on the
fixed window grid — and every adjustment emits a
:class:`~repro.obs.events.ControllerAction` trace event, so a captured
run replays the whole control trajectory.
"""

from __future__ import annotations

from typing import Dict

from repro.mem.page import Tier
from repro.obs.events import ControllerAction
from repro.obs.health import SloBurn
from repro.sim.service import Service


class SloController(Service):
    """Windowed feedback controller over the DRAM arbiter's knobs."""

    def __init__(self, colo, window: float = 0.5, step: float = 0.25,
                 max_boost: float = 4.0, attack_windows: int = 2,
                 release_windows: int = 4, warn_pages: int = 32,
                 critical_pages: int = 128, floor_step_pages: int = 64,
                 max_floor_pages: int = 1024, defend_frac: float = 0.75,
                 defend_headroom_pages: int = 16, slo_only: bool = True):
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        if step <= 0:
            raise ValueError(f"step must be positive: {step}")
        if max_boost < 1.0:
            raise ValueError(f"max_boost must be >= 1: {max_boost}")
        if attack_windows < 1 or release_windows < 1:
            raise ValueError("attack/release windows must be >= 1")
        if not 0.0 <= defend_frac <= 1.0:
            raise ValueError(f"defend_frac must be in [0, 1]: {defend_frac}")
        super().__init__("slo_controller", period=window)
        self.colo = colo
        self.window = window
        self.step = step
        self.max_boost = max_boost
        self.attack_windows = attack_windows
        self.release_windows = release_windows
        self.floor_step_pages = floor_step_pages
        self.max_floor_pages = max_floor_pages
        self.defend_frac = defend_frac
        #: slack pinned above current residency so the floor never clamps
        #: the quota to exactly ``used`` — that would leave the tenant's
        #: own watermark no free headroom and trigger self-demotion
        self.defend_headroom_pages = defend_headroom_pages
        #: running defended-floor total within the current control pass
        self._defended = 0
        self._defend_budget = 0
        #: only tenants with an SLO target get boosts; best-effort batch
        #: tenants have no SLO to burn and boosting them would steal DRAM
        #: from the tenants the controller exists to protect
        self.slo_only = slo_only
        self._detector = SloBurn(window=window, warn_pages=warn_pages,
                                 critical_pages=critical_pages)
        #: per-tenant eviction-counter baseline at the previous window edge
        self._last_evicted: Dict[str, int] = {}
        #: per-tenant cumulative-op baseline (for the defend rate check)
        self._last_ops: Dict[str, float] = {}
        self._burn_streak: Dict[str, int] = {}
        self._clean_streak: Dict[str, int] = {}
        #: adjustments made so far, by action label
        self.action_counts: Dict[str, int] = {}

    @property
    def actions(self) -> int:
        """Total adjustments made so far."""
        return sum(self.action_counts.values())

    def run(self, engine, now: float, dt: float) -> float:
        self.control(now)
        return 0.0

    def export_metrics(self, put) -> None:
        """Telemetry export: the per-action adjustment counts."""
        for action, count in self.action_counts.items():
            put("controller_actions_total", count, action=action)

    # -- one control pass -----------------------------------------------------
    def control(self, now: float) -> None:
        colo = self.colo
        active = {t.name: t for t in colo.active_tenants()}
        for name in list(self._last_evicted):
            if name not in active:
                self._last_evicted.pop(name, None)
                self._last_ops.pop(name, None)
                self._burn_streak.pop(name, None)
                self._clean_streak.pop(name, None)

        burning: Dict[str, str] = {}
        rates: Dict[str, float] = {}
        for name in sorted(active):
            tenant = active[name]
            delta = tenant.evicted_pages - self._last_evicted.get(name, 0)
            self._last_evicted[name] = tenant.evicted_pages
            severity = self._detector.severity(delta) if delta > 0 else None
            if severity is not None:
                burning[name] = severity
            ops = float(tenant.workload.total_ops)
            prev = self._last_ops.get(name)
            self._last_ops[name] = ops
            if prev is not None:
                rates[name] = max(ops - prev, 0.0) / self.window
        total_pages = colo.shared_dax[Tier.DRAM].n_pages
        self._defend_budget = int(self.defend_frac * total_pages)
        self._defended = sum(
            t.floor_boost_pages for t in active.values()
        )

        for name in sorted(active):
            tenant = active[name]
            if self.slo_only and tenant.spec.slo_ops_per_sec is None:
                continue
            severity = burning.get(name)
            rate = rates.get(name)
            slo = tenant.spec.slo_ops_per_sec
            if severity is not None:
                self._attack(tenant, now, severity)
            elif rate is not None and slo is not None and rate >= slo:
                self._defend(tenant, now)
            else:
                self._release(tenant, now)

    def _attack(self, tenant, now: float, severity: str) -> None:
        name = tenant.name
        self._clean_streak[name] = 0
        self._burn_streak[name] = self._burn_streak.get(name, 0) + 1
        if self._burn_streak[name] < self.attack_windows:
            return
        changed = False
        action = "boost"
        boosted = min(tenant.weight_boost * (1.0 + self.step), self.max_boost)
        if boosted > tenant.weight_boost:
            tenant.weight_boost = boosted
            changed = True
        if severity == "critical" and self.floor_step_pages > 0:
            floor = min(tenant.floor_boost_pages + self.floor_step_pages,
                        self.max_floor_pages)
            if floor > tenant.floor_boost_pages:
                tenant.floor_boost_pages = floor
                action = "floor"
                changed = True
        if changed:
            self._record(tenant, now, action, severity)

    def _defend(self, tenant, now: float) -> None:
        """Pin an attaining tenant's floor to its current DRAM residency.

        Claims only pages the tenant already holds (so it grants nothing),
        but stops the arbiter from shaving them off when the fleet grows —
        the one intervention that works, because evicted cold pages are
        never resampled hot and so never promoted back.
        """
        name = tenant.name
        self._burn_streak[name] = 0
        self._clean_streak[name] = 0
        dax = tenant.dram_dax
        if dax is None:
            return
        current = tenant.floor_boost_pages
        target = min(int(dax.used_pages) + self.defend_headroom_pages,
                     self.max_floor_pages)
        if target > current:
            headroom = max(self._defend_budget - self._defended, 0)
            target = min(target, current + headroom)
        if target > current:
            tenant.floor_boost_pages = target
            self._defended += target - current
            self._record(tenant, now, "defend", "")
        elif target < current:
            # residency shrank (watermark churn, departure of demand) —
            # release the unusable part of the claim silently
            tenant.floor_boost_pages = target
            self._defended -= current - target

    def _release(self, tenant, now: float) -> None:
        name = tenant.name
        self._burn_streak[name] = 0
        self._clean_streak[name] = self._clean_streak.get(name, 0) + 1
        dax = tenant.dram_dax
        if dax is not None:
            # a claim above what the tenant still holds (plus watermark
            # slack) is dead weight — residency lost to eviction is never
            # promoted back, so drop the stale part without waiting out
            # the release hysteresis
            cap = min(int(dax.used_pages) + self.defend_headroom_pages,
                      self.max_floor_pages)
            if tenant.floor_boost_pages > cap:
                tenant.floor_boost_pages = cap
        if self._clean_streak[name] < self.release_windows:
            return
        if tenant.weight_boost <= 1.0 and tenant.floor_boost_pages <= 0:
            return
        decayed = tenant.weight_boost / (1.0 + self.step)
        tenant.weight_boost = decayed if decayed > 1.0 + 1e-9 else 1.0
        tenant.floor_boost_pages = max(
            tenant.floor_boost_pages - self.floor_step_pages, 0
        )
        self._record(tenant, now, "decay", "")

    def _record(self, tenant, now: float, action: str, severity: str) -> None:
        self.action_counts[action] = self.action_counts.get(action, 0) + 1
        tracer = self.colo.machine.tracer
        if tracer is not None:
            tracer.emit(ControllerAction(
                now, tenant.name, action, tenant.weight_boost,
                tenant.floor_boost_pages, severity,
            ))
