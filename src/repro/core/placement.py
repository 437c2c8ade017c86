"""Pluggable placement policies (the policy zoo).

HeMem's promote/demote loop (§3.3) is one point in a design space.  This
module factors the *decision* out of the policy thread
(:class:`repro.core.policy.PolicyService` keeps the 10 ms cadence, the
dedicated-core accounting and the ``PolicyPass`` trace) into a
:class:`PlacementPolicy` protocol, plus three implementations:

- :class:`HeMemPolicy` — the paper's loop, moved here verbatim.  With
  ``policy="hemem"`` (the default) every migration decision is
  operation-for-operation identical to the pre-refactor
  ``PolicyService``, so the fast-preset goldens stay bit-identical.
- :class:`NomadPolicy` — Nomad-style (arXiv 2401.13154) *non-exclusive*
  tiering on top of the HeMem loop: promotions retain the source NVM page
  as a *shadow copy*, so demoting a still-clean page later commits as a
  zero-byte remap back onto its shadow.  Dirty pages (a PEBS-sampled
  store hit the shadowed page) fall back to the transactional copy path.
  Shadows are reclaimed oldest-first when NVM runs short.
- :class:`LearnedPolicy` — a deterministic pure-python predictor over
  per-page feature vectors (read/write EWMAs folded from the PEBS drain
  at the policy cadence, residency age, current tier, cooling staleness)
  scored by a logistic model (a decision-stump model is provided for the
  ablation); promotion candidates and demotion victims are ranked by
  predicted hotness instead of FIFO order.

Policies are selected by name via :data:`POLICIES` /
:func:`make_policy` (``HeMemConfig.policy``, ``api.run_gups(policy=)``,
``python -m repro.bench --policy``), or injected directly:
``HeMemManager(policy=MyPolicy)`` accepts a ``PlacementPolicy`` subclass
or any ``manager -> policy`` callable (see ``examples/custom_policy.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple, Type

from repro.core.pagestore import DIRTY
from repro.mem.page import Tier


def pick_demotion_victim(dram_cold, tracker) -> int:
    """Front of the DRAM cold list, skipping freshly-hot entries.

    Returns a pid, or -1 when the list runs dry.  Shared between the per-manager policy thread
    and the colocation arbiter's cross-tenant eviction path (repro.colo),
    so both demote by the same victim-selection rule.
    """
    list_id = tracker.store.list_id
    lid = dram_cold.lid
    while dram_cold:
        pid = dram_cold.front_pid
        tracker.cool_if_stale(pid)
        if list_id[pid] == lid:
            return pid
        # cool_if_stale re-homed it (it had become hot); try the next.
    return -1


class PlacementPolicy:
    """One promotion/demotion decision pass, behind a stable protocol.

    Lifecycle: constructed with the owning (attached) manager, ``bind()``
    is called once before the first pass, then ``run_pass(now)`` fires at
    the policy-thread cadence and returns ``(promoted, demoted)`` counts
    for the ``PolicyPass`` trace event (emitted only when one is nonzero).
    """

    #: registry key / trace label
    name = "abstract"

    def __init__(self, manager):
        self.manager = manager

    def bind(self) -> None:
        """One-time hook after the manager is fully wired (tracker,
        migrator and DAX files exist)."""

    def run_pass(self, now: float) -> Tuple[int, int]:
        raise NotImplementedError


class HeMemPolicy(PlacementPolicy):
    """HeMem's policy loop (§3.3), verbatim.

    Per pass: (1) promote NVM-hot pages — free DRAM above the watermark
    first, swapping against DRAM cold-list victims otherwise; (2) demote
    until the free-DRAM watermark holds.  The work queued per pass is
    bounded by ``migration_queue_limit``.

    The migration *submissions* are factored into ``_submit_promotion`` /
    ``_submit_demotion`` / ``_swap_room`` so subclasses (Nomad) can change
    *how* a page moves without touching the victim/ordering logic.

    ``run_pass`` returns ``(0, 0)`` at once when there is no NVM-hot page
    and DRAM free is at or above the watermark.  A subclass whose
    ``_promote`` can act (or change state) without an NVM-hot page must
    call ``_full_pass`` instead, as :class:`LearnedPolicy` does.
    """

    name = "hemem"

    def bind(self) -> None:
        # The tracker's lists and the manager's DAX files live as long as
        # the manager: look them up once, not on every pass.
        manager = self.manager
        tracker = manager.tracker
        self._nvm_hot = tracker.list_for(Tier.NVM, hot=True)
        self._nvm_cold = tracker.list_for(Tier.NVM, hot=False)
        self._dram_hot = tracker.list_for(Tier.DRAM, hot=True)
        self._dram_cold = tracker.list_for(Tier.DRAM, hot=False)
        self._dram_dax = manager.dax[Tier.DRAM]
        self._nvm_dax = manager.dax[Tier.NVM]

    def run_pass(self, now: float) -> Tuple[int, int]:
        # No NVM-hot page and DRAM free at or above the watermark: the
        # promote loop would not start and the watermark loop would not
        # iterate, so the pass provably does nothing.
        if (
            not self._nvm_hot
            and self._dram_dax.free_bytes >= self.manager.config.dram_free_watermark
        ):
            return 0, 0
        return self._full_pass(now)

    def _full_pass(self, now: float) -> Tuple[int, int]:
        promoted, swap_demoted = self._promote(now)
        demoted = swap_demoted + self._enforce_watermark(now)
        return promoted, demoted

    # -- submission primitives (the Nomad override points) ---------------------
    def _submit_promotion(self, pid: int, now: float, reason: str) -> bool:
        return self.manager.migrator.migrate(pid, Tier.DRAM, now, reason=reason)

    def _submit_demotion(self, pid: int, now: float, reason: str) -> bool:
        return self.manager.migrator.migrate(pid, Tier.NVM, now, reason=reason)

    def _swap_room(self, now: float, dram_dax, nvm_dax, victim: int) -> bool:
        """Can a demote-victim + promote-hot swap reserve both legs?

        A demotion frees its DRAM slot only at copy *completion*, so the
        hot page's DRAM reservation must exist up front.  Check both sides
        before submitting either copy — submitting the demotion first and
        then failing to reserve would churn the watermark for nothing.
        """
        return dram_dax.free_pages > 0 and nvm_dax.free_pages > 0

    # -- promotion ------------------------------------------------------------
    def _promote(self, now: float) -> Tuple[int, int]:
        """Promote NVM-hot pages; returns ``(promoted, demoted)``.

        Swap-path victim demotions are counted as *demotions* — lumping
        them into the promoted total (as an earlier revision did) misstates
        both directions in ``PolicyPass`` traces and pass counters.
        """
        manager = self.manager
        config = manager.config
        tracker = manager.tracker
        migrator = manager.migrator
        store = tracker.store
        nvm_hot = self._nvm_hot
        dram_cold = self._dram_cold
        dram_dax = self._dram_dax
        nvm_dax = self._nvm_dax
        promoted = 0
        demoted = 0
        while nvm_hot and migrator.queued_bytes < config.migration_queue_limit:
            pid = nvm_hot.front_pid
            # Freshness check: cool before spending migration bandwidth.
            tracker.cool_if_stale(pid)
            if store.list_id[pid] != nvm_hot.lid:
                continue  # cooled below hot; it moved to the cold list
            have_free = (
                dram_dax.free_bytes - store.psize[pid] >= config.dram_free_watermark
            )
            if have_free:
                if not self._submit_promotion(pid, now, "promote-hot"):
                    break
                promoted += 1
                continue
            victim = pick_demotion_victim(dram_cold, tracker)
            if victim < 0:
                # Hot set exceeds DRAM: stop migrating (§3.3).
                break
            if not self._swap_room(now, dram_dax, nvm_dax, victim):
                break
            if not self._submit_demotion(victim, now, "demote-swap"):
                break
            demoted += 1
            if not self._submit_promotion(pid, now, "promote-swap"):
                break
            promoted += 1
        return promoted, demoted

    # -- watermark ------------------------------------------------------------
    def _enforce_watermark(self, now: float) -> int:
        manager = self.manager
        config = manager.config
        tracker = manager.tracker
        migrator = manager.migrator
        dram_dax = self._dram_dax
        dram_cold = self._dram_cold
        dram_hot = self._dram_hot
        count = 0
        while (
            dram_dax.free_bytes < config.dram_free_watermark
            and migrator.queued_bytes < config.migration_queue_limit
        ):
            victim = pick_demotion_victim(dram_cold, tracker)
            reason = "demote-watermark"
            if victim < 0:
                # No cold data: demote the oldest resident hot page
                # ("migrates random data to NVM until the threshold amount
                # of DRAM is free").
                victim = dram_hot.front_pid
                reason = "demote-watermark-hot"
            if victim < 0:
                break
            if not self._submit_demotion(victim, now, reason):
                break
            count += 1
        return count


class NomadPolicy(HeMemPolicy):
    """Non-exclusive tiering: promotions keep an NVM shadow copy.

    Decision order and victim selection are HeMem's; what changes is the
    migration mechanics (the transactional-migration design Nomad builds
    on is already in :class:`repro.core.migrate.Migrator`):

    - *promotion* retains the source NVM page as a shadow
      (``retain_shadow=True``) instead of freeing it at copy completion;
    - *demotion* of a clean shadow-holder is a zero-byte remap back onto
      the shadow (``Migrator.remap_demote``) — instant, no mover traffic;
      a dirty shadow (a sampled store hit the page since promotion) is
      dropped and the page takes the normal transactional copy path;
    - shadows are reclaimed oldest-first whenever free NVM falls below
      the reserve (one DRAM-watermark's worth of pages), and one is
      reclaimed on demand when a copy-demotion finds NVM full.
    """

    name = "nomad"

    def bind(self) -> None:
        super().bind()
        manager = self.manager
        manager.tracker.enable_shadow_tracking()
        page_size = manager.machine.spec.page_size
        self._reserve_pages = max(
            manager.config.dram_free_watermark // page_size, 1
        )

    def run_pass(self, now: float) -> Tuple[int, int]:
        # Shadow reclaim keeps its own trigger (the NVM reserve), so it
        # runs before, and regardless of, HeMem's no-op test.
        self._reclaim_pressure(now)
        return super().run_pass(now)

    def _reclaim_pressure(self, now: float) -> None:
        """Keep a reserve of free NVM pages clear of shadows, so fresh
        allocations and demotions never fail just because shadows piled
        up."""
        deficit = self._reserve_pages - self._nvm_dax.free_pages
        if deficit > 0:
            self.manager.migrator.reclaim_shadows(
                deficit, now, reason="nvm-pressure"
            )

    def _submit_promotion(self, pid: int, now: float, reason: str) -> bool:
        return self.manager.migrator.migrate(
            pid, Tier.DRAM, now, reason=reason, retain_shadow=True
        )

    def _submit_demotion(self, pid: int, now: float, reason: str) -> bool:
        manager = self.manager
        migrator = manager.migrator
        store = manager.tracker.store
        if store.shadow[pid] >= 0 and not store.flags[pid] & DIRTY:
            return migrator.remap_demote(pid, now, reason=reason + "-nocopy")
        # Dirty (or shadowless) page: transactional copy.  The migrator
        # drops a stale shadow itself at submit; if NVM is full of shadows,
        # reclaim one and retry once.
        if migrator.migrate(pid, Tier.NVM, now, reason=reason):
            return True
        if self._nvm_dax.free_pages == 0:
            if migrator.reclaim_shadows(1, now, reason="demote-room"):
                return migrator.migrate(pid, Tier.NVM, now, reason=reason)
        return False

    def _swap_room(self, now: float, dram_dax, nvm_dax, victim: int) -> bool:
        store = self.manager.tracker.store
        if store.shadow[victim] >= 0 and not store.flags[victim] & DIRTY:
            # No-copy demotion frees the victim's DRAM slot instantly and
            # lands on an already-reserved shadow: no new page either side.
            return True
        if nvm_dax.free_pages == 0:
            self.manager.migrator.reclaim_shadows(1, now, reason="swap-room")
        return dram_dax.free_pages > 0 and nvm_dax.free_pages > 0


class LogisticModel:
    """Fixed-weight logistic scorer over the 5-feature page vector.

    ``score >= 0.5`` (i.e. the linear term >= 0) predicts "hot enough for
    DRAM".  The default weights are calibrated against HeMem's thresholds
    (8 reads / 4 writes per cooling window land just above 0.5) with a
    mild DRAM-residency hysteresis, so the policy agrees with HeMem on
    clear-cut pages and differs on the margin.  Pure python ``math.exp``:
    bit-deterministic across runs, ``-j`` workers and shards.
    """

    __slots__ = ("weights", "bias")

    def __init__(self, weights: Tuple[float, ...], bias: float):
        if len(weights) != 5:
            raise ValueError("logistic model takes exactly 5 feature weights")
        self.weights = tuple(float(w) for w in weights)
        self.bias = float(bias)

    @classmethod
    def default(cls) -> "LogisticModel":
        #          read_ewma write_ewma residency in_dram staleness
        return cls((0.37, 0.80, 0.01, 0.30, -0.60), bias=-2.90)

    def score(self, features: Tuple[float, ...]) -> float:
        z = self.bias
        for w, f in zip(self.weights, features):
            z += w * f
        # clamp: math.exp overflows past ~709
        if z < -60.0:
            return 0.0
        if z > 60.0:
            return 1.0
        return 1.0 / (1.0 + math.exp(-z))


class StumpModel:
    """Decision stump: hot iff an EWMA crosses its threshold.

    The degenerate end of the learned-policy spectrum — useful as an
    ablation baseline and in tests (its decisions are trivially
    predictable by hand).
    """

    __slots__ = ("read_threshold", "write_threshold")

    def __init__(self, read_threshold: float = 8.0, write_threshold: float = 4.0):
        self.read_threshold = float(read_threshold)
        self.write_threshold = float(write_threshold)

    def score(self, features: Tuple[float, ...]) -> float:
        read_ewma, write_ewma = features[0], features[1]
        hot = read_ewma >= self.read_threshold or write_ewma >= self.write_threshold
        return 1.0 if hot else 0.0


class LearnedPolicy(HeMemPolicy):
    """Rank pages by a learned hotness score instead of FIFO order.

    Per-page feature vectors are folded from the PEBS-drain sample
    counters at the policy cadence (the 10 ms pass is the EWMA clock):

    ``(read_ewma, write_ewma, residency_age, in_dram, staleness)``

    - *read/write EWMAs* smooth the tracker's (cooled) sample counters
      with decay :data:`EWMA_DECAY` per pass,
    - *residency_age* — passes since the page was first scored (capped),
    - *in_dram* — current-tier indicator (DRAM-residency hysteresis),
    - *staleness* — missed cooling-clock ticks (capped), a "how old is
      this evidence" signal.

    Promotion scans a bounded prefix of both NVM lists (the cold list can
    hide steady low-rate pages FIFO order never surfaces), promotes pages
    scoring >= 0.5 best-first, and only swap-demotes a victim whose score
    is strictly below the candidate's.  Watermark demotions evict the
    *lowest-scoring* DRAM page from a bounded scan instead of the FIFO
    front.  All state is plain python floats and dicts — deterministic
    across ``-j`` parallel and sharded runs.
    """

    name = "learned"

    #: EWMA retained fraction per policy pass
    EWMA_DECAY = 0.6
    #: bounded scans keep a pass O(hundreds) regardless of list length
    MAX_HOT_SCAN = 512
    MAX_COLD_SCAN = 64
    MAX_VICTIM_SCAN = 64
    #: feature caps
    MAX_AGE = 100.0
    MAX_STALENESS = 8.0

    def __init__(self, manager, model=None):
        super().__init__(manager)
        self.model = model if model is not None else LogisticModel.default()
        self._pass_no = 0
        # pid -> [read_ewma, write_ewma, last_scored_pass, first_seen_pass]
        self._state: Dict[int, List[float]] = {}

    # -- features --------------------------------------------------------------
    def _features(self, pid: int) -> Tuple[float, float, float, float, float]:
        tracker = self.manager.tracker
        store = tracker.store
        state = self._state.get(pid)
        if state is None:
            state = [0.0, 0.0, float(self._pass_no), float(self._pass_no)]
            self._state[pid] = state
        missed = self._pass_no - state[2]
        if missed > 0:
            decay = self.EWMA_DECAY ** missed
            state[0] *= decay
            state[1] *= decay
            state[2] = float(self._pass_no)
        keep = self.EWMA_DECAY
        state[0] = keep * state[0] + (1.0 - keep) * store.reads[pid]
        state[1] = keep * state[1] + (1.0 - keep) * store.writes[pid]
        age = min(self._pass_no - state[3], self.MAX_AGE)
        in_dram = 1.0 if store.tier[pid] == int(Tier.DRAM) else 0.0
        staleness = min(
            float(tracker.global_clock - store.clock[pid]), self.MAX_STALENESS
        )
        return (state[0], state[1], age, in_dram, staleness)

    def _score(self, pid: int) -> float:
        return self.model.score(self._features(pid))

    # -- passes ----------------------------------------------------------------
    def run_pass(self, now: float) -> Tuple[int, int]:
        # Never skipped: the NVM-cold scan folds EWMA state every pass,
        # even with no NVM-hot page and DRAM above the watermark.
        self._pass_no += 1
        return self._full_pass(now)

    def _promote(self, now: float) -> Tuple[int, int]:
        manager = self.manager
        config = manager.config
        tracker = manager.tracker
        migrator = manager.migrator
        store = tracker.store
        nvm_hot = self._nvm_hot
        nvm_cold = self._nvm_cold
        dram_cold = self._dram_cold
        dram_dax = self._dram_dax
        nvm_dax = self._nvm_dax

        candidates: List[Tuple[float, int]] = []
        for fifo, cap in ((nvm_hot, self.MAX_HOT_SCAN),
                          (nvm_cold, self.MAX_COLD_SCAN)):
            seen = 0
            for pid in fifo:
                tracker.cool_if_stale(pid)
                score = self._score(pid)
                if score >= 0.5:
                    candidates.append((score, pid))
                seen += 1
                if seen >= cap:
                    break
        # Best-first; pid tiebreak keeps the order fully deterministic.
        candidates.sort(key=lambda item: (-item[0], item[1]))

        promoted = 0
        demoted = 0
        nvm_lids = (nvm_hot.lid, nvm_cold.lid)
        for score, pid in candidates:
            if migrator.queued_bytes >= config.migration_queue_limit:
                break
            if store.list_id[pid] not in nvm_lids:
                continue  # re-homed (or already queued) since scanning
            have_free = (
                dram_dax.free_bytes - store.psize[pid]
                >= config.dram_free_watermark
            )
            if have_free:
                if not self._submit_promotion(pid, now, "promote-learned"):
                    break
                promoted += 1
                continue
            victim = self._pick_victim(dram_cold)
            if victim < 0:
                break
            if self._score(victim) >= score:
                break  # nothing in DRAM is predicted colder than this page
            if not self._swap_room(now, dram_dax, nvm_dax, victim):
                break
            if not self._submit_demotion(victim, now, "demote-swap"):
                break
            demoted += 1
            if not self._submit_promotion(pid, now, "promote-swap"):
                break
            promoted += 1
        return promoted, demoted

    def _pick_victim(self, fifo) -> int:
        """Lowest-scoring pid in a bounded front scan of ``fifo``, or -1."""
        tracker = self.manager.tracker
        best_pid = -1
        best_score = math.inf
        seen = 0
        for pid in fifo:
            tracker.cool_if_stale(pid)
            if tracker.store.list_id[pid] != fifo.lid:
                continue  # re-homed by cooling
            score = self._score(pid)
            if score < best_score:
                best_score = score
                best_pid = pid
            seen += 1
            if seen >= self.MAX_VICTIM_SCAN:
                break
        return best_pid

    def _enforce_watermark(self, now: float) -> int:
        manager = self.manager
        config = manager.config
        migrator = manager.migrator
        dram_dax = self._dram_dax
        dram_cold = self._dram_cold
        dram_hot = self._dram_hot
        count = 0
        while (
            dram_dax.free_bytes < config.dram_free_watermark
            and migrator.queued_bytes < config.migration_queue_limit
        ):
            victim = self._pick_victim(dram_cold)
            reason = "demote-watermark"
            if victim < 0:
                victim = self._pick_victim(dram_hot)
                reason = "demote-watermark-hot"
            if victim < 0:
                break
            if not self._submit_demotion(victim, now, reason):
                break
            count += 1
        return count


#: name -> policy class (the config/CLI/API selection surface)
POLICIES: Dict[str, Type[PlacementPolicy]] = {
    HeMemPolicy.name: HeMemPolicy,
    NomadPolicy.name: NomadPolicy,
    LearnedPolicy.name: LearnedPolicy,
}


def make_policy(name: str, manager) -> PlacementPolicy:
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return cls(manager)


__all__ = [
    "PlacementPolicy",
    "HeMemPolicy",
    "NomadPolicy",
    "LearnedPolicy",
    "LogisticModel",
    "StumpModel",
    "POLICIES",
    "make_policy",
    "pick_demotion_victim",
]
