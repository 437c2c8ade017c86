"""Typed trace events.

Every event is a ``NamedTuple`` (records are created on hot paths; tuple
construction is several times cheaper than a dataclass ``__init__``) whose
first field ``t`` is the virtual-time timestamp.  Regions and tiers are
recorded as *names*, not object references, so events serialise trivially
and a trace never pins simulation state alive.

The JSON wire form of an event is its ``_asdict()`` plus a ``kind``
discriminator (see :data:`EVENT_KINDS`); :func:`event_from_dict` inverts
it, so traces survive a save/load round trip exactly.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Type


class MigrationStart(NamedTuple):
    """A page copy was submitted to the data mover (page write-protected).

    ``reason`` is the submitting policy's decision label (``promote-hot``,
    ``demote-swap``, ``demote-watermark``, ``arbiter-evict``, ...; empty
    for callers that predate provenance or migrate ad hoc).  Defaulted so
    traces written before the field existed still load.
    """

    t: float
    region: str
    page: int
    src: str
    dst: str
    nbytes: int
    reason: str = ""


class MigrationDone(NamedTuple):
    """The copy completed and the page was remapped to the new tier.

    ``latency`` is virtual seconds between submission and completion
    (0.0 when both happen within one tick).
    """

    t: float
    region: str
    page: int
    src: str
    dst: str
    nbytes: int
    latency: float


class PageFault(NamedTuple):
    """A fault was forwarded to the user-level handler.

    ``fault`` is ``"missing"`` (first touch) or ``"wp"`` (store hit a
    write-protected page under migration); ``tier`` is where the page
    resides when the fault is posted.  ``reason`` carries the placement
    decision for page-missing faults (``pinned``, ``dram-free``,
    ``nvm-watermark``) and is empty for write-protection faults.
    """

    t: float
    fault: str
    region: str
    page: int
    tier: str
    nbytes: int
    reason: str = ""


class PebsDrop(NamedTuple):
    """The PEBS ring buffer was full; ``n`` records of ``event`` were lost."""

    t: float
    event: str
    n: int


class PebsDrain(NamedTuple):
    """One PEBS-thread activation: ``drained`` records popped, ``applied``
    of them fed into the hot/cold tracker."""

    t: float
    drained: int
    applied: int


class CoolingPass(NamedTuple):
    """The global cooling clock advanced to ``clock``."""

    t: float
    clock: int


class PolicyPass(NamedTuple):
    """One policy-thread decision: promotions and demotions queued."""

    t: float
    promoted: int
    demoted: int


class DmaTransfer(NamedTuple):
    """A queued copy request finished moving through mover ``mover``."""

    t: float
    mover: str
    src: str
    dst: str
    nbytes: int


class ServiceRun(NamedTuple):
    """A background service ran for one activation, consuming ``cpu``
    core-seconds."""

    t: float
    service: str
    cpu: float


class FaultInjected(NamedTuple):
    """The fault injector activated one scheduled fault.

    ``fault`` names the fault kind (``fault``, not ``kind``: the wire form
    reserves ``kind`` for the event discriminator).  ``value`` is the
    fault's parameter (degradation factor, failure probability, channel
    count, ...); 0.0 when the kind takes none.
    """

    t: float
    fault: str
    value: float


class FaultRecovered(NamedTuple):
    """A previously injected fault's recovery fired (state restored)."""

    t: float
    fault: str


class MigrationRetried(NamedTuple):
    """An in-flight copy failed and was re-queued with backoff.

    ``attempt`` is the retry ordinal (1 = first retry); ``backoff`` is the
    virtual seconds the migrator waits before resubmitting.  In a replayed
    trace the retry attaches to the oldest pending ``MigrationStart`` of
    its page (``MigrationRecord.retries``); a retry with no pending start,
    such as a watchdog requeue (region ``"?"``, page ``-1``), is dropped.
    """

    t: float
    region: str
    page: int
    attempt: int
    backoff: float


class MigrationAborted(NamedTuple):
    """A migration exhausted its retries and was rolled back.

    The reserved destination DAX page is released and the page stays in
    ``src``.  In a replayed trace the abort closes the oldest pending
    ``MigrationStart`` of its page (``MigrationRecord.aborted`` holds it,
    ``done`` stays None), so a later retry's ``MigrationDone`` pairs with
    the retry's own start.
    """

    t: float
    region: str
    page: int
    src: str
    dst: str
    attempts: int


class TenantArrived(NamedTuple):
    """A colocation tenant was admitted (manager attached, heap prefaulted)."""

    t: float
    tenant: str


class TenantDeparted(NamedTuple):
    """A tenant departed: in-flight copies rolled back, DAX pages reclaimed.

    ``freed_pages`` counts the DAX pages (both tiers) its teardown returned
    to the shared pool.
    """

    t: float
    tenant: str
    freed_pages: int


class QuotaUpdated(NamedTuple):
    """The DRAM arbiter changed one tenant's quota (bytes).

    ``reason`` is ``<policy>:grow`` or ``<policy>:shrink`` (the sharing
    policy that produced the new quota and the direction of the change).
    """

    t: float
    tenant: str
    quota_bytes: int
    reason: str = ""


class PageClassified(NamedTuple):
    """The hot/cold tracker flipped a page's classification.

    Emitted only on transitions (cold→hot or hot→cold), never per sample,
    so the volume stays proportional to placement churn.  ``reads`` and
    ``writes`` are the (cooled) sample counts at the moment of the flip —
    the evidence the classification was based on.
    """

    t: float
    region: str
    page: int
    tier: str
    hot: bool
    reads: int
    writes: int


class TenantEvicted(NamedTuple):
    """One arbiter pass demoted ``pages`` of an over-quota tenant's DRAM."""

    t: float
    tenant: str
    pages: int


class ShadowCreated(NamedTuple):
    """A promotion retained its source NVM page as a shadow copy
    (non-exclusive tiering).

    ``reason`` is defaulted so traces written before the field carried a
    value still load.
    """

    t: float
    region: str
    page: int
    nbytes: int
    reason: str = ""


class ShadowDropped(NamedTuple):
    """A shadow copy was released back to the NVM pool.

    ``reason`` labels why: ``dirty`` (a sampled store staled the bytes),
    ``copy-demote`` (superseded by a fresh copy), ``nvm-pressure`` /
    ``demote-room`` / ``swap-room`` (reclamation).
    """

    t: float
    region: str
    page: int
    nbytes: int
    reason: str = ""


class ControllerAction(NamedTuple):
    """The online SLO controller adjusted one tenant's arbiter knobs.

    ``action`` is ``boost`` (attack: weight raised on sustained burn),
    ``decay`` (release: boost relaxing back toward neutral) or ``floor``
    (critical burn: floor pages granted).  The new knob values are
    recorded absolutely so a trace replays the control trajectory.
    """

    t: float
    tenant: str
    action: str
    weight_boost: float
    floor_boost_pages: int
    severity: str = ""


class TxnCommitted(NamedTuple):
    """A database transaction committed (TPC-C workload family).

    Emitted for the paced sample of *live* functional transactions the
    workload executes during the run (not for every modeled commit —
    the modeled rate is in the throughput series).  ``latency`` is the
    modeled transaction latency in seconds, priced against the page
    placement at commit time; ``touches`` is the number of logical-page
    touches the transaction made.
    """

    t: float
    workload: str
    txn: str
    latency: float
    touches: int


class PolicySelected(NamedTuple):
    """A manager bound its placement policy at attach time.

    One event per manager per run; ``policy`` is the registry name
    (``hemem``, ``nomad``, ``learned``, or a custom policy's name).
    """

    t: float
    manager: str
    policy: str = "hemem"


#: event class -> wire discriminator (stable; the trace format depends on it)
EVENT_KINDS: Dict[Type, str] = {
    MigrationStart: "migration_start",
    MigrationDone: "migration_done",
    PageFault: "page_fault",
    PebsDrop: "pebs_drop",
    PebsDrain: "pebs_drain",
    CoolingPass: "cooling_pass",
    PolicyPass: "policy_pass",
    DmaTransfer: "dma_transfer",
    ServiceRun: "service_run",
    FaultInjected: "fault_injected",
    FaultRecovered: "fault_recovered",
    MigrationRetried: "migration_retried",
    MigrationAborted: "migration_aborted",
    TenantArrived: "tenant_arrived",
    TenantDeparted: "tenant_departed",
    QuotaUpdated: "quota_updated",
    TenantEvicted: "tenant_evicted",
    PageClassified: "page_classified",
    ShadowCreated: "shadow_created",
    ShadowDropped: "shadow_dropped",
    PolicySelected: "policy_selected",
    ControllerAction: "controller_action",
    TxnCommitted: "txn_committed",
}

KIND_TO_EVENT: Dict[str, Type] = {kind: cls for cls, kind in EVENT_KINDS.items()}


def event_to_dict(event) -> dict:
    """JSON-able form: ``{"kind": ..., <fields>}``."""
    out = {"kind": EVENT_KINDS[type(event)]}
    out.update(event._asdict())
    return out


def event_from_dict(data: dict):
    """Inverse of :func:`event_to_dict`.

    Fields with declared defaults may be absent (traces written before a
    field was added still load); fields without defaults are required.
    """
    try:
        cls = KIND_TO_EVENT[data["kind"]]
    except KeyError:
        raise ValueError(f"unknown event kind: {data.get('kind')!r}") from None
    defaults = cls._field_defaults
    fields = {
        name: data[name] if name in data else defaults[name]
        for name in cls._fields
        if name in data or name in defaults
    }
    return cls(**fields)
