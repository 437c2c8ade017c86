"""Fault plans: a declarative, seed-reproducible schedule of injectable events.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries, each
naming a fault *kind*, an optional parameter, an injection time, and an
optional duration after which the fault recovers.  Plans are built from
config or parsed from the compact CLI syntax::

    --faults dma_channel_down@t=2.0,nvm_degrade:0.5@t=5.0
    --faults copy_fail:0.3@t=1.0+4.0          # active on [1.0, 5.0)
    --faults pebs_spike:0.05@t=3.0+2.0,nvm_wear:16
    --faults copy_fail:0.5@t=1.0+3.0@tenant=a # colocation: tenant a only

Grammar per entry: ``kind[:value][@t=start[+duration]][@tenant=name]``.
``value`` defaults per kind; ``start`` defaults to 0.0; omitting
``+duration`` leaves the fault active for the rest of the run.
``@tenant=`` scopes the fault to one colocation tenant and is only legal
for the per-manager kinds (:data:`TENANT_SCOPED_KINDS`) — device-level
faults hit every tenant by construction.

Everything here is pure data — deterministic, hashable into the bench
cache digest, and round-trippable through :meth:`FaultPlan.to_string` —
so two runs with the same seed and the same plan replay the exact same
event sequence.  Injection semantics live in
:mod:`repro.faults.injector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.units import GB

#: kind -> (default value, human description).  A ``None`` default means
#: the kind takes no parameter.
FAULT_KINDS: Dict[str, Tuple[Optional[float], str]] = {
    "dma_channel_down": (
        1.0,
        "take N I/OAT channels offline (0 left => copy-thread fallback)",
    ),
    "dma_down": (
        None,
        "whole DMA engine fails; migration falls back to copy threads",
    ),
    "nvm_degrade": (
        0.5,
        "NVM media bandwidth x factor, latency / factor (step degradation)",
    ),
    "nvm_wear": (
        64.0,
        "continuous wear curve: bandwidth halves every VALUE GB written",
    ),
    "copy_fail": (
        0.2,
        "each completing page copy fails with probability VALUE",
    ),
    "pebs_spike": (
        0.1,
        "PEBS ring buffer shrinks to VALUE x capacity (drain pressure)",
    ),
}

#: kinds that act on one manager's state (and so may carry ``@tenant=``);
#: the rest act on shared devices and always hit the whole machine
TENANT_SCOPED_KINDS = frozenset({"copy_fail", "pebs_spike"})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: inject at ``t``, recover after ``duration``."""

    kind: str
    value: Optional[float] = None
    t: float = 0.0
    duration: Optional[float] = None
    tenant: Optional[str] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {sorted(FAULT_KINDS)}"
            )
        default, _ = FAULT_KINDS[self.kind]
        if self.value is None and default is not None:
            object.__setattr__(self, "value", default)
        if self.t < 0:
            raise ValueError(f"fault time cannot be negative: {self.t}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"fault duration must be positive: {self.duration}")
        if self.tenant is not None:
            if not self.tenant:
                raise ValueError("fault tenant name cannot be empty")
            if self.kind not in TENANT_SCOPED_KINDS:
                raise ValueError(
                    f"{self.kind} is a device-level fault and cannot target "
                    f"a tenant; only {sorted(TENANT_SCOPED_KINDS)} can"
                )
        self._validate_value()

    def _validate_value(self) -> None:
        kind, value = self.kind, self.value
        if kind == "dma_channel_down":
            if value < 1 or value != int(value):
                raise ValueError(f"dma_channel_down takes a whole channel count: {value}")
        elif kind in ("nvm_degrade", "pebs_spike"):
            if not 0 < value <= 1:
                raise ValueError(f"{kind} factor must be in (0, 1]: {value}")
        elif kind == "nvm_wear":
            if value <= 0:
                raise ValueError(f"nvm_wear half-wear GB must be positive: {value}")
        elif kind == "copy_fail":
            if not 0 <= value < 1:
                raise ValueError(f"copy_fail probability must be in [0, 1): {value}")

    @property
    def recovers_at(self) -> Optional[float]:
        if self.duration is None:
            return None
        return self.t + self.duration

    def to_string(self) -> str:
        out = self.kind
        if self.value is not None and FAULT_KINDS[self.kind][0] is not None:
            out += f":{_fmt(self.value)}"
        out += f"@t={_fmt(self.t)}"
        if self.duration is not None:
            out += f"+{_fmt(self.duration)}"
        if self.tenant is not None:
            out += f"@tenant={self.tenant}"
        return out


def _fmt(x: float) -> str:
    """Compact float formatting that round-trips through ``float()``."""
    return repr(int(x)) if x == int(x) else repr(x)


def _parse_entry(entry: str) -> FaultSpec:
    entry = entry.strip()
    if not entry:
        raise ValueError("empty fault entry")
    parts = entry.split("@")
    head = parts[0]
    t = 0.0
    duration: Optional[float] = None
    tenant: Optional[str] = None
    for part in parts[1:]:
        if part.startswith("t="):
            when = part[2:]
            if "+" in when:
                start_s, _, dur_s = when.partition("+")
                duration = float(dur_s)
            else:
                start_s = when
            t = float(start_s)
        elif part.startswith("tenant="):
            tenant = part[len("tenant="):]
        else:
            raise ValueError(
                f"expected '@t=<seconds>' or '@tenant=<name>' in fault "
                f"entry: {entry!r}"
            )
    if ":" in head:
        kind, _, value_s = head.partition(":")
        value: Optional[float] = float(value_s)
    else:
        kind, value = head, None
    return FaultSpec(kind=kind, value=value, t=t, duration=duration,
                     tenant=tenant)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault schedule."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.specs, key=lambda s: (s.t, s.kind)))
        object.__setattr__(self, "specs", ordered)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``--faults`` CLI syntax (see module docstring)."""
        entries = [e for e in text.split(",") if e.strip()]
        if not entries:
            raise ValueError(f"fault plan is empty: {text!r}")
        return cls(specs=tuple(_parse_entry(e) for e in entries))

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(specs=tuple(specs))

    def to_string(self) -> str:
        """Canonical form; ``FaultPlan.parse`` round-trips it exactly."""
        return ",".join(spec.to_string() for spec in self.specs)

    def timeline(self) -> List[Tuple[float, str, FaultSpec]]:
        """Flattened ``(time, "inject"|"recover", spec)`` events, sorted.

        Recovery events for the same instant sort *before* injections so a
        back-to-back window hand-off (recover at t, re-inject at t) nets
        out correctly.
        """
        events: List[Tuple[float, int, str, FaultSpec]] = []
        for spec in self.specs:
            events.append((spec.t, 1, "inject", spec))
            if spec.recovers_at is not None:
                events.append((spec.recovers_at, 0, "recover", spec))
        events.sort(key=lambda e: (e[0], e[1]))
        return [(t, action, spec) for t, _, action, spec in events]


def wear_half_bytes(spec: FaultSpec) -> float:
    """Half-wear point in bytes for an ``nvm_wear`` spec (value is in GB)."""
    return spec.value * GB
