"""Background services (the simulation's analogue of threads).

HeMem runs a PEBS drain thread, a policy thread (10 ms period), a page fault
thread and optional copy threads; Nimble runs one sequential kernel thread.
Each is modelled as a :class:`Service` the engine invokes when due.  A
service reports the core-seconds it consumed so the CPU model can charge it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine


class Service(ABC):
    """A periodic background task.

    ``period`` of 0 means "run every tick" (continuous threads such as the
    PEBS drain loop).  ``run`` must return the core-seconds of CPU the
    service wants charged for this activation; the engine clips the charge
    against the CPU budget.
    """

    def __init__(self, name: str, period: float = 0.0):
        if period < 0:
            raise ValueError(f"service period cannot be negative: {period}")
        self.name = name
        self.period = period
        self.next_due = 0.0

    def due(self, now: float) -> bool:
        return now + 1e-12 >= self.next_due

    def mark_ran(self, now: float) -> None:
        if self.period > 0:
            self.next_due = now + self.period
        else:
            self.next_due = now

    @abstractmethod
    def run(self, engine: "Engine", now: float, dt: float) -> float:
        """Perform one activation; return core-seconds consumed."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, period={self.period})"
