"""The driver surface every workload implements: :class:`Workload`.

Modeled on py-tpcc's driver split (one benchmark, swappable backends):
the *driver* owns application logic and describes its memory traffic;
the *backend* — the tiered memory manager under test — owns placement.
Every adapter (GUPS, Silo, KVS, GAP, the colocation composite, the TPC-C
database workload of :mod:`repro.db`) subclasses ``Workload`` for the
shared bookkeeping (warmup window, op counting, measured rates).  The
engine only calls the methods below, so a driver without the base class
runs as well.

Lifecycle contract (what :class:`repro.sim.engine.Engine` relies on):

1. ``setup(manager, machine, rng)`` — allocate regions *through the
   manager under test* and prefill them.  This is the only point a
   driver may call ``manager.mmap``/``prefault``; app-directed backends
   additionally accept placement hints here (``manager.advise``, duck
   typed — transparent backends simply lack the attribute).
2. per tick: ``access_mix(now, dt)`` describes the traffic; after the
   machine resolves it, ``on_progress(stream, result, now, dt)`` feeds
   achieved throughput back, once per stream.
3. ``finished(now)`` — checked after every tick; a driver returning
   ``True`` self-terminates the run (fixed-duration drivers always
   return ``False``).
4. ``result()`` — application-level metrics once the run ends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

import numpy as np

from repro.mem.access import AccessStream, StreamResult


class Workload(ABC):
    """One application driving the machine (lifecycle: module docstring)."""

    #: label used in experiment tables
    name: str = "workload"

    def __init__(self, warmup: float = 0.0):
        if warmup < 0:
            raise ValueError(f"warmup cannot be negative: {warmup}")
        self.warmup = warmup
        self.total_ops = 0.0
        self.measured_ops = 0.0
        self.measure_start: float = warmup

    @abstractmethod
    def setup(self, manager, machine, rng: np.random.Generator) -> None:
        """Allocate memory through ``manager`` and prefill."""

    @abstractmethod
    def access_mix(self, now: float, dt: float) -> List[AccessStream]:
        """The application's memory traffic for this tick."""

    def on_progress(self, stream: AccessStream, result: StreamResult,
                    now: float, dt: float) -> None:
        """Feedback of achieved throughput (default: count operations)."""
        self.total_ops += result.ops
        if now >= self.measure_start:
            self.measured_ops += result.ops

    def finished(self, now: float) -> bool:
        """Workloads running for a fixed duration never self-terminate."""
        return False

    def result(self) -> Dict:
        return {"total_ops": self.total_ops, "measured_ops": self.measured_ops}

    def measured_rate(self, now: float) -> float:
        """Operations/second over the post-warmup window.

        A self-terminating workload (``finished`` returned True) may end
        before the measured window ever opens; its lifetime rate is still
        meaningful, so fall back to it rather than reporting zero.  For
        fixed-duration workloads mid-warmup the rate stays 0.0.
        """
        window = now - self.measure_start
        if window <= 0:
            if self.finished(now) and now > 0:
                return self.total_ops / now
            return 0.0
        return self.measured_ops / window
