"""Workloads: GUPS, Silo/TPC-C, FlexKVS, and GAP betweenness centrality.

Each workload is a functional (scaled) implementation of the application the
paper runs, plus an *access-model adapter*: the
:meth:`~repro.workloads.base.Workload.access_mix` method that describes the
application's per-tick memory traffic to the simulation engine as
:class:`~repro.mem.access.AccessStream`s derived from the live data
structures (table sizes, key popularity, vertex degrees, ...).
"""

from repro.workloads.base import Workload
from repro.workloads.ephemeral import EphemeralConfig, EphemeralWorkload
from repro.workloads.gups import GupsConfig, GupsWorkload
from repro.workloads.multi import MultiWorkload

__all__ = [
    "EphemeralConfig",
    "EphemeralWorkload",
    "GupsConfig",
    "GupsWorkload",
    "MultiWorkload",
    "Workload",
]
