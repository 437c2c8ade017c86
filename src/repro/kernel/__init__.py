"""OS substrate: address spaces, syscalls, page faults, userfaultfd, DAX, NUMA.

This package models the slice of Linux that HeMem interacts with:

- :mod:`repro.kernel.vma` — per-process address space of mapped regions.
- :mod:`repro.kernel.syscalls` — mmap/munmap/madvise entry points that a
  user-level manager (HeMem) can intercept, mirroring libsyscall_intercept.
- :mod:`repro.kernel.userfaultfd` — region registration and page-missing
  fault accounting (write protection during migration is the tracker's
  ``UNDER_MIGRATION`` flag, see :mod:`repro.core.migrate`).
- :mod:`repro.kernel.fault` — the write-protect fault cost and fault tracing.
- :mod:`repro.kernel.dax` — DAX files backing each memory tier.
- :mod:`repro.kernel.numa` — NUMA nodes + migrate_pages, the substrate the
  Nimble baseline manages memory through.
"""

from repro.kernel.dax import DaxFile
from repro.kernel.fault import FaultCostModel
from repro.kernel.numa import NumaNode, NumaTopology
from repro.kernel.syscalls import SyscallLayer
from repro.kernel.userfaultfd import UserFaultFd
from repro.kernel.vma import AddressSpace

__all__ = [
    "AddressSpace",
    "DaxFile",
    "FaultCostModel",
    "NumaNode",
    "NumaTopology",
    "SyscallLayer",
    "UserFaultFd",
]
