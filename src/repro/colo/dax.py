"""Quota-scoped views over a shared DAX file.

Colocated tenants allocate tier pages out of *one* machine-wide
:class:`~repro.kernel.dax.DaxFile` per tier, but each tenant's manager
must see its own allocator so HeMem's watermark / promotion logic runs
unmodified against the tenant's *quota* rather than the whole device.

:class:`TenantDax` duck-types the ``DaxFile`` surface the manager and
migrator use (``free_pages``/``alloc_page``/``free_page``/...) while
delegating actual offset allocation to the shared file — offsets stay
machine-global, which is what lets the occupancy invariant (shared used
pages == sum of tenant used pages) hold by construction and lets the
DRAM arbiter move capacity between tenants by just rewriting quotas.
"""

from __future__ import annotations

from typing import List

from repro.kernel.dax import DaxFile


class TenantDax:
    """One tenant's quota-bounded window onto a shared :class:`DaxFile`.

    ``free_pages`` is ``min(shared free, quota headroom)`` — a tenant can
    be starved either by the device filling up or by its own quota, and
    both look identical to the manager (allocation fails, watermark
    enforcement demotes).  Shrinking the quota below current usage does
    not forcibly unmap anything; it makes ``free_pages`` zero, so the
    tenant's own watermark demotions (plus the arbiter's explicit
    evictions) drain it back under quota.
    """

    def __init__(self, shared: DaxFile, quota_pages: int, name: str = ""):
        self.shared = shared
        self.tier = shared.tier
        self.page_size = shared.page_size
        self.name = name
        self.quota_pages = max(int(quota_pages), 0)
        self.used_pages = 0

    # -- capacity views -------------------------------------------------------
    @property
    def n_pages(self) -> int:
        return self.shared.n_pages

    @property
    def capacity(self) -> int:
        return self.shared.capacity

    @property
    def quota_bytes(self) -> int:
        return self.quota_pages * self.page_size

    @property
    def free_pages(self) -> int:
        headroom = self.quota_pages - self.used_pages
        if headroom <= 0:
            return 0
        return min(self.shared.free_pages, headroom)

    @property
    def free_bytes(self) -> int:
        return self.free_pages * self.page_size

    @property
    def over_quota_pages(self) -> int:
        return max(self.used_pages - self.quota_pages, 0)

    def set_quota_pages(self, quota_pages: int) -> None:
        self.quota_pages = max(int(quota_pages), 0)

    # -- allocation (DaxFile surface) ----------------------------------------
    def alloc_page(self) -> int:
        if self.free_pages <= 0:
            raise MemoryError(
                f"tenant {self.name!r}: {self.tier.name} quota exhausted "
                f"(used {self.used_pages}/{self.quota_pages} pages, "
                f"shared free {self.shared.free_pages})"
            )
        offset = self.shared.alloc_page()
        self.used_pages += 1
        return offset

    def alloc_pages(self, n: int) -> List[int]:
        if n < 0:
            raise ValueError(f"negative page count: {n}")
        free = self.free_pages
        if n > free:
            raise MemoryError(
                f"tenant {self.name!r}: want {n} {self.tier.name} pages, "
                f"{free} within quota"
            )
        # free_pages bounds n by the shared file's free count too, so the
        # shared allocation cannot fail and usage moves only on success.
        offsets = self.shared.alloc_pages(n)
        self.used_pages += n
        return offsets

    def free_page(self, offset_index: int) -> None:
        self.shared.free_page(offset_index)
        if self.used_pages > 0:
            self.used_pages -= 1

    def offset_bytes(self, offset_index: int) -> int:
        return self.shared.offset_bytes(offset_index)

    def __repr__(self) -> str:
        return (
            f"TenantDax({self.name!r}, {self.tier.name}, "
            f"used={self.used_pages}/{self.quota_pages})"
        )
