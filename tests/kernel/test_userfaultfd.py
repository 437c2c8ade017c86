"""Tests for userfaultfd registration and page-missing fault accounting."""

import numpy as np
import pytest

from repro.kernel.userfaultfd import UserFaultFd
from repro.mem.page import HUGE_PAGE
from repro.mem.region import Region
from repro.obs.events import PageFault
from repro.obs.trace import Tracer


@pytest.fixture
def region():
    return Region(0x1000000, 8 * HUGE_PAGE)


@pytest.fixture
def uffd(stats):
    return UserFaultFd(stats)


class TestRegistration:
    def test_register_unregister(self, uffd, region):
        uffd.register(region)
        assert uffd.is_registered(region)
        uffd.unregister(region)
        assert not uffd.is_registered(region)

    def test_unregistered_region_rejected(self, uffd, region):
        with pytest.raises(KeyError):
            uffd.resolve_missing(region, ((np.array([0]), "dram-free"),))


class TestFaultDelivery:
    def test_counters(self, uffd, region, stats):
        uffd.register(region)
        uffd.resolve_missing(region, ((np.array([0, 1]), "dram-free"),
                                      (np.array([5]), "nvm-watermark")))
        assert stats.counter("uffd.missing_faults").value == 3
        # Write protection is the tracker's UNDER_MIGRATION flag, so no
        # write-protect fault is ever forwarded; the counter stays at 0.
        assert stats.counter("uffd.wp_faults").value == 0

    def test_resolve_missing_traces_each_page_in_order(self, stats, region):
        tracer = Tracer()
        uffd = UserFaultFd(stats, tracer=tracer)
        uffd.register(region)
        uffd.resolve_missing(region, ((np.array([3, 1]), "dram-free"),
                                      (np.array([2]), "nvm-watermark")))
        assert [(e.fault, e.page, e.reason) for e in tracer.events] == [
            ("missing", 3, "dram-free"),
            ("missing", 1, "dram-free"),
            ("missing", 2, "nvm-watermark"),
        ]
        assert all(type(e) is PageFault for e in tracer.events)
