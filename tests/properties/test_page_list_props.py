"""Property-based tests for the index-linked page FIFO.

Invariants under any operation sequence: membership count and byte
accounting match, every pid's list id is consistent, FIFO order is
preserved for push_back, and pids are never lost or duplicated.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.pagestore import NO_LIST, PageStore
from repro.mem.page import HUGE_PAGE
from repro.mem.region import Region

from tests.conftest import fifo_pop_front, fifo_remove


def apply_ops(ops):
    """Replay an op sequence against a PageFifo and a Python-list model."""
    region = Region(0x1000000, 64 * HUGE_PAGE)
    store = PageStore()
    lst = store.new_list("sut")
    base = store.bind_region(region)
    model = []
    for kind, idx in ops:
        pid = base + (idx % region.n_pages)
        if kind == "push_back":
            if store.list_id[pid] == NO_LIST:
                store.push_back(lst.lid, pid)
                model.append(pid)
        elif kind == "push_front":
            if store.list_id[pid] == NO_LIST:
                store.push_front(lst.lid, pid)
                model.insert(0, pid)
        elif kind == "remove":
            if store.list_id[pid] == lst.lid:
                fifo_remove(lst, pid)
                model.remove(pid)
        elif kind == "pop_front":
            popped = fifo_pop_front(lst)
            expected = model.pop(0) if model else -1
            assert popped == expected
    return store, lst, model


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["push_back", "push_front", "remove", "pop_front"]),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=200,
)


@given(op_strategy)
@settings(max_examples=200, deadline=None)
def test_list_matches_model(ops):
    store, lst, model = apply_ops(ops)
    assert list(lst) == model
    assert len(lst) == len(model)


@given(op_strategy)
@settings(max_examples=200, deadline=None)
def test_byte_accounting(ops):
    store, lst, model = apply_ops(ops)
    assert lst.nbytes == sum(store.psize[pid] for pid in model)


@given(op_strategy)
@settings(max_examples=200, deadline=None)
def test_list_ids_and_links_consistent(ops):
    store, lst, model = apply_ops(ops)
    for pid in model:
        assert store.list_id[pid] == lst.lid
    # Walk links both ways.
    forward = list(lst)
    backward = []
    pid = store._tail[lst.lid]
    while pid >= 0:
        backward.append(pid)
        pid = store.prev[pid]
    assert forward == list(reversed(backward))
