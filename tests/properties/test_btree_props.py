"""Property tests for the database B-tree: split/merge invariants.

Random insert/delete interleavings against a dict model.  After every
sequence the tree must hold exactly the model's keys, satisfy the
structural invariants (key order, node occupancy, uniform leaf depth),
and conserve pages (every split allocates exactly one page, every merge
frees exactly one, so live pages always equal node count).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db.btree import BTree
from repro.db.pages import PageAllocator


def make_tree(order: int) -> BTree:
    alloc = PageAllocator("bt", base=0, capacity=4096)
    return BTree("bt", alloc, touch=lambda *a: None, arena_id=0, order=order)


KEYS = st.integers(min_value=0, max_value=400)
OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), KEYS),
    max_size=400,
)


@given(ops=OPS, order=st.sampled_from([4, 5, 8, 32]))
@settings(max_examples=120, deadline=None)
def test_matches_dict_model_and_keeps_invariants(ops, order):
    tree = make_tree(order)
    model = {}
    for op, key in ops:
        if op == "insert":
            tree.insert(key, key * 3)
            model[key] = key * 3
        else:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
    tree.check_invariants()
    assert len(tree) == len(model)
    for key, val in model.items():
        assert tree.search(key) == val
    assert list(tree.scan(-1, 10**6)) == sorted(model.items())


@given(ops=OPS, order=st.sampled_from([4, 8]))
@settings(max_examples=80, deadline=None)
def test_page_conservation_through_splits_and_merges(ops, order):
    tree = make_tree(order)
    for op, key in ops:
        if op == "insert":
            tree.insert(key, None)
        else:
            tree.delete(key)
    # check_invariants asserts live pages == reachable nodes; the
    # allocator asserts live + free == high water (no leaks, no doubles).
    tree.check_invariants()
    tree.allocator.check_conservation()


@given(keys=st.lists(KEYS, min_size=1, max_size=300))
@settings(max_examples=80, deadline=None)
def test_drain_returns_all_pages_to_one_node(keys):
    tree = make_tree(4)
    for key in keys:
        tree.insert(key, key)
    for key in set(keys):
        assert tree.delete(key)
    tree.check_invariants()
    assert len(tree) == 0
    # Fully drained: the tree collapses back to a single root page.
    assert tree.allocator.live == 1
    assert tree.search(keys[0]) is None


def test_odd_order_refill_does_not_overflow_a_leaf():
    # Two minimum-fill leaves of an order-5 tree hold 3 + 3 keys: merging
    # them on the way down to delete a key would overflow the leaf.
    tree = make_tree(5)
    for key in (2, 3, 4, 5, 6, 0):
        tree.insert(key, key)
    assert not tree.delete(1)
    tree.check_invariants()
    assert list(tree.scan(-1, 10)) == [(k, k) for k in (0, 2, 3, 4, 5, 6)]


@pytest.mark.parametrize("order", [5, 7, 9])
def test_odd_order_invariants_hold_after_every_delete(order):
    tree = make_tree(order)
    keys = list(range(300))
    for key in keys:
        tree.insert(key, key)
    # strided delete order: hits leaves and interiors at every fill level
    for key in keys[::7] + keys[3::7] + keys[1::7] + keys[5::7] + keys:
        tree.delete(key)
        tree.check_invariants()
    assert len(tree) == 0
    assert tree.allocator.live == 1


def test_upsert_overwrites_without_growing():
    tree = make_tree(8)
    for i in range(100):
        tree.insert(i, i)
    pages = tree.allocator.live
    for i in range(100):
        tree.insert(i, -i)
    assert tree.allocator.live == pages
    assert len(tree) == 100
    assert tree.search(7) == -7
    tree.check_invariants()


def test_double_free_is_caught():
    alloc = PageAllocator("p", base=0, capacity=8)
    pid = alloc.alloc()
    alloc.free(pid)
    alloc.free(pid)
    with pytest.raises(AssertionError, match="double free"):
        alloc.check_conservation()


def test_freeing_a_never_allocated_page_is_rejected():
    alloc = PageAllocator("p", base=16, capacity=8)
    with pytest.raises(ValueError, match="never allocated"):
        alloc.free(2)
