"""A paged B-tree index with splits, merges, and checkable invariants.

Each node occupies exactly one logical page from the index arena's
allocator; every node visited on the way down is reported through the
touch callback, so index traffic — the thing the app-directed buffer
pool pins in DRAM — falls out of the functional workload instead of
being assumed.  Keys are opaque orderable tuples; values are heap rids.

Deletes rebalance: an underflowing node first borrows from a richer
sibling, else merges into it and frees its page — so the property tests
can pin down occupancy bounds *and* page-allocation conservation
(every split allocates exactly one page, every merge frees exactly one).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from repro.db.pages import PageAllocator, Touch, restore_attributes


class _Node:
    __slots__ = ("page", "keys", "vals", "kids", "leaf")

    def __init__(self, page: int, leaf: bool):
        self.page = page
        self.leaf = leaf
        self.keys: List = []
        self.vals: List = []          # leaf only: one value per key
        self.kids: List["_Node"] = []  # interior only: len(keys) + 1


class BTree:
    """B-tree of ``order`` children per interior node (order >= 4).

    Interior nodes hold between ``ceil(order/2) - 1`` and ``order - 1``
    keys (the root is exempt from the minimum); leaves hold between
    ``ceil(order/2)`` and ``order`` entries.
    """

    __setstate__ = restore_attributes

    def __init__(self, name: str, allocator: PageAllocator, touch: Touch,
                 arena_id: int, order: int = 32):
        if order < 4:
            raise ValueError(f"{name}: order must be >= 4")
        self.name = name
        self.order = order
        self.allocator = allocator
        self.touch = touch
        self.arena_id = arena_id
        self.root = _Node(allocator.alloc(), leaf=True)
        self.n_keys = 0
        self.n_nodes = 1

    # minimum/maximum entries per node kind
    @property
    def _min_leaf(self) -> int:
        return (self.order + 1) // 2

    @property
    def _min_keys(self) -> int:
        return (self.order + 1) // 2 - 1

    def _visit(self, node: _Node, write: bool = False) -> None:
        self.touch(self.arena_id, node.page, write)

    # ------------------------------------------------------------- search
    def search(self, key) -> Optional[object]:
        node = self.root
        while True:
            self._visit(node)
            if node.leaf:
                i = bisect.bisect_left(node.keys, key)
                if i < len(node.keys) and node.keys[i] == key:
                    return node.vals[i]
                return None
            node = node.kids[bisect.bisect_right(node.keys, key)]

    def scan(self, lo, hi) -> Iterator[Tuple[object, object]]:
        """Yield (key, value) for lo <= key < hi, touching each leaf."""
        yield from self._scan(self.root, lo, hi)

    def _scan(self, node: _Node, lo, hi) -> Iterator[Tuple[object, object]]:
        self._visit(node)
        if node.leaf:
            i = bisect.bisect_left(node.keys, lo)
            while i < len(node.keys) and node.keys[i] < hi:
                yield node.keys[i], node.vals[i]
                i += 1
            return
        start = bisect.bisect_right(node.keys, lo)
        for j in range(start, len(node.kids)):
            if j > start and j - 1 < len(node.keys) and not node.keys[j - 1] < hi:
                break
            yield from self._scan(node.kids[j], lo, hi)

    # ------------------------------------------------------------- insert
    def insert(self, key, value) -> None:
        """Insert (upserting an existing key in place)."""
        root = self.root
        cap = self.order if root.leaf else self.order - 1
        if len(root.keys) >= cap and not self._contains_quick(root, key):
            # Preemptive root split keeps the downward pass single-phase.
            new_root = _Node(self.allocator.alloc(), leaf=False)
            self.n_nodes += 1
            new_root.kids = [root]
            self.root = new_root
            self._split_child(new_root, 0)
        self._insert_nonfull(self.root, key, value)

    def _contains_quick(self, node: _Node, key) -> bool:
        if not node.leaf:
            return False
        i = bisect.bisect_left(node.keys, key)
        return i < len(node.keys) and node.keys[i] == key

    def _insert_nonfull(self, node: _Node, key, value) -> None:
        self._visit(node, write=True)
        if node.leaf:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.vals[i] = value
                return
            node.keys.insert(i, key)
            node.vals.insert(i, value)
            self.n_keys += 1
            return
        i = bisect.bisect_right(node.keys, key)
        child = node.kids[i]
        cap = self.order if child.leaf else self.order - 1
        if len(child.keys) >= cap and not self._contains_quick(child, key):
            self._split_child(node, i)
            if key >= node.keys[i]:
                i += 1
        self._insert_nonfull(node.kids[i], key, value)

    def _split_child(self, parent: _Node, i: int) -> None:
        """Split parent.kids[i]; allocates exactly one page."""
        child = parent.kids[i]
        sib = _Node(self.allocator.alloc(), leaf=child.leaf)
        self.n_nodes += 1
        mid = len(child.keys) // 2
        if child.leaf:
            sib.keys = child.keys[mid:]
            sib.vals = child.vals[mid:]
            child.keys = child.keys[:mid]
            child.vals = child.vals[:mid]
            sep = sib.keys[0]
        else:
            sep = child.keys[mid]
            sib.keys = child.keys[mid + 1:]
            sib.kids = child.kids[mid + 1:]
            child.keys = child.keys[:mid]
            child.kids = child.kids[:mid + 1]
        parent.keys.insert(i, sep)
        parent.kids.insert(i + 1, sib)
        self._visit(child, write=True)
        self._visit(sib, write=True)
        self._visit(parent, write=True)

    # ------------------------------------------------------------- delete
    def delete(self, key) -> bool:
        """Delete a key, rebalancing by borrow-or-merge on the way down."""
        found = self._delete(self.root, key)
        root = self.root
        if not root.leaf and len(root.kids) == 1:
            # Root collapsed to a single child: shrink the tree height.
            self.allocator.free(root.page)
            self.n_nodes -= 1
            self.root = root.kids[0]
        return found

    def _delete(self, node: _Node, key) -> bool:
        self._visit(node, write=True)
        if node.leaf:
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.keys.pop(i)
                node.vals.pop(i)
                self.n_keys -= 1
                return True
            return False
        i = bisect.bisect_right(node.keys, key)
        child = node.kids[i]
        min_fill = self._min_leaf if child.leaf else self._min_keys
        if len(child.keys) <= min_fill:
            i = self._refill(node, i)
            child = node.kids[i]
        return self._delete(child, key)

    def _refill(self, parent: _Node, i: int) -> int:
        """Give kids[i] headroom: borrow from a sibling or merge; returns
        the child index to continue the descent into."""
        child = parent.kids[i]
        left = parent.kids[i - 1] if i > 0 else None
        right = parent.kids[i + 1] if i + 1 < len(parent.kids) else None
        min_fill = self._min_leaf if child.leaf else self._min_keys

        if left is not None and len(left.keys) > min_fill:
            self._visit(left, write=True)
            if child.leaf:
                child.keys.insert(0, left.keys.pop())
                child.vals.insert(0, left.vals.pop())
                parent.keys[i - 1] = child.keys[0]
            else:
                child.keys.insert(0, parent.keys[i - 1])
                parent.keys[i - 1] = left.keys.pop()
                child.kids.insert(0, left.kids.pop())
            return i
        if right is not None and len(right.keys) > min_fill:
            self._visit(right, write=True)
            if child.leaf:
                child.keys.append(right.keys.pop(0))
                child.vals.append(right.vals.pop(0))
                parent.keys[i] = right.keys[0]
            else:
                child.keys.append(parent.keys[i])
                parent.keys[i] = right.keys.pop(0)
                child.kids.append(right.kids.pop(0))
            return i

        # Merge with a sibling whose union fits one node; frees exactly one
        # page.  With an odd order two minimum-fill nodes do not fit, so
        # the child is left at the minimum and may drop one below it
        # (the bound check_invariants enforces); the next refill of a
        # child that far down always has a merge that fits.
        cap = self.order if child.leaf else self.order - 2
        if left is not None and len(left.keys) + len(child.keys) <= cap:
            dst, src, sep_i, child_i = left, child, i - 1, i - 1
        elif right is not None and len(child.keys) + len(right.keys) <= cap:
            dst, src, sep_i, child_i = child, right, i, i
        else:
            return i
        self._visit(dst, write=True)
        if dst.leaf:
            dst.keys.extend(src.keys)
            dst.vals.extend(src.vals)
        else:
            dst.keys.append(parent.keys[sep_i])
            dst.keys.extend(src.keys)
            dst.kids.extend(src.kids)
        parent.keys.pop(sep_i)
        parent.kids.pop(sep_i + 1)
        self.allocator.free(src.page)
        self.n_nodes -= 1
        return child_i

    # --------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Key order, occupancy bounds, uniform leaf depth, page counts."""
        n_keys, n_nodes = self._check(self.root, None, None, is_root=True)
        depths = set()
        self._leaf_depths(self.root, 0, depths)
        if len(depths) > 1:
            raise AssertionError(f"{self.name}: leaves at depths {depths}")
        if n_keys != self.n_keys:
            raise AssertionError(
                f"{self.name}: key count drift {n_keys} != {self.n_keys}")
        if n_nodes != self.n_nodes:
            raise AssertionError(
                f"{self.name}: node count drift {n_nodes} != {self.n_nodes}")
        if self.allocator.live != self.n_nodes:
            raise AssertionError(
                f"{self.name}: allocator live {self.allocator.live} != "
                f"nodes {self.n_nodes} (page leak)")

    def _check(self, node: _Node, lo, hi, is_root: bool) -> Tuple[int, int]:
        keys = node.keys
        if any(not keys[j] < keys[j + 1] for j in range(len(keys) - 1)):
            raise AssertionError(f"{self.name}: unsorted node {node.page}")
        if lo is not None and keys and keys[0] < lo:
            raise AssertionError(f"{self.name}: key below separator")
        if hi is not None and keys and not keys[-1] < hi:
            raise AssertionError(f"{self.name}: key above separator")
        if node.leaf:
            if len(node.vals) != len(keys):
                raise AssertionError(f"{self.name}: leaf vals/keys mismatch")
            if not is_root and len(keys) < self._min_leaf - 1:
                raise AssertionError(
                    f"{self.name}: leaf underflow ({len(keys)})")
            if len(keys) > self.order:
                raise AssertionError(f"{self.name}: leaf overflow")
            return len(keys), 1
        if len(node.kids) != len(keys) + 1:
            raise AssertionError(f"{self.name}: fanout mismatch")
        if not is_root and len(keys) < self._min_keys - 1:
            raise AssertionError(
                f"{self.name}: interior underflow ({len(keys)})")
        if len(keys) > self.order - 1:
            raise AssertionError(f"{self.name}: interior overflow")
        total_keys, total_nodes = 0, 1
        bounds = [lo] + list(keys) + [hi]
        for j, kid in enumerate(node.kids):
            k, n = self._check(kid, bounds[j], bounds[j + 1], is_root=False)
            total_keys += k
            total_nodes += n
        return total_keys, total_nodes

    def _leaf_depths(self, node: _Node, depth: int, out: set) -> None:
        if node.leaf:
            out.add(depth)
            return
        for kid in node.kids:
            self._leaf_depths(kid, depth + 1, out)

    def __len__(self) -> int:
        return self.n_keys
