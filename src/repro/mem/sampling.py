"""Fast repeated sampling from per-page weight vectors.

PEBS sampling draws a few hundred page indices per tick from the workload's
access distribution.  Workloads reuse the same weight arrays across ticks,
so we cache each array's cumulative sum (keyed by object identity) and
sample with binary search — O(log n) per draw after a one-time O(n) scan.

Weight arrays must be *replaced*, never mutated in place, when a workload's
distribution changes; mutation would leave a stale cumulative sum in the
cache.  ``AccessStream`` makes its weight arrays read-only, so an in-place
edit raises instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np


class WeightedSampler:
    """Cumulative-sum sampler with an identity-keyed cache."""

    def __init__(self, rng: np.random.Generator, cache_limit: int = 64):
        self._rng = rng
        self._cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._cache_limit = cache_limit

    def sample(self, n_pages: int, weights: Optional[np.ndarray], n: int) -> np.ndarray:
        """Draw ``n`` page indices in [0, n_pages) per ``weights``."""
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        if n_pages <= 0:
            raise ValueError(f"cannot sample from {n_pages} pages")
        if weights is None:
            return self._rng.integers(0, n_pages, size=n)
        cum = self._cumsum(weights)
        u = self._rng.random(n) * cum[-1]
        idx = np.searchsorted(cum, u, side="right")
        return np.minimum(idx, n_pages - 1)

    def _cumsum(self, weights: np.ndarray) -> np.ndarray:
        key = id(weights)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is weights:
            return hit[1]
        if len(self._cache) >= self._cache_limit:
            self._cache.clear()
        cum = np.cumsum(weights)
        self._cache[key] = (weights, cum)
        return cum
