"""Compressed sparse row graph."""

from __future__ import annotations

import numpy as np


class CsrGraph:
    """Directed graph in CSR form with degree queries.

    Built from an edge array; self-loops and duplicate edges are dropped
    (GAP's builder does the same).
    """

    def __init__(self, n_vertices: int, edges: np.ndarray):
        if n_vertices <= 0:
            raise ValueError(f"need at least one vertex: {n_vertices}")
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must be (m, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n_vertices):
            raise ValueError("edge endpoint out of range")
        self.n_vertices = n_vertices

        if edges.size:
            mask = edges[:, 0] != edges[:, 1]
            edges = edges[mask]
            # Dedup via sort over a combined key.
            key = edges[:, 0] * n_vertices + edges[:, 1]
            edges = edges[np.argsort(key, kind="stable")]
            key = edges[:, 0] * n_vertices + edges[:, 1]
            keep = np.ones(len(edges), dtype=bool)
            keep[1:] = key[1:] != key[:-1]
            edges = edges[keep]

        self.n_edges = len(edges)
        counts = np.bincount(edges[:, 0], minlength=n_vertices) if self.n_edges else np.zeros(n_vertices, dtype=np.int64)
        self.offsets = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.targets = edges[:, 1].copy() if self.n_edges else np.zeros(0, dtype=np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        return self.targets[self.offsets[v]:self.offsets[v + 1]]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def csr_bytes(self) -> int:
        """Bytes of the CSR arrays (offsets + targets, 8 B each)."""
        return 8 * (self.n_vertices + 1 + self.n_edges)

    def __repr__(self) -> str:
        return f"CsrGraph(V={self.n_vertices}, E={self.n_edges})"
