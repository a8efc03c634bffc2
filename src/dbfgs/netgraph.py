"""Communication topologies and consensus weights.

Graphs are undirected with 0-based contiguous node ids. Every node's
neighborhood includes the node itself and is kept sorted ascending, so
all neighborhood-ordered vectors and matrices across the package agree
on block order. The closed neighborhoods, flattened node by node, form
the one layout that weights, views and curvature state share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "Layout",
    "build_d_regular_cycle",
    "build_weight_matrix",
]


class Layout(NamedTuple):
    """Flat closed-neighborhood layout: slots indptr[i]:indptr[i+1] hold
    n_i in ascending order, as CSR rows."""

    indptr: np.ndarray  # (n + 1,) row offsets
    cols: np.ndarray  # (total,) the neighbor j of each slot (i, j)
    rows: np.ndarray  # (total,) the owning node i of each slot
    own: np.ndarray  # (n,) the slot (i, i) of each node
    mirror: np.ndarray  # (total,) the slot (j, i) of each slot (i, j)


@dataclass(frozen=True)
class Graph:
    """Undirected topology, stored as its closed neighborhoods.

    Attributes
    ----------
    n : int
        Number of nodes.
    neighborhoods : tuple of tuple of int
        For each node i, the sorted closed neighborhood (i included).
    m : tuple of int
        Neighborhood sizes: each node's degree plus one.
    """

    n: int
    neighborhoods: tuple
    m: tuple

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an edge list, validating and normalizing.

        Rejects self-loops, out-of-range ids, and disconnected graphs
        (the consensus runtimes require connectivity).
        """
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        nbhd = [{i} for i in range(n)]
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            nbhd[i].add(j)
            nbhd[j].add(i)
        neighborhoods = tuple(tuple(sorted(s)) for s in nbhd)
        g = cls(n=n, neighborhoods=neighborhoods, m=tuple(map(len, neighborhoods)))
        if n > 1:
            # imported here: it is slow to import and only built graphs need it
            from scipy.sparse.csgraph import connected_components
            lay = g.layout
            adj = sp.csr_array((np.ones(len(lay.cols)), lay.cols, lay.indptr), shape=(n, n))
            if connected_components(adj, directed=False, return_labels=False) > 1:
                raise ValueError("graph is not connected")
        return g

    @cached_property
    def edges(self) -> frozenset:
        """Unordered pairs as (min, max) tuples."""
        return frozenset((i, j) for i, nb in enumerate(self.neighborhoods)
                         for j in nb if i < j)

    def is_regular(self):
        """Common degree if the graph is regular, else None."""
        degs = {mi - 1 for mi in self.m}
        return degs.pop() if len(degs) == 1 else None

    @cached_property
    def layout(self) -> Layout:
        """The flat neighborhood layout, computed once per graph."""
        indptr = np.concatenate(([0], np.cumsum(self.m)))
        cols = np.fromiter(itertools.chain.from_iterable(self.neighborhoods),
                           dtype=np.intp, count=indptr[-1])
        rows = np.repeat(np.arange(self.n), self.m)
        # the graph is undirected, so sorting by (col, row) lists the mirrors
        return Layout(indptr, cols, rows, np.flatnonzero(cols == rows),
                      np.lexsort((rows, cols)))


def build_d_regular_cycle(n: int, d: int) -> Graph:
    """d-regular cycle: node i adjacent to i±1, ..., i±d/2 (mod n).

    Parameters
    ----------
    n : int
        Node count.
    d : int
        Even connectivity, d < n. Every node ends up with m_i = d + 1.
    """
    if d <= 0 or d % 2 != 0:
        raise ValueError(f"connectivity d must be a positive even integer, got {d}")
    if d >= n:
        raise ValueError(f"connectivity d={d} must be smaller than n={n}")
    # d < n, so the offsets -d/2..d/2 reach d + 1 distinct nodes; the ring
    # connects them
    nbhd = np.sort((np.arange(n)[:, None] + np.arange(-(d // 2), d // 2 + 1)) % n, axis=1)
    return Graph(n=n, neighborhoods=tuple(map(tuple, nbhd.tolist())), m=(d + 1,) * n)


def build_weight_matrix(graph: Graph, d: int) -> sp.csr_array:
    """Row-stochastic weights for a d-regular graph, as CSR rows whose
    stored entries are exactly the graph's layout.

    Diagonal entries 1/2 + 1/(2(d+1)), off-diagonal 1/(2(d+1)) on edges.
    Rows sum to 1 exactly by construction.
    """
    reg = graph.is_regular()
    if reg is None:
        raise ValueError("weight scheme requires a regular graph")
    if reg != d:
        raise ValueError(f"graph is {reg}-regular, not {d}-regular")
    off = 1.0 / (2.0 * (d + 1))
    lay = graph.layout
    data = np.where(lay.cols == lay.rows, 0.5 + off, off)
    return sp.csr_array((data, lay.cols, lay.indptr), shape=(graph.n, graph.n))
