"""Stacked per-neighborhood round primitives shared by every engine.

Every operation works on a batch of nodes: the synchronous engine's batch
is the whole network, the event simulator's is the set of nodes available
at one event time. Nodes are grouped by neighborhood size so stacked linear
algebra applies on regular and irregular graphs alike, and each node's
result depends on its own rows only. One node therefore sees the same float
operations whatever batch it is in, which is what makes lockstep execution
of the simulator reproduce the synchronous runtime exactly.

Per-node arrays follow the graph's flat neighborhood layout
(``Graph.layout``): row offsets[i] + k belongs to node i's k-th neighbor.
A batch's neighborhood views read from a stack of such layout rows (the
dated copies each node holds of its neighbors) followed by one row per
node (its current block): a slot whose node is in the batch reads the
current block, any other slot the dated copy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .netgraph import Graph


class Group(NamedTuple):
    """Batch nodes sharing one neighborhood size m."""

    msize: int
    ids: np.ndarray  # (g,) node ids, ascending
    pos: np.ndarray  # (g,) positions of ids in the batch
    nb: np.ndarray  # (g, m) neighborhoods
    dd: np.ndarray  # (g, m p) diagonal of D over each neighborhood
    ch: np.ndarray  # (g, m) layout rows holding each neighbor's contribution to the node
    rows: np.ndarray  # (g, m) the node's own layout rows
    view: np.ndarray  # (g, m) rows of the view stack each slot reads


class RoundKernel:
    """Neighborhood layout and stacked operations on batches of nodes."""

    def __init__(self, graph: Graph, p: int):
        self.graph = graph
        self.p = p
        self.m = np.asarray(graph.m)
        self.offsets, self.cols = graph.layout()
        self.total_blocks = int(self.offsets[-1])
        rows = np.repeat(np.arange(graph.n), self.m)
        # the layout row of (j, i) for the row of (i, j): the graph is
        # undirected, so sorting by (col, row) lists the mirrored rows
        self.mirror = np.lexsort((rows, self.cols))
        # D's diagonal block 1/m_j for every layout row
        self.dd = np.repeat(1.0 / self.m[self.cols], p).reshape(-1, p)
        self._batches = {}
        self.groups = self.batch(range(graph.n))

    def batch(self, ids) -> list:
        """Groups of the ascending node ids ``ids``, by neighborhood size.

        Memoized: an event simulation meets the same batch, usually a
        single node, at many events.
        """
        key = tuple(ids)
        if key not in self._batches:
            self._batches[key] = self._group(np.array(key, dtype=np.intp))
        return self._batches[key]

    def _group(self, ids: np.ndarray) -> list:
        sizes = self.m[ids]
        in_batch = np.zeros(self.graph.n, dtype=bool)
        in_batch[ids] = True
        out = []
        for msize in sorted(set(sizes.tolist())):
            pos = np.flatnonzero(sizes == msize)
            sel = ids[pos]
            rows = self.offsets[sel, None] + np.arange(msize)
            nb = self.cols[rows]
            view = np.where(in_batch[nb], self.total_blocks + nb, rows)
            out.append(Group(msize, sel, pos, nb,
                             self.dd[rows].reshape(len(sel), -1),
                             self.mirror[rows], rows, view))
        return out

    # -- gathering ----------------------------------------------------------

    def gather_views(self, arr: np.ndarray) -> list:
        """Per-group flattened neighborhood views of a (n, p) array."""
        return [arr[grp.nb].reshape(len(grp.ids), -1) for grp in self.groups]

    # -- descent ------------------------------------------------------------

    def descent(self, matrices: list, g_views: list, big_gamma: float,
                eflat: np.ndarray, groups=None) -> np.ndarray:
        """Stacked -(B^{-1} + Gamma D) g for every batch node, into eflat.

        eflat has shape (sum m_i, p); row offsets[i] + k receives node i's
        contribution to its k-th neighbor. Rows of other nodes are kept.
        """
        for grp, gv in zip(groups or self.groups, g_views):
            b = np.array([matrices[i] for i in grp.ids.tolist()])
            try:
                np.linalg.cholesky(b)
            except np.linalg.LinAlgError:
                bad = _first_indefinite(b, grp.ids)
                raise RuntimeError("curvature matrix lost positive definiteness "
                                   f"at node {bad}") from None
            y = np.linalg.solve(b, gv[..., None])[..., 0]
            e = -(y + big_gamma * grp.dd * gv)
            eflat[grp.rows.ravel()] = e.reshape(-1, self.p)
        return eflat

    # -- applying contributions ----------------------------------------------

    def apply_descents(self, var: np.ndarray, eflat: np.ndarray,
                       eps: float) -> np.ndarray:
        """Add eps times every neighbor contribution to var, in slot order.

        Contributions are applied one neighborhood slot at a time (ascending
        sender id per recipient) so the event simulator's incremental
        mailbox application performs the identical float sequence.
        Returns the aggregated descent d (without eps) for diagnostics.
        """
        d = np.zeros_like(var)
        for grp in self.groups:
            chunks = eflat[grp.ch]  # (g, msize, p)
            for k in range(grp.msize):
                var[grp.ids] += eps * chunks[:, k]
            d[grp.ids] = chunks.sum(axis=1)
        return d

    # -- curvature updates ----------------------------------------------------

    def bfgs_all(self, matrices: list, old_var_views: list, new_var_views: list,
                 old_g_views: list, new_g_views: list, gamma: float,
                 skip_threshold: float, groups=None) -> np.ndarray:
        """Stacked regularized BFGS update of every batch node.

        Returns the accept mask, one entry per batch node in batch order.
        """
        groups = groups or self.groups
        accepted = np.zeros(sum(len(grp.ids) for grp in groups), dtype=bool)
        for gi, grp in enumerate(groups):
            v = grp.dd * (new_var_views[gi] - old_var_views[gi])
            dg = new_g_views[gi] - old_g_views[gi]
            r = dg - gamma * v
            ip = (v * r).sum(axis=1)
            # the norms as np.linalg.norm computes them
            acc = ip > (skip_threshold * np.sqrt((v * v).sum(axis=1))
                        * np.sqrt((r * r).sum(axis=1)))
            if not acc.any():
                continue
            b = np.array([matrices[i] for i in grp.ids.tolist()])
            bv = np.einsum("gij,gj->gi", b, v)
            vbv = (v * bv).sum(axis=1)
            acc &= vbv > 0
            safe_ip = np.where(acc, ip, 1.0)
            safe_vbv = np.where(acc, vbv, 1.0)
            new = (
                b
                + r[:, :, None] * r[:, None, :] / safe_ip[:, None, None]
                - bv[:, :, None] * bv[:, None, :] / safe_vbv[:, None, None]
            )
            k = grp.msize * self.p
            new.reshape(len(grp.ids), k * k)[:, ::k + 1] += gamma  # the diagonals
            new = 0.5 * (new + np.swapaxes(new, 1, 2))
            for row in np.flatnonzero(acc):
                matrices[grp.ids[row]] = new[row]
            accepted[grp.pos] = acc
        return accepted


def _first_indefinite(stack: np.ndarray, ids: np.ndarray) -> int:
    """Id of the first node whose matrix has no Cholesky factor."""
    for i, b in zip(ids.tolist(), stack):
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            return i
