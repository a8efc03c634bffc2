"""Stacked per-neighborhood round primitives and the D-BFGS node state.

Every operation works on a batch of nodes: the synchronous engine's batch
is the whole network, the event simulator's is the nodes of one window
of commuting events. Nodes are grouped by neighborhood size so stacked linear
algebra applies on regular and irregular graphs alike, and each node's
result depends on its own rows only. One node therefore sees the same float
operations whatever batch it is in, which is what makes lockstep execution
of the simulator reproduce the synchronous runtime exactly.

Per-node arrays follow the graph's flat neighborhood layout
(``Graph.layout``, the one the consensus weights are stored in): row
offsets[i] + k belongs to node i's k-th neighbor.
Neighborhood views enter the kernel as one (g, m, p) array per group;
the caller gathers them. The kernel also keeps every node's D-BFGS
state: its curvature, and in layout rows the (var, g) views the curvature
was last fitted to and the node's descent contributions.

Per neighborhood size, the curvature stack shares one allocation with a
scratch stack of its shape. A round's curvature update (``bfgs_all``)
works through the batch in cache-sized blocks of nodes: it copies a
block's matrices from the stack into the scratch, updates them there and
writes them back to the stack once. The descent then factors those
matrices in the scratch, never in the stack, with one LAPACK ``dposv`` per
node; called on its own, it copies them from the stack first. A first
round, where every curvature is I, takes no factorization.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv

from .netgraph import Graph

# relative threshold for the update feasibility test
SKIP_THRESHOLD = 1e-10
# bytes of one (block, k, k) stack of the curvature update: a block's matrices
# and its update term then stay in a core's L2 cache together
BLOCK_BYTES = 1 << 18


class CurvatureLost(RuntimeError):
    """No finite Cholesky factor for the batch's ``nodes``, group by group."""

    def __init__(self, nodes: list):
        super().__init__("curvature matrix lost positive definiteness "
                         f"at node {nodes[0]}")
        self.nodes = nodes


def by_size(m: np.ndarray, ids: np.ndarray, cuts):
    """Per neighborhood size m[i] of the nodes ``ids``, ascending, yield the
    size, the positions in ``ids`` of its nodes part by part (part k is
    ``ids[cuts[k]:cuts[k + 1]]``) and in order within a part, their parts,
    and where each part starts among them, then their count."""
    sizes = m[ids]
    part = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    order = np.lexsort((sizes, part))
    for msize in np.unique(sizes).tolist():
        sel = order[sizes[order] == msize]
        yield msize, sel, part[sel], np.searchsorted(part[sel], np.arange(len(cuts)))


class Group(NamedTuple):
    """Batch nodes sharing one neighborhood size m."""

    msize: int
    ids: np.ndarray  # (g,) node ids, in batch order
    pos: np.ndarray  # (g,) positions of ids in the batch
    slot: np.ndarray  # (g,) positions of ids in the size-m curvature stack
    nb: np.ndarray  # (g, m) neighborhoods
    dd: np.ndarray  # (g, m p) diagonal of D over each neighborhood
    ch: np.ndarray  # (g, m) layout rows holding each neighbor's contribution to the node
    rows: np.ndarray  # (g, m) the node's own layout rows


class RoundKernel:
    """Neighborhood layout, D-BFGS node state and stacked batch operations."""

    def __init__(self, graph: Graph, p: int):
        self.graph = graph
        self.p = p
        self.m = np.asarray(graph.m)
        lay = graph.layout
        self.offsets, self.cols, self.mirror = lay.indptr, lay.cols, lay.mirror
        self.total_blocks = int(self.offsets[-1])
        # D's diagonal block 1/m_j for every layout row
        self.dd = np.repeat(1.0 / self.m[self.cols], p).reshape(-1, p)
        # each node's position among the nodes of its neighborhood size
        self.slot = np.empty(graph.n, dtype=np.intp)
        for msize in set(graph.m):
            sel = np.flatnonzero(self.m == msize)
            self.slot[sel] = np.arange(len(sel))
        # the views each node's curvature was last fitted to (var, g), and
        # the node's descent contributions, in layout rows
        self.last = np.zeros((2, self.total_blocks, p))
        self.contrib = np.zeros((self.total_blocks, p))
        self.groups = self.batches(range(graph.n), [0, graph.n])[0]

    @cached_property
    def curvature(self) -> dict:
        """Neighborhood size m -> (count, m p, m p) stack of the curvature
        matrices of the nodes of that size, by ``slot``; starts at I.
        Built on first use, so kernels without D-BFGS never hold it."""
        return {msize: stack for msize, (stack, _, _) in self._state.items()}

    @cached_property
    def _state(self) -> dict:
        """Neighborhood size m -> (stack, scratch, term), three parts of
        one allocation kept for the kernel's life, so no round pages in
        fresh (g, k, k) memory: the curvature stack; a scratch stack of its
        shape, which holds the matrices of a batch's nodes by batch
        position and in which ``descent`` factors them; and the update
        term of one block, whose length is the update's block size."""
        sizes, counts = np.unique(self.m, return_counts=True)
        out = {}
        for msize, count in zip(sizes.tolist(), counts.tolist()):
            k = msize * self.p
            block = min(count, max(1, BLOCK_BYTES // (8 * k * k)))
            buf = np.empty((2 * count + block, k, k))
            buf[:count] = np.eye(k)
            out[msize] = buf[:count], buf[count:2 * count], buf[2 * count:]
        return out

    def matrix(self, i: int) -> np.ndarray:
        """Node i's curvature matrix (a view into its stack)."""
        return self.curvature[int(self.m[i])][self.slot[i]]

    def batches(self, ids, cuts) -> list:
        """Per batch ``ids[cuts[k]:cuts[k + 1]]`` of distinct node ids, its
        groups by neighborhood size, ascending, each in batch order."""
        ids, cuts = np.asarray(ids, dtype=np.intp), np.asarray(cuts)
        out = [[] for _ in cuts[1:]]
        for msize, sel, part, bounds in by_size(self.m, ids, cuts):
            nodes = ids[sel]
            rows = self.offsets[nodes, None] + np.arange(msize)
            fields = (nodes, sel - cuts[part], self.slot[nodes], self.cols[rows],
                      self.dd[rows].reshape(len(sel), -1), self.mirror[rows], rows)
            bounds = bounds.tolist()
            for groups, lo, hi in zip(out, bounds, bounds[1:]):
                if hi > lo:
                    groups.append(Group(msize, *[f[lo:hi] for f in fields]))
        return out

    def gather_views(self, arr: np.ndarray) -> list:
        """Per-group (g, m, p) neighborhood views of a (n, p) array."""
        return [arr[grp.nb] for grp in self.groups]

    # -- one D-BFGS round -------------------------------------------------------

    def dbfgs_round(self, var_views: list, g_views: list, gamma: float,
                    big_gamma: float, first: bool = False, groups=None) -> np.ndarray:
        """Curvature update (not on a node's first round), descent
        contributions, then keep the views for the batch's next round.
        The descent factors the matrices the update left in the scratch. On
        a first round every curvature is I, which ``dposv`` solves exactly
        for finite g, so the contributions are -(g + Gamma D g) unfactored.

        Returns the accept mask, one entry per batch node in batch order.
        """
        groups = groups or self.groups
        if first:
            accepted = np.zeros(sum(len(grp.ids) for grp in groups), dtype=bool)
            for grp, gv in zip(groups, g_views):
                self.contrib[grp.rows] = -(gv + big_gamma * grp.dd.reshape(gv.shape) * gv)
        else:
            accepted = self.bfgs_all(var_views, g_views, gamma, groups)
            self.descent(g_views, big_gamma, groups, loaded=True)
        for grp, vv, gv in zip(groups, var_views, g_views):
            self.last[0][grp.rows] = vv
            self.last[1][grp.rows] = gv
        return accepted

    def descent(self, g_views: list, big_gamma: float, groups=None, *,
                loaded: bool = False) -> None:
        """Stacked -(B^{-1} + Gamma D) g for every batch node, into its rows
        of ``contrib``: row offsets[i] + k is node i's contribution to its
        k-th neighbor.

        Each node's system takes one LAPACK ``dposv`` call, which factors B
        by Cholesky and solves with that factor, in the per-size scratch,
        never in the stack. The batch's matrices are copied from the stack
        into the scratch first, unless ``loaded`` says ``bfgs_all`` has
        just left them there. Failed factorizations, or factors with a
        non-finite diagonal, raise ``CurvatureLost`` last."""
        lost = []
        for grp, gv in zip(groups or self.groups, g_views):
            stack, mats, _ = self._state[grp.msize]
            mats = mats[:len(grp.ids)]
            if not loaded:
                np.take(stack, grp.slot, axis=0, out=mats, mode="clip")
            gv = gv.reshape(len(grp.ids), -1)
            y = gv.copy()
            # mats[j] is exactly symmetric, so its transpose is mats[j] in
            # Fortran order: factored (lower triangle, as the per-node
            # reference does) and solved in place; the flags are lower,
            # overwrite_a and overwrite_b
            info = [dposv(a, x, 1, 1, 1)[2]
                    for a, x in zip(mats.transpose(0, 2, 1), y)]
            # OpenBLAS's Cholesky reports no error on a NaN pivot, so the
            # factor's diagonal is checked too
            bad = np.not_equal(info, 0)
            bad |= ~np.isfinite(np.diagonal(mats, axis1=1, axis2=2)).all(axis=1)
            lost += grp.ids[bad].tolist()
            e = -(y + big_gamma * grp.dd * gv)
            self.contrib[grp.rows] = e.reshape(len(y), grp.msize, self.p)
        if lost:
            raise CurvatureLost(lost)

    def apply_descents(self, var: np.ndarray, eps: float) -> None:
        """Add eps times every neighbor contribution to var, in slot order.

        Contributions are applied one neighborhood slot at a time (ascending
        sender id per recipient) so the event simulator's incremental
        mailbox application performs the identical float sequence. Each
        group's rows of var are read once and written once.
        """
        for grp in self.groups:
            steps = eps * self.contrib[grp.ch]  # (g, msize, p)
            x = var[grp.ids]
            for k in range(grp.msize):
                x += steps[:, k]
            var[grp.ids] = x

    def bfgs_all(self, var_views: list, g_views: list, gamma: float,
                 groups=None) -> np.ndarray:
        """Stacked regularized BFGS update of every batch node, from its
        kept views to these.

        Works through each group in blocks of nodes small enough to stay in
        cache: a block's matrices are copied from the stack into the
        per-size scratch, updated there, and written back to the stack once.
        Skipped nodes keep their matrix. The scratch then holds every batch
        node's new matrix, in batch order, for ``descent``.

        Returns the accept mask, one entry per batch node in batch order.
        """
        groups = groups or self.groups
        accepted = np.zeros(sum(len(grp.ids) for grp in groups), dtype=bool)
        for grp, vv, gv in zip(groups, var_views, g_views):
            stack, mats, term = self._state[grp.msize]
            mats = mats[:len(grp.ids)]
            k = grp.msize * self.p
            flat = (-1, k)
            for lo in range(0, len(grp.ids), len(term)):
                blk = slice(lo, lo + len(term))
                rows, slot, b = grp.rows[blk], grp.slot[blk], mats[blk]
                np.take(stack, slot, axis=0, out=b, mode="clip")
                v = grp.dd[blk] * (vv[blk] - self.last[0][rows]).reshape(flat)
                dg = (gv[blk] - self.last[1][rows]).reshape(flat)
                r = dg - gamma * v
                ip = (v * r).sum(axis=1)
                # the norms as np.linalg.norm computes them
                acc = ip > (SKIP_THRESHOLD * np.sqrt((v * v).sum(axis=1))
                            * np.sqrt((r * r).sum(axis=1)))
                if acc.any():
                    bv = np.einsum("gij,gj->gi", b, v)
                    vbv = (v * bv).sum(axis=1)
                    acc &= vbv > 0
                    safe_ip = np.where(acc, ip, 1.0)
                    safe_vbv = np.where(acc, vbv, 1.0)
                    # b + rr'/ip - bv bv'/vbv + gamma I, with the first two
                    # terms in the update term and the third in b; every
                    # term is exactly symmetric when b is, so the sum is too
                    new = term[:len(slot)]
                    np.einsum("gi,gj->gij", r, r, out=new)
                    new /= safe_ip[:, None, None]
                    new += b
                    np.einsum("gi,gj->gij", bv, bv, out=b)
                    b /= safe_vbv[:, None, None]
                    np.subtract(new, b, out=b)
                    b.reshape(len(slot), k * k)[:, ::k + 1] += gamma  # the diagonals
                    b[~acc] = stack[slot[~acc]]  # skipped nodes keep their matrix
                    stack[slot] = b
                accepted[grp.pos[blk]] = acc
        return accepted
