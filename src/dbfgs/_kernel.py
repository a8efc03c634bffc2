"""Stacked per-neighborhood round primitives and the D-BFGS node state.

Every operation works on a batch of nodes: the synchronous engine's batch
is the whole network, the event simulator's is the nodes of one level of
events that read nothing the level writes. Nodes are grouped by
neighborhood size so stacked linear algebra applies on regular and
irregular graphs alike, and each node's result depends on its own rows
only. One node therefore sees the same float
operations whatever batch it is in, which is what makes lockstep execution
of the simulator reproduce the synchronous runtime exactly.

Per-node arrays follow the graph's flat neighborhood layout
(``Graph.layout``, the one the consensus weights are stored in): row
offsets[i] + k belongs to node i's k-th neighbor.
Neighborhood views enter the kernel as one (g, m, p) array per group;
the caller gathers them. A batch lists keys row * n + node, so the event
simulator's record groups the nodes of several rows of (rows n, p) planes
with the same builder; a node id is its own key in row 0. The kernel also
keeps every node's D-BFGS state: its curvature, and in layout rows the
(var, g) views the curvature was last fitted to and the node's descent
contributions.

Per neighborhood size, the curvature stack shares one allocation with a
factor stack of its shape, indexed alike, and each node has a flag that
says its factor slot holds the Cholesky factor of its current curvature;
otherwise the slot holds a copy of the curvature, to be factored. A
round's curvature update (``bfgs_all``) tests every batch node first and
works only on the nodes that pass, in cache-sized blocks: it updates a
block's matrices in the factor slots, writes them back to the stack and
clears their flags. The descent then takes one LAPACK call per node: a
``dposv`` that factors the slot in place where the flag is clear, a
``dpotrs`` on the kept factor where it is set. A declined node keeps its
matrix, so its factor serves round after round. A first round, where
every curvature is I, takes no solve.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv, dpotrs

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


class Group(NamedTuple):
    """Batch nodes sharing one neighborhood size m, as indices."""

    msize: int
    ids: np.ndarray  # (g,) node ids, in batch order
    pos: np.ndarray  # (g,) positions of their keys in the batch
    slot: np.ndarray  # (g,) positions of ids in the size-m curvature stack
    nb: np.ndarray  # (g, m) keys of each node's neighbors in its key's row
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
        # D's diagonal block 1/m_j for every layout row; rounds gather layout
        # rows with take, about ten times faster than indexing at n = 1000
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
        Read-only: ``write_matrix`` is the one way in from outside.
        Built on first use, so kernels without D-BFGS never hold it."""
        out = {}
        for msize, (stack, *_) in self._state.items():
            out[msize] = stack.view()
            out[msize].flags.writeable = False
        return out

    @cached_property
    def _state(self) -> dict:
        """Neighborhood size m -> (stack, factor, kept, work, term), kept
        for the kernel's life, so no round pages in fresh (g, k, k) memory.
        One allocation holds the curvature stack; the factor stack of its
        shape, indexed alike; and two blocks whose length is the update's
        block size, to update matrices in (``work``) and to hold the update
        term (``term``). ``kept`` flags the nodes whose factor slot holds
        the Cholesky factor of their curvature; every other slot holds a
        copy of its node's curvature. Every curvature starts at I, which
        is its own factor."""
        sizes, counts = np.unique(self.m, return_counts=True)
        out = {}
        for msize, count in zip(sizes.tolist(), counts.tolist()):
            k = msize * self.p
            block = min(count, max(1, BLOCK_BYTES // (8 * k * k)))
            buf = np.empty((2 * count + 2 * block, k, k))
            buf[:2 * count] = np.eye(k)
            out[msize] = (buf[:count], buf[count:2 * count], np.ones(count, dtype=bool),
                          buf[2 * count:2 * count + block], buf[2 * count + block:])
        return out

    def matrix(self, i: int) -> np.ndarray:
        """Node i's curvature matrix (a read-only view into its stack)."""
        return self.curvature[int(self.m[i])][self.slot[i]]

    def write_matrix(self, i: int, b: np.ndarray) -> None:
        """Set node i's curvature matrix to b; its next descent factors it."""
        stack, factor, kept, _, _ = self._state[int(self.m[i])]
        s = self.slot[i]
        stack[s] = factor[s] = b
        kept[s] = False

    def batches(self, keys, cuts) -> list:
        """Per batch ``keys[cuts[k]:cuts[k + 1]]`` of distinct keys row * n +
        node (a node id is its own key at row 0), its groups by neighborhood
        size, ascending, each in batch order."""
        keys, cuts = np.asarray(keys, dtype=np.intp), np.asarray(cuts)
        ids = keys % len(self.m)
        sizes = self.m[ids]
        part = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
        order = np.lexsort((sizes, part))
        out = [[] for _ in range(len(cuts) - 1)]
        for msize in np.unique(sizes).tolist():
            sel = order[sizes[order] == msize]
            nodes = ids[sel]
            rows = self.offsets[nodes, None] + np.arange(msize)
            pos, slot = sel - cuts[part[sel]], self.slot[nodes]
            nb = (keys[sel] - nodes)[:, None] + self.cols[rows]
            bounds = np.searchsorted(part[sel], np.arange(len(cuts))).tolist()
            for groups, lo, hi in zip(out, bounds, bounds[1:]):
                if hi > lo:
                    at = slice(lo, hi)
                    groups.append(Group(msize, nodes[at], pos[at], slot[at], nb[at],
                                        rows[at]))
        return out

    def gather_views(self, arr: np.ndarray) -> list:
        """Per-group (g, m, p) neighborhood views of a (n, p) array."""
        return [arr.take(grp.nb, 0) for grp in self.groups]

    # -- one D-BFGS round -------------------------------------------------------

    def dbfgs_round(self, var_views: list, g_views: list, gamma: float,
                    big_gamma: float, first: bool = False, groups=None) -> np.ndarray:
        """Curvature update (not on a node's first round), keep the views
        for the batch's next round, then the descent contributions. The
        views are kept before ``descent`` can raise ``CurvatureLost``, so
        the nodes whose factor held have this round's views all the same.
        On a first round every curvature is I, which ``dposv`` solves
        exactly for finite g, so the contributions are -(g + Gamma D g)
        unfactored.

        Returns the accept mask, one entry per batch node in batch order.
        """
        groups = groups or self.groups
        if first:
            accepted = np.zeros(sum(len(grp.ids) for grp in groups), dtype=bool)
            for grp, gv in zip(groups, g_views):
                self.contrib[grp.rows] = -(gv + big_gamma * self.dd.take(grp.rows, 0) * gv)
        else:
            accepted = self.bfgs_all(var_views, g_views, gamma, groups)
        for grp, vv, gv in zip(groups, var_views, g_views):
            self.last[0][grp.rows] = vv
            self.last[1][grp.rows] = gv
        if not first:
            self.descent(g_views, big_gamma, groups)
        return accepted

    def descent(self, g_views: list, big_gamma: float, groups=None) -> None:
        """Stacked -(B^{-1} + Gamma D) g for every batch node, into its rows
        of ``contrib``: row offsets[i] + k is node i's contribution to its
        k-th neighbor.

        Each node's system takes one LAPACK call in its factor slot, never
        in the stack: ``dpotrs`` with the kept factor, or ``dposv``, which
        factors B by Cholesky and solves with that factor, where none is
        kept. ``dposv`` is ``dpotrf`` then ``dpotrs``, so both give the same
        bits. A factor is checked when it is made and kept only while its
        B is unchanged: failed factorizations, or factors with a
        non-finite diagonal, are not kept and raise ``CurvatureLost`` last.
        """
        lost = []
        for grp, gv in zip(groups or self.groups, g_views):
            stack, factor, kept, _, _ = self._state[grp.msize]
            y = gv.reshape(len(grp.ids), -1).copy()
            # a slot holds B or its factor; B is exactly symmetric, so the
            # slot's transpose is B in Fortran order: factored (lower
            # triangle, as the per-node reference does) and solved in
            # place; the flags are lower, overwrite_a and overwrite_b
            lower = factor.transpose(0, 2, 1)
            reuse = kept[grp.slot].tolist()
            info = [dpotrs(lower[s], x, 1, 1)[1] if kept_s
                    else dposv(lower[s], x, 1, 1, 1)[2]
                    for s, kept_s, x in zip(grp.slot.tolist(), reuse, y)]
            if not all(reuse):
                # OpenBLAS's Cholesky reports no error on a NaN pivot, so
                # the diagonals are checked too; kept factors pass again
                k = grp.msize * self.p
                ok = np.isfinite(factor.reshape(len(factor), k * k)[grp.slot, ::k + 1])
                ok = ok.all(axis=1)
                if any(info):
                    ok &= np.equal(info, 0)
                kept[grp.slot] = ok
                if not ok.all():  # a failed factor's slot holds B again
                    bad = grp.slot[~ok]
                    factor[bad] = stack[bad]
                    lost += grp.ids[~ok].tolist()
            self.contrib[grp.rows] = -(y.reshape(gv.shape)
                                       + big_gamma * self.dd.take(grp.rows, 0) * gv)
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
            steps = eps * self.contrib.take(self.mirror[grp.rows], 0)  # (g, msize, p)
            x = var[grp.ids]
            for k in range(grp.msize):
                x += steps[:, k]
            var[grp.ids] = x

    def bfgs_all(self, var_views: list, g_views: list, gamma: float,
                 groups=None) -> np.ndarray:
        """Stacked regularized BFGS update of every batch node, from its
        kept views to these.

        Tests every node of a group first, then updates the nodes that pass
        in blocks small enough to stay in cache: a block's matrices are
        updated in their factor slots (in the work block where the slots
        are not one range), written back to the stack, and left in the
        factor slots, flagged for ``descent`` to factor. Skipped nodes keep
        their matrix and their factor.

        Returns the accept mask, one entry per batch node in batch order.
        """
        groups = groups or self.groups
        # the whole network's groups hold every node of their size in slot
        # order, so the slots of a block are a slice where they run on
        ordered = groups is self.groups
        accepted = np.zeros(sum(len(grp.ids) for grp in groups), dtype=bool)
        for grp, vv, gv in zip(groups, var_views, g_views):
            stack, factor, kept, work, term = self._state[grp.msize]
            k = grp.msize * self.p
            flat = (len(grp.ids), k)
            v = vv - self.last[0].take(grp.rows, 0)
            v = (self.dd.take(grp.rows, 0) * v).reshape(flat)
            dg = (gv - self.last[1].take(grp.rows, 0)).reshape(flat)
            r = dg - gamma * v
            ip = (v * r).sum(axis=1)
            # the norms as np.linalg.norm computes them
            acc = ip > (SKIP_THRESHOLD * np.sqrt((v * v).sum(axis=1))
                        * np.sqrt((r * r).sum(axis=1)))
            sel, slot = np.flatnonzero(acc), grp.slot
            if len(sel) < len(slot):
                v, r, ip, slot = v[sel], r[sel], ip[sel], slot[sel]
            for lo in range(0, len(sel), len(term)):
                blk = slice(lo, lo + len(term))
                at = slot[blk]
                ranged = ordered and at[-1] - at[0] == len(at) - 1
                if ranged:  # consecutive slots: work in the factor slots
                    at = slice(at[0], at[-1] + 1)
                    b = factor[at]
                    np.copyto(b, stack[at])
                else:
                    b = np.take(stack, at, axis=0, out=work[:len(at)], mode="clip")
                vb, rb = v[blk], r[blk]
                bv = np.einsum("gij,gj->gi", b, vb)
                vbv = (vb * bv).sum(axis=1)
                ok = vbv > 0
                # b + rr'/ip - bv bv'/vbv + gamma I, with the first two
                # terms in the update term and the third in b; every term
                # is exactly symmetric when b is, so the sum is too
                new = term[:len(b)]
                np.einsum("gi,gj->gij", rb, rb, out=new)
                new /= np.where(ok, ip[blk], 1.0)[:, None, None]
                new += b
                np.einsum("gi,gj->gij", bv, bv, out=b)
                b /= np.where(ok, vbv, 1.0)[:, None, None]
                np.subtract(new, b, out=b)
                b.reshape(len(b), k * k)[:, ::k + 1] += gamma  # the diagonals
                if not ok.all():  # a B with v'Bv <= 0 is kept
                    b[~ok] = stack[at][~ok]
                    acc[sel[blk][~ok]] = False
                stack[at] = b
                if not ranged:
                    factor[at] = b
                kept[at] = False
            accepted[grp.pos] = acc
        return accepted
