"""Deterministic discrete-event simulation of asynchronous D-BFGS and DD.

Each node has its own availability clock. At an availability event a node
reads its mailbox (descent contributions and dated neighbor packages
deposited strictly before the event time), applies pending descents,
recomputes its gradient from its dated view, takes its method's local step,
and deposits fresh values for its neighbors. D-BFGS updates its curvature
and computes descent contributions for its neighborhood; dual
decomposition steps along its own gradient block.

Events sharing an exact wall time form a batch processed as a synchronized
sub-round: tied nodes see each other's fresh values. An event touches only
its node's neighborhood, so a maximal run of batches with pairwise
non-adjacent nodes commutes: it runs as one window through the round kernel
the synchronous engine uses, with one trace row per batch in event order.
Every batch takes this path, so a zero-drift schedule (a window per batch)
reproduces the synchronous runtime bit for bit.

After the kernel step a window runs three phases. Apply lands each batch's
fresh blocks and step in event order and keeps the state each row reads.
Record computes every row's error and gradient norm at once: a row's
events move only their nodes' blocks, so it refreshes only the per-node
error terms they moved and the runtime gradient blocks within reach of them
(one hop in primal mode, two in dual mode: stage 1 mixes var), and takes
the norm of the whole gradient. Before the first row every node counts as
moved, so that row evaluates every block on the same path. Emit then goes
through the batches in order: event log, trace row, stop rules, lost
curvature, sends. A stop ends the run at its batch; what apply wrote after
that batch is never observed.

The virtual engine re-runs the same event sequence but applies every
finished descent to a global variable immediately instead of through
mailboxes; with zero message delay its trajectory coincides with the
physical engine at every node's availability events.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import itemgetter

import numpy as np

from ._kernel import CurvatureLost, RoundKernel
from .netgraph import Graph
from .objectives import DistributedObjective
from .sync_runtime import SyncConfig, Trace, _check_stop

__all__ = [
    "ClockSchedule",
    "AsyncConfig",
    "EventQueue",
    "gen_clock_schedule",
    "run_dbfgs_async",
    "run_dd_async",
    "virtual_replay",
]

CLOCK_INCREMENT_FLOOR = 0.01


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClockSchedule:
    """Per-node strictly increasing availability times, all starting at 0."""

    times: tuple
    horizon: float
    mu: float
    sigma: float
    seed: int

    @property
    def n(self) -> int:
        return len(self.times)


def gen_clock_schedule(n: int, mu_clk: float, sigma_clk: float, horizon: float,
                       seed: int) -> ClockSchedule:
    """Availability clocks t_k = t_{k-1} + max(N(mu, sigma), 0.01).

    All nodes tick at t = 0. Increments are drawn node-major from a single
    PCG64 stream, so schedules are bit-reproducible from the seed.
    """
    if mu_clk <= 0:
        raise ValueError("mean clock increment must be positive")
    if sigma_clk < 0:
        raise ValueError("clock standard deviation must be nonnegative")
    rng = np.random.default_rng(seed)
    times = []
    for _ in range(n):
        ticks = [0.0]
        t = 0.0
        while True:
            t = t + max(float(rng.normal(mu_clk, sigma_clk)), CLOCK_INCREMENT_FLOOR)
            if t > horizon:
                break
            ticks.append(t)
        times.append(np.asarray(ticks))
    return ClockSchedule(times=tuple(times), horizon=float(horizon),
                         mu=float(mu_clk), sigma=float(sigma_clk), seed=seed)


# ---------------------------------------------------------------------------
# event queue
# ---------------------------------------------------------------------------


class EventQueue:
    """Availability events in (time, node id) total order, batched by time."""

    def __init__(self, schedule: ClockSchedule):
        self.events = sorted((float(t), i) for i in range(schedule.n)
                             for t in schedule.times[i])

    def batches(self):
        """Yield (time, [node ids ascending]) with exact-tie events grouped."""
        for t, events in groupby(self.events, key=itemgetter(0)):
            yield t, [i for _, i in events]

    def windows(self, layout):
        """Yield maximal runs of consecutive batches in which no batch holds
        a node of another or a neighbor of one: such batches commute."""
        blocked = np.zeros(len(layout.indptr) - 1, dtype=bool)
        window = []
        for t, batch in self.batches():
            if window and blocked[batch].any():
                yield window
                window, blocked[:] = [], False
            window.append((t, batch))
            for i in batch:
                blocked[layout.cols[layout.indptr[i]:layout.indptr[i + 1]]] = True
        yield window


@dataclass
class AsyncConfig(SyncConfig):
    """Synchronous parameters plus the message delivery delay."""

    delta_msg: float = 0.0


# ---------------------------------------------------------------------------
# mailboxes
# ---------------------------------------------------------------------------


class _Mailbox:
    """Per-node inbox: one queue of messages in (arrival time, send order).

    A message is a dated neighbor package, filed under the layout row its
    sender occupies in this node's neighborhood, or a descent chunk (row None).
    """

    __slots__ = ("heap", "sent")

    def __init__(self):
        self.heap = []
        self.sent = 0

    def push(self, arrival: float, row, payload) -> None:
        heapq.heappush(self.heap, (arrival, self.sent, row, payload))
        self.sent += 1

    def read(self, now: float, known: np.ndarray) -> list:
        """Deliver everything that arrived strictly before ``now``.

        Writes each package to its row of ``known``, so the latest wins,
        and returns the arrived descent chunks in (arrival, send order);
        messages still in flight stay queued.
        """
        chunks = []
        while self.heap and self.heap[0][0] < now:
            _, _, row, payload = heapq.heappop(self.heap)
            if row is None:
                chunks.append(payload)
            else:
                known[:, row] = payload
        return chunks


def _distinct(parts, size: int) -> np.ndarray:
    """The distinct values in the index arrays ``parts``, all below
    ``size``, ascending."""
    seen = np.zeros(size, dtype=bool)
    for part in parts:
        seen[part] = True
    return seen.nonzero()[0]


def _by_row(keys: np.ndarray, nodes: np.ndarray, values: np.ndarray,
            cuts: np.ndarray) -> list:
    """(nodes, values) of each row, from keys in row order and each row's
    first key ``cuts``."""
    bounds = np.searchsorted(keys, cuts).tolist()
    return [(nodes[lo:hi], values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# the event engine
# ---------------------------------------------------------------------------


class _AsyncEngine:
    """One event loop for asynchronous D-BFGS (physical and virtual) and DD.

    A window reads its batches' mail, evaluates their gradients from views
    that mix each batch's fresh blocks with dated packages and takes the
    local step on the round kernel. Then it applies each batch's changes in
    event order, keeping the state each trace row reads; records every row
    from the blocks the rows' events moved; and emits each batch in turn:
    its events, its row, the stop rules and its nodes' packages.
    """

    def __init__(self, graph: Graph, objective: DistributedObjective,
                 cfg: AsyncConfig, schedule: ClockSchedule, method: str,
                 virtual: bool = False):
        cfg.validate(objective, method)
        if schedule.n != graph.n:
            raise ValueError("schedule and graph disagree on node count")
        if any(ticks[0] != 0.0 for ticks in schedule.times):
            raise ValueError("all availability clocks must start at t = 0")
        self.obj = objective
        self.cfg = cfg
        self.schedule = schedule
        self.virtual = virtual
        n, p = graph.n, objective.p
        self.kernel = kernel = RoundKernel(graph, p)
        # the kernel's view stack of (var, aux, g): node i's dated copy of
        # its k-th neighbor at row offsets[i] + k, then every node's own
        # current block
        self.store = np.zeros((3, kernel.total_blocks + n, p))
        self.known = self.store[:, :kernel.total_blocks]
        self.var, self.aux, self.g = self.store[:, kernel.total_blocks:]
        if cfg.var0 is not None:
            self.var[:] = cfg.var0
        self.mail = [_Mailbox() for _ in range(n)]
        self.local_iter = np.zeros(n, dtype=int)
        self.dbfgs = method == "dbfgs"
        self.trace = Trace(method=method, mode=cfg.mode, seed=cfg.seed,
                           model_time=[], local_iter_min=[], event_log=[])
        self.exchanges = 0
        # the record at the last row: consensus_error's term per node, and
        # the runtime objective's stage-1 and gradient blocks; the next row
        # refreshes those its events can have moved
        self.denom = float(objective.xstar @ objective.xstar)
        if self.denom == 0.0:
            raise ValueError("consensus error is undefined for a zero optimum")
        self.err_terms = np.zeros(n)
        self.runtime_aux, self.runtime_grad = np.zeros((n, p)), np.zeros((n, p))
        # the nodes whose var moved after the last row; before the first
        # row, every node
        self.pending = list(range(n))

    def _views(self, groups, q: int) -> list:
        """Per-group (g, m, p) views of quantity q (0 var, 1 aux, 2 g)."""
        return [self.store[q][grp.view] for grp in groups]

    def _process_window(self, window: list, init: bool) -> bool:
        """Run one window; True when a stop rule ends the run."""
        cfg, kernel = self.cfg, self.kernel
        ids = np.concatenate([batch for _, batch in window])
        groups = kernel.batch(ids)
        before = self.var[ids], self.aux[ids]
        # phase 1, each batch at its time: read mail, apply pending descents
        for t, batch in window:
            for i in batch:
                for block in self.mail[i].read(t, self.known):
                    self.var[i] += cfg.step_size * block
        # phase 2: gradients from fresh and dated views
        var_views = self._views(groups, 0)
        for grp, vv in zip(groups, var_views):
            self.aux[grp.ids] = self.obj.stage1_block(grp.ids, vv)
        aux_views = self._views(groups, 1)
        for grp, vv, av in zip(groups, var_views, aux_views):
            self.g[grp.ids] = self.obj.stage2_block(grp.ids, vv, av)
        # D-BFGS's step; a lost curvature ends the run at the first batch
        # holding one, so nothing after that batch is applied
        lost = []
        if self.dbfgs:
            try:
                kernel.dbfgs_round(var_views, self._views(groups, 2), cfg.gamma,
                                   cfg.big_gamma, init, groups)
            except CurvatureLost as exc:
                lost = exc.nodes
                window = window[:1 + next(k for k, (_, batch) in enumerate(window)
                                          if set(lost).intersection(batch))]
        # phase 3, apply: the fresh blocks go back and each batch's step
        # lands, batch by batch, so each row reads the state that event
        # order gives it
        fresh = self.var[ids], self.aux[ids]
        self.var[ids], self.aux[ids] = before
        off, cols, mirror = kernel.offsets, kernel.cols, kernel.mirror
        ends = list(accumulate(len(batch) for _, batch in window))
        slices = [slice(start, stop) for start, stop in zip([0] + ends, ends)]
        # per row: the planes the record reads (var, and aux in dual mode) at
        # rows r n to (r + 1) n, the keys r n + i of the nodes moved since the
        # row before, and its local_iter_min
        n, planes = len(self.local_iter), 2 if self.obj.mode == "dual" else 1
        states = np.empty((planes, len(window) * n, self.var.shape[1]))
        moved, lmin = [], []
        for r, ((t, batch), rows) in enumerate(zip(window, slices)):
            self.var[batch], self.aux[batch] = fresh[0][rows], fresh[1][rows]
            if not init:
                self.local_iter[batch] += 1
                states[:, r * n:(r + 1) * n] = self.store[:planes, kernel.total_blocks:]
                moved += [r * n + i for i in self.pending + batch]
                lmin.append(int(self.local_iter.min()))
                self.pending = []
            if self.virtual:  # every finished descent lands at once
                for i in batch:
                    nb = cols[off[i]:off[i + 1]]
                    self.var[nb] += cfg.step_size * kernel.contrib[off[i]:off[i + 1]]
                    self.pending += nb.tolist()
            elif not (self.dbfgs or init):  # DD's gradient step
                self.var[batch] -= cfg.step_size * self.g[batch]
                self.pending = batch
        if not init:
            errors, gnorms = self._record(states, moved)
        # phase 3, emit: each batch's events, row, stop check and sends
        for r, ((t, batch), rows) in enumerate(zip(window, slices)):
            snapshot = fresh[0][rows]
            for i, block in zip(batch, snapshot):
                self.trace.event_log.append((t, i, int(self.local_iter[i]), block))
            self.exchanges += len(batch)
            if not init:
                self.trace.append(lmin[r], errors[r], gnorms[r], self.exchanges,
                                  model_time=t, local_iter_min=lmin[r])
                if _check_stop(self.trace, cfg):
                    return True
            if set(lost).intersection(batch):
                raise CurvatureLost([i for i in lost if i in batch])
            published = snapshot if self.dbfgs else self.var[batch]
            # one send per layout slot: the package to the neighbor's mirror
            # row and, for physical D-BFGS, the slot's descent chunk (D-BFGS
            # publishes the pre-descent blocks)
            arrival = t + cfg.delta_msg
            for i, var_i in zip(batch, published):
                pkg = np.array((var_i, self.aux[i], self.g[i]))
                lo, hi = off[i], off[i + 1]
                for j, row in zip(cols[lo:hi].tolist(), mirror[lo:hi].tolist()):
                    if j != i:
                        self.mail[j].push(arrival, row, pkg)
                if self.dbfgs and not self.virtual:
                    for j, chunk in zip(cols[lo:hi].tolist(), kernel.contrib[lo:hi].copy()):
                        self.mail[j].push(t if j == i else arrival, None, chunk)
        return False

    def _record(self, states: np.ndarray, moved: list) -> tuple:
        """Each row's error and gradient norm, as consensus_error and the norm
        of runtime_grad give them at the row's state.

        ``states`` holds the planes each row reads, row r at rows r n to
        (r + 1) n: var, and in dual mode aux, the estimate consensus_error
        measures there. ``moved`` holds, row by row, the keys r n + i of the
        nodes whose blocks changed since the row before r. A gradient block
        mixes var over its node's neighborhood in primal mode; in dual mode a
        stage-1 block does and a gradient block mixes stage-1 blocks. So only
        the keys within one hop (primal) or two (dual) of a moved one change
        and are evaluated for the whole window at once, then written in row by row.
        """
        n = len(self.local_iter)
        rows = len(states[0]) // n
        cuts = np.arange(0, (rows + 1) * n, n)  # the first key of each row
        keys = np.array(moved)
        diff = states[-1][keys] - self.obj.xstar  # aux in dual mode, else var
        terms = np.sum(diff * diff, axis=1)
        around = self._neighborhoods(keys)
        aux_plane = states[0]  # primal mode's stage 1 is var itself
        if self.obj.mode == "dual":
            aux_keys = _distinct([nb for *_, nb in around], rows * n)
            around = self._neighborhoods(aux_keys)
            aux = self._stage(around, len(aux_keys), self.obj.stage1_block, states[0])
            aux_plane = np.empty_like(states[0])
            for r, (at, blocks) in enumerate(_by_row(aux_keys, aux_keys % n, aux, cuts)):
                self.runtime_aux[at] = blocks
                aux_plane[r * n:(r + 1) * n] = self.runtime_aux
        grad_keys = _distinct([nb for *_, nb in around], rows * n)
        around = self._neighborhoods(grad_keys)
        grad = self._stage(around, len(grad_keys), self.obj.stage2_block,
                           states[0], aux_plane)
        errors, gnorms = [], []
        for (at, et), (gat, gb) in zip(_by_row(keys, keys % n, terms, cuts),
                                       _by_row(grad_keys, grad_keys % n, grad, cuts)):
            self.err_terms[at] = et
            # np.mean's sum and division
            errors.append(self.err_terms.sum() / n / self.denom)
            self.runtime_grad[gat] = gb
            gnorms.append(np.linalg.norm(self.runtime_grad))
        return errors, gnorms

    def _neighborhoods(self, keys: np.ndarray) -> list:
        """Per neighborhood size m, the (positions, nodes, (g, m) neighborhood
        keys) of the keys of that size: the key of each neighbor at the key's
        row, in layout order."""
        kernel, n = self.kernel, len(self.local_iter)
        nodes = keys % n
        base = (keys - nodes)[:, None]
        sizes = kernel.m[nodes]
        out = []
        for grp in kernel.groups:
            sel = np.flatnonzero(sizes == grp.msize)
            if len(sel):
                ids = nodes[sel]
                out.append((sel, ids, base[sel] + grp.nb[kernel.slot[ids]]))
        return out

    def _stage(self, around: list, count: int, stage, *planes) -> np.ndarray:
        """``stage`` of the keys ``around`` describes, from their
        neighborhood views of the given (rows n, p) planes."""
        out = np.empty((count, self.var.shape[1]))
        for sel, ids, nb in around:
            out[sel] = stage(ids, *(plane[nb] for plane in planes))
        return out

    def run(self) -> Trace:
        windows = EventQueue(self.schedule).windows(self.kernel.graph.layout)
        for k, window in enumerate(windows):
            if self._process_window(window, init=k == 0):
                break
        return self.trace


def run_dbfgs_async(graph: Graph, objective: DistributedObjective,
                    cfg: AsyncConfig, schedule: ClockSchedule) -> Trace:
    """Asynchronous D-BFGS (physical mailbox engine).

    The returned trace carries ``event_log`` entries
    (time, node, local_iter, own block after applying pending descents).
    """
    return _AsyncEngine(graph, objective, cfg, schedule, "dbfgs").run()


def virtual_replay(graph: Graph, objective: DistributedObjective,
                   cfg: AsyncConfig, schedule: ClockSchedule) -> Trace:
    """Virtual-update engine: every finished descent applies instantly to a
    global variable. With delta_msg = 0 it matches the physical engine at
    every availability event (compare the two traces' event logs)."""
    return _AsyncEngine(graph, objective, cfg, schedule, "dbfgs",
                        virtual=True).run()


def run_dd_async(graph: Graph, objective: DistributedObjective,
                 cfg: AsyncConfig, schedule: ClockSchedule) -> Trace:
    """Asynchronous dual decomposition with dated mailbox gradients."""
    return _AsyncEngine(graph, objective, cfg, schedule, "dd").run()
