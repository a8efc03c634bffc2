"""Deterministic discrete-event simulation of asynchronous D-BFGS and DD.

Each node has its own availability clock. At an availability event a node
reads what reached it strictly before the event time (its neighbors' dated
packages and the descent contributions sent to it), applies the pending
descents, recomputes its gradient from its dated view, takes its method's
local step, and publishes fresh values for its neighbors. D-BFGS updates
its curvature and computes descent contributions for its neighborhood;
dual decomposition steps along its own gradient block.

Events sharing an exact wall time form a batch processed as a synchronized
sub-round: tied nodes see each other's fresh values. An event touches only
its node's neighborhood, so a maximal run of batches with pairwise
non-adjacent nodes commutes: it runs as one window through the round kernel
the synchronous engine uses, with one trace row per batch in event order.
Every batch takes this path, so a zero-drift schedule (a window per batch)
reproduces the synchronous runtime bit for bit.

Messages live in two dated logs that every event writes once, as Time
Warp keeps its message logs (Jefferson, "Virtual Time", 1985). Every event
publishes one (var, aux, g) package, arriving at its time plus the message
delay; in physical D-BFGS it also files one descent chunk per neighborhood
slot, arriving at once at its own node and after the delay at the others.
A window reads both logs once: each reader's dated copies become each
neighbor's latest package that arrived before its event (one lookup on the
arrival times), and the chunks that arrived since its last read land on
its var one by one in (arrival, send) order. A window's readers are
pairwise non-adjacent, so no message of the window reaches a reader of it,
and the window writes its own messages to the logs once, after its trace
rows.

After the kernel step a window runs three phases. Apply lands each batch's
fresh blocks and step in event order and keeps the state each row reads.
Record computes every row's error and gradient norm at once: a row's
events move only their nodes' blocks, so it refreshes only the per-node
error terms they moved and the runtime gradient blocks within reach of them
(one hop in primal mode, two in dual mode: stage 1 mixes var), and takes
the norm of the whole gradient. Before the first row every node counts as
moved, so that row evaluates every block on the same path. Emit then goes
through the batches in order: trace row, stop rules, lost curvature. A
stop ends the run at its batch; what apply wrote after that batch is never
observed, and nothing the window publishes is ever read.

The virtual engine re-runs the same event sequence but applies every
finished descent to a global variable immediately instead of through
messages; with zero message delay its trajectory coincides with the
physical engine at every node's availability events.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ._kernel import CurvatureLost, RoundKernel
from .netgraph import Graph
from .objectives import DistributedObjective
from .sync_runtime import SyncConfig, Trace, _check_stop

__all__ = [
    "ClockSchedule",
    "AsyncConfig",
    "EventLog",
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
    """Availability events in (time, node id) total order, batched by time.

    Event k is the ``order[k]``-th tick of the schedule listed node by node;
    ``time`` and ``node`` hold each event's time and node."""

    def __init__(self, schedule: ClockSchedule):
        ticks = np.concatenate(schedule.times)
        nodes = np.repeat(np.arange(schedule.n), [len(t) for t in schedule.times])
        self.order = np.lexsort((nodes, ticks))
        self.time, self.node = ticks[self.order], nodes[self.order]

    def batches(self):
        """Yield (time, [node ids ascending]) with exact-tie events grouped."""
        cuts = [0, *(np.flatnonzero(np.diff(self.time)) + 1).tolist(), len(self.time)]
        times, nodes = self.time.tolist(), self.node.tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            yield times[lo], nodes[lo:hi]

    def windows(self, layout):
        """Yield maximal runs of consecutive batches in which no batch holds
        a node of another or a neighbor of one: such batches commute."""
        cols, bounds = layout.cols.tolist(), layout.indptr.tolist()
        around = [cols[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        blocked = bytearray(len(around))
        window = []
        for t, batch in self.batches():
            if window and any(blocked[i] for i in batch):
                yield window
                window, blocked = [], bytearray(len(around))
            window.append((t, batch))
            for i in batch:
                for j in around[i]:
                    blocked[j] = 1
        yield window


@dataclass
class AsyncConfig(SyncConfig):
    """Synchronous parameters plus the message delivery delay."""

    delta_msg: float = 0.0


class EventLog(NamedTuple):
    """An asynchronous run's events up to where it ended, in event order:
    each event's time, node, the node's local iteration count and its own
    block after the pending descents landed (its pre-step var)."""

    time: np.ndarray  # (events,)
    node: np.ndarray  # (events,)
    local_iter: np.ndarray  # (events,)
    block: np.ndarray  # (events, p)


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

    A window reads what reached its events from the package and chunk
    logs, evaluates their gradients from views that mix each batch's fresh
    blocks with dated packages and takes the local step on the round
    kernel. Then it applies each batch's changes in event order, keeping the
    state each trace row reads; records every row from the blocks the rows'
    events moved; emits each batch's row and stop rules in turn; and writes
    its events, packages and chunks to the logs.

    The logs have room for every event of the schedule: its package, at
    the row of its tick in ``packages``, and in physical D-BFGS its chunks,
    from row ``chunk_at[k]`` of ``chunk_log`` for event k. With the event
    log they are O(events m p) and go with the engine.
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
        self.local_iter = np.zeros(n, dtype=int)
        self.dbfgs = method == "dbfgs"
        self.chunks = self.dbfgs and not virtual
        self.trace = Trace(method=method, mode=cfg.mode, seed=cfg.seed,
                           model_time=[], local_iter_min=[])
        # the events in event order; node i's ticks, listed node by node,
        # start at first[i]
        self.queue = queue = EventQueue(schedule)
        events = len(queue.time)
        first = np.cumsum([0] + [len(t) for t in schedule.times])
        # per tick, node * events + event: node i's events before event e
        # are its ticks whose key falls below i * events + e
        self.keys = np.empty(events, dtype=np.intp)
        self.keys[queue.order] = queue.node * events + np.arange(events)
        self.rank = queue.order - first[queue.node]  # among its node's events
        self.arrival = queue.time + cfg.delta_msg  # of each event's messages
        # per layout slot: its node's key base and first tick, and whether
        # it holds a neighbor rather than the node itself
        lay = graph.layout
        self.slot_key, self.slot_first = lay.cols * events, first[lay.cols]
        self.neighbor = lay.cols != lay.rows
        # the packages by tick after a zero row per node: row first[i] + i + c
        # holds node i's c-th package, the zero row stands for none
        self.packages = np.zeros((3, events + n, p))
        self.package_row = queue.order + queue.node + 1
        # the chunks by event from chunk_at[k], one per slot of its node's
        # layout row; and each node's inbox from inbox_at[i]: the rows of the
        # chunks sent to it, in (arrival, send) order. A chunk arrives at
        # once at its own node and after the message delay at the others.
        sizes = kernel.m[queue.node]
        self.chunk_at = np.cumsum(np.append(0, sizes))
        self.chunk_log = np.empty((self.chunk_at[-1] if self.chunks else 0, p))
        if self.chunks:
            sender = np.repeat(np.arange(events), sizes)
            slot = (np.arange(len(sender))
                    + (kernel.offsets[queue.node] - self.chunk_at[:-1])[sender])
            to = lay.cols[slot]
            arrival = np.where(self.neighbor[slot], self.arrival[sender],
                               queue.time[sender])
            self.inbox = np.lexsort((sender, arrival, to))
            self.inbox_at = np.searchsorted(to[self.inbox], np.arange(n))
            self.taken = np.zeros(n, dtype=np.intp)  # chunks each node applied
        # the event log; ``logged`` events so far
        self.log_iter = np.empty(events, dtype=int)
        self.log_block = np.empty((events, p))
        self.logged = 0
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

    def _slots(self, ids: np.ndarray) -> tuple:
        """The layout rows of the nodes ``ids``, node after node; the
        position in ``ids`` of each row's node; and where each node's rows
        start."""
        sizes = self.kernel.m[ids]
        starts = np.cumsum(sizes) - sizes
        at = np.repeat(np.arange(len(ids)), sizes)
        return (self.kernel.offsets[ids] - starts)[at] + np.arange(len(at)), at, starts

    def _read(self, events: slice, slots: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Set the dated copies of the nodes of ``events`` (their layout
        rows ``slots``) to each neighbor's latest package that arrived
        strictly before the node's event. Packages arrive in event order, so
        those are the neighbor's events among the first ``arrived`` of the
        run: one lookup of each slot's key. Returns, per slot, one past the
        tick of that package (own slots: the node's first tick)."""
        arrived = np.searchsorted(self.arrival, self.queue.time[events])
        tick = np.searchsorted(self.keys, self.slot_key[slots]
                               + arrived[at] * self.neighbor[slots])
        self.known[:, slots] = self.packages[:, tick + self.kernel.cols[slots]]
        return tick

    def _inbox(self, events: slice, slots: np.ndarray, starts: np.ndarray,
               tick: np.ndarray) -> tuple:
        """The chunks that reached the nodes of ``events`` since their last
        read, as ``_read`` left their slots' ticks: their nodes and rows of
        the chunk log, each node's in (arrival, send) order. A node has by
        now the chunks of its neighbors' arrived packages and of its own
        earlier events."""
        ids = self.queue.node[events]
        total = (np.add.reduceat(tick - self.slot_first[slots], starts)
                 + self.rank[events])
        taken = self.taken[ids]
        self.taken[ids] = total
        new = total - taken
        readers = np.repeat(ids, new)
        start = self.inbox_at[ids] + taken - np.cumsum(new) + new
        return readers, self.inbox[np.repeat(start, new) + np.arange(len(readers))]

    def _send(self, events: slice, slots: np.ndarray, packages: np.ndarray) -> None:
        """File the (3, k, p) packages of ``events`` and, in physical
        D-BFGS, their chunks: the kernel's ``contrib`` at their nodes'
        layout rows ``slots``."""
        self.packages[:, self.package_row[events]] = packages
        if self.chunks:
            self.chunk_log[self.chunk_at[events.start]:self.chunk_at[events.stop]] = \
                self.kernel.contrib[slots]

    def _process_window(self, window: list, init: bool) -> bool:
        """Run one window; True when a stop rule ends the run."""
        cfg, kernel = self.cfg, self.kernel
        ids = np.concatenate([batch for _, batch in window])
        groups = kernel.batch(ids)
        before = self.var[ids], self.aux[ids]
        # phase 1: every event reads its messages
        first = self.logged  # the window's first event
        events = slice(first, first + len(ids))
        slots, at, starts = self._slots(ids)
        tick = self._read(events, slots, at)
        if self.chunks:
            readers, chunks = self._inbox(events, slots, starts, tick)
            # ufunc.at adds a node's chunks one by one, in order
            np.add.at(self.var, readers, cfg.step_size * self.chunk_log[chunks])
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
        off, cols = kernel.offsets, kernel.cols
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
        # phase 3, emit: the events, then each batch's row and stop check
        last = first + ends[-1]
        self.log_iter[first:last] = self.local_iter[ids[:ends[-1]]]
        self.log_block[first:last] = fresh[0][:ends[-1]]
        for r, (t, batch) in enumerate(window):
            self.logged = first + ends[r]  # events count as exchanges
            if not init:
                self.trace.append(lmin[r], errors[r], gnorms[r], self.logged,
                                  model_time=t, local_iter_min=lmin[r])
                if _check_stop(self.trace, cfg):
                    return True
            if set(lost).intersection(batch):
                raise CurvatureLost([i for i in lost if i in batch])
        # sends: D-BFGS publishes its pre-descent var, DD its stepped one
        published = fresh[0] if self.dbfgs else self.var[ids]
        self._send(events, slots, np.array((published, self.aux[ids], self.g[ids])))
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
        windows = self.queue.windows(self.kernel.graph.layout)
        for k, window in enumerate(windows):
            if self._process_window(window, init=k == 0):
                break
        # copies, so the trace keeps no more than the events it logged
        self.trace.event_log = EventLog(*(col[:self.logged].copy() for col in (
            self.queue.time, self.queue.node, self.log_iter, self.log_block)))
        return self.trace


def run_dbfgs_async(graph: Graph, objective: DistributedObjective,
                    cfg: AsyncConfig, schedule: ClockSchedule) -> Trace:
    """Asynchronous D-BFGS (physical engine: descents travel as messages).

    The returned trace carries an ``EventLog`` of the events up to where
    the run ended: arrays of each event's time, node, local iteration count
    and own block after the pending descents landed.
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
    """Asynchronous dual decomposition from dated neighbor packages."""
    return _AsyncEngine(graph, objective, cfg, schedule, "dd").run()
