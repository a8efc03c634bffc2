"""Deterministic discrete-event simulation of asynchronous D-BFGS and DD.

Each node has its own availability clock. At an availability event a node
reads what reached it strictly before the event time (its neighbors' dated
packages and the descent contributions sent to it), applies the pending
descents, recomputes its gradient from its dated view, takes its method's
local step, and publishes fresh values for its neighbors. D-BFGS updates
its curvature and computes descent contributions for its neighborhood;
dual decomposition steps along its own gradient block. Events sharing an
exact wall time form a batch, a synchronized sub-round: tied nodes see
each other's fresh values. Every batch after the first is one trace row.

Messages live in two dated logs that every event writes once, as Time Warp
keeps its message logs (Jefferson, "Virtual Time", 1985): one (var, aux, g)
package per event, arriving at its time plus the message delay, and in
D-BFGS one descent chunk per neighborhood slot, arriving at once at its own
node and after the delay at the others (the virtual engine's at once
everywhere). A view reads a neighbor's latest package that arrived before
the event, or its current block when it ticks in the event's batch; the
chunks a reader has not read land on its var one by one in (arrival, send)
order.

The schedule and the graph fix every index a run uses, so the engine plans
them apart from the float work, as inspector-executor schemes do for
irregular loops (Saltz, Mirchandaney and Crowley, IEEE Trans. Computers,
1991). A batch depends on the batches that wrote what its events read and
on its nodes' previous ones; in its slice of batches its level is one more
than the highest it depends on. A slice runs a level at a time through the
round kernel the synchronous engine uses, a wavefront of events no message
can precede (Chandy and Misra, IEEE TSE, 1979). Without clock drift each
batch is a level and reproduces a synchronous round bit for bit. The record
replays the slice's rows in event order from the logs, refreshing only the
error terms of the nodes whose estimate moved and the runtime gradient
blocks within reach of a node whose var moved (one hop in primal mode, two
in dual mode: stage 1 mixes var). A stop, or a lost curvature, ends the
run at its row; what the events after it wrote is never observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernel import CurvatureLost, RoundKernel
from .netgraph import Graph
from .objectives import DistributedObjective
from .sync_runtime import SyncConfig, Trace, _stop_rules

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
# events the engine plans and records at once (at least): bounds their memory
PLAN_EVENTS = 512


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClockSchedule:
    """Per-node strictly increasing availability times, all starting at 0."""

    times: tuple

    @property
    def n(self) -> int:
        return len(self.times)


def gen_clock_schedule(n: int, mu_clk: float, sigma_clk: float, horizon: float,
                       seed: int) -> ClockSchedule:
    """Availability clocks t_k = t_{k-1} + max(N(mu, sigma), 0.01).

    All nodes tick at t = 0. Increments are drawn node-major from a single
    PCG64 stream, so schedules are bit-reproducible from the seed.
    """
    if not np.isfinite([mu_clk, sigma_clk, horizon]).all():
        raise ValueError("clock parameters and horizon must be finite")
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
    return ClockSchedule(times=tuple(times))


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
        # each batch's first event, then one past the last event
        self.cuts = np.flatnonzero(np.r_[1, np.diff(self.time), 1])

    def batches(self):
        """Yield (time, [node ids ascending]) with exact-tie events grouped."""
        cuts = self.cuts.tolist()
        times, nodes = self.time.tolist(), self.node.tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            yield times[lo], nodes[lo:hi]


@dataclass
class AsyncConfig(SyncConfig):
    """Synchronous parameters plus the message delivery delay."""

    delta_msg: float = 0.0

    def validate(self, graph: Graph, objective: DistributedObjective,
                 method: str) -> None:
        super().validate(graph, objective, method)
        # a negative delay would read packages yet to be sent, an infinite none
        if not 0 <= self.delta_msg < math.inf:  # NaN too
            raise ValueError("message delay must be >= 0 and finite, got "
                             f"{self.delta_msg!r}")


class EventLog(NamedTuple):
    """An asynchronous run's events up to where it ended, in event order:
    each event's time, node, the node's local iteration count and its own
    block after the pending descents landed (its pre-step var)."""

    time: np.ndarray  # (events,)
    node: np.ndarray  # (events,)
    local_iter: np.ndarray  # (events,)
    block: np.ndarray  # (events, p)


# ---------------------------------------------------------------------------
# the event engine
# ---------------------------------------------------------------------------


class _AsyncEngine:
    """One event loop for asynchronous D-BFGS (physical and virtual) and DD.

    Built, it computes the flat indices the schedule fixes (event slots, the
    ``packages`` rows they read, inbox chunks, the batch each slot depends
    on), O(events m) like the logs. ``run`` takes a slice of at least
    ``PLAN_EVENTS`` events at a time, its one unit: ``_execute`` runs the
    slice's levels as planned, then ``_record`` replays and emits its rows
    in one pass."""

    def __init__(self, graph: Graph, objective: DistributedObjective,
                 cfg: AsyncConfig, schedule: ClockSchedule, method: str,
                 virtual: bool = False):
        cfg.validate(graph, objective, method)
        if schedule.n != graph.n:
            raise ValueError("schedule and graph disagree on node count")
        if any(len(ticks) == 0 or ticks[0] != 0.0 for ticks in schedule.times):
            raise ValueError("all availability clocks must start at t = 0")
        # node i's ticks, listed node by node, start at first[i]
        first = np.cumsum([0] + [len(t) for t in schedule.times])
        gaps = np.delete(np.diff(np.concatenate(schedule.times)), first[1:-1] - 1)
        if not np.all(gaps > 0):
            raise ValueError("availability clocks must strictly increase")
        self.obj, self.cfg, self.virtual = objective, cfg, virtual
        n, p = graph.n, objective.p
        self.kernel = kernel = RoundKernel(graph, p)
        self.dbfgs = method == "dbfgs"
        self.trace = Trace(method=method, mode=cfg.mode, seed=cfg.seed, model_time=[])
        self.queue = queue = EventQueue(schedule)  # the events in event order
        events = len(queue.time)
        # each tick's event; per tick, node * events + event: node i's events
        # before event e are its ticks whose key falls below i * events + e
        event = np.argsort(queue.order)
        keys = queue.node[event] * events + event
        # among its node's events: the node's local iteration count there
        self.rank = queue.order - first[queue.node]
        # each event's batch; per batch its local_iter_min: the largest k
        # such that every node's k-th tick is in it or before it, or 0
        self.batch = np.repeat(np.arange(len(queue.cuts) - 1), np.diff(queue.cuts))
        kth = self.batch[event[first[:-1, None]
                               + np.arange(1, np.diff(first).min())]].max(0)
        self.lmin = np.searchsorted(kth, np.arange(len(queue.cuts) - 1), side="right")
        # (var, aux, g) of the packages by tick after a zero row per node (row
        # first[i] + i + c holds node i's c-th package, the zero row stands
        # for none), then of every node's current block (node i's at row
        # events + n + i)
        self.packages = np.zeros((3, events + 2 * n, p))
        self.package_row = queue.order + queue.node + 1
        self.var, self.aux, self.g = self.packages[:, events + n:]
        if cfg.var0 is not None:
            self.var[:] = cfg.var0
        # every event's layout slots, from slot_at[k] for event k: its chunks'
        # rows of ``chunk_log``, and the ``packages`` row its view reads: a
        # neighbor's current block if it ticks in the event's batch (as its
        # own node does), else its latest package that arrived strictly
        # before the event (one key lookup), or with none the zero row.
        self.slots, sender = self._ranges(kernel.offsets, queue.node)
        self.slot_at = np.cumsum(np.append(0, kernel.m[queue.node]))
        cols = kernel.cols[self.slots]
        own = cols == graph.layout.rows[self.slots]
        arrival = queue.time + cfg.delta_msg  # of each event's messages
        now = queue.cuts[self.batch]  # the events before each one's time
        limit = np.where(own, now[sender], np.searchsorted(arrival, queue.time)[sender])
        tick = np.searchsorted(keys, cols * events + limit)
        lo, hi = np.searchsorted(keys, cols * events
                                 + queue.cuts[self.batch[sender] + [[0], [1]]])
        self.read = np.where(hi > lo, events + n + cols, tick + cols)
        # per slot, its column's ticks whose chunk (D-BFGS; the virtual
        # engine's arrive at once) or package (DD) the event has; the event
        # depends on the last one's batch (its node's previous one on its
        # own slot), or on none: -1
        seen = np.searchsorted(keys, cols * events + now[sender]) if virtual else tick
        self.dep = np.where(seen > first[cols], self.batch[event[seen - 1]], -1)
        self.chunk_log = np.empty((len(self.slots) if self.dbfgs else 0, p))
        # the chunks each event reads, from inbox_at[k]: readers and rows. A
        # node's inbox lists the chunks sent to it by (arrival, send), at once
        # from itself and after the delay from its neighbors; an event reads
        # those its node has by then and did not have at its previous event.
        new = np.zeros(events, dtype=np.intp)
        self.inbox = new[:0], new[:0]
        if self.dbfgs:
            inbox = np.lexsort((sender, np.where(own | virtual, queue.time[sender],
                                                 arrival[sender]), cols))
            total = np.add.reduceat(seen - first[cols], self.slot_at[:-1])
            new = total - np.where(self.rank > 0, total[event[queue.order - 1]], 0)
            start = np.searchsorted(cols[inbox], queue.node) + total - np.cumsum(new)
            self.inbox = (np.repeat(queue.node, new),
                          inbox[np.repeat(start, new) + np.arange(new.sum())])
        self.inbox_at = np.cumsum(np.append(0, new))
        # the event log's blocks, and the events logged so far
        self.log_block, self.logged = np.empty((events, p)), 0
        # the record at the last row: its var, consensus_error's term per
        # node, and the runtime objective's stage-1 and gradient blocks; the
        # next rows refresh those their events can have moved
        self.denom = float(objective.xstar @ objective.xstar)
        if self.denom == 0.0:
            raise ValueError("consensus error is undefined for a zero optimum")
        self.runtime_var = self.var.copy()
        self.err_terms = np.zeros(n)
        self.runtime_aux, self.runtime_grad = np.zeros((n, p)), np.zeros((n, p))

    @staticmethod
    def _ranges(at: np.ndarray, items: np.ndarray) -> tuple:
        """The positions at[k] to at[k + 1] of each k of ``items``, item
        after item, and the position in ``items`` of each one's item."""
        sizes = at[items + 1] - at[items]
        owner = np.repeat(np.arange(len(items)), sizes)
        starts = at[items] - np.cumsum(sizes) + sizes
        return starts[owner] + np.arange(len(owner)), owner

    def _reach(self, seeds: np.ndarray, rows: int, hops: int) -> list:
        """Per h = 0 to ``hops``, the distinct keys r n + node (r below
        ``rows``) within h hops of the keys ``seeds`` in their rows, ascending,
        as (their nodes, each row's first and one past the last position,
        their kernel groups from one hop on, the keys)."""
        n, out = len(self.err_terms), []
        for hop in range(hops + 1):
            if hop:
                nodes, *_, keys = out[-1]
                slots, at = self._ranges(self.kernel.offsets, nodes)
                seeds = (keys - nodes)[at] + self.kernel.cols[slots]
            seen = np.zeros(rows * n, dtype=bool)
            seen[seeds] = True
            keys = seen.nonzero()[0]
            groups = self.kernel.batches(keys, [0, len(keys)])[0] if hop else None
            out.append((keys % n, np.searchsorted(keys, np.arange(rows + 1) * n).tolist(),
                        groups, keys))
        return out

    def _level(self, bl: int, bh: int) -> list:
        """Each batch's level in the slice of batches bl to bh: one more than
        the highest level it depends on in the slice, or 0."""
        s0, s1 = self.slot_at[self.queue.cuts[[bl, bh]]]
        deps = np.maximum(self.dep[s0:s1] - bl + 1, 0).tolist()  # 0: none
        bounds = (self.slot_at[self.queue.cuts[bl:bh + 1]] - s0).tolist()
        level = [-1]
        for lo, hi in zip(bounds, bounds[1:]):
            level.append(1 + max(map(level.__getitem__, deps[lo:hi])))
        return level[1:]

    def _levels(self, events: np.ndarray, levels: np.ndarray) -> list:
        """Per level of the ``events`` (``levels``, one each), ascending: its
        events in event order, kernel groups and ``inbox`` positions."""
        order = np.lexsort((events, levels))
        ev = events[order]
        cuts = np.flatnonzero(np.r_[1, np.diff(levels[order]), 1])
        groups = self.kernel.batches(self.queue.node[ev], cuts)
        inbox, owner = self._ranges(self.inbox_at, ev)
        at, cuts = np.searchsorted(owner, cuts).tolist(), cuts.tolist()
        return [(ev[lo:hi], grp, inbox[a:b])
                for lo, hi, a, b, grp in zip(cuts, cuts[1:], at, at[1:], groups)]

    def _execute(self, bl: int, bh: int) -> tuple:
        """Run batches bl to bh level by level, as planned; the first batch
        whose curvature is lost and its lost nodes, or (bh, []). A batch
        reads only what batches before it wrote, so the batches after a
        lost one may run too: nothing they write is observed."""
        cuts, node = self.queue.cuts, self.queue.node
        events = np.arange(cuts[bl], cuts[bh])
        levels = np.repeat(self._level(bl, bh), np.diff(cuts[bl:bh + 1]))
        lost = bh, []
        for ev, groups, inbox in self._levels(events, levels):
            nodes = self._run_level(ev, groups, inbox, init=ev[0] == 0)
            if nodes:
                at = self.batch[ev[np.isin(node[ev], nodes)]].min()
                if at < lost[0]:
                    lost = at, [i for i in nodes if i in node[cuts[at]:cuts[at + 1]]]
        return lost

    def _run_level(self, ev: np.ndarray, groups: list, inbox: np.ndarray,
                   init: bool) -> list:
        """Run the events ``ev`` of one level from their kernel groups and
        inbox positions; returns the nodes whose curvature was lost."""
        cfg, ids = self.cfg, self.queue.node[ev]
        if self.dbfgs:  # ufunc.at adds a node's chunks one by one, in order
            readers, rows = (col[inbox] for col in self.inbox)
            np.add.at(self.var, readers, cfg.step_size * self.chunk_log[rows])
        # gradients from fresh and dated views: per group its slots' rows
        reads = [self.read[self.slot_at[ev[grp.pos], None] + np.arange(grp.msize)]
                 for grp in groups]
        var_views = [self.packages[0].take(rows, 0) for rows in reads]
        for grp, vv in zip(groups, var_views):
            self.aux[grp.ids] = self.obj.stage1_block(grp.ids, vv)
        aux_views = [self.packages[1].take(rows, 0) for rows in reads]
        for grp, vv, av in zip(groups, var_views, aux_views):
            self.g[grp.ids] = self.obj.stage2_block(grp.ids, vv, av)
        lost = []
        if self.dbfgs:
            g_views = [self.packages[2].take(rows, 0) for rows in reads]
            try:
                self.kernel.dbfgs_round(var_views, g_views, cfg.gamma, cfg.big_gamma,
                                        init, groups)
            except CurvatureLost as exc:
                lost = exc.nodes
        self.log_block[ev] = self.var[ids]
        if not (self.dbfgs or init):  # DD's gradient step
            self.var[ids] -= cfg.step_size * self.g[ids]
        # D-BFGS publishes its pre-descent var, DD its stepped one
        self._send(ev, (self.var[ids], self.aux[ids], self.g[ids]))
        return lost

    def _send(self, ev: np.ndarray, packages) -> None:
        """File the (3, k, p) packages of the k events ``ev`` and, in D-BFGS,
        their chunks: the kernel's ``contrib`` at their slots."""
        self.packages[:, self.package_row[ev]] = packages
        if self.dbfgs:
            slots = self._ranges(self.slot_at, ev)[0]
            self.chunk_log[slots] = self.kernel.contrib[self.slots[slots]]

    def _record(self, lo: int, hi: int) -> bool:
        """Record the rows of batches lo to hi from the logs in one pass and
        emit them; True when a stop ends the run."""
        queue, cuts, cfg = self.queue, self.queue.cuts, self.cfg
        n, dual, rows = len(self.err_terms), self.obj.mode == "dual", hi - lo
        self.logged = cuts[hi]  # events count as exchanges
        # the writes to var, in event order: a published var from its row on
        # (DD's from the next row), or each virtual descent from the next row
        lag = int(self.virtual or not self.dbfgs)
        ev = np.arange(cuts[max(lo - lag, 0)], cuts[hi - lag])
        row = self.batch[ev] + lag - lo
        if self.virtual:  # per descent, its target's var: one add at a time
            at, owner = self._ranges(self.slot_at, ev)
            row, cols = row[owner], self.kernel.cols[self.slots[at]]
            writes, order = row * n + cols, np.argsort(cols, kind="stable")
            depth = np.arange(1, len(at) + 1) - np.searchsorted(cols[order], cols[order])
            grid = np.zeros((n, depth.max(initial=0) + 1, self.var.shape[1]))
            grid[:, 0] = self.runtime_var
            grid[cols[order], depth] = cfg.step_size * self.chunk_log[at[order]]
            values = np.empty((len(at), grid.shape[2]))
            values[order] = np.add.accumulate(grid, axis=1)[cols[order], depth]
        else:
            writes = row * n + queue.node[ev]
            values = self.packages[0, self.package_row[ev]]
        # the keys where var moved (batch 0 moves every node by the first row)
        # and within one and two hops runtime stage 1 and 2 (primal: var and
        # stage 2); the estimate moves at var's keys, in dual mode the events'
        reach = self._reach(writes, rows, 1 + dual)
        last = np.arange(n) + (rows - 1) * n  # the last row
        # stage 2 reads var in primal mode, the stage-1 blocks in dual mode
        var = read = self._versions(self.runtime_var, writes, values, rows)
        self.runtime_var = self._read(var, last, rows)
        if dual:
            ev = np.arange(cuts[lo], cuts[hi])
            enodes, est = queue.node[ev], self.packages[1, self.package_row[ev]]
            ebounds = (cuts[lo:hi + 1] - cuts[lo]).tolist()
            aux = self._stage(reach[1], self.obj.stage1_block, rows, var)
            read = self._versions(self.runtime_aux, reach[1][3], aux, rows)
            self.runtime_aux = self._read(read, last, rows)
        else:
            enodes, ebounds, _, ekeys = reach[0]
            est = self._read(var, ekeys, rows)
        diff = est - self.obj.xstar
        terms = np.sum(diff * diff, axis=1)
        gnodes, gbounds, *_ = reach[-1]
        grad = self._stage(reach[-1], lambda ids, view: self.obj.stage2_block(
            ids, view, view), rows, read)
        # per row np.mean's sum and np.linalg.norm's reduction (of a view)
        sums, squares = np.empty(rows), np.empty(rows)
        err_terms, grads = self.err_terms, self.runtime_grad
        flat = grads.ravel()
        for r, (a, b, ga, gb) in enumerate(zip(ebounds, ebounds[1:], gbounds,
                                               gbounds[1:])):
            err_terms[enodes[a:b]] = terms[a:b]
            grads[gnodes[ga:gb]] = grad[ga:gb]
            sums[r], squares[r] = err_terms.sum(), flat.dot(flat)
        first = int(lo == 0)  # batch 0 has no row
        return self._emit(lo + first, (sums / n / self.denom)[first:],
                          np.sqrt(squares)[first:])

    def _emit(self, b0: int, errs: np.ndarray, norms: np.ndarray) -> bool:
        """Append the rows of batches b0 on, given their errors and gradient
        norms, up to the first a stop rule ends the run at; True if one does."""
        cuts, iters = self.queue.cuts, self.lmin[b0:b0 + len(errs)]
        rules = _stop_rules(errs, norms, iters, self.cfg)
        hits = np.logical_or.reduce([hit for _, hit in rules])
        stop = hits.any()
        rows = int(hits.argmax()) + 1 if stop else len(errs)
        self.trace.extend(iters[:rows], errs[:rows], norms[:rows],
                          cuts[b0 + 1:b0 + rows + 1], self.queue.time[cuts[b0:b0 + rows]])
        if stop:
            self.trace.status = next(status for status, hit in rules if hit[rows - 1])
            self.logged = cuts[b0 + rows]
        return stop

    def _versions(self, carry: np.ndarray, keys: np.ndarray, values: np.ndarray,
                  rows: int) -> tuple:
        """Each node's values over ``rows`` rows, its ``carry`` row from row 0
        on, then ``values`` at ``keys`` r n + node from row r on: positions j
        rows + r by node and row (of two at one key the later last), values."""
        n = len(self.err_terms)
        keys = np.concatenate((np.arange(n), keys))
        order = np.lexsort((keys, keys % n))  # by node, then row
        keys = keys[order]
        return keys % n * rows + keys // n, np.concatenate((carry, values))[order]

    def _read(self, versions: tuple, keys: np.ndarray, rows: int) -> np.ndarray:
        """The values at ``keys`` r n + node: the node's last at a row up to r."""
        n = len(self.err_terms)
        at = np.searchsorted(versions[0], keys % n * rows + keys // n, side="right")
        return versions[1].take(at - 1, 0)

    def _stage(self, keys: tuple, stage, rows: int, versions: tuple) -> np.ndarray:
        """``stage`` at a key set, from its neighborhood views of ``versions``."""
        out = np.empty((len(keys[0]), self.var.shape[1]))
        for grp in keys[2]:
            out[grp.pos] = stage(grp.ids, self._read(versions, grp.nb, rows))
        return out

    def run(self) -> Trace:
        # the batches up to the iteration cap's row, a slice at a time
        cuts, bl = self.queue.cuts, 0
        end = min(len(cuts) - 1, int(np.searchsorted(self.lmin, self.cfg.max_iters)) + 1)
        while bl < end:
            bh = min(int(np.searchsorted(cuts, cuts[bl] + PLAN_EVENTS)), end)
            at, lost = self._execute(bl, bh)
            # a lost curvature ends the run at its row, unless a stop does
            if self._record(bl, min(at + 1, bh)):
                break
            if lost:
                raise CurvatureLost(lost)
            bl = bh
        # copies, so the trace keeps no more than the events it logged
        self.trace.event_log = EventLog(*(col[:self.logged].copy() for col in (
            self.queue.time, self.queue.node, self.rank, self.log_block)))
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
