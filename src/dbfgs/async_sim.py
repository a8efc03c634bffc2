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

The schedule and the graph fix every index a run uses, so the engine plans
them apart from the float work, as inspector-executor schemes do for
irregular loops (Saltz, Mirchandaney and Crowley, IEEE Trans. Computers,
1991): once per run each event's slots and log reads, the window bounds from
the same lookups and one pass over the batches, and each row's
local_iter_min; per slice of windows the kernel groups and record keys.

Messages live in two dated logs that every event writes once, as Time
Warp keeps its message logs (Jefferson, "Virtual Time", 1985). Every event
publishes one (var, aux, g) package, arriving at its time plus the message
delay; in physical D-BFGS it also files one descent chunk per neighborhood
slot, arriving at once at its own node and after the delay at the others.
The package log ends with every node's current (var, aux, g) block, so a
view gathers each slot straight from it: the neighbor's latest package
that arrived before the event, or its current block when it ticks in the
event's batch. A window reads the chunk log once: the chunks that arrived
since a reader's last read land on its var one by one in (arrival, send)
order. A window's readers are pairwise non-adjacent, so no message of the
window reaches a reader of it, and the window writes its own messages to
the logs once, after its trace rows.

After the kernel step a window runs three phases. Apply writes every row's
state window-wide; only the virtual engine's descents land row by row.
Record evaluates every row's terms at once: it refreshes only the error
terms of the nodes whose estimate moved and the runtime gradient blocks
within reach of a node whose var moved (one hop in primal mode, two in dual
mode: stage 1 mixes var); at the first row every node counts as moved. It
then yields the rows one at a time, each reduced to its error and the norm
of the whole gradient. Emit takes them in batch order: trace row, stop
rules, lost curvature. A stop ends the run at its batch; the rows after it
are never reduced, what apply wrote after that batch is never observed,
and nothing the window publishes is ever read.

The virtual engine re-runs the same event sequence but applies every
finished descent to a global variable immediately instead of through
messages; with zero message delay its trajectory coincides with the
physical engine at every node's availability events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# events the engine plans at once (at least): bounds the plan's memory
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

    Built, the engine computes the flat indices the schedule fixes for the
    whole run (windows, event slots, the ``packages`` rows they read, each
    event's inbox chunks), O(events m) like the logs, which have room for
    every event; ``_plan`` builds each window's kernel groups and record key
    sets a slice of at least ``PLAN_EVENTS`` events at a time, so a run that
    stops early builds at most one slice past its stop; ``_process_window``
    does a window's float work on its slices of the run-wide arrays.
    """

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
        self.chunks = self.dbfgs and not virtual
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
        # rows of ``chunk_log``, and the ``packages`` row its view reads. A
        # slot whose neighbor ticks in the event's batch (its own node too)
        # reads the neighbor's current block; any other its latest package
        # that arrived strictly before the event (its last tick among the
        # first ``arrived`` events, one key lookup), or with none the zero row.
        self.slots, sender = self._slots(queue.node)
        self.slot_at = np.cumsum(np.append(0, kernel.m[queue.node]))
        cols = kernel.cols[self.slots]
        own = cols == graph.layout.rows[self.slots]
        arrival = queue.time + cfg.delta_msg  # of each event's messages
        arrived = np.searchsorted(arrival, queue.time)
        tick = np.searchsorted(keys, cols * events + arrived[sender] * ~own)
        lo, hi = np.searchsorted(keys, cols * events
                                 + queue.cuts[self.batch[sender] + [[0], [1]]])
        self.read = np.where(hi > lo, events + n + cols, tick + cols)
        # each window's first batch and first event, then the ends: a batch
        # opens a window when its closed neighborhoods hold a node of a batch
        # of the open one (per slot: the batch of its column's tick before lo)
        last = np.where(lo > first[cols], self.batch[event[lo - 1]], -1)
        wb = [0]
        for b, prior in enumerate(np.maximum.reduceat(
                last, self.slot_at[queue.cuts[:-1]]).tolist()):
            if prior >= wb[-1]:
                wb.append(b)
        self.wb = np.array(wb + [len(queue.cuts) - 1])
        self.we = queue.cuts[self.wb]
        self.chunk_log = np.empty((len(self.slots) if self.chunks else 0, p))
        # the chunks each event reads, from inbox_at[k]: readers and rows. A
        # node's inbox lists the chunks sent to it by (arrival, send), at once
        # from itself and after the delay from its neighbors; an event reads
        # those its node has by then and did not have at its previous event.
        new = np.zeros(events, dtype=np.intp)
        self.inbox = (new[:0], new[:0])
        if self.chunks:
            inbox = np.lexsort((sender, np.where(own, queue.time[sender],
                                                 arrival[sender]), cols))
            total = np.add.reduceat(tick - first[cols], self.slot_at[:-1]) + self.rank
            new = total - np.where(self.rank > 0, total[event[queue.order - 1]], 0)
            start = np.searchsorted(cols[inbox], queue.node) + total - np.cumsum(new)
            self.inbox = (np.repeat(queue.node, new),
                          inbox[np.repeat(start, new) + np.arange(new.sum())])
        self.inbox_at = np.cumsum(np.append(0, new))
        # the event log's blocks; ``logged`` events so far
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

    def _slots(self, nodes: np.ndarray) -> tuple:
        """The layout rows of ``nodes``, node after node, and the position
        in ``nodes`` of each row's node."""
        sizes = self.kernel.m[nodes]
        at = np.repeat(np.arange(len(nodes)), sizes)
        start = self.kernel.offsets[nodes] - np.cumsum(sizes) + sizes
        return start[at] + np.arange(len(at)), at

    def _reach(self, seeds: np.ndarray, size: int, hops: int) -> list:
        """Per h = 0 to ``hops``, the distinct keys below ``size`` within h
        hops of the keys ``seeds`` in their rows, ascending."""
        out = []
        for hop in range(hops + 1):
            if hop:
                nodes = out[-1] % len(self.err_terms)
                slots, at = self._slots(nodes)
                seeds = (out[-1] - nodes)[at] + self.kernel.cols[slots]
            seen = np.zeros(size, dtype=bool)
            seen[seeds] = True
            out.append(seen.nonzero()[0])
        return out

    def _key_sets(self, keys: np.ndarray, wb: np.ndarray, hoods: bool) -> list:
        """Per window (first batches ``wb``), the ascending ``keys`` in its rows
        as (nodes, each row's first and one past the last position, kernel
        groups of its keys from its first row with ``hoods``, those keys)."""
        n = len(self.err_terms)
        nodes = keys % n
        bounds = np.searchsorted(keys, np.arange(wb[-1] + 1) * n)  # by row
        wk = bounds[wb]  # each window's first key
        keys = keys - np.repeat(wb[:-1] * n, np.diff(wk))
        rows, starts, batches = bounds.tolist(), wk.tolist(), wb.tolist()
        groups = self.kernel.batches(keys, wk) if hoods else [None] * len(batches)
        return [(nodes[lo:hi], [r - lo for r in rows[b0:b1 + 1]], grp, keys[lo:hi])
                for lo, hi, b0, b1, grp in zip(starts, starts[1:], batches, batches[1:],
                                                groups)]

    def _plan(self, wl: int) -> list:
        """Per window of the slice from window ``wl`` (at least ``PLAN_EVENTS``
        events unless the schedule ends first), its kernel groups and record
        key sets; the rest of its plan is the run's."""
        queue, n, we = self.queue, len(self.err_terms), self.we
        wh = min(np.searchsorted(we, we[wl] + PLAN_EVENTS), len(we) - 1)
        bl, bh, eh = self.wb[wl], self.wb[wh], we[wh]
        wb = self.wb[wl:wh + 1] - bl  # each window's first batch, from bl
        groups = self.kernel.batches(queue.node[we[wl]:eh], we[wl:wh + 1] - we[wl])
        # the record keys of the rows (the batches after the first): the nodes
        # whose var moved (at the first row all; then a batch's own in physical
        # D-BFGS, the batch before's in DD and their neighbors in the virtual
        # engine) and those whose estimate moved (dual mode: a batch's own)
        size, row0 = (bh - bl) * n, max(bl, 1)  # the first batch with a row
        lo = queue.cuts[row0 - 1]  # and the batch before it
        own = (self.batch[lo:eh] - bl) * n + queue.node[lo:eh]
        own, after = own[own >= (row0 - bl) * n], own + n
        after = after[after < size]
        every = np.arange(n) + (1 - bl) * n if bl <= 1 < bh else after[:0]
        moved = (own if self.chunks else after if not self.dbfgs
                 else self._reach(after, size, 1)[1])
        dual = self.obj.mode == "dual"
        reach = self._reach(np.concatenate((moved, every)), size, 1 + dual)
        err = self._reach(np.concatenate((own, every)), size, 0)[0] if dual else reach[0]
        record = [self._key_sets(keys, wb, hoods) for keys, hoods
                  in zip((err, *reach[1:]), (False, True, True))]
        return list(zip(groups, zip(*record)))

    def _process_window(self, w: int, groups: list, record: tuple,
                        init: bool) -> bool:
        """Run window w from its kernel groups and record key sets: its
        batches are its trace rows (none in the run's first window), their
        states built in whole-window writes. True when a stop ends the run."""
        cfg, kernel, queue = self.cfg, self.kernel, self.queue
        b0, b1 = self.wb[w], self.wb[w + 1]
        eb = queue.cuts[b0:b1 + 1].tolist()  # each batch's first event, then the end
        e0, e1 = eb[0], eb[-1]
        ids = queue.node[e0:e1]
        # each row's state (var, and aux in dual mode), from the entry state
        n, planes = len(self.err_terms), 2 if self.obj.mode == "dual" else 1
        states = self.packages[:planes, None, -n:].repeat(b1 - b0, axis=1)
        # phase 1: every event reads its chunks; ufunc.at adds a node's
        # chunks one by one, in order
        if self.chunks:
            readers, chunks = (col[self.inbox_at[e0]:self.inbox_at[e1]]
                               for col in self.inbox)
            np.add.at(self.var, readers, cfg.step_size * self.chunk_log[chunks])
        # phase 2: gradients from fresh and dated views, per group the
        # (g, m) ``packages`` rows its slots read
        reads = [self.read[self.slot_at[e0 + grp.pos, None] + np.arange(grp.msize)]
                 for grp in groups]
        var_views = [self.packages[0].take(rows, 0) for rows in reads]
        for grp, vv in zip(groups, var_views):
            self.aux[grp.ids] = self.obj.stage1_block(grp.ids, vv)
        aux_views = [self.packages[1].take(rows, 0) for rows in reads]
        for grp, vv, av in zip(groups, var_views, aux_views):
            self.g[grp.ids] = self.obj.stage2_block(grp.ids, vv, av)
        # D-BFGS's step; a lost curvature ends the run at the first batch
        # holding one, and nothing the window does after that is observed
        lost = []
        if self.dbfgs:
            g_views = [self.packages[2].take(rows, 0) for rows in reads]
            try:
                kernel.dbfgs_round(var_views, g_views, cfg.gamma, cfg.big_gamma, init,
                                   groups)
            except CurvatureLost as exc:
                lost = exc.nodes
        # phase 3, apply: a batch's fresh blocks land on the states from its
        # row on, DD's step from the next row on (the window's ids are distinct)
        fresh = self.var[ids]
        at = self.batch[e0:e1] - b0  # each event's row
        r, e = (at <= np.arange(b1 - b0)[:, None]).nonzero()
        states[:, r, ids[e]] = self.packages[:planes, -n:][:, ids[e]]
        if self.virtual:  # each descent lands at once, on the rows after its own
            cut = self.slot_at[eb] - self.slot_at[e0]
            slots = self.slots[self.slot_at[e0]:self.slot_at[e1]]
            cols, steps = kernel.cols[slots], cfg.step_size * kernel.contrib[slots]
            for row, (lo, hi) in enumerate(zip(cut[:-2], cut[1:-1])):
                np.add.at(states[0], (slice(row + 1, None), cols[lo:hi]), steps[lo:hi])
            np.add.at(self.var, cols, steps)
        elif not (self.dbfgs or init):  # DD's gradient step
            self.var[ids] -= cfg.step_size * self.g[ids]
            r, e = (at < np.arange(b1 - b0)[:, None]).nonzero()
            states[0, r, ids[e]] = self.var[ids[e]]
        states = states.reshape(planes, -1, self.var.shape[1])
        rows = None if init else self._record(states, record)
        # phase 3, emit: the events, then per batch its row, stop check, lost curvature
        self.log_block[e0:e1] = fresh
        times, lmins = queue.time[eb[:-1]].tolist(), self.lmin[b0:b1].tolist()
        for t, lmin, lo, hi in zip(times, lmins, eb, eb[1:]):
            self.logged = hi  # events count as exchanges
            if not init:
                self.trace.append(lmin, *next(rows), self.logged, model_time=t)
                if _check_stop(self.trace, cfg):
                    return True
            if hit := [i for i in lost if i in queue.node[lo:hi]]:
                raise CurvatureLost(hit)
        # sends: D-BFGS publishes its pre-descent var, DD its stepped one
        published = fresh if self.dbfgs else self.var[ids]
        self._send(slice(e0, e1), np.array((published, self.aux[ids], self.g[ids])))
        return False

    def _send(self, events: slice, packages: np.ndarray) -> None:
        """File the (3, k, p) packages of the k ``events`` and, in physical
        D-BFGS, their chunks: the kernel's ``contrib`` at their slots."""
        self.packages[:, self.package_row[events]] = packages
        if self.chunks:
            slots = slice(self.slot_at[events.start], self.slot_at[events.stop])
            self.chunk_log[slots] = self.kernel.contrib[self.slots[slots]]

    def _record(self, states: np.ndarray, record: tuple):
        """Yield each row's error and gradient norm, as consensus_error and
        the norm of runtime_grad give them at the row's state, from the
        planes each row reads (row r at rows r n to (r + 1) n: var, and in
        dual mode aux, the estimate) and the plan's key sets: evaluated for
        the whole window at once, then written in and reduced row by row."""
        n = len(self.err_terms)
        (enodes, ebounds, _, ekeys), (gnodes, gbounds, *_) = record[0], record[-1]
        diff = states[-1][ekeys] - self.obj.xstar  # aux in dual mode, else var
        terms = np.sum(diff * diff, axis=1)
        aux_plane = states[0]  # primal mode's stage 1 is var itself
        if self.obj.mode == "dual":
            nodes, bounds, *_ = record[1]
            aux = self._stage(record[1], self.obj.stage1_block, states[0])
            aux_plane = np.empty_like(states[0])
            for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                self.runtime_aux[nodes[lo:hi]] = aux[lo:hi]
                aux_plane[r * n:(r + 1) * n] = self.runtime_aux
        grad = self._stage(record[-1], self.obj.stage2_block, states[0], aux_plane)
        flat = self.runtime_grad.ravel()  # a view; np.linalg.norm's reduction
        for lo, hi, glo, ghi in zip(ebounds, ebounds[1:], gbounds, gbounds[1:]):
            self.err_terms[enodes[lo:hi]] = terms[lo:hi]
            self.runtime_grad[gnodes[glo:ghi]] = grad[glo:ghi]
            # np.mean's sum and division
            yield self.err_terms.sum() / n / self.denom, math.sqrt(flat.dot(flat))

    def _stage(self, keys: tuple, stage, *planes) -> np.ndarray:
        """``stage`` at a key set, from its neighborhood views of the given
        (rows n, p) planes."""
        out = np.empty((len(keys[0]), self.var.shape[1]))
        for grp in keys[2]:
            out[grp.pos] = stage(grp.ids, *(plane.take(grp.nb, 0) for plane in planes))
        return out

    def run(self) -> Trace:
        # a window's plan goes once it has run, so no two slices coexist; the
        # first window initializes: nothing logged before it
        plan = []
        for w in range(len(self.wb) - 1):
            plan = plan or self._plan(w)[::-1]
            if self._process_window(w, *plan.pop(), init=w == 0):
                break
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
