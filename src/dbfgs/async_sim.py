"""Deterministic discrete-event simulation of asynchronous D-BFGS and DD.

Each node has its own availability clock. At an availability event a node
reads its mailbox (descent contributions and dated neighbor packages
deposited strictly before the event time), applies pending descents,
recomputes its gradient from its dated view, takes its method's local step,
and deposits fresh values for its neighbors. D-BFGS updates its curvature
and computes descent contributions for its neighborhood; dual
decomposition steps along its own gradient block.

Events sharing an exact wall time form a batch processed as a synchronized
sub-round: tied nodes see each other's fresh values. Every batch, from a
singleton to all nodes, goes through one engine and the round kernel the
synchronous engine uses, so a zero-drift schedule reproduces the
synchronous runtime bit for bit by construction. Continuous random
schedules have singleton batches almost surely, which is the asynchronous
algorithm proper.

The virtual engine re-runs the same event sequence but applies every
finished descent to a global variable immediately instead of through
mailboxes; with zero message delay its trajectory coincides with the
physical engine at every node's availability events.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from ._kernel import RoundKernel
from .netgraph import Graph
from .objectives import DistributedObjective, consensus_error
from .sync_runtime import SyncConfig, Trace, _check_stop

__all__ = [
    "ClockSchedule",
    "AsyncConfig",
    "EventQueue",
    "gen_clock_schedule",
    "time_functions",
    "measure_asynchronicity",
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


def _last_before(ticks: np.ndarray, t) -> np.ndarray:
    """max{t_hat in ticks : t_hat < t}, or 0.0 before the first tick."""
    idx = np.searchsorted(ticks, t, side="left") - 1
    vals = ticks[np.clip(idx, 0, None)]
    return np.where(idx < 0, 0.0, vals)


def time_functions(schedule: ClockSchedule, i: int, j: int, t: float):
    """(pi_i(t), pi_i_j(t)): node i's last availability strictly before t,
    and the generation time of node j's data held by i (pi_j after pi_i)."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    pi_i = float(_last_before(schedule.times[i], t))
    pi_ij = float(_last_before(schedule.times[j], pi_i))
    return pi_i, pi_ij


def measure_asynchronicity(schedule: ClockSchedule, horizon: float | None = None) -> float:
    """Smallest staleness bound B with t - pi_i_j(t) < B over the event grid.

    Cross-node staleness composes pi_j(pi_i(t)); a node's own block is dated
    at its last availability, so the i = j staleness is t - pi_i(t).
    """
    grid = np.unique(np.concatenate(schedule.times))
    if horizon is not None:
        grid = grid[grid <= horizon]
    worst = 0.0
    for i in range(schedule.n):
        pi_i = _last_before(schedule.times[i], grid)
        worst = max(worst, float(np.max(grid - pi_i)))
        for j in range(schedule.n):
            if j == i:
                continue
            pi_ij = _last_before(schedule.times[j], pi_i)
            worst = max(worst, float(np.max(grid - pi_ij)))
    return worst


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


@dataclass
class AsyncConfig(SyncConfig):
    """Synchronous parameters plus the message delivery delay."""

    delta_msg: float = 0.0


# ---------------------------------------------------------------------------
# mailboxes
# ---------------------------------------------------------------------------


class _Mailbox:
    """Per-node inbox: dated neighbor packages and pending descent chunks.

    Package queues are keyed by the layout row the sender occupies in this
    node's neighborhood; pending chunks are (arrival time, block) in
    enqueue order.
    """

    __slots__ = ("queues", "pending")

    def __init__(self, rows):
        self.queues = {row: deque() for row in rows}
        self.pending = []

    def read(self, now: float, known: np.ndarray) -> list:
        """Deliver everything that arrived strictly before ``now``.

        Writes each neighbor's latest package to its row of ``known`` and
        returns the arrived descent chunks in arrival order, ties in
        enqueue order; chunks still in flight stay pending.
        """
        for row, q in self.queues.items():
            if q and q[0][0] < now:
                while q and q[0][0] < now:
                    pkg = q.popleft()[1]
                known[:, row] = pkg
        arrived = sorted((c for c in self.pending if c[0] < now), key=itemgetter(0))
        self.pending = [c for c in self.pending if c[0] >= now]
        return [block for _, block in arrived]


# ---------------------------------------------------------------------------
# the event engine
# ---------------------------------------------------------------------------


class _AsyncEngine:
    """One event loop for asynchronous D-BFGS (physical and virtual) and DD.

    Every batch reads its nodes' mail, evaluates their gradients from views
    that mix the batch's fresh blocks with dated packages, records a trace
    row, takes the method's local step on the round kernel or the gradient,
    and publishes the nodes' packages.
    """

    def __init__(self, graph: Graph, objective: DistributedObjective,
                 cfg: AsyncConfig, schedule: ClockSchedule, method: str,
                 virtual: bool = False):
        cfg.validate(objective)
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
        own = graph.layout.own
        self.mail = [_Mailbox(r for r in range(kernel.offsets[i], kernel.offsets[i + 1])
                              if r != own[i])
                     for i in range(n)]
        self.local_iter = np.zeros(n, dtype=int)
        self.dbfgs = method == "dbfgs"
        self.trace = Trace(method=method, mode=cfg.mode, seed=cfg.seed,
                           model_time=[], local_iter_min=[], event_log=[])
        self.exchanges = 0

    def _views(self, groups, q: int) -> list:
        """Per-group (g, m, p) views of quantity q (0 var, 1 aux, 2 g)."""
        return [self.store[q][grp.view] for grp in groups]

    def _process_batch(self, t: float, batch: list, init: bool) -> bool:
        """Run one batch; True when a stop rule ends the run."""
        groups = self.kernel.batch(batch)
        ids = np.array(batch)
        # phase 1: read mail, apply pending descents, advance local clocks
        for i in batch:
            for block in self.mail[i].read(t, self.known):
                self.var[i] += self.cfg.step_size * block
        if not init:
            self.local_iter[ids] += 1
        snapshot = self.var[ids]
        for i, block in zip(batch, snapshot):
            self.trace.event_log.append((t, i, int(self.local_iter[i]), block))
        # phase 2: gradients from fresh and dated views
        var_views = self._views(groups, 0)
        for grp, vv in zip(groups, var_views):
            self.aux[grp.ids] = self.obj.stage1_block(grp.ids, vv)
        aux_views = self._views(groups, 1)
        for grp, vv, av in zip(groups, var_views, aux_views):
            self.g[grp.ids] = self.obj.stage2_block(grp.ids, vv, av)
        self.exchanges += len(batch)
        if not init:
            self._record(t)
            if _check_stop(self.trace, self.cfg):
                return True
        # phase 3: the method's local step, then the packages
        local_step = self._dbfgs_step if self.dbfgs else self._dd_step
        published = local_step(t, batch, ids, groups, var_views, snapshot, init)
        off, cols, mirror = self.kernel.offsets, self.kernel.cols, self.kernel.mirror
        arrival = t + self.cfg.delta_msg
        for i, var_i in zip(batch, published):
            pkg = np.array((var_i, self.aux[i], self.g[i]))
            lo, hi = off[i], off[i + 1]
            for j, row in zip(cols[lo:hi].tolist(), mirror[lo:hi].tolist()):
                if j != i:
                    self.mail[j].queues[row].append((arrival, pkg))
        return False

    def _dbfgs_step(self, t, batch, ids, groups, var_views, snapshot, init):
        """The kernel's D-BFGS round on the batch; publishes the
        pre-descent blocks."""
        kernel, cfg = self.kernel, self.cfg
        kernel.dbfgs_round(var_views, self._views(groups, 2), cfg.gamma,
                           cfg.big_gamma, init, groups)
        # the virtual engine applies each contribution at once, in the
        # order the physical mailboxes will replay it
        off, cols = kernel.offsets, kernel.cols
        for i in batch:
            lo, hi = off[i], off[i + 1]
            for j, block in zip(cols[lo:hi].tolist(), kernel.contrib[lo:hi].copy()):
                if self.virtual:
                    self.var[j] += cfg.step_size * block
                else:
                    self.mail[j].pending.append(
                        (t if j == i else t + cfg.delta_msg, block))
        return snapshot

    def _dd_step(self, t, batch, ids, groups, var_views, snapshot, init):
        """Gradient step on the dual blocks; publishes the stepped blocks."""
        if not init:
            self.var[ids] -= self.cfg.step_size * self.g[ids]
        return self.var[ids]

    def _record(self, t: float) -> None:
        est = self.var if self.obj.mode == "primal" else self.aux
        err = consensus_error(est, self.obj.xstar)
        gnorm = np.linalg.norm(self.obj.runtime_grad(self.var))
        lmin = int(self.local_iter.min())
        self.trace.append(lmin, err, gnorm, self.exchanges,
                          model_time=t, local_iter_min=lmin)

    def run(self) -> Trace:
        first = True
        for t, batch in EventQueue(self.schedule).batches():
            if self._process_batch(t, batch, init=first):
                break
            first = False
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
