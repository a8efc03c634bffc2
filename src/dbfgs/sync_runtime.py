"""Synchronous round-based executors: D-BFGS, DGD, DD, and consensus ADMM,
and the Trace every run emits, with its CSV writer and reader.

Every runner consumes the same objective abstraction and emits its rounds
through one run loop. Exchange accounting is fixed per method: D-BFGS
costs 2 exchanges per iteration in dual mode and 3 in primal mode; the
first-order baselines cost 1.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Integral

import numpy as np
import scipy.sparse as sp

from ._kernel import RoundKernel
from .netgraph import Graph
from .objectives import DistributedObjective, consensus_error

__all__ = [
    "SyncConfig",
    "Trace",
    "read_trace_csv",
    "DbfgsSyncEngine",
    "run_dbfgs_sync",
    "run_dgd",
    "run_dd",
    "run_admm",
    "exchanges_per_iteration",
    "DIVERGENCE_LIMIT",
    "METHOD_MODES",
]

DIVERGENCE_LIMIT = 1e12

# the modes each method runs in
METHOD_MODES = {"dbfgs": ("primal", "dual"), "dgd": ("primal",),
                "dd": ("dual",), "admm": ("dual",)}

# the trace CSV's columns in the order written, each with the type its field
# reads back as; an async trace writes all, a sync trace all but the last two
CSV_COLUMNS = {"iter": int, "error": float, "grad_norm": float, "exchanges": int,
               "method": str, "mode": str, "seed": int,
               "model_time": float, "local_iter_min": int}


def exchanges_per_iteration(method: str, mode: str) -> int:
    if method == "dbfgs":
        return 3 if mode == "primal" else 2
    if method in ("dgd", "dd", "admm"):
        return 1
    raise ValueError(f"unknown method {method!r}")


@dataclass
class SyncConfig:
    """Run parameters for the synchronous executors."""

    method: str
    mode: str
    step_size: float
    max_iters: int
    gamma: float | None = None
    big_gamma: float | None = None
    seed: int = 0
    stop_error: float | None = None
    stop_grad_norm: float | None = None
    var0: np.ndarray | None = None

    def validate(self, graph: Graph, objective: DistributedObjective,
                 method: str) -> None:
        """Check against the runner's graph, objective and method."""
        if graph != objective.graph:
            raise ValueError("the graph is not the objective's graph")
        if method != self.method:
            raise ValueError(f"a {self.method!r} config passed to the {method} runner")
        if self.method not in METHOD_MODES:
            raise ValueError(f"unknown method {self.method!r}")
        if self.mode not in ("primal", "dual"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode != objective.mode:
            raise ValueError(f"config mode {self.mode!r} does not match objective "
                             f"mode {objective.mode!r}")
        curvature = ("gamma", "big_gamma") if self.method == "dbfgs" else ()
        for name in ("step_size", *curvature):
            val = getattr(self, name)
            if val is None or not val > 0 or not math.isfinite(val):  # NaN too
                raise ValueError(f"{self.method} requires a finite {name} > 0, "
                                 f"got {val!r}")
        for name in ("stop_error", "stop_grad_norm"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if not isinstance(self.max_iters, Integral) or isinstance(self.max_iters, bool):
            raise ValueError(f"max_iters must be an int, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("iteration budget must be at least 1")
        if self.mode not in METHOD_MODES[self.method]:
            raise ValueError(f"{self.method} runs in "
                             f"{' or '.join(METHOD_MODES[self.method])} mode only")
        if self.var0 is not None and np.shape(self.var0) != (graph.n, objective.p):
            raise ValueError(f"var0 has shape {np.shape(self.var0)}, not (n, p) = "
                             f"{(graph.n, objective.p)}")


@dataclass
class Trace:
    """Per-iteration (or per-event) run records."""

    method: str
    mode: str
    seed: int
    iters: list = field(default_factory=list)
    error: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    exchanges: list = field(default_factory=list)
    model_time: list | None = None
    status: str = "max_iters"
    event_log: tuple | None = None  # async runs: an async_sim.EventLog

    @property
    def is_async(self) -> bool:
        return self.model_time is not None

    @property
    def local_iter_min(self) -> list | None:
        """Async: each row's least local iteration, its iter; sync: None."""
        return self.iters if self.is_async else None

    def append(self, it, err, gnorm, exch, model_time=None):
        self.extend([it], [err], [gnorm], [exch], [model_time])

    def extend(self, iters, err, gnorm, exch, model_time=None):
        """Append rows, a column at a time (model times on async traces)."""
        self.iters += map(int, iters)
        self.error += map(float, err)
        self.grad_norm += map(float, gnorm)
        self.exchanges += map(int, exch)
        if self.is_async:
            self.model_time += map(float, model_time)

    def error_at(self, iteration: int) -> float:
        """Error at the given iteration (async: minimum local iteration)."""
        hits = np.nonzero(np.asarray(self.iters) >= iteration)[0]
        if len(hits) == 0:
            raise ValueError(f"trace never reaches iteration {iteration}")
        return self.error[hits[0]]

    def to_csv(self) -> str:
        """The header and one line per row, a field per ``CSV_COLUMNS``
        column the trace has."""
        cols = (self.iters, self.error, self.grad_norm, self.exchanges,
                *map(repeat, (self.method, self.mode, self.seed)),
                *((self.model_time, self.iters) if self.is_async else ()))
        fmt = ",".join(["%s"] * len(cols)) + "\n"  # %s of a float is its repr
        rows = map(fmt.__mod__, zip(*cols))
        return fmt % tuple(CSV_COLUMNS)[:len(cols)] + "".join(rows)


def read_trace_csv(path: str) -> Trace:
    """A trace as ``Trace.to_csv`` writes it; ValueError, naming the file,
    if the header lacks a trace column, and ``path:line`` if a row does not
    have the header's fields, a field does not parse, its method, mode or
    seed differs from the rows before it, or an async row's local_iter_min
    differs from its iter. A trace with no row takes its method, mode and
    seed from a file name as ``run_experiment`` gives it
    (``{method}_{mode}_s{seed}_{tag}.csv``), or else method and mode "?"."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        is_async = "model_time" in header
        missing = [c for c in list(CSV_COLUMNS)[:None if is_async else -2]
                   if c not in header]
        if missing:
            raise ValueError(f"{path}: not a trace CSV (lacks {', '.join(missing)})")
        named = re.fullmatch(r"([a-z]+)_([a-z]+)_s(\d+)_.+\.csv", os.path.basename(path))
        if named and named[2] in METHOD_MODES.get(named[1], ()):
            method, mode, seed = named[1], named[2], int(named[3])
        else:
            method, mode, seed = "?", "?", 0
        trace = Trace(method=method, mode=mode, seed=seed,
                      model_time=[] if is_async else None)
        for lineno, line in enumerate(fh, 2):
            parts = line.strip().split(",")
            try:
                if len(parts) != len(header):
                    raise ValueError(f"{len(parts)} fields, the header has {len(header)}")
                row = {c: CSV_COLUMNS.get(c, str)(v) for c, v in zip(header, parts)}
                for c in ("method", "mode", "seed"):
                    if trace.iters and row[c] != getattr(trace, c):
                        raise ValueError(f"{c} {row[c]!r} differs from the rows "
                                         f"before it ({getattr(trace, c)!r})")
                    setattr(trace, c, row[c])
                if row.get("local_iter_min", row["iter"]) != row["iter"]:
                    raise ValueError(f"local_iter_min {row['local_iter_min']} "
                                     f"differs from iter {row['iter']}")
                trace.append(row["iter"], row["error"], row["grad_norm"],
                             row["exchanges"], row.get("model_time"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return trace


def _stop_rules(err, gnorm, iters, cfg: SyncConfig) -> list:
    """The stop rules in precedence, each as (status, whether it fires), at
    rows of these errors, gradient norms and iterations: scalars or arrays.
    The iteration cap's status is the default, max_iters."""
    rules = [("diverged", ~np.isfinite(err) | (err > DIVERGENCE_LIMIT))]
    if cfg.stop_error is not None:
        rules.append(("error_stop", err <= cfg.stop_error))
    if cfg.stop_grad_norm is not None:
        rules.append(("grad_stop", gnorm <= cfg.stop_grad_norm))
    return rules + [("max_iters", iters >= cfg.max_iters)]


def _check_stop(trace: Trace, cfg: SyncConfig) -> bool:
    """Apply the stop rules to the trace's last row; True ends the run."""
    for status, hit in _stop_rules(trace.error[-1], trace.grad_norm[-1],
                                   trace.iters[-1], cfg):
        if hit:
            trace.status = status
            return True
    return False


def _run(graph: Graph, objective: DistributedObjective, cfg: SyncConfig,
         method: str, rounds) -> Trace:
    """Check cfg, start from zeros or a float copy of var0, and append a row
    per (error, gradient norm) that ``rounds(var)`` yields until a stop."""
    cfg.validate(graph, objective, method)
    var = (np.zeros((graph.n, objective.p)) if cfg.var0 is None
           else np.array(cfg.var0, dtype=float))
    cost = exchanges_per_iteration(method, cfg.mode)
    trace = Trace(method=method, mode=cfg.mode, seed=cfg.seed)
    for t, (err, gnorm) in enumerate(rounds(var), 1):
        trace.append(t, err, gnorm, t * cost)
        if _check_stop(trace, cfg):
            break
    return trace


# ---------------------------------------------------------------------------
# D-BFGS synchronous engine
# ---------------------------------------------------------------------------


class DbfgsSyncEngine:
    """Full-network D-BFGS rounds on a shared state.

    The loop is the synchronous algorithm with the bookkeeping rotated one
    step: each call to step() applies the descents computed at the end of
    the previous round, re-evaluates gradients, and runs the round kernel's
    D-BFGS round on every node (curvature update from the previous views,
    then the next round's descent contributions).
    """

    def __init__(self, graph: Graph, objective: DistributedObjective,
                 gamma: float, big_gamma: float, step_size: float,
                 var0: np.ndarray | None = None):
        self.objective = objective
        self.gamma = gamma
        self.big_gamma = big_gamma
        self.eps = step_size
        self.kernel = RoundKernel(graph, objective.p)
        self.var = (np.zeros((graph.n, objective.p)) if var0 is None
                    else np.array(var0, dtype=float))
        self._round(first=True)

    def step(self) -> None:
        self.kernel.apply_descents(self.var, self.eps)
        self._round()

    def _round(self, first: bool = False) -> None:
        self.aux = self.objective.stage1_full(self.var)
        self.g = self.objective.stage2_full(self.var, self.aux)
        self.accepted = self.kernel.dbfgs_round(
            self.kernel.gather_views(self.var), self.kernel.gather_views(self.g),
            self.gamma, self.big_gamma, first)


def run_dbfgs_sync(graph: Graph, objective: DistributedObjective,
                   cfg: SyncConfig) -> Trace:
    """Synchronous D-BFGS; in dual mode the iterated variable is nu and the
    machinery descends -psi, so the update ascends the dual function."""
    def rounds(var):
        engine = DbfgsSyncEngine(graph, objective, cfg.gamma, cfg.big_gamma,
                                 cfg.step_size, var)
        while True:
            engine.step()
            # the round's stage 1: the Lagrangian minimizers, or var in primal mode
            yield consensus_error(engine.aux, objective.xstar), np.linalg.norm(engine.g)
    return _run(graph, objective, cfg, "dbfgs", rounds)


# ---------------------------------------------------------------------------
# first-order baselines
# ---------------------------------------------------------------------------


def run_dgd(graph: Graph, objective: DistributedObjective, cfg: SyncConfig) -> Trace:
    """Decentralized gradient descent on the scaled penalty objective."""
    def rounds(x):
        g = objective.runtime_grad(x)
        while True:
            x = x - cfg.step_size * g
            g = objective.runtime_grad(x)
            yield consensus_error(x, objective.xstar), np.linalg.norm(g)
    return _run(graph, objective, cfg, "dgd", rounds)


def run_dd(graph: Graph, objective: DistributedObjective, cfg: SyncConfig) -> Trace:
    """Dual decomposition: gradient ascent on psi through the Lagrangian
    minimizers. Trace rows carry the state the round computed with (the
    event simulator's rows align with these)."""
    def rounds(nu):
        while True:
            aux = objective.stage1_full(nu)
            g = objective.stage2_full(nu, aux)
            yield consensus_error(aux, objective.xstar), np.linalg.norm(g)
            nu = nu - cfg.step_size * g
    return _run(graph, objective, cfg, "dd", rounds)


def run_admm(graph: Graph, objective: DistributedObjective, cfg: SyncConfig,
             initial_multipliers: np.ndarray | None = None) -> Trace:
    """Edge-based decentralized consensus ADMM with exact local solves.

    The config step size is the penalty parameter rho. Each node carries the
    accumulated multiplier of its incident edges; both updates touch only
    neighbor variables. Quadratic instances only.
    """
    def rounds(x):
        inst, n, rho, lay = objective.instance, graph.n, cfg.step_size, graph.layout
        # the neighbor sum as CSR: the layout rows without each node's own slot
        adj = sp.csr_array((np.ones(len(lay.cols) - n), np.delete(lay.cols, lay.own),
                            lay.indptr - np.arange(n + 1)), shape=(n, n))
        deg = np.asarray(graph.m, dtype=float)[:, None] - 1.0
        mult = (np.zeros(x.shape) if initial_multipliers is None
                else np.array(initial_multipliers, dtype=float))
        if mult.shape != x.shape:
            raise ValueError(f"initial_multipliers has shape {mult.shape}, not (n, p) = "
                             f"{x.shape}")
        while True:
            x = (rho * (deg * x + adj @ x) - mult - inst.b) / (inst.a + 2.0 * rho * deg)
            resid = deg * x - adj @ x
            mult = mult + rho * resid
            yield consensus_error(x, objective.xstar), np.linalg.norm(resid)
    return _run(graph, objective, cfg, "admm", rounds)
