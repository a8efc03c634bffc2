"""Experiment front-end: configs, batch runs, histograms, reproduction suites.

An ExperimentConfig checks itself strictly when it is built, from TOML text
(read with the standard library's ``tomllib``) or in code; a fault raises
ConfigError with its key's full path. Every run writes one CSV trace named
after its method, seed, and a hash of the canonical config serialization,
in the format ``sync_runtime`` writes and reads (its reader is re-exported).
"""

from __future__ import annotations

import hashlib
import math
import os
import tomllib
from dataclasses import dataclass, field

import numpy as np

from .async_sim import AsyncConfig, gen_clock_schedule, run_dbfgs_async, run_dd_async
from .netgraph import Graph, build_d_regular_cycle, build_weight_matrix
from .objectives import DistributedObjective, make_logistic, make_quadratic
from .sync_runtime import (METHOD_MODES, SyncConfig, Trace, read_trace_csv, run_admm,
                           run_dbfgs_sync, run_dd, run_dgd)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "HistogramResult",
    "RunResult",
    "parse_config",
    "run_experiment",
    "histogram_exchanges",
    "reproduce_paper_suite",
    "read_trace_csv",
    "PROFILES",
]

DEFAULT_SEEDS = tuple(range(20))


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the field path."""


# ---------------------------------------------------------------------------
# strict config reader/writer
# ---------------------------------------------------------------------------

_GT0, _GE0 = (">", 0), (">=", 0)

# The config format: each section's keys in the order to_text writes them,
# each with its type and lower bound (None or (">" or ">=", value)); a
# [methods] key is a method, its value the step size.
_FORMAT = {
    "topology": {"n": (int, None), "d": (int, None)},
    "problem": {"kind": (str, None), "p": (int, _GT0), "eta": (float, _GE0),
                "q": (int, (">=", 1)), "lam": (float, _GT0), "mu": (float, None),
                "sigma_pos": (float, _GE0), "sigma_neg": (float, _GE0)},
    "mode": {"kind": (str, None), "alpha": (float, _GT0)},
    "dbfgs": {"gamma": (float, _GT0), "big_gamma": (float, _GT0)},
    "run": {"iterations": (int, (">=", 1)), "seeds": (list, None),
            "error_threshold": (float, None), "stop_error": (float, None),
            "stop_grad_norm": (float, None)},
    "methods": {m: (float, _GT0) for m in METHOD_MODES},
    "async": {"mu_clk": (float, _GT0), "sigma_clk": (float, _GE0),
              "delta_msg": (float, _GE0), "horizon": (float, _GT0)},
}
# the ExperimentConfig field of each key not named like it
_FIELD = {("problem", "kind"): "problem_kind", ("mode", "kind"): "mode"}
# the fields with no default; from_text passes None for each one a text lacks
_REQUIRED = ("n", "d", "problem_kind", "p", "mode", "iterations", "seeds")

# the [problem] keys each problem kind requires; the other kind's are unknown
_PROBLEM_KEYS = {"quadratic": ("eta",),
                 "logistic": ("q", "lam", "mu", "sigma_pos", "sigma_neg")}


def _checked(path: str, val, kind, bound):
    """val as a ``kind``; ints pass as floats, booleans as nothing, and a
    float only if it is finite."""
    if kind is float and type(val) is int:
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected {kind.__name__}, "
                          f"got {type(val).__name__}")
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"{path}: must be finite, got {val!r}")
    if bound is not None and not (val > bound[1] if bound[0] == ">"
                                  else val >= bound[1]):
        raise ConfigError(f"{path}: must be {bound[0]} {bound[1]}, got {val!r}")
    return val


def _seeds(path: str, seeds) -> tuple:
    """seeds as a tuple, if a non-empty list (tuple, range) of distinct ints >= 0."""
    listed = isinstance(seeds, (list, tuple, range))
    if (not listed or not seeds or not all(type(s) is int and s >= 0 for s in seeds)
            or len(set(seeds)) < len(seeds)):
        raise ConfigError(f"{path}: expected a non-empty list of distinct non-negative "
                          f"integers, got {list(seeds) if listed else seeds!r}")
    return tuple(seeds)


def _toml(val) -> str:
    """A field's value as to_text writes it (str of a float is its repr)."""
    if isinstance(val, str):
        return f'"{val}"'
    return "[" + ", ".join(map(str, val)) + "]" if isinstance(val, tuple) else str(val)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Validated experiment description (one problem, several methods)."""

    n: int
    d: int
    problem_kind: str
    p: int
    eta: float | None = None
    q: int | None = None
    lam: float | None = None
    mu: float | None = None
    sigma_pos: float | None = None
    sigma_neg: float | None = None
    mode: str
    alpha: float | None = None
    gamma: float = 1e-2
    big_gamma: float = 1e-3
    iterations: int
    seeds: tuple
    methods: tuple  # of (name, step_size)
    error_threshold: float | None = None
    stop_error: float | None = None
    stop_grad_norm: float | None = None
    mu_clk: float | None = None
    sigma_clk: float | None = None
    delta_msg: float | None = None
    horizon: float | None = None

    @property
    def regime(self) -> str:
        """async exactly when the [async] section set the clock, else sync."""
        return "sync" if self.mu_clk is None else "async"

    def __post_init__(self):
        """Check every value rule; ints become floats, seeds and methods tuples."""
        for name, keys in _FORMAT.items():
            for key, (kind, bound) in keys.items() if name != "methods" else ():
                attr, path = _FIELD.get((name, key), key), f"{name}.{key}"
                if (val := getattr(self, attr)) is not None:
                    object.__setattr__(self, attr, _seeds(path, val) if kind is list
                                       else _checked(path, val, kind, bound))
                elif attr in _REQUIRED:
                    raise ConfigError(f"{path}: missing required key")
        methods = {}
        for method, step in self.methods:
            path = f"methods.{method}"
            if method not in _FORMAT["methods"]:
                raise ConfigError(f"{path}: unknown method")
            if method in methods:
                raise ConfigError(f"{path}: given more than once")
            methods[method] = _checked(path, step, *_FORMAT["methods"][method])
        if not methods:
            raise ConfigError("[methods]: no method given")
        object.__setattr__(self, "methods", tuple(methods.items()))
        n, d, kind, mode = self.n, self.d, self.problem_kind, self.mode
        if not 0 < d < n or d % 2:
            raise ConfigError(f"topology.d: must be even, > 0 and < n = {n}, got {d}")
        if kind not in _PROBLEM_KEYS:
            raise ConfigError(f"problem.kind: unknown problem {kind!r}")
        for key in (*_PROBLEM_KEYS["quadratic"], *_PROBLEM_KEYS["logistic"]):
            needed = key in _PROBLEM_KEYS[kind]
            if (getattr(self, key) is None) == needed:
                raise ConfigError(f"problem.{key}: "
                                  f"{'missing required' if needed else 'unknown'} key")
        if kind == "quadratic" and self.p % 2:
            raise ConfigError(f"problem.p: must be even for a quadratic, got {self.p}")
        if mode not in ("primal", "dual"):
            raise ConfigError(f"mode.kind: unknown mode {mode!r}")
        if mode == "dual" and kind != "quadratic":
            raise ConfigError(f"mode.kind: dual mode needs a quadratic problem, "
                              f"got {kind!r}")
        if (self.alpha is None) == (mode == "primal"):
            raise ConfigError("mode.alpha: " + ("missing required key" if mode == "primal"
                                                else "primal mode only"))
        if any(getattr(self, key) is not None for key in _FORMAT["async"]):
            for key in ("mu_clk", "sigma_clk"):
                if getattr(self, key) is None:
                    raise ConfigError(f"async.{key}: missing required key")
            if self.delta_msg is None:
                object.__setattr__(self, "delta_msg", 0.0)
        for method in methods:
            if mode not in METHOD_MODES[method]:
                raise ConfigError(f"methods.{method}: runs in "
                                  f"{' or '.join(METHOD_MODES[method])} mode only, "
                                  f"not {mode}")
            if self.regime == "async" and method not in ("dbfgs", "dd"):
                raise ConfigError(f"methods.{method}: async runs dbfgs and dd only")

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        try:
            sections = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML: {exc}") from None
        for name, sec in sections.items():  # TOML puts top-level keys first
            if not isinstance(sec, dict):
                raise ConfigError(f"{name}: key outside of any section")
            if name not in _FORMAT:
                raise ConfigError(f"[{name}]: unknown section")
            if not sec:
                raise ConfigError(f"[{name}]: empty section")
            for key in sec if name != "methods" else ():  # methods: checked when built
                if key not in _FORMAT[name]:
                    raise ConfigError(f"{name}.{key}: unknown key")
        fields = {_FIELD.get((name, key), key): val for name, sec in sections.items()
                  if name != "methods" for key, val in sec.items()}
        return cls(**(dict.fromkeys(_REQUIRED) | fields),
                   methods=tuple(sections.get("methods", {}).items()))

    def to_text(self) -> str:
        blocks = []
        for name, keys in _FORMAT.items():
            pairs = self.methods if name == "methods" else [
                (key, getattr(self, _FIELD.get((name, key), key))) for key in keys]
            lines = [f"{key} = {_toml(val)}" for key, val in pairs if val is not None]
            if lines:
                blocks.append("\n".join([f"[{name}]", *lines]))
        return "\n\n".join(blocks) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:10]


def parse_config(text: str) -> ExperimentConfig:
    return ExperimentConfig.from_text(text)


# ---------------------------------------------------------------------------
# batch execution
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    method: str
    seed: int
    trace: Trace
    csv_path: str | None


def _setup(cfg: ExperimentConfig, seed: int, graph: Graph, weights):
    """One seed's objective and, in the async regime, clock schedule; every
    method of the seed runs on them."""
    if cfg.problem_kind == "quadratic":
        instance = make_quadratic(cfg.n, cfg.p, cfg.eta, seed)
    else:
        instance = make_logistic(cfg.n, cfg.p, cfg.q, cfg.lam, cfg.mu,
                                 cfg.sigma_pos, cfg.sigma_neg, seed)
    objective = DistributedObjective(instance, graph, weights, cfg.mode,
                                     alpha=cfg.alpha)
    if cfg.regime != "async":
        return objective, None
    horizon = (cfg.horizon if cfg.horizon is not None
               else cfg.mu_clk * (cfg.iterations + 30))
    return objective, gen_clock_schedule(cfg.n, cfg.mu_clk, cfg.sigma_clk,
                                         horizon, seed)


def _dispatch(cfg: ExperimentConfig, method: str, step: float, seed: int,
              graph: Graph, objective: DistributedObjective, schedule) -> Trace:
    common = dict(mode=cfg.mode, step_size=step, max_iters=cfg.iterations,
                  gamma=cfg.gamma, big_gamma=cfg.big_gamma, seed=seed,
                  stop_error=cfg.stop_error, stop_grad_norm=cfg.stop_grad_norm)
    if cfg.regime == "async":
        acfg = AsyncConfig(method=method, delta_msg=cfg.delta_msg, **common)
        runner = run_dbfgs_async if method == "dbfgs" else run_dd_async
        return runner(graph, objective, acfg, schedule)
    scfg = SyncConfig(method=method, **common)
    runner = {"dbfgs": run_dbfgs_sync, "dgd": run_dgd, "dd": run_dd,
              "admm": run_admm}[method]
    return runner(graph, objective, scfg)


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file and os.replace, so a reader never
    sees a partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def run_experiment(cfg: ExperimentConfig, outdir: str | None = None):
    """Run every (method, seed) pair; write one CSV per run plus a summary.

    Each seed's instance, objective (with its optimum) and schedule are
    built once and shared by every method. Divergence is recorded in the
    run status, never fatal to the batch. Returns the list of RunResult.
    """
    graph = build_d_regular_cycle(cfg.n, cfg.d)
    weights = build_weight_matrix(graph, cfg.d)
    setups = {seed: _setup(cfg, seed, graph, weights) for seed in cfg.seeds}
    tag = cfg.config_hash()
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
    results = []
    for method, step in cfg.methods:
        for seed in cfg.seeds:
            trace = _dispatch(cfg, method, step, seed, graph, *setups[seed])
            path = None
            if outdir is not None:
                path = os.path.join(outdir, f"{method}_{cfg.mode}_s{seed}_{tag}.csv")
                _write_atomic(path, trace.to_csv())
            results.append(RunResult(method=method, seed=seed, trace=trace,
                                     csv_path=path))
    if outdir is not None:
        _write_atomic(os.path.join(outdir, f"summary_{tag}.txt"),
                      summarize_runs(cfg, results))
    return results


def summarize_runs(cfg: ExperimentConfig, results) -> str:
    lines = [f"config {cfg.config_hash()}"]
    for r in results:
        final = r.trace.error[-1] if r.trace.error else float("nan")
        line = (f"{r.method} seed={r.seed} status={r.trace.status} "
                f"final_error={final:.6e}")
        if cfg.error_threshold is not None:
            exch, reached = _exchanges_to_threshold(r.trace, cfg.error_threshold)
            line += f" exchanges_to_threshold={exch if reached else 'censored'}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def _exchanges_to_threshold(trace: Trace, threshold: float):
    """(exchanges, reached): the first cumulative exchange count at which the
    trace's error is at most the threshold, reached True; for a run that
    never reaches it (a censored run), its last exchange count (0 with no
    rows), reached False."""
    hits = np.nonzero(np.asarray(trace.error) <= threshold)[0]
    if len(hits):
        return int(trace.exchanges[hits[0]]), True
    return (int(trace.exchanges[-1]) if trace.exchanges else 0), False


@dataclass
class HistogramResult:
    """Exchanges-to-threshold per method: one (exchanges, reached) pair per
    run, in trace order."""

    threshold: float
    runs: dict = field(default_factory=dict)  # method -> list of (int, bool)

    def quantile(self, method: str, q: float):
        """np.quantile's linear rule over all the method's runs, censored ones
        ranked above every reached value; None when the result needs a
        censored run."""
        runs = self.runs.get(method, [])
        reached = sorted(exch for exch, ok in runs if ok)
        if not reached or math.ceil(q * (len(runs) - 1)) >= len(reached):
            return None
        # np.quantile reads no rank past the reached values, so each censored
        # run may stand in as the largest of them
        return float(np.quantile(reached + reached[-1:] * (len(runs) - len(reached)), q))


def histogram_exchanges(traces, threshold: float) -> HistogramResult:
    """Each trace's (exchanges, reached) pair for the threshold error, grouped
    by method."""
    out = HistogramResult(threshold=threshold)
    for trace in traces:
        out.runs.setdefault(trace.method, []).append(
            _exchanges_to_threshold(trace, threshold))
    return out


# ---------------------------------------------------------------------------
# reproduction profiles
# ---------------------------------------------------------------------------


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _median_err_at(results, method: str, iteration: int) -> float:
    vals = [r.trace.error_at(iteration) for r in results if r.method == method]
    return float(np.median(vals))


def _quad_config(n, eta, mode, methods, iterations, seeds, **fields):
    """A profile's quadratic config on the 4-regular cycle, p = 4."""
    return ExperimentConfig(n=n, d=4, problem_kind="quadratic", p=4, eta=eta, mode=mode,
                            methods=methods, iterations=iterations, seeds=seeds, **fields)


def _profile_fig2(seeds, outdir):
    cfg = _quad_config(50, 2.0, "dual",
                       [("dbfgs", 0.01), ("admm", 0.002), ("dd", 0.002)],
                       200, seeds)
    res = run_experiment(cfg, outdir)
    m_db = _median_err_at(res, "dbfgs", 200)
    m_ad = _median_err_at(res, "admm", 200)
    m_dd = _median_err_at(res, "dd", 200)
    return [
        CriterionResult("fig2.dbfgs_error_at_200", m_db <= 1e-2,
                        f"median {m_db:.3e} (need <= 1e-2; reported 3e-4)"),
        CriterionResult("fig2.ordering", m_db < m_ad < m_dd,
                        f"dbfgs {m_db:.3e} < admm {m_ad:.3e} < dd {m_dd:.3e}"),
    ]


def _ratio_criteria(fig, mode, threshold, fast, slow, budgets, cases, seeds,
                    outdir, alpha=None):
    """One criterion per (eta, label, need, note) case: the slow/fast ratio
    of median exchanges to the threshold is at least ``need``. Each method
    runs alone with its own (iterations, step) budget. Medians count the
    censored runs; a censored fast median fails, and a censored slow median
    is bounded below by counting each censored run at its last exchange
    count, its budget unless it stopped early."""
    results = []
    for eta, label, need, note in cases:
        traces = {}
        for name in (fast, slow):
            iters, step = budgets[name]
            cfg = _quad_config(
                50 if mode == "dual" else 100, eta, mode, [(name, step)],
                iters, seeds, alpha=alpha, error_threshold=threshold,
                stop_error=threshold)
            traces[name] = [r.trace for r in run_experiment(cfg, outdir)]
        hist = histogram_exchanges(traces[fast] + traces[slow], threshold)
        reached = ", ".join(f"{m} reached {sum(ok for _, ok in hist.runs[m])} of "
                            f"{len(hist.runs[m])}" for m in (fast, slow))
        med_fast, med_slow = hist.quantile(fast, 0.5), hist.quantile(slow, 0.5)
        bound = ""
        if med_slow is None:  # a censored run needs more than its last count
            med_slow = float(np.median([exch for exch, _ in hist.runs[slow]]))
            bound = ">= "
        if med_fast is None:
            passed, detail = False, f"{fast} median censored, no ratio"
        else:
            ratio = med_slow / med_fast
            passed, detail = ratio >= need, (f"{slow}/{fast} median exchange ratio "
                                             f"{bound}{ratio:.2f}")
        results.append(CriterionResult(f"{fig}.ratio_{label}", passed,
                                       f"{detail} ({reached}; {note})"))
    return results


def _profile_fig3(seeds, outdir):
    return _ratio_criteria(
        "fig3", "dual", 1e-2, "dbfgs", "admm",
        {"dbfgs": (3000, 0.01), "admm": (20000, 0.002)},
        ((0.0, "cond1", 1.5, "need >= 1.5"), (2.0, "cond100", 5.0, "need >= 5.0")),
        seeds, outdir)


def _profile_fig4(seeds, outdir):
    cfg = _quad_config(100, 2.0, "primal",
                       [("dbfgs", 0.3), ("dgd", 1.0)], 200, seeds, alpha=1e-3)
    res = run_experiment(cfg, outdir)
    m_db = _median_err_at(res, "dbfgs", 100)
    m_dgd = _median_err_at(res, "dgd", 200)
    return [
        CriterionResult("fig4.dbfgs_error_at_100", m_db <= 0.05,
                        f"median {m_db:.3e} (need <= 0.05; reported 0.015)"),
        CriterionResult("fig4.dgd_error_at_200", 0.05 <= m_dgd <= 1.0,
                        f"median {m_dgd:.3e} (need within [0.05, 1.0]; reported 0.32)"),
    ]


def _profile_fig5(seeds, outdir):
    note = "need >= 3; reported ~5"
    return _ratio_criteria(
        "fig5", "primal", 1.9e-2, "dbfgs", "dgd",
        {"dbfgs": (800, 0.3), "dgd": (10000, 1.0)},
        ((0.0, "cond1", 3.0, note), (2.0, "cond100", 3.0, note)),
        seeds, outdir, alpha=1e-3)


def _profile_fig6(seeds, outdir):
    medians = {}
    for sigma in (0.1, 0.3):
        cfg = _quad_config(
            50, 1.0, "dual", [("dbfgs", 0.01), ("dd", 0.002)], 200, seeds,
            gamma=0.1, big_gamma=0.1, mu_clk=1.0, sigma_clk=sigma,
            delta_msg=0.0, horizon=235.0)
        res = run_experiment(cfg, outdir)
        medians[sigma] = {m: _median_err_at(res, m, 200) for m in ("dbfgs", "dd")}
    db1, dd1 = medians[0.1]["dbfgs"], medians[0.1]["dd"]
    db3 = medians[0.3]["dbfgs"]
    factor = max(db1, db3) / min(db1, db3)
    return [
        CriterionResult("fig6.dbfgs_error_at_200", db1 <= 1e-2,
                        f"median {db1:.3e} (need <= 1e-2; reported 2.4e-3)"),
        CriterionResult("fig6.dbfgs_vs_dd", db1 <= dd1 / 5.0,
                        f"dbfgs {db1:.3e} vs dd/5 {dd1 / 5.0:.3e} (reported ratio ~21)"),
        CriterionResult("fig6.sigma_insensitivity", factor < 2.0,
                        f"sigma 0.1 vs 0.3 error factor {factor:.2f} (need < 2)"),
    ]


def _profile_fig7(seeds, outdir):
    cfg = ExperimentConfig(
        n=100, d=4, problem_kind="logistic", p=4, q=100, lam=1e-4, mu=3.0,
        sigma_pos=1.0, sigma_neg=1.0, mode="primal", alpha=1e-3, gamma=0.1,
        big_gamma=0.1, methods=(("dbfgs", 0.3), ("dgd", 1.0)), iterations=200,
        seeds=seeds)
    res = run_experiment(cfg, outdir)
    g_db = float(np.median([r.trace.grad_norm[-1] for r in res
                            if r.method == "dbfgs"]))
    g_dgd = float(np.median([r.trace.grad_norm[-1] for r in res
                             if r.method == "dgd"]))
    return [
        CriterionResult("fig7.dbfgs_grad_norm_at_200", g_db <= 1e-4,
                        f"median {g_db:.3e} (need <= 1e-4; reported 1.3e-6)"),
        CriterionResult("fig7.dbfgs_below_dgd", g_db < g_dgd,
                        f"dbfgs {g_db:.3e} < dgd {g_dgd:.3e} (reported 9.1e-5)"),
    ]


PROFILES = {
    "fig2": _profile_fig2,
    "fig3": _profile_fig3,
    "fig4": _profile_fig4,
    "fig5": _profile_fig5,
    "fig6": _profile_fig6,
    "fig7-logistic": _profile_fig7,
}


def reproduce_paper_suite(profile: str, seeds=None, outdir: str | None = None):
    """Run a scaled reproduction profile and check its criteria.

    Returns (all_passed, list of CriterionResult).
    """
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from "
                          f"{sorted(PROFILES)}")
    seeds = DEFAULT_SEEDS if seeds is None else _seeds("seeds", seeds)
    results = PROFILES[profile](seeds, outdir)
    return all(r.passed for r in results), results
