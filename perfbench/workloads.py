"""The benchmark's workloads: inputs built from a seed, runs, expected rows.

Each workload is a closed loop on one thread: a pass builds the inputs of
one instance seed (``setup``) and solves them (``solve``), and the next
pass starts when the previous one has finished. A run cycles its passes
through a few instance seeds; every pass of one instance seed must write
byte-identical CSV traces.

Why these three:

- sync-dual-n1000: the stacked round kernel is flop-bound at n = 1000;
  ``descent`` and ``bfgs_all`` dominate and the dense ``W @ var`` follows.
  It bypasses ``curvature`` and ``async_sim``.
- async-dual-n400: continuous clocks give singleton event batches, so each
  event takes the per-node Python path (``curvature``, mailboxes, the
  O(n^2) per-event record); ``_kernel`` runs once. DD runs on the same
  schedule so a change to the shared event machinery shows on both.
- primal-logistic-n100: ``harness.run_experiment`` end to end at small n,
  where per-call overhead matters more than flops, with the logistic
  Newton optimum and gradient as visible set-up and per-round costs.

Passes are kept short (a fraction of a second) because the host's other
tenants slow the CPU in bursts of about a second; short passes let some of
them run undisturbed.
"""

from __future__ import annotations

from dataclasses import dataclass

# Sizes per scale: "full" is the benchmark, "tiny" the smoke test.
SIZES = {
    "sync-dual-n1000": {"full": {"n": 1000, "rounds": 8},
                        "tiny": {"n": 30, "rounds": 5}},
    "async-dual-n400": {"full": {"n": 400, "horizon": 1.5},
                        "tiny": {"n": 20, "horizon": 3.0}},
    "primal-logistic-n100": {"full": {"n": 100, "q": 100, "rounds": 20},
                             "tiny": {"n": 20, "q": 10, "rounds": 5}},
}


@dataclass
class Run:
    """One (method, seed) runner call and what it produced."""

    method: str
    seed: int
    trace: object = None
    csv: bytes = b""
    error: str = ""
    expected_rows: int = 0


def _call(run: Run, fn, *args):
    """Run one method; an exception fails this run, not the pass."""
    try:
        run.trace = fn(*args)
    except Exception as exc:  # recorded as a failed run
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def _write_csv(run: Run, outdir) -> None:
    if run.trace is None:
        return
    run.csv = run.trace.to_csv().encode()
    (outdir / f"{run.method}_s{run.seed}.csv").write_bytes(run.csv)


def _quadratic_setup(dbfgs, config_text: str, seed: int) -> dict:
    cfg = dbfgs.harness.parse_config(config_text)
    graph = dbfgs.netgraph.build_d_regular_cycle(cfg.n, cfg.d)
    weights = dbfgs.netgraph.build_weight_matrix(graph, cfg.d)
    inst = dbfgs.objectives.make_quadratic(cfg.n, cfg.p, cfg.eta, seed)
    obj = dbfgs.objectives.DistributedObjective(inst, graph, weights, cfg.mode)
    return {"cfg": cfg, "graph": graph, "objective": obj, "seed": seed}


class SyncDual:
    """fig2 settings at n = 1000: D-BFGS, ADMM and DD, fixed rounds."""

    name = "sync-dual-n1000"

    def config_text(self, seed: int, size: dict) -> str:
        return f"""
[topology]
n = {size["n"]}
d = 4
[problem]
kind = "quadratic"
p = 4
eta = 2.0
[mode]
kind = "dual"
[dbfgs]
gamma = 0.01
big_gamma = 0.001
[run]
iterations = {size["rounds"]}
seeds = [{seed}]
[methods]
dbfgs = 0.01
admm = 0.002
dd = 0.002
"""

    def setup(self, dbfgs, seed: int, size: dict) -> dict:
        return _quadratic_setup(dbfgs, self.config_text(seed, size), seed)

    def solve(self, dbfgs, inputs: dict, outdir) -> list:
        cfg, seed = inputs["cfg"], inputs["seed"]
        sync = dbfgs.sync_runtime
        runners = {"dbfgs": sync.run_dbfgs_sync, "admm": sync.run_admm,
                   "dd": sync.run_dd}
        runs = []
        for method, step in cfg.methods:
            scfg = sync.SyncConfig(method=method, mode=cfg.mode, step_size=step,
                                   max_iters=cfg.iterations, gamma=cfg.gamma,
                                   big_gamma=cfg.big_gamma, seed=seed)
            run = _call(Run(method, seed), runners[method],
                        inputs["graph"], inputs["objective"], scfg)
            _write_csv(run, outdir)
            runs.append(run)
        return runs

    def expected_rows(self, dbfgs, inputs: dict) -> int:
        return inputs["cfg"].iterations


class AsyncDual:
    """fig6 settings at n = 400: D-BFGS and DD on one clock schedule."""

    name = "async-dual-n400"

    def config_text(self, seed: int, size: dict) -> str:
        return f"""
[topology]
n = {size["n"]}
d = 4
[problem]
kind = "quadratic"
p = 4
eta = 1.0
[mode]
kind = "dual"
[dbfgs]
gamma = 0.1
big_gamma = 0.1
[run]
iterations = 200
seeds = [{seed}]
[methods]
dbfgs = 0.01
dd = 0.002
[async]
mu_clk = 1.0
sigma_clk = 0.1
delta_msg = 0.0
horizon = {size["horizon"]!r}
"""

    def setup(self, dbfgs, seed: int, size: dict) -> dict:
        inputs = _quadratic_setup(dbfgs, self.config_text(seed, size), seed)
        cfg = inputs["cfg"]
        inputs["schedule"] = dbfgs.async_sim.gen_clock_schedule(
            cfg.n, cfg.mu_clk, cfg.sigma_clk, cfg.horizon, seed)
        return inputs

    def solve(self, dbfgs, inputs: dict, outdir) -> list:
        cfg, seed, schedule = inputs["cfg"], inputs["seed"], inputs["schedule"]
        sim = dbfgs.async_sim
        runners = {"dbfgs": sim.run_dbfgs_async, "dd": sim.run_dd_async}
        runs = []
        for method, step in cfg.methods:
            acfg = sim.AsyncConfig(method=method, mode=cfg.mode, step_size=step,
                                   max_iters=cfg.iterations, gamma=cfg.gamma,
                                   big_gamma=cfg.big_gamma, seed=seed,
                                   delta_msg=cfg.delta_msg)
            run = _call(Run(method, seed), runners[method],
                        inputs["graph"], inputs["objective"], acfg, schedule)
            _write_csv(run, outdir)
            runs.append(run)
        return runs

    def expected_rows(self, dbfgs, inputs: dict) -> int:
        # the first batch only initializes; every later batch is one row
        queue = dbfgs.async_sim.EventQueue(inputs["schedule"])
        return sum(1 for _ in queue.batches()) - 1


class PrimalLogistic:
    """fig7 problem at n = 100 through harness.run_experiment."""

    name = "primal-logistic-n100"

    def config_text(self, seed: int, size: dict) -> str:
        return f"""
[topology]
n = {size["n"]}
d = 4
[problem]
kind = "logistic"
p = 4
q = {size["q"]}
lam = 0.0001
mu = 3.0
sigma_pos = 1.0
sigma_neg = 1.0
[mode]
kind = "primal"
alpha = 0.001
[dbfgs]
gamma = 0.1
big_gamma = 0.1
[run]
iterations = {size["rounds"]}
seeds = [{seed}]
[methods]
dbfgs = 0.3
dgd = 1.0
"""

    def setup(self, dbfgs, seed: int, size: dict) -> dict:
        return {"cfg": dbfgs.harness.parse_config(self.config_text(seed, size))}

    def solve(self, dbfgs, inputs: dict, outdir) -> list:
        cfg = inputs["cfg"]
        try:
            results = dbfgs.harness.run_experiment(cfg, str(outdir))
        except Exception as exc:  # every run of the batch fails
            return [Run(method, s, error=f"{type(exc).__name__}: {exc}")
                    for method, _ in cfg.methods for s in cfg.seeds]
        runs = []
        for res in results:
            with open(res.csv_path, "rb") as fh:
                runs.append(Run(res.method, res.seed, res.trace, fh.read()))
        return runs

    def expected_rows(self, dbfgs, inputs: dict) -> int:
        return inputs["cfg"].iterations


WORKLOADS = {wl.name: wl for wl in (SyncDual(), AsyncDual(), PrimalLogistic())}
