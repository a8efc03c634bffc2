"""Process time per trace row of two checkouts, measured alternately.

Usage, from anywhere:

    python tools/row_timing.py PARENT CHANGE [--rounds 8]

PARENT and CHANGE are checkout roots; each one's ``dbfgs`` is imported from
its ``src``. Every round runs one worker process per checkout, parent first
in even rounds and change first in odd ones, so slow phases of a shared
host fall on both alike. BLAS runs on one thread.

Cases, each on instance and clock seeds 0-2, with instances, objectives and
schedules built outside the timed call:

- ``fig6-dbfgs`` and ``fig6-dd``: ``run_dbfgs_async`` and ``run_dd_async``
  in the fig6 regime (n=50, 4-regular ring, quadratic eta=1 p=4, dual,
  mu_clk 1, sigma_clk 0.1, delta_msg 0, horizon 235, 200 iterations,
  gamma = Gamma = 0.1, steps 0.01 and 0.002);
- ``n1000-dbfgs`` and ``n1000-dd``: the same at n=1000 and horizon 3, where
  a plan slice holds hundreds of rows;
- ``fig3-dbfgs-sync``: ``run_dbfgs_sync`` in fig3's regime (n=50, dual,
  eta 0, step 0.01, gamma 1e-2, Gamma 1e-3, stop at error 1e-2, at most
  3000 rounds).

A worker times each (case, seed) ``REPEATS`` times with
``time.process_time`` and keeps the fastest; its value for a case is the
median over the seeds of that time over the trace's row count, in us.
Before it times a (case, seed), it counts the run's kernel passes in one
untimed run: the ``RoundKernel.dbfgs_round`` calls of D-BFGS, and for DD
the ``stage1_block`` calls of its gradient stage (not those of the trace's
record, made from ``_stage``), one per level, or per window in a checkout
that runs windows, on the ring; and the run's ``tracemalloc`` peak, in MB,
in one more untimed run.

Standard output is one JSON object: per case and checkout the per-round
values, their median and quartiles, the number of rounds in which CHANGE
was faster, and the kernel passes and tracemalloc peak of each seed's run.
Each round's values go to standard error as it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

SEEDS = (0, 1, 2)
REPEATS = 3
CASES = ("fig6-dbfgs", "fig6-dd", "n1000-dbfgs", "n1000-dd", "fig3-dbfgs-sync")


def passes(call, method: str) -> int:
    """The kernel passes of one run of ``call``."""
    from dbfgs._kernel import RoundKernel
    from dbfgs.objectives import DistributedObjective

    owner, name = ((RoundKernel, "dbfgs_round") if method == "dbfgs"
                   else (DistributedObjective, "stage1_block"))
    method_fn, count = getattr(owner, name), [0]

    def counted(*args, **kwargs):
        count[0] += sys._getframe(1).f_code.co_name != "_stage"
        return method_fn(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        call()
    finally:
        setattr(owner, name, method_fn)
    return count[0]


def peak_mb(call) -> float:
    """The tracemalloc peak of one run of ``call``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def worker() -> dict:
    """Per case, the median over seeds of the fastest us per row, and the
    kernel passes and tracemalloc peak of each seed's run."""
    from dbfgs.async_sim import (AsyncConfig, gen_clock_schedule, run_dbfgs_async,
                                 run_dd_async)
    from dbfgs.netgraph import build_d_regular_cycle, build_weight_matrix
    from dbfgs.objectives import DistributedObjective, make_quadratic
    from dbfgs.sync_runtime import SyncConfig, run_dbfgs_sync

    graph = build_d_regular_cycle(50, 4)
    weights = build_weight_matrix(graph, 4)

    def fig6(runner, method, step, n=50, horizon=235.0):
        ring = build_d_regular_cycle(n, 4)
        ring_weights = build_weight_matrix(ring, 4)

        def run(seed):
            obj = DistributedObjective(make_quadratic(n, 4, 1.0, seed), ring,
                                       ring_weights, "dual")
            sched = gen_clock_schedule(n, 1.0, 0.1, horizon, seed)
            cfg = AsyncConfig(method=method, mode="dual", step_size=step,
                              max_iters=200, gamma=0.1, big_gamma=0.1, seed=seed)
            return lambda: runner(ring, obj, cfg, sched)
        return run

    def fig3(seed):
        obj = DistributedObjective(make_quadratic(50, 4, 0.0, seed), graph,
                                   weights, "dual")
        cfg = SyncConfig(method="dbfgs", mode="dual", step_size=0.01, max_iters=3000,
                         gamma=1e-2, big_gamma=1e-3, seed=seed, stop_error=1e-2)
        return lambda: run_dbfgs_sync(graph, obj, cfg)

    cases = {"fig6-dbfgs": fig6(run_dbfgs_async, "dbfgs", 0.01),
             "fig6-dd": fig6(run_dd_async, "dd", 0.002),
             "n1000-dbfgs": fig6(run_dbfgs_async, "dbfgs", 0.01, 1000, 3.0),
             "n1000-dd": fig6(run_dd_async, "dd", 0.002, 1000, 3.0),
             "fig3-dbfgs-sync": fig3}
    out = {"us_per_row": {}, "passes": {}, "peak_mb": {}}
    for name in CASES:
        per_seed, out["passes"][name], out["peak_mb"][name] = [], [], []
        for seed in SEEDS:
            call = cases[name](seed)
            out["passes"][name].append(passes(call, name.split("-")[1]))
            out["peak_mb"][name].append(peak_mb(call))
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.process_time()
                trace = call()
                best = min(best, (time.process_time() - t0) / len(trace.error))
            per_seed.append(best * 1e6)
        out["us_per_row"][name] = statistics.median(per_seed)
    return out


def measure(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--worker"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0
    if args.parent is None or args.change is None or args.rounds < 2:
        ap.error("give two checkouts and at least 2 rounds")
    runs = {"parent": [], "change": []}
    for rnd in range(args.rounds):
        order = ("parent", "change") if rnd % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(measure(getattr(args, side)))
        print(f"round {rnd}: " + json.dumps({s: runs[s][-1] for s in order}),
              file=sys.stderr)
    out = {"unit": "us/row", "rounds": args.rounds, "repeats": REPEATS,
           "seeds": list(SEEDS), "cases": {}}
    for name in CASES:
        parent = [r["us_per_row"][name] for r in runs["parent"]]
        change = [r["us_per_row"][name] for r in runs["change"]]
        out["cases"][name] = {
            "parent": summary(parent), "change": summary(change),
            "parent_runs": parent, "change_runs": change,
            "change_faster_rounds": sum(c < p for p, c in zip(parent, change)),
            "parent_passes": runs["parent"][0]["passes"][name],
            "change_passes": runs["change"][0]["passes"][name],
            "parent_peak_mb": runs["parent"][0]["peak_mb"][name],
            "change_peak_mb": runs["change"][0]["peak_mb"][name]}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
