"""Golden traces: the SHA-256 of every run of a fixed matrix of runs.

A characterization test. A change that must not move a single bit of any
trace (a speed-up, a refactor) keeps every hash in ``golden.json``. A change
that moves bits on purpose regenerates the file and says so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The hashes pin this machine's floating point: numpy, scipy and the BLAS
each of them links. ``golden.json`` keeps that record; on a machine whose
record differs the test fails and names the fields that differ.

The matrix runs every engine of the event simulator (D-BFGS physical and
virtual, DD, primal D-BFGS physical and virtual, primal D-BFGS on a
logistic instance) on a 4-regular ring and on an irregular graph with
Metropolis weights, with clock drift sigma 0 and 0.3 and message delay 0
and 0.5, each without a stop rule, with a stop on the error reached
mid-run, and with an iteration cap. A run on a 0.5 time grid with delay
0.5 makes a node's own descent chunk and an earlier event's chunk arrive
at the same time. Every synchronous method runs on both graphs too, and
synchronous primal D-BFGS and DGD also run a logistic instance in fig7's
regime, whose error pins the Newton optimum's bits.

Every run of the six reproduction profiles at 20 seeds is hashed too,
keyed by the CSV name ``run_experiment`` gives it. The session fixture
``profile_runs`` (``conftest.py``) runs each profile once, for these
hashes and for the acceptance criteria alike.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from dbfgs import harness
from dbfgs.async_sim import (AsyncConfig, ClockSchedule, gen_clock_schedule,
                             run_dbfgs_async, run_dd_async, virtual_replay)
from dbfgs.netgraph import Graph, build_d_regular_cycle, build_weight_matrix
from dbfgs.objectives import DistributedObjective, make_logistic, make_quadratic
from dbfgs.sync_runtime import (SyncConfig, run_admm, run_dbfgs_sync, run_dd,
                                run_dgd)
from oracles import metropolis_weights

GOLDEN = Path(__file__).with_name("golden.json")
COMMAND = "PYTHONPATH=src python tests/test_golden.py"
HORIZON = 12.0
PROFILE_SEEDS = tuple(range(20))

# engine -> (runner, method, mode, step size, problem)
ASYNC_ENGINES = {
    "physical": (run_dbfgs_async, "dbfgs", "dual", 0.05, "quadratic"),
    "virtual": (virtual_replay, "dbfgs", "dual", 0.05, "quadratic"),
    "dd": (run_dd_async, "dd", "dual", 0.002, "quadratic"),
    "primal": (run_dbfgs_async, "dbfgs", "primal", 0.1, "quadratic"),
    "primal-virtual": (virtual_replay, "dbfgs", "primal", 0.1, "quadratic"),
    "logistic": (run_dbfgs_async, "dbfgs", "primal", 0.3, "logistic"),
}
# name -> (runner, method, mode, step size, problem)
SYNC_METHODS = {
    "dbfgs-dual": (run_dbfgs_sync, "dbfgs", "dual", 0.05, "quadratic"),
    "dbfgs-primal": (run_dbfgs_sync, "dbfgs", "primal", 0.1, "quadratic"),
    "dgd": (run_dgd, "dgd", "primal", 0.1, "quadratic"),
    "dd": (run_dd, "dd", "dual", 0.002, "quadratic"),
    "admm": (run_admm, "admm", "dual", 1.0, "quadratic"),
    "dbfgs-fig7": (run_dbfgs_sync, "dbfgs", "primal", 0.3, "fig7"),
    "dgd-fig7": (run_dgd, "dgd", "primal", 1.0, "fig7"),
}
# problem -> (penalty alpha, gamma, big gamma) of the synchronous runs
SYNC_SETTINGS = {"quadratic": (0.1, 1e-2, 1e-3), "fig7": (1e-3, 0.1, 0.1)}


def machine() -> dict:
    """The versions that fix the bits: numpy, scipy and each one's BLAS."""
    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts"))}


def graphs() -> dict:
    """A 4-regular ring of 20 nodes and an irregular graph of 24 nodes (a
    random tree plus chords) with Metropolis weights."""
    ring = build_d_regular_cycle(20, 4)
    rng = np.random.default_rng(5)
    n = 24
    edges = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False))))
              for _ in range(10)}
    irregular = Graph.from_edges(n, sorted(edges))
    return {"ring": (ring, build_weight_matrix(ring, 4)),
            "metropolis": (irregular, metropolis_weights(irregular))}


def objective(graph, weights, mode: str, problem: str,
              alpha: float = 0.1) -> DistributedObjective:
    """A quadratic, a logistic instance, or a logistic instance in fig7's
    regime (lam 1e-4, where the Newton optimum takes the most steps)."""
    if problem == "logistic":
        inst = make_logistic(graph.n, 4, 10, 1e-2, 3.0, 1.0, 1.0, 11)
    elif problem == "fig7":
        inst = make_logistic(graph.n, 4, 10, 1e-4, 3.0, 1.0, 1.0, 11)
    else:
        inst = make_quadratic(graph.n, 4, 1.0, 7)
    return DistributedObjective(inst, graph, weights, mode,
                                alpha=alpha if mode == "primal" else None)


def schedule(n: int, sigma: float, grid: float | None) -> ClockSchedule:
    sched = gen_clock_schedule(n, 1.0, sigma, HORIZON, 3)
    if grid is None:
        return sched
    return ClockSchedule(times=tuple(np.unique(np.round(t / grid) * grid)
                                     for t in sched.times))


def event_log_bytes(log) -> bytes:
    """The event log's columns as fixed-width arrays: time, node,
    local_iter, and the (events, p) block of each event's own block."""
    time, node, local_iter, block = log
    return b"".join(np.ascontiguousarray(col, dtype=dt).tobytes() for col, dt in
                    ((time, np.float64), (node, np.int64),
                     (local_iter, np.int64), (block, np.float64)))


def digest(trace) -> dict:
    out = {"csv": hashlib.sha256(trace.to_csv().encode()).hexdigest(),
           "status": trace.status}
    if trace.event_log is not None:
        out["event_log"] = hashlib.sha256(event_log_bytes(trace.event_log)).hexdigest()
    return out


def with_stops(run) -> dict:
    """``run(**stop)`` without a stop rule, with a stop at the error of the
    full run's middle row, and with an iteration cap."""
    full = run()
    mid = full.error[len(full.error) // 2]
    return {"none": full, "error": run(stop_error=mid), "iterations": run(max_iters=6)}


def async_runs():
    for gname, (g, w) in graphs().items():
        for engine, (runner, method, mode, step, problem) in ASYNC_ENGINES.items():
            obj = objective(g, w, mode, problem)
            cases = [(sigma, delta, None) for sigma in (0.0, 0.3) for delta in (0.0, 0.5)]
            for sigma, delta, grid in cases + [(0.3, 0.5, 0.5)]:
                sched = schedule(g.n, sigma, grid)

                def run(max_iters=10**9, **stop):
                    cfg = AsyncConfig(method=method, mode=mode, step_size=step,
                                      max_iters=max_iters, gamma=1e-2,
                                      big_gamma=1e-3, delta_msg=delta, **stop)
                    return runner(g, obj, cfg, sched)

                tag = f"async/{gname}/{engine}/sigma={sigma}/delta={delta}"
                if grid is not None:
                    tag += f"/grid={grid}"
                    yield tag, run()
                    continue
                for stop, trace in with_stops(run).items():
                    yield f"{tag}/{stop}", trace


def sync_runs():
    for gname, (g, w) in graphs().items():
        for name, (runner, method, mode, step, problem) in SYNC_METHODS.items():
            alpha, gamma, big_gamma = SYNC_SETTINGS[problem]
            obj = objective(g, w, mode, problem, alpha)

            def run(max_iters=25, **stop):
                cfg = SyncConfig(method=method, mode=mode, step_size=step,
                                 max_iters=max_iters, gamma=gamma,
                                 big_gamma=big_gamma, **stop)
                return runner(g, obj, cfg)

            for stop, trace in with_stops(run).items():
                yield f"sync/{gname}/{name}/{stop}", trace


def current() -> dict:
    return {tag: digest(trace) for runs in (async_runs(), sync_runs())
            for tag, trace in runs}


def run_profile(name: str) -> tuple:
    """Run profile ``name`` at ``PROFILE_SEEDS``; return the digest of every run, keyed by the
    CSV name ``run_experiment`` gives it, and the criteria by name. Each
    run is hashed as it is produced, so no trace outlives the profile."""
    digests = {}
    run = harness.run_experiment

    def hashed(cfg, outdir=None):
        results = run(cfg, outdir)
        tag = cfg.config_hash()
        for r in results:
            digests[f"{r.method}_{cfg.mode}_s{r.seed}_{tag}"] = digest(r.trace)
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_experiment", hashed)
        criteria = harness.PROFILES[name](PROFILE_SEEDS, None)
    return digests, {c.name: c for c in criteria}


def recorded() -> dict:
    """golden.json, once its machine record matches this machine's."""
    golden = json.loads(GOLDEN.read_text())
    here = machine()
    differ = sorted(k for k in golden["machine"].keys() | here.keys()
                    if golden["machine"].get(k) != here.get(k))
    assert not differ, ("golden traces were recorded on another machine; "
                        "differing fields: " + ", ".join(
                            f"{k} (recorded {golden['machine'].get(k)!r}, "
                            f"here {here.get(k)!r})" for k in differ))
    return golden


def assert_unmoved(runs: dict, golden: dict) -> None:
    assert sorted(runs) == sorted(golden)
    moved = [tag for tag in golden if runs[tag] != golden[tag]]
    assert not moved, f"{len(moved)} of {len(runs)} runs moved, first: {moved[:5]}"


def test_golden_traces():
    assert_unmoved(current(), recorded()["runs"])


@pytest.mark.parametrize("name", sorted(harness.PROFILES))
def test_golden_profiles(profile_runs, name):
    assert_unmoved(profile_runs(name)[0], recorded()["profiles"][name])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "command": COMMAND, "machine": machine(), "runs": current(),
        "profiles": {name: run_profile(name)[0] for name in sorted(harness.PROFILES)},
    }, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
