"""Benchmark of the dbfgs library: three workloads, output checks, tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sync-dual-n1000 --seed 0 \
        --seconds 40 --trace 0

A run repeats one workload (see ``workloads.py``) in short passes until
``--seconds`` have elapsed. Every pass re-imports ``dbfgs``, builds the
inputs of one instance seed and solves them. Passes cycle through the
``INSTANCE_SEEDS`` instance seeds derived from ``--seed``, so repeated
passes of one instance seed must reproduce its CSV traces byte for byte.
The first pass is a warm-up: it is checked but not timed.

Timings are the fastest decile of the timed passes (the 10th percentile of
times, the 90th of rates), scaled to a reference host speed. The host's
other tenants slow this machine's CPU by up to 2x, in bursts of about a
second and in phases of tens of minutes. The fastest passes are the ones
that ran least disturbed, which removes the bursts. For the phases, a fixed
calibration job (batched small Cholesky factorizations and a pure Python
loop, like the workloads) runs before every pass, and every time is
multiplied by ``CALIBRATION_REF_S`` over the fastest decile of the
calibration times: reported times are seconds on a host where the job
takes ``CALIBRATION_REF_S``. A change to ``dbfgs`` does not touch the job,
so the scale cancels the host's speed but not the program's. The unscaled
times, their medians and the scale are printed alongside.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

- ``wall_s``: one pass: import, set-up, every runner call, CSV writes;
- ``setup_s``: ``import dbfgs`` plus the input-building calls the workload
  makes itself (numpy and scipy are imported before timing starts);
- ``steps_per_s``: trace rows per second of a pass's ``wall_s - setup_s``;
  a row is a round for sync runs and an event batch for async runs;
- ``peak_rss_mb``: ``ru_maxrss`` of this process, which ran only this
  workload;
- ``final_error``: median over the instance seeds of the D-BFGS run's last
  consensus error; deterministic per seed.

``fail_frac`` (failed over attempted runs) is printed with them; the JSON
carries it as ``failed`` and ``attempted``. A run is one runner call
(method, instance seed) in one pass. It fails if it raised, did not end
with status ``max_iters``, has the wrong row count or a non-finite error,
wrote a CSV trace that differs from its instance seed's first pass, or, at
the default seed, ends at a final error more than ``REFERENCE_RTOL`` away
from the reference recorded in ``reference.json``.

With ``--trace 1`` untraced and traced passes alternate until every
instance seed has been traced, and the JSON has the per-layer metrics:

- ``<layer>.self_s``: median self time per traced pass, scaled like the
  end-to-end times, for every layer in ``tracer.TARGETS``, and
  ``dbfgs.<module>.self_s`` summed per module;
- ``<layer>.calls``: calls over one traced pass of each instance seed;
- ``accepted``, ``attempted`` and ``accept_ratio`` of
  ``RoundKernel.bfgs_all`` and ``curvature.bfgs_update``, over the same
  passes, from their return values: exact counts that a pure performance
  change must reproduce;
- ``trace.wall_s``, the median traced pass wall time, scaled like the
  self times, and ``trace.overhead_frac``, the fastest decile of traced
  over that of untraced pass wall times, minus one.

The spans are written to ``.perfbench/`` at the end. BLAS runs on one
thread; each result is preceded by a machine record.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: the load model is one process on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  (imported before timing, like numpy)

from tracer import ACCEPT_COUNTERS, LAYERS, MODULES, Tracer
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 0
INSTANCE_SEEDS = 3
REFERENCE_RTOL = 1e-6
MIN_PASSES = 3
# nominal calibration time; it only sets the unit of the reported times
CALIBRATION_REF_S = 0.015

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "rows/s",
                    "peak_rss_mb": "MB", "final_error": "1"}


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def fastest_decile(values, higher_is_better=False) -> float:
    """10th percentile of times (90th of rates); the best value below 2 samples."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=10)
    return cuts[-1] if higher_is_better else cuts[0]


class Calibration:
    """A fixed job whose time tracks how fast the host runs this process.

    Half batched small-matrix LAPACK on freshly allocated memory, half pure
    Python, like the workloads. The stack is copied on every call because
    the speed of these kernels depends on where their arrays land.
    """

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((1000, 20, 20))
        self.spd = a @ np.swapaxes(a, 1, 2) + 20.0 * np.eye(20)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        stack = self.spd.copy()
        for _ in range(3):
            np.linalg.cholesky(stack)
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - t0


def fresh_import():
    """Import ``dbfgs`` from this checkout's ``src`` as if for the first time."""
    for name in [m for m in sys.modules if m == "dbfgs" or m.startswith("dbfgs.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dbfgs")
    if Path(pkg.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"dbfgs was imported from {pkg.__file__}, "
                          f"not from {ROOT / 'src'}")
    return pkg


def run_pass(wl, seed: int, size: dict, tracer, outdir) -> dict:
    t0 = time.perf_counter()
    dbfgs = fresh_import()
    if tracer is not None:
        tracer.install(dbfgs)
    inputs = wl.setup(dbfgs, seed, size)
    t1 = time.perf_counter()
    runs = wl.solve(dbfgs, inputs, outdir)
    t2 = time.perf_counter()
    for run in runs:
        run.expected_rows = wl.expected_rows(dbfgs, inputs)
    rows = sum(len(r.trace.error) for r in runs if r.trace is not None)
    return {"seed": seed, "setup_s": t1 - t0, "wall_s": t2 - t0,
            "steps_per_s": rows / (t2 - t1), "runs": runs, "tracer": tracer}


def check_run(run, first_csv, reference) -> str:
    """Empty string if the run passes every output check, else the reason."""
    if run.error:
        return f"raised {run.error}"
    trace = run.trace
    if trace.status != "max_iters":
        return f"status {trace.status}"
    if len(trace.error) != run.expected_rows:
        return f"{len(trace.error)} rows, expected {run.expected_rows}"
    if not all(math.isfinite(e) for e in trace.error):
        return "non-finite error"
    if first_csv is not None and run.csv != first_csv:
        return "CSV trace differs from the first pass of its seed"
    if reference is not None and not math.isclose(trace.error[-1], reference,
                                                  rel_tol=REFERENCE_RTOL, abs_tol=0.0):
        return f"final error {trace.error[-1]!r}, reference {reference!r}"
    return ""


def load_references(workload: str, scale: str, seed: int) -> dict:
    if seed != DEFAULT_SEED:
        return {}
    data = json.loads((BENCH_DIR / "reference.json").read_text())
    return data[workload][scale]


def speed_scale(passes: list) -> float:
    """Reference over measured calibration time: below 1 on a slowed host."""
    return CALIBRATION_REF_S / fastest_decile(p["calibration_s"] for p in passes[1:])


def end_to_end(passes: list, final_errors: dict) -> dict:
    timed = passes[1:]
    scale = speed_scale(passes)
    return {
        "wall_s": fastest_decile(p["wall_s"] for p in timed) * scale,
        "setup_s": fastest_decile(p["setup_s"] for p in timed) * scale,
        "steps_per_s": fastest_decile((p["steps_per_s"] for p in timed), True) / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_error": statistics.median(final_errors.values()) if final_errors else None,
    }


def per_layer(passes: list) -> tuple:
    """Per-layer metrics (name -> (value, unit)) and an error message."""
    traced = [p for p in passes[1:] if p["tracer"] is not None]
    untraced = [p for p in passes[1:] if p["tracer"] is None]
    summaries = [(p["seed"], p["tracer"].summary()) for p in traced]
    first = {}
    message = ""
    for seed, s in summaries:
        ref = first.setdefault(seed, s)
        if s["calls"] != ref["calls"] or s["accept"] != ref["accept"]:
            message = f"call or acceptance counts differ between passes of seed {seed}"
    scale = speed_scale(passes)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (scale * statistics.median(
            s["self_s"][layer] for _, s in summaries), "s")
        out[f"{layer}.calls"] = (sum(s["calls"][layer] for s in first.values()), "count")
    for module in MODULES:
        prefix = f"dbfgs.{module}."
        out[f"dbfgs.{module}.self_s"] = (scale * statistics.median(
            sum(v for k, v in s["self_s"].items() if k.startswith(prefix))
            for _, s in summaries), "s")
    for layer in ACCEPT_COUNTERS:
        acc = sum(s["accept"][layer][0] for s in first.values())
        att = sum(s["accept"][layer][1] for s in first.values())
        out[f"{layer}.accepted"] = (acc, "count")
        out[f"{layer}.attempted"] = (att, "count")
        out[f"{layer}.accept_ratio"] = (acc / att if att else 0.0, "1")
    out["trace.wall_s"] = (scale * statistics.median(p["wall_s"] for p in traced), "s")
    out["trace.overhead_frac"] = (fastest_decile(p["wall_s"] for p in traced)
                                  / fastest_decile(p["wall_s"] for p in untraced) - 1.0, "1")
    return out, message


def write_spans(path: Path, passes: list) -> None:
    with open(path, "w") as fh:
        fh.write("pass,seed,layer,start,end,parent\n")
        for k, p in enumerate(passes):
            if p["tracer"] is None:
                continue
            for layer, start, end, parent in p["tracer"].spans:
                fh.write(f"{k},{p['seed']},{layer},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny sizes are for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dbfgs" / "__init__.py").is_file():
        print(f"error: no dbfgs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    wl = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.scale]
    seeds = [INSTANCE_SEEDS * args.seed + j for j in range(INSTANCE_SEEDS)]
    references = load_references(args.workload, args.scale, args.seed)
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)

    calibrate = Calibration()
    passes = []
    first_csv = {}
    final_errors = {}
    failures = []
    attempted = 0
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        deadline = time.perf_counter() + args.seconds
        while (len(passes) < MIN_PASSES or time.perf_counter() < deadline
               or args.trace and len(passes) < 2 * INSTANCE_SEEDS + 1):
            k = len(passes)
            seed = seeds[k % INSTANCE_SEEDS]
            tracer = Tracer() if args.trace and k % 2 == 0 and k > 0 else None
            calibration_s = calibrate()
            p = run_pass(wl, seed, size, tracer, Path(tmp))
            p["calibration_s"] = calibration_s
            for run in p["runs"]:
                key = f"{run.method}/{run.seed}"
                attempted += 1
                why = check_run(run, first_csv.get(key), references.get(key))
                if why:
                    failures.append(f"pass {k} {key}: {why}")
                first_csv.setdefault(key, run.csv)
                if run.method == "dbfgs" and run.trace is not None:
                    final_errors.setdefault(run.seed, run.trace.error[-1])
            del p["runs"]  # keeps peak_rss_mb independent of the pass count
            passes.append(p)

    failed_runs = len({f.split(":", 1)[0] for f in failures})
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"passes {len(passes)} (first is warm-up)")
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    correct = not failures
    if args.trace:
        metrics, message = per_layer(passes)
        if message:
            print(f"FAILED {message}", file=sys.stderr)
            correct = False
        spans_path = work_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        write_spans(spans_path, passes)
        wall = metrics["trace.wall_s"][0]
        ranked = sorted((kv for kv in metrics.items() if kv[0].endswith(".self_s")
                         and kv[0].count(".") > 2), key=lambda kv: -kv[1][0])
        for name, (value, _) in ranked[:12]:
            print(f"  {name:<58} {value:8.4f} s {value / wall:6.1%} of a traced pass")
        print(f"spans written to {spans_path}")
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(passes, final_errors).items()}
        timed = passes[1:]
        scale = speed_scale(passes)
        print(f"  speed scale {scale:.4f} (calibration fastest decile "
              f"{CALIBRATION_REF_S / scale:.6g} s, reference {CALIBRATION_REF_S} s)")
        for name, (value, unit) in metrics.items():
            raw = ""
            if name in timed[0]:
                best = fastest_decile((p[name] for p in timed), name == "steps_per_s")
                raw = (f"  (unscaled {best:.6g}, "
                       f"median {statistics.median(p[name] for p in timed):.6g})")
            print(f"  {name:<12} {value:.6g} {unit}{raw}")
        print(f"  {'fail_frac':<12} {failed_runs / attempted:.6g} "
              f"({failed_runs} of {attempted} runs)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed_runs,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
