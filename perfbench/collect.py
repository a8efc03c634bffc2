"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --seeds 1-10 [--workload NAME ...] \
        [--trace-seed 1] [--out perfbench/baseline.json]

For every workload it runs ``BENCHMARK.json``'s command once per seed, one
run at a time, and reports for each end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. With ``--trace-seed`` it adds one traced run per workload.
``--out`` writes every run's result, with the machine record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(ln[len("machine "):]) for ln in lines
                   if ln.startswith("machine "))
    scale = [float(ln.split()[2]) for ln in lines
             if ln.strip().startswith("speed scale")]
    result = json.loads(lines[-1])
    return {"seed": seed, "machine": machine, "speed_scale": scale[0] if scale else None,
            **result}


def summarize(runs: list, metrics: list) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="inclusive range such as 1-10")
    ap.add_argument("--workload", action="append",
                    help="workload name; repeat for several (default: all)")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(bench, name, seed, 0))
            print(f"{name} seed {seed}: correct={runs[-1]['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"runs": runs}
        if len(runs) >= 2:
            entry["summary"] = summarize(runs, bench["end_to_end"])
            for metric, s in entry["summary"].items():
                flag = "" if s["spread"] < s["bound"] / 3 else "  <-- above bound/3"
                print(f"  {metric:<12} median {s['median']:.6g}  spread "
                      f"{s['spread']:.4f}  bound {s['bound']}{flag}", flush=True)
        if args.trace_seed is not None:
            entry["trace"] = run_once(bench, name, args.trace_seed, 1)
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
