"""Command-line front-end.

    dbfgs run <config-file>            run a config, write CSV traces
    dbfgs reproduce <profile>          run a reproduction suite, print PASS/FAIL
    dbfgs histogram <csv...> -t <v>    exchanges-to-threshold from trace files

Output directory: --outdir, else $DBFGS_OUTDIR, else ./runs.
Exit codes: 0 success, 1 criterion failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from .harness import (
    ConfigError,
    PROFILES,
    histogram_exchanges,
    parse_config,
    read_trace_csv,
    reproduce_paper_suite,
    run_experiment,
)


def _outdir(args) -> str:
    if args.outdir:
        return args.outdir
    return os.environ.get("DBFGS_OUTDIR", "runs")


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config}: not UTF-8 text ({exc})") from None
    outdir = _outdir(args)
    results = run_experiment(cfg, outdir)
    diverged = [r for r in results if r.trace.status == "diverged"]
    print(f"wrote {len(results)} trace(s) to {outdir} "
          f"(config {cfg.config_hash()})")
    for r in diverged:
        print(f"note: {r.method} seed={r.seed} diverged")
    return 0


def _cmd_reproduce(args) -> int:
    seeds = None if args.seeds is None else range(args.seeds)
    ok, results = reproduce_paper_suite(args.profile, seeds=seeds,
                                        outdir=_outdir(args) if args.save else None)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if ok else 1


def _cmd_histogram(args) -> int:
    matches = [sorted(glob.glob(pattern)) for pattern in args.traces]
    missing = [pattern for pattern, found in zip(args.traces, matches) if not found]
    if missing:
        print("no trace files matched: " + " ".join(missing), file=sys.stderr)
        return 2
    # each file once, however many arguments match it
    paths = {}
    for found in matches:
        for path in found:
            paths.setdefault(os.path.realpath(path), path)
    try:
        traces = [read_trace_csv(p) for p in paths.values()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    hist = histogram_exchanges(traces, args.threshold)
    print(f"threshold {args.threshold}")
    for method, runs in sorted(hist.runs.items()):
        reached = sum(ok for _, ok in runs)
        quartiles = (hist.quantile(method, q) for q in (0.25, 0.5, 0.75))
        q25, med, q75 = ("censored" if v is None else f"{v:.0f}" for v in quartiles)
        print(f"{method}: reached={reached} censored={len(runs) - reached} "
              f"q25={q25} median={med} q75={q75}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dbfgs",
        description="Decentralized BFGS consensus optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--outdir")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a reproduction profile")
    p_rep.add_argument("profile", choices=sorted(PROFILES))
    p_rep.add_argument("--seeds", type=int, default=None,
                       help="number of seeds (default 20)")
    p_rep.add_argument("--save", action="store_true",
                       help="also write the CSV traces")
    p_rep.add_argument("--outdir")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_hist = sub.add_parser("histogram",
                            help="exchanges-to-threshold from trace CSVs")
    p_hist.add_argument("traces", nargs="+")
    p_hist.add_argument("--threshold", "-t", type=float, required=True)
    p_hist.set_defaults(func=_cmd_histogram)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
