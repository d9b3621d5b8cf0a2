"""Command-line front end: run, validate, list-benchmarks."""

from __future__ import annotations

import argparse
import os
import sys

from . import benchmarks, harness
from .errors import AdaptrackError, ParseError, ValidationError

OUTDIR_ENV = "ADAPTRACK_OUT"


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="adaptrack",
        description="Adaptive output-tracking simulations with unknown reference systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one or more scenario files")
    run.add_argument("--scenario", action="append", required=True,
                     help="scenario JSON path (repeatable)")
    run.add_argument("--out", default=None,
                     help=f"output directory (default ${OUTDIR_ENV} or ./out)")
    run.add_argument("--horizon", type=int, default=None, help="override horizon")
    run.add_argument("--step", type=float, default=None, help="override CT step")
    run.add_argument("--seed", type=int, default=None, help="override seed")
    run.add_argument("--mode", choices=["nominal", "adaptive"], default=None,
                     help="override mode")

    val = sub.add_parser("validate", help="validate scenario files")
    val.add_argument("--scenario", action="append", required=True)

    sub.add_parser("list-benchmarks", help="list built-in benchmark systems")
    return ap


def _load_with_overrides(path, args):
    scn = harness.load_scenario(path)
    data = dict(scn.raw)
    changed = False
    for key in ("horizon", "step", "seed", "mode"):
        v = getattr(args, key, None)
        if v is not None:
            data[key] = v
            changed = True
    if changed:
        scn = harness.scenario_from_dict(data, name=scn.name)
    return scn


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "list-benchmarks":
        for name, desc in sorted(benchmarks.describe().items()):
            print(f"{name:14s} {desc}")
        return 0
    if args.command == "validate":
        code = 0
        for path in args.scenario:
            try:
                scn = harness.load_scenario(path)
                print(f"{path}: ok ({scn.module}/{scn.mode}, horizon {scn.horizon})")
            except (ParseError, ValidationError) as exc:
                print(f"{path}: INVALID: {exc}", file=sys.stderr)
                code = 1
        return code
    # run
    outdir = args.out or os.environ.get(OUTDIR_ENV) or "out"
    worst = 0
    for path in args.scenario:
        try:
            scn = _load_with_overrides(path, args)
            trace, report = harness.run_experiment(scn)
            paths = harness.emit_outputs(trace, report, outdir, name=scn.name)
            status = "converged" if report.converged else "not-converged"
            if report.guard_aborted:
                diverged = any("diverged" in ev for ev in trace.guard_events)
                status = "diverged" if diverged else "guard-abort"
            print(f"{scn.name}: {status} tail_rms={report.tail_rms_e:.3e} "
                  f"-> {paths['trace']}")
            if report.guard_aborted:
                worst = max(worst, 2)
            elif not report.converged:
                worst = max(worst, 1)
        except (ParseError, ValidationError, AdaptrackError) as exc:
            print(f"{path}: ERROR: {exc}", file=sys.stderr)
            worst = max(worst, 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
