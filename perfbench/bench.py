"""Benchmark worker: workloads, timed passes through `adaptrack run`, checks.

Run by `run.py` in a fresh process per workload:

    python perfbench/bench.py setup
    python perfbench/bench.py run --workload dt_loop --seed 0 --seconds 30 --trace 0
    python perfbench/bench.py record     # rewrite reference.json (seed 0)

The last line of stdout is one JSON object with the raw measurements.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import numpy as np  # noqa: E402

from adaptrack import cli  # noqa: E402

IMPORT_DONE = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
MIN_PASSES = 3
# tail_rms_e and sup_theta_norm match the reference when
# |a - b| <= RTOL max(|a|, |b|) + ATOL; ATOL covers values at round-off level
RTOL = 1e-6
ATOL = 1e-12

# name -> scenario fields.  The seed-0 dt_loop scenarios are the shipped
# scenario files; ct_loop cuts the CT scenarios to 6000 steps; oracle_fit
# runs the _ym structures briefly so reference-input synthesis dominates.
WORKLOADS = {
    "dt_loop": {
        "siso_sf_adaptive": dict(module="siso", benchmark="siso-3rd", structure="sf_xm",
                                 test_mode=True, theta0="near", horizon=5000,
                                 converge_tol=0.001),
        "siso_of_blind": dict(module="siso", benchmark="siso-3rd", structure="of_ym",
                              test_mode=False, theta0="zero", horizon=8000,
                              converge_tol=0.05),
        "mimo_dt_adaptive": dict(module="mimo", benchmark="mimo-dt-2x2", structure="sf_xm",
                                 test_mode=True, theta0="near", horizon=8000,
                                 converge_tol=0.01),
    },
    "ct_loop": {
        "mimo_rd1_ct": dict(module="mimo", benchmark="mimo-rd1-ct", design="rd1",
                            structure="sf_xm", test_mode=True, theta0="near",
                            horizon=6000, converge_tol=0.1),
        "mimo_ct_gradient": dict(module="mimo", benchmark="mimo-ct-2x2", structure="sf_xm",
                                 test_mode=True, theta0="near", horizon=6000,
                                 converge_tol=0.1),
        "fl_adaptive": dict(module="fl", benchmark="fl-2x3", test_mode=True, theta0="near",
                            horizon=6000, converge_tol=0.05, tail_fraction=0.2),
    },
    "oracle_fit": {
        "siso3_sf_ym": dict(module="siso", benchmark="siso-3rd", structure="sf_ym",
                            test_mode=True, theta0="near", horizon=300, converge_tol=0.05),
        "siso3_of_ym": dict(module="siso", benchmark="siso-3rd", structure="of_ym",
                            test_mode=True, theta0="near", horizon=300, converge_tol=0.05),
        "mimo_dt_sf_ym": dict(module="mimo", benchmark="mimo-dt-2x2", structure="sf_ym",
                              test_mode=True, theta0="near", horizon=300,
                              converge_tol=0.05),
        "mimo_ct_sf_ym": dict(module="mimo", benchmark="mimo-ct-2x2", structure="sf_ym",
                              test_mode=True, theta0="near", horizon=300,
                              converge_tol=0.05),
    },
}

EXACT_FIELDS = ("converged", "guard_aborted", "horizon", "lyapunov_violations")
CLOSE_FIELDS = ("tail_rms_e", "sup_theta_norm")


def scenarios(workload, seed):
    """Scenario dicts of a workload; a non-default seed randomises x_m(0)."""
    out = []
    for name, fields in WORKLOADS[workload].items():
        d = {"schema_version": 1, "name": name, "mode": "adaptive", "seed": seed, **fields}
        if seed != DEFAULT_SEED and d["module"] != "fl":
            d["xm0"] = "random"
        out.append(d)
    return out


# -- checks ---------------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in report")


def strict_json(text):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def expected_code(report):
    """The exit code cli.main returns for a single-scenario report."""
    if report["guard_aborted"]:
        return 2
    return 0 if report["converged"] else 1


def check_report(path, code, reference=None):
    """Problems with one scenario's report; an empty list means it passed."""
    try:
        report = strict_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"]
    problems = []
    for key in ("tail_rms_e", "sup_theta_norm", "l2_tail"):
        if not isinstance(report.get(key), (int, float)) or not math.isfinite(report[key]):
            problems.append(f"{key} is not a finite number")
    if problems:
        return problems
    if code != expected_code(report):
        problems.append(f"exit code {code} disagrees with the report")
    if reference is not None:
        if code != reference["exit_code"]:
            problems.append(f"exit code {code} != reference {reference['exit_code']}")
        for key in EXACT_FIELDS:
            if report.get(key) != reference[key]:
                problems.append(f"{key} {report.get(key)!r} != reference {reference[key]!r}")
        for key in CLOSE_FIELDS:
            a, b = report[key], reference[key]
            if abs(a - b) > RTOL * max(abs(a), abs(b)) + ATOL:
                problems.append(f"{key} {a!r} != reference {b!r}")
    return problems


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- one pass -----------------------------------------------------------------


def write_scenarios(dicts, workdir):
    paths = []
    sdir = Path(workdir) / "scenarios"
    sdir.mkdir(parents=True, exist_ok=True)
    for d in dicts:
        p = sdir / f"{d['name']}.json"
        p.write_text(json.dumps(d, indent=2), encoding="utf-8")
        paths.append(p)
    return paths


def run_pass(paths, outdir, references=None):
    """Run every scenario once through cli.main; time it, then check it.

    Returns run_s, bytes written, per-scenario CSV digests and failures.
    """
    outdir = Path(outdir)
    codes = {}
    run_s = 0.0
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for p in paths:
            t0 = time.perf_counter()
            try:
                codes[p.stem] = cli.main(["run", "--scenario", str(p), "--out", str(outdir)])
            except Exception:  # a crash in one scenario is a counted failure
                codes[p.stem] = traceback.format_exc(limit=3)
            run_s += time.perf_counter() - t0
    failures = {}
    digests = {}
    nbytes = 0
    for p in paths:
        name = p.stem
        code = codes[name]
        if isinstance(code, str):
            failures[name] = [f"raised: {code.strip().splitlines()[-1]}"]
            continue
        if references is not None and name not in references:
            problems = ["no reference recorded for the default seed"]
        else:
            ref = references[name] if references is not None else None
            problems = check_report(outdir / f"{name}_report.json", code, ref)
        if problems:
            failures[name] = problems
        files = [outdir / f"{name}_trace.csv", outdir / f"{name}_trace_long.csv",
                 outdir / f"{name}_report.json"]
        nbytes += sum(f.stat().st_size for f in files if f.exists())
        digests[name] = [_sha256(f) if f.exists() else None for f in files[:2]]
    shutil.rmtree(outdir, ignore_errors=True)
    return {"run_s": run_s, "bytes": nbytes, "digests": digests, "failures": failures}


def measure(workload_dicts, seconds, trace, workdir, references=None):
    """Untraced passes (alternating with traced ones when tracing).

    Passes repeat while the next one is expected to end within `seconds`,
    with at least MIN_PASSES untraced passes, or two untraced and one traced
    pass when tracing.
    """
    workdir = Path(workdir)
    paths = write_scenarios(workload_dicts, workdir)
    deadline = time.perf_counter() + seconds
    plain, traced, layers = [], [], []
    while True:
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            with tracer:
                traced.append(run_pass(paths, workdir / f"traced{len(traced)}", references))
            layers.append(tracer.layer_metrics())
        else:
            plain.append(run_pass(paths, workdir / f"out{len(plain)}", references))
        enough = len(plain) >= 2 and len(traced) >= 1 if trace else len(plain) >= MIN_PASSES
        typical = statistics.median(p["run_s"] for p in plain + traced)
        if enough and time.perf_counter() + typical > deadline:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    failed = {}
    for p in passes:
        for name, probs in p["failures"].items():
            failed.setdefault(name, []).extend(probs)
    attempted = len(paths) * len(passes)
    n_failed = sum(len(p["failures"]) for p in passes)
    for name in {n for p in passes for n in p["digests"]}:
        seen = {tuple(p["digests"][name]) for p in passes if name in p["digests"]}
        if len(seen) > 1:
            n_failed += 1
            failed.setdefault(name, []).append("trace CSV digests differ between repetitions")
    n_failed = min(n_failed, attempted)
    return {
        "passes": len(plain),
        "run_s": statistics.median(p["run_s"] for p in plain),
        "output_mb": statistics.median(p["bytes"] for p in plain) / 1e6,
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": n_failed,
        "failures": failed,
        "traced_passes": len(traced),
        "traced_run_s": statistics.median(p["run_s"] for p in traced) if traced else None,
        "layers": _median_layers(layers),
    }


def _median_layers(layers):
    if not layers:
        return {}
    return {k: statistics.median(d[k] for d in layers) for k in layers[0]}


def record_reference(workdir):
    """Run every workload once at the default seed; store its report values."""
    ref = {"seed": DEFAULT_SEED, "scenarios": {}}
    for workload in WORKLOADS:
        paths = write_scenarios(scenarios(workload, DEFAULT_SEED), workdir)
        outdir = Path(workdir) / "record"
        with contextlib.redirect_stdout(io.StringIO()):
            for p in paths:
                code = cli.main(["run", "--scenario", str(p), "--out", str(outdir)])
                report = strict_json((outdir / f"{p.stem}_report.json").read_text())
                entry = {"exit_code": code}
                entry.update({k: report[k] for k in EXACT_FIELDS + CLOSE_FIELDS})
                ref["scenarios"][p.stem] = entry
        shutil.rmtree(outdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench.py")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("setup", help="import numpy and adaptrack, print the clock")
    run = sub.add_parser("run", help="measure one workload")
    run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--workdir", required=True)
    rec = sub.add_parser("record", help="rewrite reference.json at the default seed")
    rec.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    out = {"import_done": IMPORT_DONE, "import_s": IMPORT_DONE - _T_START,
           "numpy": np.__version__}
    if args.command == "run":
        refs = None
        if args.seed == DEFAULT_SEED:
            refs = json.loads(REFERENCE.read_text(encoding="utf-8"))["scenarios"]
        out.update(measure(scenarios(args.workload, args.seed), args.seconds,
                           bool(args.trace), args.workdir, refs))
    elif args.command == "record":
        record_reference(args.workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
