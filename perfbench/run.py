"""adaptrack benchmark: one workload per call, result as one JSON line.

    python3 perfbench/run.py --workload dt_loop --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Set-up is timed in several fresh worker processes, then one fresh
single-threaded worker runs the workload's scenarios back to back through
`adaptrack.cli.main(["run", ...])` (a closed loop with one caller).  With
`--trace 0` the last line carries the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dt_loop", "ct_loop", "oracle_fit")
SETUP_SAMPLES = 7
BLAS_THREADS = 1  # at or below nproc; one caller, one thread
TIMEOUT_S = 170.0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({v: str(BLAS_THREADS) for v in _THREAD_VARS})
    return env


def call_worker(args, deadline):
    """Run bench.py in a fresh process; returns (start clock, its JSON line)."""
    cmd = [sys.executable, str(HERE / "bench.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return start, json.loads(out.strip().splitlines()[-1])


def result(worker, setup_samples, import_samples, trace):
    """The final JSON object: correctness counts plus the metrics by name."""
    if trace:
        metrics = {"import.s": statistics.median(import_samples), **worker["layers"]}
        metrics["trace.overhead_frac"] = worker["traced_run_s"] / worker["run_s"] - 1.0
        metrics["failed_frac"] = worker["failed"] / worker["attempted"]
    else:
        metrics = {
            "run_s": worker["run_s"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": worker["peak_rss_mb"],
            "output_mb": worker["output_mb"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "adaptrack" / "__init__.py").is_file():
        print(f"run.py: no adaptrack source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIMEOUT_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        setup, imports = [], []
        for _ in range(SETUP_SAMPLES - 1):
            start, out = call_worker(["setup"], deadline)
            setup.append(out["import_done"] - start)
            imports.append(out["import_s"])
        start, worker = call_worker(
            ["run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir)], deadline)
        setup.append(worker["import_done"] - start)
        imports.append(worker["import_s"])
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    res = result(worker, setup, imports, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed}: {worker['passes']} untraced passes"
          f" (+{worker['traced_passes']} traced), BLAS threads {BLAS_THREADS},"
          f" numpy {worker['numpy']}, python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    print(f"  setup samples {len(setup)}, failed_frac"
          f" {worker['failed'] / worker['attempted']:.4g} ({worker['failed']}"
          f"/{worker['attempted']} scenario runs)")
    for name, problems in sorted(worker["failures"].items()):
        print(f"  FAILED {name}: {'; '.join(dict.fromkeys(problems))}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
