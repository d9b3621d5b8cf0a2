"""Compare the outputs of two `adaptrack run --out` directories.

    python tests/compare_outputs.py DIR_A DIR_B [--rtol 1e-9] [--atol 1e-12]

For every scenario whose `<name>_trace.csv` is in DIR_A, prints each trace
column's largest absolute and relative difference against DIR_B, and each
report field that changed.  The exit status is 1 when a trace value differs
by more than atol + rtol |b|, the row counts differ, or a report field other
than the float metrics (tail_rms_e, sup_theta_norm, l2_tail) changed at all;
the float metrics are held to the same tolerance as the trace.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

FLOAT_FIELDS = ("tail_rms_e", "sup_theta_norm", "l2_tail")


def _read_trace(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def _close(a, b, rtol, atol):
    return a == b or (math.isfinite(a) and math.isfinite(b) and abs(a - b) <= atol + rtol * abs(b))


def compare(name, dir_a, dir_b, rtol, atol):
    """Print the differences of one scenario; returns True when they are within tolerance."""
    ok = True
    head_a, a = _read_trace(dir_a / f"{name}_trace.csv")
    head_b, b = _read_trace(dir_b / f"{name}_trace.csv")
    if head_a != head_b or a.shape != b.shape:
        print(f"{name}: trace shape {a.shape} vs {b.shape}")
        ok = False
    else:
        same_nan = np.isnan(a) & np.isnan(b)
        diff = np.where(same_nan, 0.0, np.abs(a - b))
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
        bad = ~(same_nan | (diff <= atol + rtol * np.abs(b)))
        print(f"{name}: {a.shape[0]} rows, max abs diff {np.max(diff, initial=0.0):.3g}")
        for j, col in enumerate(head_a):
            if diff[:, j].any() or bad[:, j].any():
                flag = "  OUTSIDE TOLERANCE" if bad[:, j].any() else ""
                print(f"  {col}: abs {diff[:, j].max():.3g}, rel {rel[:, j].max():.3g}{flag}")
        ok = not bad.any()
    rep_a = json.loads((dir_a / f"{name}_report.json").read_text(encoding="utf-8"))
    rep_b = json.loads((dir_b / f"{name}_report.json").read_text(encoding="utf-8"))
    for key in sorted(set(rep_a) | set(rep_b)):
        va, vb = rep_a.get(key), rep_b.get(key)
        if va != vb:
            within = (key in FLOAT_FIELDS and isinstance(va, float) and isinstance(vb, float)
                      and _close(va, vb, rtol, atol))
            print(f"  report {key}: {va!r} -> {vb!r}{'' if within else '  CHANGED'}")
            ok = ok and within
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir_a", type=Path)
    ap.add_argument("dir_b", type=Path)
    ap.add_argument("--rtol", type=float, default=1e-9)
    ap.add_argument("--atol", type=float, default=1e-12)
    args = ap.parse_args(argv)
    names = sorted(p.name[: -len("_trace.csv")] for p in args.dir_a.glob("*_trace.csv"))
    if not names:
        print(f"no *_trace.csv in {args.dir_a}")
        return 1
    results = [compare(n, args.dir_a, args.dir_b, args.rtol, args.atol) for n in names]
    print(f"{sum(results)}/{len(results)} scenarios within rtol {args.rtol:g}, "
          f"atol {args.atol:g}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
