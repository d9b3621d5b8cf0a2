"""Golden leader-follower traces for the feedback-linearization regression test.

    PYTHONPATH=src python tests/make_fl_golden.py

rewrites tests/data/fl_golden.json from feedback_lin in this checkout.  Each
case is a short run on the fl-2x3 benchmark; the fixture keeps a handful of
trace rows (every trace column, the per-column normalizations m_i and, in
test mode, the identity residual), the final cumulative L2 sum and the guard
events, which test_fl_golden compares against a fresh run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from adaptrack import feedback_lin as fl

FIXTURE = Path(__file__).resolve().parent / "data" / "fl_golden.json"
N_SAMPLES = 25
FIELDS = ("t", "y", "ym", "e", "u", "m", "eps", "v", "theta_norm")
EXTRA = ("m_i", "ident_resid", "l2_eps_cum")


def _case(theta, adaptive, horizon, x0_shift=None, test_mode=True):
    def run():
        plant, leader, ia = fl.benchmark()
        tstar = fl.benchmark_theta_star(plant, leader, ia)
        th = {"near": 0.9 * tstar, "true": tstar, "zero": None}[theta]
        x0 = fl.matched_x0(plant, leader)
        if x0_shift is not None:
            x0 = x0 + np.asarray(x0_shift)
        return fl.run(fl.FLScenario(plant, leader, ia, x0=x0), adaptive=adaptive,
                      horizon=horizon, theta0=th, oracle=tstar if test_mode else None)

    return run


CASES = {
    "adaptive_near": _case("near", True, 3000),
    "nominal_offset": _case("true", False, 2000, x0_shift=[0.05, -0.02, 0.3]),
    "zero_guard": _case("zero", True, 50, test_mode=False),
}


def sample_indices(n):
    return sorted({int(i) for i in np.linspace(0, n - 1, N_SAMPLES)}) if n else []


def _rows(vals):
    return [[None if math.isnan(v) else float(v) for v in np.atleast_1d(row)]
            for row in vals]


def summarize(trace):
    """The fixture record of one trace: sampled rows plus the guard events."""
    idx = sample_indices(trace.n_samples)
    out = {"index": idx, "n_samples": trace.n_samples, "guard_events": trace.guard_events}
    for name in FIELDS:
        out[name] = _rows(getattr(trace, name)[idx])
    for name in EXTRA:
        if name in trace.extra:
            out[name] = _rows(trace.extra[name][idx])
    return out


def main():
    golden = {name: summarize(run()) for name, run in CASES.items()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
