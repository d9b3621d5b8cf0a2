"""Golden closed-loop traces for the engine regression test.

    PYTHONPATH=src python tests/make_engine_golden.py

rewrites tests/data/engine_golden.json from the engine in this checkout.
Each case is a short run of one linear design; the fixture keeps a handful
of trace samples and the final cumulative L2 sums, which test_engine_golden
compares against a fresh run.

Regenerating does not reproduce the committed file byte for byte: it
rewrites about 1079 of its lines in their last digits (for example
-0.004550431300673133 -> -0.0045504313006731745).  So whether a change
keeps the goldens is checked by test_engine_golden's tolerance, not by
regenerating and diffing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from adaptrack import benchmarks, mimo, siso
from adaptrack.engine import Structure

FIXTURE = Path(__file__).resolve().parent / "data" / "engine_golden.json"
N_SAMPLES = 20
FIELDS = ("e", "u", "eps", "m", "v", "theta_norm")


def _siso_case(structure):
    def run():
        b = benchmarks.siso_third_order()
        scn = siso.scenario(**b, structure=structure)
        nom = mimo.nominal_params(scn)
        return mimo.run(scn, adaptive=True, horizon=400, theta0=0.9 * nom.theta_star,
                        oracle=nom)

    return run


def _mimo_case(bench, structure, horizon, design="gradient", certificate=True):
    def run():
        scn = mimo.MimoScenario(**benchmarks.build(bench), structure=structure, design=design)
        if not certificate:
            return mimo.run(scn, adaptive=True, horizon=horizon)
        nom = mimo.nominal_params(scn)
        return mimo.run(scn, adaptive=True, horizon=horizon, theta0=0.9 * nom.theta_star,
                        oracle=nom)

    return run


CASES = {
    "siso_sf_xm": _siso_case(Structure.SF_XM),
    "siso_sf_ym": _siso_case(Structure.SF_YM),
    "siso_of_xm": _siso_case(Structure.OF_XM),
    "siso_of_ym": _siso_case(Structure.OF_YM),
    "mimo_dt_sf_xm": _mimo_case("mimo-dt-2x2", Structure.SF_XM, 400),
    "mimo_dt_sf_ym": _mimo_case("mimo-dt-2x2", Structure.SF_YM, 400),
    "mimo_dt_of_ym_blind": _mimo_case("mimo-dt-2x2", Structure.OF_YM, 400,
                                      certificate=False),
    "mimo_ct_sf_xm": _mimo_case("mimo-ct-2x2", Structure.SF_XM, 500),
    "mimo_ct_rd1": _mimo_case("mimo-rd1-ct", Structure.SF_XM, 500, design="rd1"),
}


def sample_indices(n):
    return sorted({int(i) for i in np.linspace(0, n - 1, N_SAMPLES)})


def summarize(trace):
    """The fixture record of one trace: sampled fields plus final L2 sums."""
    idx = sample_indices(trace.n_samples)
    out = {"index": idx}
    for name in FIELDS:
        vals = getattr(trace, name)[idx]
        out[name] = [[None if math.isnan(v) else float(v) for v in np.atleast_1d(row)]
                     for row in vals]
    for name in ("l2_eps_cum", "l2_dtheta_cum"):
        out[name] = float(trace.extra[name][-1])
    return out


def main():
    golden = {name: summarize(run()) for name, run in CASES.items()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
