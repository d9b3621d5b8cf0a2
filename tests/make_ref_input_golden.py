"""Golden reference-input fits for the ref_input_from_io regression test.

    PYTHONPATH=src python tests/make_ref_input_golden.py

rewrites tests/data/ref_input_golden.json from linsys.ref_input_from_io in
this checkout.  The cases are the fits behind the four test-mode ``_ym``
scenarios of the perfbench ``oracle_fit`` workload; test_ref_input_golden
compares a fresh fit against the stored (b1, b2, b20, a2).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from adaptrack import benchmarks
from adaptrack.linsys import DiagonalInteractor, ref_input_from_io

FIXTURE = Path(__file__).resolve().parent / "data" / "ref_input_golden.json"
FIELDS = ("b1", "b2", "b20", "a2")


def _siso_fit():
    b = benchmarks.siso_third_order()
    return ref_input_from_io(b["refmodel"], DiagonalInteractor([b["pm"]]), b["lam_e"],
                             b["plant"].n - 1)


def _mimo_fit(bench):
    def fit():
        b = benchmarks.build(bench)
        return ref_input_from_io(b["refmodel"], b["interactor"], b["lam_e"], b["nbe"])

    return fit


# the siso structures sf_ym and of_ym make the same call; both are kept so the
# record lists one fit per oracle_fit scenario
CASES = {
    "siso-3rd/sf_ym": _siso_fit,
    "siso-3rd/of_ym": _siso_fit,
    "mimo-dt-2x2/sf_ym": _mimo_fit("mimo-dt-2x2"),
    "mimo-ct-2x2/sf_ym": _mimo_fit("mimo-ct-2x2"),
}


def summarize(fit):
    return {name: np.atleast_2d(v).tolist() for name, v in zip(FIELDS, fit)}


def main():
    golden = {name: summarize(fit()) for name, fit in CASES.items()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
