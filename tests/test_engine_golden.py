"""Closed-loop engine traces against a stored golden record.

The fixture tests/data/engine_golden.json was written by
tests/make_engine_golden.py; rerun that script only when a change is meant
to alter the simulated signals.
"""

import json

import numpy as np
import pytest

import make_engine_golden as golden

RTOL = 1e-9
ATOL = 1e-12


@pytest.fixture(scope="module")
def stored():
    return json.loads(golden.FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_engine_matches_golden(stored, name):
    want = stored[name]
    got = golden.summarize(golden.CASES[name]())
    assert got["index"] == want["index"]
    for fld in golden.FIELDS:
        a = np.array(got[fld], dtype=float)
        b = np.array(want[fld], dtype=float)
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL, equal_nan=True,
                                   err_msg=f"{name}.{fld}")
    for fld in ("l2_eps_cum", "l2_dtheta_cum"):
        np.testing.assert_allclose(got[fld], want[fld], rtol=RTOL, atol=ATOL,
                                   err_msg=f"{name}.{fld}")
