"""Leader-follower loop traces against a stored golden record.

The fixture tests/data/fl_golden.json was written by tests/make_fl_golden.py;
rerun that script only when a change is meant to alter the simulated signals.
"""

import json

import numpy as np
import pytest

import make_fl_golden as golden

RTOL = 1e-9
ATOL = 1e-12


@pytest.fixture(scope="module")
def stored():
    return json.loads(golden.FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_fl_matches_golden(stored, name):
    want = stored[name]
    got = json.loads(json.dumps(golden.summarize(golden.CASES[name]())))
    assert got["index"] == want["index"] and got["n_samples"] == want["n_samples"]
    assert [sorted(ev) for ev in got["guard_events"]] == [
        sorted(ev) for ev in want["guard_events"]]
    for ev_got, ev_want in zip(got["guard_events"], want["guard_events"]):
        for key, val in ev_want.items():
            if isinstance(val, str):
                assert ev_got[key] == val
            else:
                np.testing.assert_allclose(ev_got[key], val, rtol=RTOL, atol=ATOL)
    assert sorted(k for k in got if k in golden.EXTRA) == sorted(
        k for k in want if k in golden.EXTRA)
    for fld in golden.FIELDS + tuple(k for k in golden.EXTRA if k in want):
        a = np.array(got[fld], dtype=float)
        b = np.array(want[fld], dtype=float)
        assert a.shape == b.shape, f"{name}.{fld}"
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL, equal_nan=True,
                                   err_msg=f"{name}.{fld}")
