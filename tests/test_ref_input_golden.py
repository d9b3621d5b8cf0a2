"""Reference-input fits against a stored golden record.

The fixture tests/data/ref_input_golden.json was written by
tests/make_ref_input_golden.py; rerun that script only when a change is meant
to alter the fitted coefficients.  The mimo-ct-2x2 fit is ill-conditioned
(its least-squares solution carries a cancelling null-space component of
about 47 in b1 and b20), so the record also pins that component.
"""

import json

import numpy as np
import pytest

import make_ref_input_golden as golden

REL = 1e-8


@pytest.fixture(scope="module")
def stored():
    return json.loads(golden.FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_ref_input_fit_matches_golden(stored, name):
    want = {k: np.array(v) for k, v in stored[name].items()}
    got = {k: np.array(v) for k, v in golden.summarize(golden.CASES[name]()).items()}
    scale = max(1.0, max(np.max(np.abs(v)) for v in want.values() if v.size))
    for fld in golden.FIELDS:
        assert got[fld].shape == want[fld].shape, f"{name}.{fld}"
        if want[fld].size:
            assert np.max(np.abs(got[fld] - want[fld])) <= REL * scale, f"{name}.{fld}"
