"""tests/compare_outputs.py, the exit status every byte-identity check reads, and
tests/write_outputs.py, which writes the outputs such a check compares."""

import json
import shutil

import pytest

import compare_outputs
import write_outputs
from adaptrack import harness

_NAME = "cmp"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The output directory of one short siso-3rd run."""
    data = {"schema_version": 1, "name": _NAME, "module": "siso", "benchmark": "siso-3rd",
            "horizon": 40}
    trace, report = harness.run_experiment(harness.scenario_from_dict(data))
    out = tmp_path_factory.mktemp("a")
    harness.emit_outputs(trace, report, out)
    return out


def _copy(outputs, tmp_path):
    b = tmp_path / "b"
    shutil.copytree(outputs, b)
    return b


def _move_trace_value(d, delta):
    """Add delta to the y_1 value of the trace's last row."""
    path = d / f"{_NAME}_trace.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("y_1")
    row = lines[-1].split(",")
    row[col] = repr(float(row[col]) + delta)
    lines[-1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_identical_directories_exit_zero(outputs, tmp_path):
    assert compare_outputs.main([str(outputs), str(_copy(outputs, tmp_path))]) == 0
    assert compare_outputs.main([str(outputs), str(outputs), "--rtol", "0", "--atol", "0"]) == 0


def test_trace_value_beyond_tolerance_exits_one(outputs, tmp_path):
    b = _copy(outputs, tmp_path)
    _move_trace_value(b, 1e-13)  # within atol 1e-12
    assert compare_outputs.main([str(outputs), str(b)]) == 0
    _move_trace_value(b, 1e-6)
    assert compare_outputs.main([str(outputs), str(b)]) == 1


def test_flipped_converged_exits_one(outputs, tmp_path):
    b = _copy(outputs, tmp_path)
    path = b / f"{_NAME}_report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["converged"] = not report["converged"]
    path.write_text(json.dumps(report), encoding="utf-8")
    assert compare_outputs.main([str(outputs), str(b)]) == 1


def test_write_outputs_twice_compares_equal(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert write_outputs.main([str(d), "--horizon", "20"]) == 0
    assert len(list(a.glob("*_report.json"))) == len(list(write_outputs.jobs(20)))
    assert compare_outputs.main([str(a), str(b), "--rtol", "0", "--atol", "0"]) == 0
