"""Tests of the benchmark itself: metric names, failure checks, tracer cleanup."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _short(workload, horizon=40):
    return [dict(d, horizon=horizon) for d in bench.scenarios(workload, 3)]


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    scns = _short("dt_loop") + _short("ct_loop")
    return bench.measure(scns, seconds=0, trace=True,
                         workdir=tmp_path_factory.mktemp("bench"))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert list(run.WORKLOADS) == list(bench.WORKLOADS)


def test_printed_metric_names_match_benchmark_json(measured):
    assert measured["failed"] == 0 and measured["attempted"] == 6 * 3
    plain = run.result(measured, [0.2, 0.3], [0.1], trace=False)
    traced = run.result(measured, [0.2, 0.3], [0.1], trace=True)
    assert list(plain["metrics"]) == _names("end_to_end")
    assert list(traced["metrics"]) == _names("per_layer")
    for res in (plain, traced):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0


def test_traced_counts_are_exact(measured):
    layers = measured["layers"]
    assert layers["engine.steps"] == 5 * 40  # three dt_loop runs, two engine CT runs
    assert layers["feedback_lin.steps"] == 40
    assert layers["feedback_lin.rhs_per_step"] == 3.0
    assert layers["engine.rhs_per_step"] == 3 * 80 / 200  # CT RK4 steps reuse k1


def _report(tmp_path, **changes):
    ref = json.loads(bench.REFERENCE.read_text())["scenarios"]["siso_sf_adaptive"]
    report = {k: ref[k] for k in bench.EXACT_FIELDS + bench.CLOSE_FIELDS}
    report.update(name="siso_sf_adaptive", l2_tail=1e-10, guard_events=[])
    report.update(changes)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    return path, ref


def test_matching_report_passes(tmp_path):
    path, ref = _report(tmp_path)
    assert bench.check_report(path, ref["exit_code"], ref) == []


def test_flipped_converged_fails(tmp_path):
    path, ref = _report(tmp_path, converged=False)
    assert bench.check_report(path, ref["exit_code"], ref)
    assert bench.check_report(path, ref["exit_code"], None)  # code 0 but not converged


def test_nan_report_fails(tmp_path):
    path, ref = _report(tmp_path, tail_rms_e=float("nan"))
    assert "NaN" in path.read_text()
    assert bench.check_report(path, ref["exit_code"], ref)
    assert bench.check_report(path, ref["exit_code"], None)


def test_differing_digests_count_as_failure(tmp_path, monkeypatch):
    calls = iter(range(100))
    real = bench._sha256
    monkeypatch.setattr(bench, "_sha256", lambda p: f"{real(p)}{next(calls)}")
    out = bench.measure(_short("dt_loop", 10)[:1], seconds=0, trace=False, workdir=tmp_path)
    assert out["failed"] == 1
    assert "digests differ" in out["failures"]["siso_sf_adaptive"][0]


def test_tracer_restores_every_wrapped_function(tmp_path):
    modules = [tracer._module(m) for m in tracer.MODULES]
    before = [dict(vars(m)) for m in modules]
    t = tracer.Tracer()
    with t:
        assert len(t._saved) > len(tracer.LAYERS)
        wrapped = {(mod.__name__, attr) for mod, attr, _ in t._saved}
        bench.run_pass(bench.write_scenarios(_short("oracle_fit", 5)[:1], tmp_path),
                       tmp_path / "out")
    assert ("adaptrack.engine", "rk4_step") in wrapped
    assert ("adaptrack.siso", "ref_input_from_io") in wrapped
    for mod, snapshot in zip(modules, before):
        for attr, value in snapshot.items():
            assert getattr(mod, attr) is value, f"{mod.__name__}.{attr}"
    assert t.layer_metrics()["linsys.ref_input_from_io.calls"] == 1
