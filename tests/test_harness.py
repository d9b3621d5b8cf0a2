import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from adaptrack import cli, harness, siso
from adaptrack.engine import SimTrace
from adaptrack.errors import ParseError, ValidationError


def _minimal(**kw):
    d = {
        "schema_version": 1,
        "name": "t",
        "module": "siso",
        "benchmark": "siso-3rd",
        "horizon": 50,
    }
    d.update(kw)
    return d


def _write(tmp_path, data, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return p


# -- parsing and validation -----------------------------------------------------


def test_minimal_scenario_defaults(tmp_path):
    scn = harness.load_scenario(_write(tmp_path, _minimal()))
    assert scn.mode == "adaptive" and not scn.test_mode
    assert scn.domain == "dt" and scn.horizon == 50
    assert scn.tail_fraction == 0.1


def test_malformed_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        harness.load_scenario(p)


def test_unknown_field_named(tmp_path):
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, _minimal(bogus_field=1)))
    assert "bogus_field" in str(ei.value)


def test_unstable_pm_rejected_naming_field(tmp_path):
    data = _minimal()
    data["pm"] = [-1.5, 1.0]  # root at 1.5: unstable in DT
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, data))
    assert str(ei.value).startswith("pm")


def test_gamma_bound_rejected_naming_field(tmp_path):
    data = _minimal(gains={"gamma_theta": 1.5})  # 2/kp_bound = 1.111
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, data))
    assert "gamma_theta" in str(ei.value)


def test_gamma_rho_bound(tmp_path):
    data = _minimal(gains={"gamma_rho": 2.5})
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, data))
    assert "gamma_rho" in str(ei.value)


def test_indefinite_gamma_theta_rejected_naming_field(tmp_path):
    # the largest eigenvalue is admissible, the smallest is negative
    data = _minimal(gains={"gamma_theta": np.diag([-0.3] + [0.5] * 6).tolist()})
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, data))
    assert ei.value.field == "gains.gamma_theta"


def test_indefinite_ct_gamma_rejected_naming_field(tmp_path):
    data = _minimal(module="mimo", benchmark="mimo-ct-2x2",
                    gains={"gamma": [[-1.0, 0.0], [0.0, 1.0]]})
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, data))
    assert ei.value.field == "gains.gamma"


def test_nominal_requires_test_mode(tmp_path):
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, _minimal(mode="nominal")))
    assert "test_mode" in str(ei.value)


def test_near_start_requires_test_mode(tmp_path):
    with pytest.raises(ValidationError):
        harness.load_scenario(_write(tmp_path, _minimal(theta0="near")))


def test_wrong_schema_version(tmp_path):
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, _minimal(schema_version=2)))
    assert "schema_version" in str(ei.value)


def test_fl_requires_benchmark(tmp_path):
    data = {"schema_version": 1, "name": "x", "module": "fl", "horizon": 10}
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, data))
    assert "benchmark" in str(ei.value)


def test_explicit_plant_scenario(tmp_path):
    data = {
        "schema_version": 1, "name": "explicit", "module": "siso", "domain": "dt",
        "plant": {"A": [[0.5]], "B": [[1.0]], "C": [[2.0]]},
        "refmodel": {"A": [[0.3]], "B": [[1.0]], "C": [[1.0]]},
        "pm": [0.4, 1.0], "lambda": [1.0], "lambda_e": [1.0],
        "sign_kp": 1.0, "kp_bound": 2.5,
        "um": {"channels": [{"sinusoids": [{"amp": 1.0, "freq": 0.3}], "bias": 0.2}]},
        "horizon": 200,
    }
    scn = harness.load_scenario(_write(tmp_path, data))
    trace, report = harness.run_experiment(scn)
    assert trace.n_samples == 200


# -- metrics and outputs ----------------------------------------------------------


def _run_small(tmp_path, **kw):
    data = _minimal(test_mode=True, theta0="near", horizon=600,
                    converge_tol=1e-2, **kw)
    scn = harness.load_scenario(_write(tmp_path, data))
    return scn, harness.run_experiment(scn)


def test_run_experiment_metrics(tmp_path):
    scn, (trace, report) = _run_small(tmp_path)
    assert report.converged
    assert report.lyapunov_violations == 0
    assert report.sup_theta_norm > 0
    assert report.horizon == 600


def test_determinism_byte_identical(tmp_path):
    scn, (tr1, rep1) = _run_small(tmp_path)
    paths1 = harness.emit_outputs(tr1, rep1, tmp_path / "o1")
    scn2 = harness.load_scenario(_write(tmp_path, _minimal(
        test_mode=True, theta0="near", horizon=600, converge_tol=1e-2)))
    tr2, rep2 = harness.run_experiment(scn2)
    paths2 = harness.emit_outputs(tr2, rep2, tmp_path / "o2")
    for key in ("trace", "long", "report"):
        assert paths1[key].read_bytes() == paths2[key].read_bytes()


@pytest.mark.parametrize("bench,design", [("mimo-ct-2x2", "gradient"),
                                          ("mimo-rd1-ct", "rd1")])
def test_ct_determinism_byte_identical(tmp_path, bench, design):
    data = {
        "schema_version": 1, "name": "ct", "module": "mimo", "benchmark": bench,
        "design": design, "mode": "adaptive", "test_mode": True, "theta0": "near",
        "horizon": 300, "seed": 0,
    }
    p = _write(tmp_path, data)
    outs = []
    for sub in ("a", "b"):
        scn = harness.load_scenario(p)
        tr, rep = harness.run_experiment(scn)
        assert rep.lyapunov_violations == 0
        outs.append(harness.emit_outputs(tr, rep, tmp_path / sub))
    for key in ("trace", "long", "report"):
        assert outs[0][key].read_bytes() == outs[1][key].read_bytes()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_report_strict_json_nan_as_null(tmp_path):
    empty = SimTrace(
        t=np.zeros(0), y=np.zeros((0, 1)), ym=np.zeros((0, 1)), e=np.zeros((0, 1)),
        u=np.zeros((0, 1)), m=np.zeros(0), eps=np.zeros((0, 1)), v=np.zeros(0),
        theta_norm=np.zeros(0), guard_events=[{"t": 0.0, "sigma_min": float("inf")}],
    )
    report = harness.MetricsReport(name="nan", tail_rms_e=float("nan"),
                                   sup_theta_norm=float("nan"), l2_tail=float("nan"),
                                   converged=False, guard_aborted=True)
    paths = harness.emit_outputs(empty, report, tmp_path / "on")
    data = json.loads(paths["report"].read_text(), parse_constant=_reject_constant)
    assert data["tail_rms_e"] is None and data["l2_tail"] is None
    assert data["guard_events"] == [{"t": 0.0, "sigma_min": None}]
    back = harness.parse_report(paths["report"])
    assert np.isnan(back.tail_rms_e) and np.isnan(back.sup_theta_norm)
    assert back.name == "nan" and back.guard_aborted


@pytest.mark.parametrize("domain", ["dt", "ct"])
def test_nonfinite_certificate_increment_is_violation(tmp_path, domain):
    data = (_minimal(test_mode=True) if domain == "dt" else
            {"schema_version": 1, "name": "c", "module": "mimo",
             "benchmark": "mimo-ct-2x2", "test_mode": True, "horizon": 5})
    scn = harness.load_scenario(_write(tmp_path, data))
    n = 5
    m = 1 if domain == "dt" else 2
    trace = SimTrace(
        t=np.arange(n) * scn.step, y=np.zeros((n, m)), ym=np.zeros((n, m)),
        e=np.zeros((n, m)), u=np.zeros((n, m)), m=np.ones(n), eps=np.zeros((n, m)),
        v=np.array([2.0, 1.0, np.nan, np.inf, 0.5]), theta_norm=np.ones(n),
    )
    # decreasing steps are fine; 1 -> nan, nan -> inf and inf -> 0.5 are not
    assert harness.compute_metrics(scn, trace).lyapunov_violations == 3


def test_trace_csv_column_order(tmp_path):
    scn, (trace, report) = _run_small(tmp_path)
    paths = harness.emit_outputs(trace, report, tmp_path / "out")
    header = paths["trace"].read_text().splitlines()[0]
    assert header == "t,y_1,ym_1,e_1,u_1,m,eps_1,V,theta_norm"


def test_trace_csv_column_order_two_channels(tmp_path):
    data = {
        "schema_version": 1, "name": "m2", "module": "mimo",
        "benchmark": "mimo-dt-2x2", "horizon": 40,
    }
    scn = harness.load_scenario(_write(tmp_path, data))
    trace, report = harness.run_experiment(scn)
    paths = harness.emit_outputs(trace, report, tmp_path / "out2")
    header = paths["trace"].read_text().splitlines()[0]
    assert header == ("t,y_1,y_2,ym_1,ym_2,e_1,e_2,u_1,u_2,m,eps_1,eps_2,V,theta_norm")


def test_empty_trace_header_only(tmp_path):
    empty = SimTrace(
        t=np.zeros(0), y=np.zeros((0, 1)), ym=np.zeros((0, 1)), e=np.zeros((0, 1)),
        u=np.zeros((0, 1)), m=np.zeros(0), eps=np.zeros((0, 1)), v=np.zeros(0),
        theta_norm=np.zeros(0),
    )
    report = harness.MetricsReport(name="empty", tail_rms_e=float("nan"),
                                   sup_theta_norm=float("nan"), l2_tail=0.0,
                                   converged=False, guard_aborted=True)
    paths = harness.emit_outputs(empty, report, tmp_path / "oe", name="empty")
    lines = paths["trace"].read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("t,")


def test_report_round_trip(tmp_path):
    scn, (trace, report) = _run_small(tmp_path)
    paths = harness.emit_outputs(trace, report, tmp_path / "rr")
    back = harness.parse_report(paths["report"])
    assert back == report


def test_long_format_rows(tmp_path):
    scn, (trace, report) = _run_small(tmp_path)
    paths = harness.emit_outputs(trace, report, tmp_path / "lf")
    lines = paths["long"].read_text().splitlines()
    assert lines[0] == "t,series,value"
    ncols = len(paths["trace"].read_text().splitlines()[0].split(",")) - 1
    assert len(lines) - 1 == trace.n_samples * ncols


def test_shipped_scenarios_parse():
    # schema stability: the checked-in scenario files stay loadable
    from pathlib import Path

    scen_dir = Path(__file__).resolve().parents[1] / "scenarios"
    files = sorted(scen_dir.glob("*.json"))
    assert len(files) >= 5
    for f in files:
        scn = harness.load_scenario(f)
        assert scn.horizon > 0


def test_trace_m_at_least_one(tmp_path):
    scn, (trace, report) = _run_small(tmp_path)
    assert np.all(trace.m >= 1.0)


# -- blind-mode separation ----------------------------------------------------------


def test_blind_run_never_touches_matching_oracles(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("matching-parameter oracle touched in blind mode")

    monkeypatch.setattr(siso, "nominal_params", boom)
    data = _minimal(horizon=300)  # test_mode False
    scn = harness.load_scenario(_write(tmp_path, data))
    trace, report = harness.run_experiment(scn)
    assert np.all(np.isnan(trace.v))
    assert report.lyapunov_violations is None


def test_blind_fl_run_never_touches_oracles(tmp_path, monkeypatch):
    from adaptrack import feedback_lin

    monkeypatch.setattr(feedback_lin, "benchmark_theta_star",
                        lambda *a, **k: (_ for _ in ()).throw(AssertionError("oracle")))
    plant, leader, ia = feedback_lin.benchmark()
    tstar_shape = (sum((3, 3, 2, leader.qm)), 2)
    theta0 = np.full(tstar_shape, 0.2).tolist()  # explicit start, no oracle
    data = {
        "schema_version": 1, "name": "fb", "module": "fl", "benchmark": "fl-2x3",
        "horizon": 40, "theta0": theta0,
    }
    scn = harness.load_scenario(_write(tmp_path, data))
    trace, report = harness.run_experiment(scn)
    assert np.all(np.isnan(trace.v))


def test_test_mode_uses_oracles(tmp_path, monkeypatch):
    called = {"n": 0}
    real = siso.nominal_params

    def spy(*a, **k):
        called["n"] += 1
        return real(*a, **k)

    monkeypatch.setattr(siso, "nominal_params", spy)
    _run_small(tmp_path)
    assert called["n"] >= 1


# -- CLI ------------------------------------------------------------------------------


def test_cli_list_benchmarks(capsys):
    assert cli.main(["list-benchmarks"]) == 0
    out = capsys.readouterr().out
    assert "siso-3rd" in out and "fl-2x3" in out


def test_cli_validate_good_and_bad(tmp_path, capsys):
    good = _write(tmp_path, _minimal(), "good.json")
    bad = _write(tmp_path, _minimal(pm=[-1.5, 1.0]), "bad.json")
    assert cli.main(["validate", "--scenario", str(good)]) == 0
    assert cli.main(["validate", "--scenario", str(bad)]) == 1


def test_cli_run_converged_exit_zero(tmp_path):
    p = _write(tmp_path, _minimal(test_mode=True, theta0="near", horizon=600,
                                  converge_tol=1e-2))
    code = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "t_trace.csv").exists()


def test_cli_run_guard_abort_exit_two(tmp_path):
    data = {
        "schema_version": 1, "name": "g", "module": "fl", "benchmark": "fl-2x3",
        "horizon": 50, "theta0": "zero",
    }
    p = _write(tmp_path, data)
    code = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path / "og")])
    assert code == 2


def test_cli_run_diverged_exit_two(tmp_path, capsys):
    # a CT step far outside RK4's stability region: the run stops and says why
    scn = Path(__file__).resolve().parents[1] / "scenarios" / "mimo_rd1_ct.json"
    out = tmp_path / "od"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the event says it; numpy stays quiet
        code = cli.main(["run", "--scenario", str(scn), "--out", str(out),
                         "--step", "2.0", "--horizon", "300"])
    assert code == 2
    assert "mimo_rd1_ct: diverged" in capsys.readouterr().out
    report = json.loads((out / "mimo_rd1_ct_report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["guard_aborted"] and not report["converged"]
    assert np.isfinite(report["tail_rms_e"])
    [event] = report["guard_events"]
    assert sorted(event) == ["diverged", "t"]
    # the trace ends at the row before the step that went non-finite
    assert event["t"] == 2.0 * report["horizon"]


def test_cli_run_invalid_exit_one(tmp_path):
    p = _write(tmp_path, _minimal(pm=[-1.5, 1.0]))
    assert cli.main(["run", "--scenario", str(p), "--out", str(tmp_path / "ox")]) == 1


def test_cli_overrides(tmp_path):
    p = _write(tmp_path, _minimal(test_mode=True, theta0="near", horizon=600))
    code = cli.main(["run", "--scenario", str(p), "--out", str(tmp_path / "oo"),
                     "--horizon", "120"])
    assert code in (0, 1)
    lines = (tmp_path / "oo" / "t_trace.csv").read_text().splitlines()
    assert len(lines) == 121


def test_cli_outdir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envout"))
    p = _write(tmp_path, _minimal(test_mode=True, theta0="near", horizon=600,
                                  converge_tol=1e-2))
    assert cli.main(["run", "--scenario", str(p)]) == 0
    assert (tmp_path / "envout" / "t_trace.csv").exists()
