import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from adaptrack import benchmarks, cli, feedback_lin as fl, harness, mimo, siso
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
    assert scn.mode == "adaptive" and scn.oracle is None
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


_MIMO = {"module": "mimo", "benchmark": "mimo-dt-2x2", "test_mode": True}
# explicit one-state scenarios giving every component their module reads
_EXPLICIT = {
    "benchmark": None, "domain": "dt",
    "plant": {"A": [[0.5]], "B": [[1.0]], "C": [[2.0]]},
    "refmodel": {"A": [[0.3]], "B": [[1.0]], "C": [[1.0]]},
    "lambda": [1.0], "lambda_e": [1.0],
    "um": {"channels": [{"sinusoids": [{"amp": 1.0, "freq": 0.3}], "bias": 0.2}]},
}
_EXPLICIT_SISO = dict(_EXPLICIT, pm=[0.4, 1.0], sign_kp=1.0, kp_bound=2.5)
_EXPLICIT_MIMO = dict(_EXPLICIT, module="mimo", interactor=[[0.4, 1.0]], f=[0.4, 1.0],
                      gains={"sp": [[0.5]]})


def _without(base, fld):
    return {k: v for k, v in base.items() if k != fld}

_FL = {"module": "fl", "benchmark": "fl-2x3"}
_NAN, _INF = float("nan"), float("inf")
# zero at 2: not minimum phase in discrete time
_NMP_PLANT = {"A": [[0.0, 1.0], [-0.06, 0.5]], "B": [[0.0], [1.0]], "C": [[-2.0, 1.0]]}
# the same poles without a zero: relative degree 2
_RD2_PLANT = dict(_NMP_PLANT, C=[[1.0, 0.0]])
_PM2 = [0.02, -0.3, 1.0]  # roots 0.1 and 0.2
# mimo-ct-2x2's Kp^-1, the known gain Kp Sp = I
_CT_SP = benchmarks.mimo_ct_2x2()["sp"]
_SIN = {"amp": "x", "freq": 0.1}
# mimo-dt-2x2 with a fourth plant state at 0.5 that neither u drives nor y reads
_DT22 = benchmarks.mimo_dt_2x2()
_NONMINIMAL_MIMO = {
    "benchmark": None, "domain": "dt", "module": "mimo", "test_mode": True,
    "plant": {"A": np.block([[_DT22["plant"].a, np.zeros((3, 1))],
                             [np.zeros((1, 3)), 0.5]]).tolist(),
              "B": np.vstack([_DT22["plant"].b, np.zeros((1, 2))]).tolist(),
              "C": np.hstack([_DT22["plant"].c, np.zeros((2, 1))]).tolist()},
    "refmodel": {k: getattr(_DT22["refmodel"], k.lower()).tolist() for k in "ABC"},
    "interactor": [d.coeffs.tolist() for d in _DT22["interactor"].rows],
    "f": _DT22["fpoly"].coeffs.tolist(), "lambda": _DT22["lam"].coeffs.tolist(),
    "um": {"channels": [{"bias": 0.5}] * 2}, "gains": {"sp": _DT22["sp"].tolist()},
}

# (base fields, field values, field named): each used to pass validation, or to
# end in a numpy or Python traceback from validate or run
_MALFORMED = {
    # wrong sizes are not broadcast over the state or parameter vector
    "siso_x0": ({}, {"x0": [0.1]}, "x0"),
    "mimo_xm0": (_MIMO, {"xm0": [0.1]}, "xm0"),
    "fl_x0": (_FL, {"x0": [1.0]}, "x0"),
    "siso_theta0": ({}, {"theta0": [0.0, 1.0]}, "theta0"),
    "mimo_theta0": (_MIMO, {"theta0": [[0.0, 0.0]] * 7}, "theta0"),
    "fl_theta0": (_FL, {"theta0": [[0.0, 0.0]] * 16}, "theta0"),
    "siso_gamma_theta": ({}, {"gains": {"gamma_theta": np.eye(2).tolist()}}, "gains.gamma_theta"),
    "mimo_gamma": (_MIMO, {"gains": {"gamma": [[1.0]]}}, "gains.gamma"),
    "mimo_sp": (_MIMO, {"gains": {"sp": [1.0, 1.0]}}, "gains.sp"),
    "siso_um_channels": ({}, {"um": {"channels": [{"bias": 0.5}] * 2}}, "um"),
    "mimo_um_channels": (_MIMO, {"um": {"channels": [{"bias": 0.5}]}}, "um"),
    # malformed scalars and containers
    "seed": ({}, {"seed": "abc"}, "seed"),
    "horizon": ({}, {"horizon": "x"}, "horizon"),
    "tail_fraction": ({}, {"tail_fraction": "a"}, "tail_fraction"),
    "structure": ({}, {"structure": "zz"}, "structure"),
    "amp": ({}, {"um": {"channels": [{"sinusoids": [_SIN]}]}}, "um.channels[0].sinusoids[0].amp"),
    "gains": ({}, {"gains": [1]}, "gains"),
    "um_channel": ({}, {"um": {"channels": [1]}}, "um.channels[0]"),
    "interactor": (_MIMO, {"interactor": 5}, "interactor"),
    "plant": ({"benchmark": None, "domain": "dt", "refmodel": {}}, {"plant": 5}, "plant"),
    # a dt loop steps once per sample: a given step was ignored
    "dt_explicit_step": ({"benchmark": None, "domain": "dt", "plant": {}, "refmodel": {}},
                         {"step": 0.5}, "step"),
    # an explicit ct step of zero or less ended in linsys.TimeDomain's bare ValueError
    "ct_explicit_step_zero": ({"benchmark": None, "domain": "ct", "plant": {}, "refmodel": {}},
                              {"step": 0.0}, "step"),
    "ct_explicit_step_negative": ({"benchmark": None, "domain": "ct", "plant": {},
                                   "refmodel": {}}, {"step": -0.01}, "step"),
    # output-feedback matching parameters need nu at least the observability index
    # (2 for mimo-dt-2x2): nominal_params ended the run in SingularMatchingSystem
    "mimo_of_nominal": (_MIMO, {"structure": "of_xm", "mode": "nominal", "nu": 1,
                                "lambda": [1.0]}, "nu"),
    "mimo_of_near": (_MIMO, {"structure": "of_xm", "theta0": "near", "nu": 1,
                             "lambda": [1.0]}, "nu"),
    # a non-minimal plant has no output-feedback matching parameters: load failed in
    # SingularMatchingSystem, which names no field
    "mimo_of_nonminimal_plant": (_NONMINIMAL_MIMO, {"structure": "of_xm", "nu": 2}, "plant"),
    # a benchmark's own plant and reference model ran in place of the given ones
    "benchmark_plant": ({}, {"plant": _EXPLICIT["plant"]}, "plant"),
    "benchmark_refmodel": ({}, {"refmodel": _EXPLICIT["refmodel"]}, "refmodel"),
    # numpy's bare ValueError from run; a NaN tolerance reported not-converged always
    "seed_negative": ({}, {"seed": -1}, "seed"),
    "converge_tol_nan": ({}, {"converge_tol": "nan"}, "converge_tol"),
    # the name becomes part of the output paths
    "name_path": ({}, {"name": "../escaped"}, "name"),
    # only JSON booleans: the string "false" would switch test mode on
    "test_mode_string": ({}, {"test_mode": "false"}, "test_mode"),
    "test_mode_int": ({}, {"test_mode": 1}, "test_mode"),
    # the nonlinear leader starts at its benchmark state; a given xm0 was dropped
    "fl_xm0": (_FL, {"xm0": [9.0, 9.0]}, "xm0"),
    "fl_xm0_zero": (_FL, {"xm0": "zero"}, "xm0"),
    # another module's fields were loaded and silently dropped
    "mimo_gamma_theta": (_MIMO, {"gains": {"gamma_theta": 0.5}}, "gains.gamma_theta"),
    "mimo_guard": (_MIMO, {"gains": {"guard": 1e-6}}, "gains.guard"),
    "mimo_kp_bound": (_MIMO, {"kp_bound": 2.0}, "kp_bound"),
    "mimo_sign_kp": (_MIMO, {"sign_kp": 1.0}, "sign_kp"),
    "siso_sp": ({}, {"gains": {"sp": [[1.0]]}}, "gains.sp"),
    "siso_gamma": ({}, {"gains": {"gamma": 1.0}}, "gains.gamma"),
    "siso_q": ({}, {"gains": {"q": [[1.0]]}}, "gains.q"),
    "siso_nu": ({}, {"nu": 3}, "nu"),
    "siso_nbe": ({}, {"nbe": 2}, "nbe"),
    "fl_structure": (_FL, {"structure": "sf_xm"}, "structure"),
    "fl_gamma_theta": (_FL, {"gains": {"gamma_theta": 0.5}}, "gains.gamma_theta"),
    "fl_sp": (_FL, {"gains": {"sp": [[1.0]]}}, "gains.sp"),
    # the guard is checked where its model is built, like every other gain
    "fl_guard_zero": (_FL, {"gains": {"guard": 0.0}}, "gains.guard"),
    "fl_guard_string": (_FL, {"gains": {"guard": "tight"}}, "gains.guard"),
    # rd1 is the continuous-time multivariable design with first-order interactor
    # rows and a positive definite Q: a dt plant failed at run, second-order rows in a
    # bare ValueError, siso ran the gradient law, and an indefinite Q loaded
    "mimo_dt_rd1": (_MIMO, {"design": "rd1"}, "design"),
    "mimo_ct_second_order_rd1": (dict(_MIMO, benchmark="mimo-ct-2x2"), {"design": "rd1"},
                                 "design"),
    "siso_rd1": ({}, {"design": "rd1"}, "design"),
    "fl_rd1": (_FL, {"design": "rd1"}, "design"),
    "mimo_design_unknown": (_MIMO, {"design": "lyapunov"}, "design"),
    "mimo_rd1_q_indefinite": (dict(_MIMO, benchmark="mimo-rd1-ct"),
                              {"design": "rd1", "gains": {"q": [[1.0, 0.0], [0.0, -1.0]]}},
                              "gains.q"),
    "mimo_q_shape": (_MIMO, {"gains": {"q": np.eye(3).tolist()}}, "gains.q"),
    # a component the module's loop reads was missing: run ended in a KeyError, or in
    # MimoScenario's bare ValueError for lambda and lambda_e
    **{f"siso_missing_{f}": (_without(_EXPLICIT_SISO, f), {}, f)
       for f in ("pm", "lambda", "lambda_e", "sign_kp", "um")},
    **{f"mimo_missing_{f}": (_without(_EXPLICIT_MIMO, f), {}, f)
       for f in ("interactor", "f", "um")},
    "mimo_of_missing_lambda": (_without(_EXPLICIT_MIMO, "lambda"), {"structure": "of_xm"},
                               "lambda"),
    "mimo_ym_missing_lambda_e": (_without(_EXPLICIT_MIMO, "lambda_e"), {"structure": "sf_ym"},
                                 "lambda_e"),
    # the model's own checks ran only in run_experiment, and ended run in a bare ValueError
    "mimo_of_lambda_degree": (_MIMO, {"structure": "of_xm", "nu": 3, "lambda": [0.5, 1.0]},
                              "lambda"),
    "mimo_ym_nbe": (_MIMO, {"structure": "sf_ym", "nbe": 4, "lambda_e": [0.5, 1.0]}, "nbe"),
    "mimo_f_degree": (_MIMO, {"f": [0.5, 1.0]}, "f"),
    "siso_sign_kp_zero": (dict(_EXPLICIT_SISO, sign_kp=0), {}, "sign_kp"),
    "siso_pm_degree": (dict(_EXPLICIT_SISO, pm=[0.1, 0.5, 1.0]), {}, "pm"),
    "siso_nonminimum_phase": (dict(_EXPLICIT_SISO, plant=_NMP_PLANT, **{"lambda": [0.5, 1.0],
                                   "lambda_e": [0.5, 1.0]}), {}, "plant"),
    "siso_ct": (dict(_EXPLICIT_SISO, domain="ct", plant={"A": [[-0.5]], "B": [[1.0]],
                                                         "C": [[2.0]]},
                     refmodel={"A": [[-0.3]], "B": [[1.0]], "C": [[1.0]]}), {}, "domain"),
    "mimo_nonsquare_plant": (dict(_EXPLICIT_MIMO, plant={"A": [[0.5]], "B": [[1.0, 1.0]],
                                                         "C": [[2.0]]}), {}, "plant"),
    # the run's gain-prior check (test mode, adaptive, gradient) failed only once running
    "mimo_prior_sp": (_MIMO, {"theta0": "near", "gains": {"sp": [[-1.0, 0.0], [0.0, 1.0]]}},
                      "gains.sp"),
    "siso_prior_sign_kp": ({}, {"test_mode": True, "theta0": "near", "sign_kp": -1},
                           "sign_kp"),
    "siso_prior_kp_bound": ({}, {"test_mode": True, "theta0": "near", "kp_bound": 0.01},
                            "kp_bound"),
    # the plant assumptions were checked for siso and the benchmarks only: an explicit mimo
    # scenario loaded and ran, a reference check ended in a field-less error, and a
    # benchmark with its interactor rows swapped loaded and diverged
    "mimo_nonminimum_phase": (dict(_EXPLICIT_MIMO, plant=_NMP_PLANT), {}, "plant"),
    "mimo_plant_degree": (dict(_EXPLICIT_MIMO, plant=_RD2_PLANT), {}, "interactor[0]"),
    "mimo_swapped_interactor": (dict(_MIMO, test_mode=False),
                                {"interactor": [[0.0375, -0.4, 1.0], [-0.2, 1.0]]},
                                "interactor[0]"),
    "mimo_refmodel_degree": (dict(_EXPLICIT_MIMO, plant=_RD2_PLANT, interactor=[_PM2], f=_PM2),
                             {}, "refmodel"),
    "siso_refmodel_degree": (dict(_EXPLICIT_SISO, plant=_RD2_PLANT, pm=_PM2,
                                  **{"lambda": [0.5, 1.0], "lambda_e": [0.5, 1.0]}), {},
                             "refmodel"),
    # a ct gain prior so large that RK4 cannot integrate the adaptation: loaded, then diverged
    "mimo_ct_prior_rk4": (dict(_MIMO, benchmark="mimo-ct-2x2"),
                          {"theta0": "near", "gains": {"sp": (5000 * _CT_SP).tolist(),
                                                       "gamma": 5000.0}}, "gains.sp"),
    # JSON's NaN, Infinity and 1e400 parse as floats: a NaN sp loaded and diverged on theta
    # at t = 0, NaN or infinite signals on plant_filters, and a NaN in f, the interactor or
    # the plant ended validate in a LinAlgError; an infinite ct step loaded and stopped
    # with an event at t = NaN
    "mimo_sp_nan": (_MIMO, {"gains": {"sp": [[_NAN, 0.0], [0.0, 1.0]]}}, "gains.sp"),
    "mimo_refmodel_c_nan": (dict(_EXPLICIT_MIMO, refmodel=dict(_EXPLICIT["refmodel"],
                                                               C=[[_NAN]])), {}, "refmodel.C"),
    "um_amp_nan": ({}, {"um": {"channels": [{"sinusoids": [{"amp": _NAN, "freq": 0.1}]}]}},
                   "um.channels[0].sinusoids[0].amp"),
    "um_bias_inf": ({}, {"um": {"channels": [{"bias": _INF}]}}, "um.channels[0].bias"),
    "mimo_x0_nan": (_MIMO, {"x0": [_NAN, 0.0, 0.0]}, "x0"),
    "mimo_xm0_nan": (_MIMO, {"xm0": [0.0, _NAN, 0.0]}, "xm0"),
    "mimo_theta0_nan": (_MIMO, {"theta0": [[_NAN, 0.0]] + [[0.0, 0.0]] * 7}, "theta0"),
    "mimo_f_nan": (_MIMO, {"f": [_NAN, 0.1, 1.0]}, "f"),
    "mimo_interactor_nan": (_MIMO, {"interactor": [[_NAN, 1.0], [0.0375, -0.4, 1.0]]},
                            "interactor"),
    "mimo_plant_a_nan": (dict(_EXPLICIT_MIMO, plant=dict(_EXPLICIT["plant"], A=[[_NAN]])), {},
                         "plant.A"),
    "mimo_ct_step_inf": (dict(_MIMO, benchmark="mimo-rd1-ct"), {"step": _INF}, "step"),
    "fl_step_inf": (_FL, {"step": _INF}, "step"),
    # an integer literal beyond the float range ended load in an OverflowError, and a
    # step given as the string "inf" loaded
    "mimo_sp_huge_int": (_MIMO, {"gains": {"sp": [[10**400, 0], [0, 1]]}}, "gains.sp"),
    "mimo_ct_step_string_inf": (dict(_MIMO, benchmark="mimo-ct-2x2"), {"step": "inf"}, "step"),
    # integer fields were truncated: 1.5 ran as seed 1, true as horizon 1
    "seed_fraction": ({}, {"seed": 1.5}, "seed"),
    "seed_bool": ({}, {"seed": False}, "seed"),
    "horizon_fraction": ({}, {"horizon": 10.7}, "horizon"),
    "horizon_bool": ({}, {"horizon": True}, "horizon"),
    "mimo_nu_fraction": (_MIMO, {"structure": "of_xm", "nu": 2.9, "lambda": [0.5, 1.0]}, "nu"),
    "mimo_nbe_fraction": (_MIMO, {"structure": "sf_ym", "nbe": 1.5, "lambda_e": [0.5, 1.0]},
                          "nbe"),
    # an empty coefficient list ended validate and run in an IndexError
    "mimo_f_empty": (_MIMO, {"f": []}, "f"),
    "mimo_lambda_empty": (_MIMO, {"structure": "of_xm", "lambda": []}, "lambda"),
    "siso_pm_empty": ({}, {"pm": []}, "pm"),
    "mimo_interactor_empty_row": (_MIMO, {"interactor": [[], [-0.2, 1.0]]}, "interactor[0]"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_field_rejected_at_load_naming_it(tmp_path, capsys, case):
    base, fields, named = _MALFORMED[case]
    data = _minimal(**base, **fields)
    with pytest.raises(ValidationError) as ei:
        harness.scenario_from_dict(data)
    assert ei.value.field == named
    path = str(_write(tmp_path, data))
    assert cli.main(["validate", "--scenario", path]) == 1
    assert f"INVALID: {named}: " in capsys.readouterr().err
    # run rejects it at the same load, naming the same field, and writes nothing
    assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
    assert f"ERROR: {named}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ct_gain_prior_inside_rk4_region_loads():
    # Kp Sp = 1000 I: h lambda = -1 at h = 1e-3, inside RK4's stability region
    data = _minimal(**dict(_MIMO, benchmark="mimo-ct-2x2"), theta0="near",
                    gains={"sp": (1000 * _CT_SP).tolist(), "gamma": 1000.0})
    assert np.array_equal(harness.scenario_from_dict(data).model.sp, 1000 * _CT_SP)


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
    data = _minimal(**_EXPLICIT_SISO, name="explicit", horizon=200)
    scn = harness.load_scenario(_write(tmp_path, data))
    trace, report = harness.run_experiment(scn)
    assert trace.n_samples == 200


@pytest.mark.parametrize("structure", ["sf_xm", "sf_ym", "of_xm", "of_ym"])
def test_explicit_mimo_scenario_needs_only_what_its_structure_reads(structure):
    # lambda feeds the output-feedback banks, lambda_e the reference banks
    data = _minimal(**_EXPLICIT_MIMO, structure=structure, horizon=100)
    if not structure.startswith("of"):
        data = _without(data, "lambda")
    if not structure.endswith("ym"):
        data = _without(data, "lambda_e")
    trace, report = harness.run_experiment(harness.scenario_from_dict(data))
    assert trace.n_samples == 100 and not report.guard_aborted


@pytest.mark.parametrize("structure", ["of_xm", "of_ym"])
def test_mimo_output_feedback_nominal_and_near_start_run(structure):
    # nu = 2 is mimo-dt-2x2's observability index: both requests load and run
    # on the matching parameters, with the certificate in the near start
    base = _minimal(**_MIMO, structure=structure, horizon=400)
    _, nominal = harness.run_experiment(harness.scenario_from_dict(dict(base, mode="nominal")))
    assert nominal.tail_rms_e < 1e-12
    _, near = harness.run_experiment(harness.scenario_from_dict(dict(base, theta0="near")))
    assert near.lyapunov_violations == 0 and not near.guard_aborted


_SIN = {"amp": 0.8, "freq": 0.4, "phase": 0.3}


@pytest.mark.parametrize("bench,structure", [("mimo-dt-2x2", "sf_ym"),
                                             ("mimo-ct-2x2", "sf_ym"),
                                             ("mimo-ct-2x2", "sf_xm")])
@pytest.mark.parametrize("sinusoid_on_second", [False, True])
def test_bias_only_channel_runs_as_a_zero_amplitude_sinusoid(tmp_path, bench, structure,
                                                             sinusoid_on_second):
    # a channel with no sinusoids is a plain step; the loops read u_m at one
    # time (DT) or on arrays of stage times (CT), and both shapes must hold
    def run(first):
        second = {"sinusoids": [_SIN], "bias": -0.1} if sinusoid_on_second else {"bias": -0.1}
        data = {"schema_version": 1, "name": "b", "module": "mimo", "benchmark": bench,
                "structure": structure, "horizon": 300,
                "um": {"channels": [first, second]}}
        return harness.run_experiment(harness.load_scenario(_write(tmp_path, data)))[0]

    step = run({"bias": 0.4})
    zero_sin = run({"sinusoids": [dict(_SIN, amp=0.0)], "bias": 0.4})
    assert step.n_samples == 300
    for fld in ("y", "ym", "e", "u", "theta_norm"):
        assert np.array_equal(getattr(step, fld), getattr(zero_sin, fld)), fld


# -- a reference model of another order than the plant's -------------------------------

# x_m enters the _xm regressors, so its block is as wide as the reference model;
# nothing ties that order to the plant's
_REF2 = {"A": [[0.0, 1.0], [-0.24, 1.0]], "B": [[0.0], [1.0]],
         "C": [[1.0, 0.0]]}  # poles 0.6, 0.4, relative degree 2
_REF4 = {"A": [[0.4, 0.0, 0.0, 0.1], [0.0, 0.0, 1.0, 0.0], [0.0, -0.06, 0.5, 0.0],
               [0.0, 0.0, 0.0, 0.3]],
         "B": [[1.0, 0.1], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
         "C": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]}  # row relative degrees (1, 2)


def test_linear_benchmark_is_its_model_builders_keyword_arguments():
    # the fl benchmark too: every benchmark dict is its model's keyword arguments
    builders = {"siso": siso.scenario, "mimo": mimo.MimoScenario, "fl": fl.FLScenario}
    for name, (build, module, _) in benchmarks.REGISTRY.items():
        keys = set(build())
        assert keys <= set(inspect.signature(builders[module]).parameters), name
        assert "dims" not in keys, name
    scn = fl.FLScenario(**benchmarks.build("fl-2x3"))
    assert scn.dims == (3, 3, 2, 9) and scn.step == 1e-3 and scn.x0 is not None


def _explicit_with_refmodel(bench, refmodel, **kw):
    """The DT benchmark written out as an explicit scenario, with another reference model."""
    b, module = benchmarks.build(bench), benchmarks.REGISTRY[bench][1]
    d = _minimal(module=module, benchmark=None, domain="dt", refmodel=refmodel, horizon=400,
                 plant={k: getattr(b["plant"], k.lower()).tolist() for k in "ABC"},
                 um={"channels": [{"sinusoids": [{"amp": 1.0, "freq": 0.3},
                                                 {"amp": 0.5, "freq": 1.1}], "bias": 0.2}]
                     * b["plant"].n_outputs},
                 **{"lambda": b["lam"].coeffs.tolist(), "lambda_e": b["lam_e"].coeffs.tolist()})
    if module == "siso":
        d.update(pm=b["pm"].coeffs.tolist(), sign_kp=b["sign_kp"], kp_bound=b["kp_bound"])
    else:
        d.update(interactor=[r.coeffs.tolist() for r in b["interactor"].rows],
                 f=b["fpoly"].coeffs.tolist(), nu=b["nu"], nbe=b["nbe"],
                 gains={"sp": b["sp"].tolist()})
    d.update(kw)
    return d


def _report(data):
    return harness.run_experiment(harness.scenario_from_dict(data))[1]


@pytest.mark.parametrize("structure", ["sf_xm", "sf_ym", "of_xm", "of_ym"])
def test_siso_reference_model_of_lower_order_than_the_plant(structure):
    # siso-3rd's plant (n = 3) with a second-order reference model: the _xm
    # structures ended in a numpy matmul error
    blind = _report(_explicit_with_refmodel("siso-3rd", _REF2, structure=structure))
    assert blind.horizon == 400 and not blind.guard_aborted
    nominal = _report(_explicit_with_refmodel("siso-3rd", _REF2, structure=structure,
                                              test_mode=True, mode="nominal"))
    assert nominal.tail_rms_e < 1e-12
    near = _report(_explicit_with_refmodel("siso-3rd", _REF2, structure=structure,
                                           test_mode=True, theta0="near"))
    assert near.horizon == 400 and near.lyapunov_violations == 0


@pytest.mark.parametrize("structure", ["sf_xm", "sf_ym", "of_xm", "of_ym"])
def test_mimo_reference_model_of_higher_order_than_the_plant(structure):
    # mimo-dt-2x2's plant (n = 3) with a fourth-order reference model
    blind = _report(_explicit_with_refmodel("mimo-dt-2x2", _REF4, structure=structure))
    assert blind.horizon == 400 and not blind.guard_aborted
    if structure.startswith("sf"):  # matching parameters exist
        nominal = _report(_explicit_with_refmodel("mimo-dt-2x2", _REF4, structure=structure,
                                                  test_mode=True, mode="nominal"))
        assert nominal.tail_rms_e < 1e-12


# mimo-dt-2x2's reference model with a decoupled fourth state at 0.5 that C cannot see
_REF_HIDDEN = {"A": [[0.4, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, -0.06, 0.5, 0.0],
                     [0.0, 0.0, 0.0, 0.5]],
               "B": [[1.0, 0.1], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
               "C": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]}


def test_oracle_failure_names_the_reference_model_at_load(tmp_path, capsys):
    # the sf_ym oracle reconstructs the reference input from (u_m, y_m), so it needs
    # (A_m, C_m) observable; validate printed "ok" and the run raised unnamed
    data = _explicit_with_refmodel("mimo-dt-2x2", _REF_HIDDEN, structure="sf_ym",
                                   test_mode=True)
    with pytest.raises(ValidationError) as ei:
        harness.scenario_from_dict(data)
    assert ei.value.field == "refmodel"
    assert cli.main(["validate", "--scenario", str(_write(tmp_path, data))]) == 1
    assert "INVALID: refmodel: " in capsys.readouterr().err


@pytest.mark.parametrize("base", [dict(_MIMO, structure="sf_ym"), _FL])
def test_run_reads_the_oracle_computed_at_load(monkeypatch, base):
    scn = harness.scenario_from_dict(_minimal(**{**base, "test_mode": True, "theta0": "near",
                                                 "horizon": 100}))

    def boom(*a, **k):
        raise AssertionError("oracle computed again at run time")

    for mod, attr in ((mimo, "nominal_params"), (siso, "nominal_params"),
                      (fl, "benchmark_theta_star")):
        monkeypatch.setattr(mod, attr, boom)
    trace, report = harness.run_experiment(scn)
    assert report.horizon == 100 and np.all(np.isfinite(trace.v))


def test_theta0_is_sized_by_the_reference_model_order():
    q = 3 + 2 + 1  # sf_xm: [x, x_m, u_m]
    data = _explicit_with_refmodel("siso-3rd", _REF2, theta0=[0.0] * q)
    assert _report(data).horizon == 400
    with pytest.raises(ValidationError) as ei:
        harness.scenario_from_dict(dict(data, theta0=[0.0] * (q + 1)))
    assert ei.value.field == "theta0"


def test_ref_input_on_arrays_matches_one_time_at_a_time():
    um = harness._ref_input({"channels": [{"bias": 0.4}, {"sinusoids": [_SIN]}, {}]}, "um")
    t = np.arange(12.0).reshape(3, 4) * 0.37
    tab = um(t)
    assert tab.shape == (3, 3, 4)
    for idx in np.ndindex(t.shape):
        assert np.array_equal(tab[(slice(None),) + idx], um(float(t[idx])))
    assert um(0.5).shape == (3,)


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


def _parse_report(path):
    """Read back a report written by emit_outputs (null metrics read as NaN)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    data.pop("guard_events", None)
    for key in ("tail_rms_e", "sup_theta_norm", "l2_tail"):
        if data[key] is None:
            data[key] = float("nan")
    return harness.MetricsReport(**data)


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
    back = _parse_report(paths["report"])
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


def test_tail_rms_finite_for_huge_finite_errors(tmp_path):
    scn = harness.load_scenario(_write(tmp_path, _minimal()))
    n = 10
    e = np.full((n, 1), 3e160)
    e[::2] *= -1.0
    trace = SimTrace(
        t=np.arange(n, dtype=float), y=e, ym=np.zeros((n, 1)), e=e, u=np.zeros((n, 1)),
        m=np.ones(n), eps=np.zeros((n, 1)), v=np.full(n, np.nan), theta_norm=np.ones(n),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = harness.compute_metrics(scn, trace)
    assert rep.tail_rms_e == 3e160


def test_tail_rms_scaling_is_exact(tmp_path):
    # the power-of-two scaling leaves every value the plain formula can hold unchanged
    scn = harness.load_scenario(_write(tmp_path, _minimal(tail_fraction=0.5)))
    rng = np.random.default_rng(4)
    for mag in (1e-150, 7.5e-16, 1.0, 3.3, 1e100):
        e = mag * rng.standard_normal((40, 2))
        trace = SimTrace(
            t=np.arange(40, dtype=float), y=e, ym=np.zeros((40, 2)), e=e,
            u=np.zeros((40, 2)), m=np.ones(40), eps=np.zeros((40, 2)),
            v=np.full(40, np.nan), theta_norm=np.ones(40),
        )
        tail = e[-20:]
        plain = float(np.sqrt(np.mean(np.sum(tail * tail, axis=1))))
        assert harness.compute_metrics(scn, trace).tail_rms_e == plain


def _plain_csvs(trace):
    """Both trace CSVs written one value at a time, as repr(float(x))."""
    header = (["t"] + [f"{s}_{i+1}" for s in ("y", "ym", "e", "u")
                       for i in range(trace.n_channels)]
              + ["m"] + [f"eps_{i+1}" for i in range(trace.n_channels)] + ["V", "theta_norm"])
    wide, long = [",".join(header) + "\n"], ["t,series,value\n"]
    for k in range(trace.n_samples):
        vals = ([trace.t[k]] + list(trace.y[k]) + list(trace.ym[k]) + list(trace.e[k])
                + list(trace.u[k]) + [trace.m[k]] + list(trace.eps[k])
                + [trace.v[k], trace.theta_norm[k]])
        wide.append(",".join(repr(float(v)) for v in vals) + "\n")
        long += [f"{repr(float(vals[0]))},{col},{repr(float(v))}\n"
                 for col, v in zip(header[1:], vals[1:])]
    return "".join(wide), "".join(long)


@pytest.mark.parametrize("n", [0, 1, harness.EMIT_BLOCK, 2 * harness.EMIT_BLOCK + 37])
def test_emit_matches_plain_per_value_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    m = 2
    trace = SimTrace(
        t=np.arange(n) * 1e-3, y=rng.standard_normal((n, m)), ym=rng.standard_normal((n, m)),
        e=rng.standard_normal((n, m)) * 1e-17, u=rng.standard_normal((n, m)) * 1e12,
        m=1.0 + rng.random(n), eps=-rng.random((n, m)), v=np.full(n, np.nan),
        theta_norm=np.abs(rng.standard_normal(n)),
    )
    if n:
        trace.y[0, 0] = -0.0
        trace.u[-1, 1] = 5e-324
    report = harness.MetricsReport(name="p", tail_rms_e=0.0, sup_theta_norm=0.0,
                                   l2_tail=0.0, converged=False)
    paths = harness.emit_outputs(trace, report, tmp_path / "pw")
    wide, long = _plain_csvs(trace)
    assert paths["trace"].read_bytes() == wide.encode()
    assert paths["long"].read_bytes() == long.encode()


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
    back = _parse_report(paths["report"])
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
    monkeypatch.setattr(mimo, "nominal_params", boom)
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
    real = mimo.nominal_params  # the one oracle of both linear modules

    def spy(*a, **k):
        called["n"] += 1
        return real(*a, **k)

    monkeypatch.setattr(mimo, "nominal_params", spy)
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
    # a valid CT run whose estimates start far out: it stops and says why
    data = {"schema_version": 1, "name": "theta_blowup", "module": "mimo",
            "benchmark": "mimo-ct-2x2", "structure": "sf_xm",
            "theta0": (1e4 * np.ones((8, 2))).tolist(), "horizon": 300}
    p = _write(tmp_path, data)
    out = tmp_path / "od"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the event says it; numpy stays quiet
        code = cli.main(["run", "--scenario", str(p), "--out", str(out)])
    assert code == 2
    assert "theta_blowup: diverged" in capsys.readouterr().out
    report = json.loads((out / "theta_blowup_report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["guard_aborted"] and not report["converged"]
    assert np.isfinite(report["tail_rms_e"])
    [event] = report["guard_events"]
    assert sorted(event) == ["diverged", "t"]
    # the trace ends at the row before the step that went non-finite
    assert event["t"] == 1e-3 * report["horizon"]


def test_cli_run_step_outside_rk4_region_exit_one(tmp_path, capsys):
    # |R(h lambda)| = 6.3 > 1 on the plant's mode at -2.1: rejected at load
    scn = Path(__file__).resolve().parents[1] / "scenarios" / "mimo_rd1_ct.json"
    code = cli.main(["run", "--scenario", str(scn), "--out", str(tmp_path / "os"),
                     "--step", "2.0", "--horizon", "300"])
    assert code == 1
    err = capsys.readouterr().err
    assert "ERROR: step:" in err and "RK4" in err
    assert not (tmp_path / "os").exists()


def test_cli_validate_of_a_nan_in_f_names_the_field(tmp_path, capsys):
    # the file holds the bare JSON token NaN, which json.loads reads as a float
    p = tmp_path / "nan_f.json"
    p.write_text(json.dumps(_minimal(**_MIMO)).replace("}", ', "f": [NaN, 0.1, 1.0]}', 1))
    assert "NaN" in p.read_text()
    assert cli.main(["validate", "--scenario", str(p)]) == 1
    assert "INVALID: f: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_cli_non_finite_step_override_rejected(tmp_path, capsys, step):
    scn = Path(__file__).resolve().parents[1] / "scenarios" / "mimo_rd1_ct.json"
    code = cli.main(["run", "--scenario", str(scn), "--out", str(tmp_path / "os"),
                     "--step", step])
    assert code == 1 and "ERROR: step: " in capsys.readouterr().err
    assert not (tmp_path / "os").exists()


def test_cli_step_override_replaces_an_invalid_file_step(tmp_path, capsys):
    # the overrides are merged before the one load: the file's own step 2.0 is
    # outside RK4's region, the given one runs
    data = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                       / "mimo_rd1_ct.json").read_text())
    p = _write(tmp_path, dict(data, step=2.0, horizon=300))
    assert cli.main(["validate", "--scenario", str(p)]) == 1
    out = tmp_path / "ov"
    code = cli.main(["run", "--scenario", str(p), "--out", str(out), "--step", "1e-3"])
    assert code in (0, 1) and "ERROR" not in capsys.readouterr().err
    assert (out / f"{data['name']}_report.json").exists()


@pytest.mark.parametrize("bench,step", [("mimo-ct-2x2", 3.0), ("mimo-rd1-ct", 2.0)])
def test_ct_step_outside_rk4_region_rejected_naming_field(tmp_path, bench, step):
    data = {"schema_version": 1, "name": "s", "module": "mimo", "benchmark": bench,
            "step": step}
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, data))
    assert ei.value.field == "step"
    # the shipped steps keep every stable mode inside the region
    data["step"] = 1e-3
    harness.load_scenario(_write(tmp_path, data))


def test_fl_step_outside_rk4_region_rejected_naming_field(tmp_path):
    # the column filters 1/d_i: d_1 = s + 1 puts a mode at -1, |R(-4)| = 5
    data = {"schema_version": 1, "name": "f", "module": "fl", "benchmark": "fl-2x3",
            "step": 4.0}
    with pytest.raises(ValidationError) as ei:
        harness.load_scenario(_write(tmp_path, data))
    assert ei.value.field == "step" and "interactor[0]" in str(ei.value)
    data["step"] = 1.0  # |R(-1.2)| and |R(-1)| stay below 1
    harness.load_scenario(_write(tmp_path, data))


def test_rk4_gain_is_the_stability_function():
    from adaptrack.linsys import rk4_gain
    z = np.array([-0.5, -2.0, -2.785, -3.0, -1.0 + 2.0j])
    want = np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    np.testing.assert_allclose(rk4_gain(z, 1.0), want, rtol=1e-14)
    assert rk4_gain([-2.78], 1.0)[0] < 1.0 < rk4_gain([-2.79], 1.0)[0]


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
