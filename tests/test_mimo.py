import dataclasses

import numpy as np
import pytest

from adaptrack import benchmarks, engine, mimo, siso
from adaptrack.engine import Frame, Rd1Law, Structure
from adaptrack.errors import (
    GainBoundViolation,
    RelativeDegreeViolation,
    SingularKp,
    SingularMatchingSystem,
    ValidationError,
)
from adaptrack.linsys import (
    DiagonalInteractor,
    Polynomial,
    StateSpace,
    companion,
    ct,
    dt,
    lyapunov_solve_ct,
    ref_input_from_state,
)

import _oracles as oc


@pytest.fixture(scope="module")
def bench_dt():
    return benchmarks.mimo_dt_2x2()


@pytest.fixture(scope="module")
def bench_ct():
    return benchmarks.mimo_ct_2x2()


@pytest.fixture(scope="module")
def bench_rd1():
    return benchmarks.mimo_rd1_ct()


def _scn(b, structure=Structure.SF_XM, **kw):
    return mimo.MimoScenario(**{**b, **kw}, structure=structure)


# -- interactor row gains --------------------------------------------------------


def test_row_gains_decoupled_integrator_chains():
    # channel 1: one-step chain; channel 2: two-step chain; unit gains
    a = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    plant = StateSpace(a, b, c, dt())
    ia = DiagonalInteractor([Polynomial.from_roots([0.2]), Polynomial.from_roots([0.1, 0.2])])
    _, kp = mimo.interactor_row_gains(plant, ia)
    assert np.max(np.abs(kp - np.eye(2))) < 1e-14


def test_row_gains_m1_reduces_to_siso_quantities():
    b = benchmarks.siso_third_order()
    ia = DiagonalInteractor([b["pm"]])
    k0, kp = mimo.interactor_row_gains(b["plant"], ia)
    from adaptrack.linsys import markov_params

    assert abs(kp[0, 0] - markov_params(b["plant"], 2)[1][0, 0]) < 1e-14  # c A b
    want = b["plant"].c[0] @ b["pm"].of_matrix(b["plant"].a)
    assert np.max(np.abs(k0[:, 0] - want)) < 1e-14


def _interactor_shift_rows(interactor, ys):
    cols = [oc.shift_apply(d.coeffs, ys[:, i]) for i, d in enumerate(interactor.rows)]
    nkeep = min(c.shape[0] for c in cols)
    return np.column_stack([c[:nkeep] for c in cols]), nkeep


def test_row_gains_trajectory_identity(bench_dt):
    rng = np.random.default_rng(8)
    b = bench_dt
    k0, kp = mimo.interactor_row_gains(b["plant"], b["interactor"])
    u = rng.standard_normal((206, 2))
    xs, ys = oc.simulate_dt(b["plant"].a, b["plant"].b, b["plant"].c,
                            rng.standard_normal(3), u)
    lhs, nkeep = _interactor_shift_rows(b["interactor"], ys)
    rhs = xs[:nkeep] @ k0 + u[:nkeep] @ kp.T
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_row_gains_degree_mismatch():
    b = benchmarks.mimo_dt_2x2()
    bad = DiagonalInteractor([Polynomial.from_roots([0.1, 0.2]), b["interactor"].rows[1]])
    with pytest.raises(RelativeDegreeViolation) as ei:
        mimo.interactor_row_gains(b["plant"], bad)
    assert ei.value.field == "interactor[0]"


def test_row_gains_decoupled_row_is_a_degree_violation():
    # a decoupled output row has no relative degree: a RelativeDegreeViolation on
    # the plant path; the reference-model path accepts it, with zero rows
    b = benchmarks.mimo_dt_2x2()
    p = b["plant"]
    c = p.c.copy()
    c[1] = [0.0, 0.0, 0.0]
    dec = StateSpace(p.a, p.b, c, dt())
    with pytest.raises(RelativeDegreeViolation, match="row 1 relative degree None"):
        mimo.interactor_row_gains(dec, b["interactor"])
    a1, a2 = ref_input_from_state(dec, b["interactor"])
    assert np.all(a1[:, 1] == 0.0) and np.all(a2[1] == 0.0)


def test_row_gains_singular_kp():
    a = np.zeros((2, 2))
    b = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank-1 first Markov parameter
    c = np.eye(2)
    plant = StateSpace(a, b, c, dt())
    ia = DiagonalInteractor([Polynomial.from_roots([0.1]), Polynomial.from_roots([0.1])])
    with pytest.raises(SingularKp) as ei:
        mimo.interactor_row_gains(plant, ia)
    assert ei.value.field == "plant"


# -- nominal state feedback ------------------------------------------------------


def test_sf_nominal_identity_plant():
    a = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # the interactor rows must equal the plant's own shift structure for K0=0:
    # here d_i(z) = z^rho_i, which is not stable for DT; use small roots instead
    plant = StateSpace(a, b, c, dt())
    ia = DiagonalInteractor([Polynomial([0.0, 1.0]), Polynomial([0.0, 0.0, 1.0])])
    k1, k2, kp = mimo.sf_nominal(plant, ia)
    assert np.max(np.abs(kp - np.eye(2))) < 1e-14
    assert np.max(np.abs(k2 - np.eye(2))) < 1e-14
    assert np.max(np.abs(k1)) < 1e-14


def test_sf_nominal_m1_matches_siso(bench_dt):
    b = benchmarks.siso_third_order()
    ia = DiagonalInteractor([b["pm"]])
    k1m, k2m, kpm = mimo.sf_nominal(b["plant"], ia)
    scn = siso.scenario(**b, structure=Structure.SF_XM)
    nom = mimo.nominal_params(scn)  # theta* = [k1; k2 alpha1; k2 alpha2]
    assert np.array_equal(k1m[:, 0], nom.theta_star[:3, 0])
    assert kpm[0, 0] == nom.kp[0, 0]


def test_sf_nominal_closed_loop_tracks(bench_dt):
    rng = np.random.default_rng(9)
    scn = _scn(bench_dt, x0=rng.standard_normal(3), xm0=rng.standard_normal(3))
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=False, horizon=400, nominal=nom)
    assert np.max(np.abs(tr.e[300:])) < 1e-6


def _hidden_modes(plant, interactor):
    return mimo.hidden_modes(plant, mimo.sf_nominal(plant, interactor)[0])


def test_hidden_modes_are_the_cancelled_zeros(bench_dt, bench_ct, bench_rd1):
    modes = _hidden_modes(bench_rd1["plant"], bench_rd1["interactor"])
    assert modes.size == 1
    assert abs(modes[0] - (-2.0)) < 1e-12  # built into the benchmark
    b = benchmarks.siso_third_order()
    modes = _hidden_modes(b["plant"], DiagonalInteractor([b["pm"]]))
    assert modes.size == 1 and abs(modes[0] - 0.3) < 1e-12  # the plant zero
    for b in (bench_dt, bench_ct):  # three states, relative degrees (1, 2): no zeros
        assert _hidden_modes(b["plant"], b["interactor"]).size == 0


def test_hidden_mode_on_an_interactor_root_is_exact():
    # the zero at 0.2 is also a root of Pm: A + B K1^T has 0.2 twice, once
    # cancelled and once matched, and the cancelled one is read off exactly
    plant = StateSpace(companion(Polynomial.from_roots([0.8, 0.5, -0.4])), [0, 0, 1],
                       [-0.2, 1.0, 0.0], dt())
    modes = _hidden_modes(plant, DiagonalInteractor([Polynomial.from_roots([0.2, 0.1])]))
    assert modes.size == 1 and abs(modes[0] - 0.2) < 1e-12


# -- reference-input parametrization ----------------------------------------------


def test_ref_input_from_state_unit_feedthrough():
    a = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ref = StateSpace(a, b, c, dt())
    ia = DiagonalInteractor([Polynomial.from_roots([0.2]), Polynomial.from_roots([0.1, 0.3])])
    a1, a2 = ref_input_from_state(ref, ia)
    assert np.max(np.abs(a2 - np.eye(2))) < 1e-14


def test_ref_input_from_state_strictly_larger_degrees():
    a = np.array([[0.2, 1.0, 0.0], [0.0, 0.1, 1.0], [0.0, 0.0, 0.3]])
    ref = StateSpace(a, [[0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0]], dt())
    ia = DiagonalInteractor([Polynomial.from_roots([0.1, 0.2])])  # ref deg = 3 > 2
    _, a2 = ref_input_from_state(ref, ia)
    assert np.max(np.abs(a2)) == 0.0


def test_ref_input_from_state_dt_trajectory(bench_dt):
    b = bench_dt
    a1, a2 = ref_input_from_state(b["refmodel"], b["interactor"])
    rng = np.random.default_rng(10)
    u = np.array([b["um"](t) for t in range(206)])
    xs, ys = oc.simulate_dt(b["refmodel"].a, b["refmodel"].b, b["refmodel"].c,
                            rng.standard_normal(3), u)
    lhs, nkeep = _interactor_shift_rows(b["interactor"], ys)
    rhs = xs[:nkeep] @ a1 + u[:nkeep] @ a2.T
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_ref_input_from_state_ct_trajectory(bench_ct):
    b = bench_ct
    h = b["refmodel"].domain.step
    a1, a2 = ref_input_from_state(b["refmodel"], b["interactor"])
    steps = 20000
    um = b["um"]
    traj = oc.rk4_sim(
        lambda t, x: b["refmodel"].a @ x + b["refmodel"].b @ um(t),
        np.array([0.2, -0.1, 0.3]), h, steps,
    )
    ys = traj @ b["refmodel"].c.T
    lhs = oc.interactor_apply_ct([d.coeffs for d in b["interactor"].rows], ys, h)
    ts = np.arange(steps + 1) * h
    us = np.array([um(t) for t in ts])
    rhs = (traj @ a1 + us @ a2.T)[2:-2]
    assert np.max(np.abs(lhs - rhs)) < 1e-5


# -- regressor dimensions ----------------------------------------------------------


def test_regressor_dims_formulas():
    from adaptrack.engine import regressor_dim

    assert regressor_dim(Structure.SF_XM, n=4, m=2, n_m=4) == 10
    assert regressor_dim(Structure.SF_YM, n=4, m=2, n_m=4, nbe=1) == 4 + 4 + 4
    assert regressor_dim(Structure.OF_XM, n=4, m=2, n_m=4, nu=2) == 2 * 2 * 1 + 2 + 4 + 2
    assert regressor_dim(Structure.OF_YM, n=4, m=2, n_m=4, nu=2, nbe=1) == 4 + 2 + 4 + 4
    # x_m is as wide as the reference model, whatever the plant's order
    assert regressor_dim(Structure.SF_XM, n=4, m=2, n_m=1) == 7
    assert regressor_dim(Structure.OF_XM, n=4, m=2, n_m=6, nu=2) == 4 + 2 + 6 + 2


@pytest.mark.parametrize("structure", list(Structure))
@pytest.mark.parametrize("n_m", [2, 4])
def test_regressor_dim_is_the_width_of_the_assembled_regressor(bench_dt, structure, n_m):
    # a stable reference model of n_m states beside the 3-state plant: a chain in
    # which x_k drives x_(k+1), both inputs enter x_0, and y_1 = x_1 has relative
    # degree 2, the interactor row's
    b = np.zeros((n_m, 2))
    b[0] = [1.0, 0.3]
    ref = StateSpace(np.diag(np.linspace(0.1, 0.5, n_m)) + np.eye(n_m, k=-1), b,
                     np.eye(2, n_m), dt())
    scn = _scn(bench_dt, structure=structure, refmodel=ref)
    loop = engine.ClosedLoop(scn, law=None, horizon=1)
    assert loop._read["omega"].shape[0] == scn.theta_dim
    assert loop.theta.shape == (scn.theta_dim, 2)


def test_regressor_zero(bench_dt):
    z = {"x": np.zeros(3), "xm": np.zeros(3), "um": np.zeros(2), "y": np.zeros(2),
         "ym": np.zeros(2), "w1": np.zeros(2), "w2": np.zeros(2),
         "wum": np.zeros(2), "wym": np.zeros(2)}
    for s in Structure:
        assert np.all(engine.assemble_regressor(s, z) == 0.0)


# -- estimation frame (ClosedLoop.measure) ------------------------------------------


def _frozen_loop(scn, theta, psi, horizon=1):
    """The engine loop with frozen parameters (no update law)."""
    return engine.ClosedLoop(scn, None, horizon, theta0=theta, psi0=psi)


def test_frame_zero(bench_dt):
    scn = _scn(bench_dt)
    loop = _frozen_loop(scn, np.zeros((scn.theta_dim, 2)), np.eye(2))
    *_, fr = loop.measure(0)
    assert np.all(fr.eps == 0.0) and fr.m == 1.0


def test_frame_frozen_theta_swap_decays(bench_dt):
    rng = np.random.default_rng(3)
    scn = _scn(bench_dt, x0=rng.standard_normal(3))
    theta = mimo.nominal_params(scn).theta_star
    theta = theta * (1.0 + 0.1 * rng.standard_normal(theta.shape))
    loop = _frozen_loop(scn, theta, np.eye(2), horizon=120)
    for k in range(120):
        *_, fr = loop.measure(k)
        loop.advance()
    assert np.any(fr.zeta != 0.0)
    assert np.max(np.abs(fr.xi)) < 1e-6


def test_frame_biproper_error_filter_feedthrough(bench_dt):
    # deg d_2 = deg f: the filtered error has direct feedthrough of e
    scn = _scn(bench_dt)
    ym0 = np.array([0.7, -0.4])  # e = -y_m at zero plant state
    xm0 = np.linalg.lstsq(scn.refmodel.c, ym0, rcond=None)[0]
    loop = _frozen_loop(dataclasses.replace(scn, xm0=xm0), np.zeros((scn.theta_dim, 2)),
                        np.zeros((2, 2)))
    _, _, e, _, fr = loop.measure(0)
    assert np.max(np.abs(e + ym0)) < 1e-15
    # Psi = 0 makes eps the filtered error ebar.  Channel 2 filter d2/f is
    # biproper with J = 1 (both monic, equal degree)
    assert abs(fr.eps[1] - e[1]) < 1e-15
    # channel 1: d1/f strictly proper -> no feedthrough at zero state
    assert fr.eps[0] == 0.0


# -- gradient updates (engine.gradient_rhs) ---------------------------------------------


def test_gradient_step_zero_eps(bench_dt):
    scn = _scn(bench_dt)
    rng = np.random.default_rng(4)
    fr = Frame(rng.standard_normal(scn.theta_dim), np.zeros(2), np.zeros(2), 2.0)
    dtheta, dpsi = engine.gradient_rhs(np.eye(scn.theta_dim), scn.sp, np.eye(2),
                                       fr.zeta, fr.xi, fr.eps, fr.m2)
    assert np.all(dtheta == 0.0) and np.all(dpsi == 0.0)


def test_gradient_dt_bound_violation():
    with pytest.raises(GainBoundViolation):  # the scenario bounds the Psi gain in DT
        mimo.run(_scn(benchmarks.mimo_dt_2x2(), gamma=2.5 * np.eye(2)), adaptive=True, horizon=5)


def test_gradient_indefinite_psi_gain_rejected(bench_ct):
    # largest eigenvalue admissible, smallest negative: rejected in both domains
    indefinite = np.diag([-1.0, 1.0])
    for b in (benchmarks.mimo_dt_2x2(), bench_ct):
        with pytest.raises(GainBoundViolation):
            mimo.run(_scn(b, gamma=indefinite), adaptive=True, horizon=5)


def test_gain_prior_verified_in_test_mode(bench_dt):
    scn = _scn(bench_dt)
    _, kp = mimo.interactor_row_gains(bench_dt["plant"], bench_dt["interactor"])
    mimo.verify_gain_prior(kp, scn.sp, scn.plant.domain)  # benchmark prior satisfies it
    bad = _scn(bench_dt, sp=np.array([[5.0, 0.0], [0.0, 5.0]]))  # Kp Sp not < 2I
    with pytest.raises(GainBoundViolation):
        mimo.verify_gain_prior(kp, bad.sp, bad.plant.domain)
    with pytest.raises(GainBoundViolation):
        mimo.run(bad, adaptive=True, horizon=5, with_certificate=True)


def test_adaptive_dt_lyapunov_and_identity(bench_dt):
    scn = _scn(bench_dt)
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=True, horizon=500, theta0=0.9 * nom.theta_star,
                  nominal=nom, with_certificate=True)
    assert np.max(np.diff(tr.v)) <= 1e-12
    assert np.max(tr.extra["ident_resid"]) < 1e-8


# -- relative-degree-one design --------------------------------------------------------


def test_rd1_rhs_zero_error(bench_rd1):
    law = Rd1Law(s=bench_rd1["sp"], p=np.eye(2), q=np.eye(2))
    assert np.all(law.rhs(np.zeros(2), np.ones(8)) == 0.0)


def test_rd1_rhs_scalar_closed_form():
    # M=1, interactor s + a: P = q/(2a); Theta' = -S P e omega
    a = 2.0
    qv = 3.0
    p = lyapunov_solve_ct(np.array([[-a]]), np.array([[qv]]))
    assert abs(p[0, 0] - qv / (2 * a)) < 1e-12
    s = 1.7
    law = Rd1Law(s=np.array([[s]]), p=p, q=np.array([[qv]]))
    e = np.array([0.5])
    om = np.array([1.0, -2.0])
    want = -s * p[0, 0] * e[0] * om
    assert np.max(np.abs(law.rhs(e, om)[:, 0] - want)) < 1e-15


def test_rd1_p_solves_the_lyapunov_equation(bench_rd1):
    # the build solves P A0 + A0^T P = -Q for A0 = -diag(a_i) of the rows D + a_i
    scn = _scn(bench_rd1, design="rd1")
    a0 = -np.diag([d.coeffs[0] for d in scn.interactor.rows])
    p, q = scn.law.p, scn.law.q
    assert np.array_equal(q, bench_rd1["q"])
    assert np.max(np.abs(p @ a0 + a0.T @ p + q)) < 1e-12


def test_rd1_rejects_dt(bench_dt):
    # a dt plant failed only once running
    with pytest.raises(ValidationError, match="continuous-time") as ei:
        _scn(bench_dt, design="rd1")
    assert ei.value.field == "design"


@pytest.mark.parametrize("design,why", [
    ("rd1", "first-order"),  # mimo-ct-2x2's second-order rows ran with no error
    ("lyapunov", "gradient or rd1"),
])
def test_design_rejected_where_its_law_cannot_run(bench_ct, design, why):
    with pytest.raises(ValidationError, match=why) as ei:
        _scn(bench_ct, design=design)
    assert ei.value.field == "design"


@pytest.mark.parametrize("design", ["gradient", "rd1"])
def test_rd1_q_checked_for_every_design(bench_rd1, design):
    with pytest.raises(GainBoundViolation) as ei:
        _scn(bench_rd1, design=design, q=np.diag([1.0, -1.0]))
    assert ei.value.field == "q"


def test_reference_model_at_another_step_is_rejected(bench_ct):
    # only the domain tags were compared: a reference model at step 1e-2 beside a plant
    # at 1e-3 loaded, and its block ran ten times faster than the plant
    r = bench_ct["refmodel"]
    with pytest.raises(ValidationError, match="step") as ei:
        _scn(bench_ct, refmodel=StateSpace(r.a, r.b, r.c, ct(1e-2)))
    assert ei.value.field == "refmodel"


def test_ct_step_outside_rk4_region_rejected_at_build(bench_rd1):
    # checked only when a scenario file was loaded: built here, the run diverged at t = 466
    b = {**bench_rd1, **{k: dataclasses.replace(bench_rd1[k], domain=ct(2.0))
                         for k in ("plant", "refmodel")}}
    with pytest.raises(ValidationError, match="plant eigenvalue") as ei:
        _scn(b)
    assert ei.value.field == "step"


def test_rd1_rejects_a_psi0(bench_rd1):
    # the rd1 law holds Psi at zero: a given psi0 was dropped without a word
    scn = _scn(bench_rd1, design="rd1")
    with pytest.raises(ValueError, match="psi0"):
        mimo.run(scn, horizon=10, psi0=5 * np.eye(2))


def test_rd1_lyapunov_slope(bench_rd1):
    scn = _scn(bench_rd1, design="rd1")
    nom = mimo.nominal_params(scn)
    q = scn.law.q
    tr = mimo.run(scn, adaptive=True, horizon=4000, theta0=0.9 * nom.theta_star,
                  nominal=nom, with_certificate=True)
    h = scn.plant.domain.step
    vdot = (tr.v[2:] - tr.v[:-2]) / (2 * h)
    eqe = np.einsum("ij,jk,ik->i", tr.e[1:-1], q, tr.e[1:-1])
    assert np.max(np.abs(vdot + eqe)) < 1e-4


# -- runs -----------------------------------------------------------------------------


def test_nominal_zero_ic_exact(bench_dt):
    scn = _scn(bench_dt)
    tr = mimo.run(scn, adaptive=False, horizon=200)
    assert np.max(np.abs(tr.e)) < 1e-12


def test_adaptive_dt_tracking(bench_dt):
    scn = _scn(bench_dt)
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=True, horizon=8000, theta0=0.9 * nom.theta_star,
                  nominal=nom, with_certificate=True)
    tail = tr.e[-800:]
    assert float(np.sqrt(np.mean(np.sum(tail**2, axis=1)))) < 1e-2
    assert np.isfinite(tr.theta_norm).all()
    l2d = tr.extra["l2_dtheta_cum"]
    assert l2d[-1] - l2d[-800] < 1e-6


def test_adaptive_of_blind_tracks(bench_dt):
    # output feedback without matching oracles: empirical tracking only
    scn = _scn(bench_dt, structure=Structure.OF_XM)
    tr = mimo.run(scn, adaptive=True, horizon=8000)
    assert np.all(np.isnan(tr.v))
    tail = tr.e[-800:]
    assert float(np.sqrt(np.mean(np.sum(tail**2, axis=1)))) < 5e-2


def test_ct_sfym_nominal_tracks_exactly(bench_ct):
    # the identified reference-signal reconstruction must be consistent with
    # the coupled integration: nominal tracking to integration accuracy
    scn = _scn(bench_ct, structure=Structure.SF_YM)
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=False, horizon=3000, nominal=nom)
    assert np.max(np.abs(tr.e[1500:])) < 1e-10


def test_ct_gradient_certificate(bench_ct):
    scn = _scn(bench_ct)
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=True, horizon=3000, theta0=0.9 * nom.theta_star,
                  nominal=nom, with_certificate=True)
    h = scn.plant.domain.step
    vdot = np.diff(tr.v) / h
    assert np.all(vdot <= 1e-6 * np.maximum(tr.v[:-1], 1.0))
    assert np.max(tr.extra["ident_resid"][500:]) < 1e-8


# -- bit-for-bit single-channel reduction ----------------------------------------------


def _one_channel_pair(structure, **kw):
    b = benchmarks.siso_third_order()
    sscn = siso.scenario(**{
        "plant": b["plant"], "refmodel": b["refmodel"], "pm": b["pm"], "lam": b["lam"],
        "lam_e": b["lam_e"], "structure": structure, "sign_kp": b["sign_kp"],
        "kp_bound": b["kp_bound"], "um": b["um"], **kw,
    })
    mscn = mimo.MimoScenario(
        plant=b["plant"], refmodel=b["refmodel"],
        interactor=DiagonalInteractor([b["pm"]]), fpoly=b["pm"],
        sp=np.array([[1.0]]), structure=structure, nu=3, lam=b["lam"],
        lam_e=b["lam_e"], nbe=2, gamma=np.array([[1.0]]), um=b["um"],
    )
    return sscn, mscn


@pytest.mark.parametrize("structure", [Structure.SF_XM, Structure.OF_XM,
                                       Structure.SF_YM, Structure.OF_YM])
def test_m1_reduction_bit_for_bit(structure):
    sscn, mscn = _one_channel_pair(structure, gamma_theta=1.0, gamma_rho=1.0)
    tr_s = mimo.run(sscn, adaptive=True, horizon=2000)
    tr_m = mimo.run(mscn, adaptive=True, horizon=2000)
    for fld in ("y", "ym", "e", "u", "m", "eps", "theta_norm"):
        assert np.array_equal(getattr(tr_s, fld), getattr(tr_m, fld)), fld


@pytest.mark.parametrize("domain", ["dt", "ct"])
def test_two_channel_output_feedback_matching(bench_dt, bench_ct, domain):
    # u = K1^T [w1; w2; y] + Kp^-1 r closes y = diag{1/d_i(D)}[r], as the state
    # feedback does: Markov parameters of a from-scratch realization of the
    # loop.  At nu = 3, above the plants' observability index 2 (acceptance
    # criterion 1), the matching gains are not unique and the minimum-norm
    # ones are returned.
    b = bench_dt if domain == "dt" else bench_ct
    nu = 3
    lam = Polynomial.from_roots([0.2, 0.3] if domain == "dt" else [-1.0, -2.0])
    scn = _scn(b, structure=Structure.OF_XM, nu=nu, lam=lam)
    assert mimo.has_matching(scn.structure, scn.plant, nu)
    nom = mimo.nominal_params(scn)
    k1 = nom.theta_star[: scn.m * (2 * nu - 1)]
    acl, bcl, ccl = oc.mimo_of_closed_loop(scn.plant.a, scn.plant.b, scn.plant.c,
                                           lam.coeffs, k1, np.linalg.inv(nom.kp))
    count = 2 * acl.shape[0]
    got = np.array(oc.markov_of(acl, bcl, ccl, count))
    want = np.zeros_like(got)
    for i, d in enumerate(scn.interactor.rows):
        want[:, i, i] = oc.inverse_poly_impulse(d.coeffs, count)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    # the output-feedback structures share K1 and the xm/um rows of the state feedback
    sf = mimo.nominal_params(_scn(b, nu=nu, lam=lam)).theta_star
    assert np.array_equal(nom.theta_star[k1.shape[0] :], sf[scn.n :])


def test_output_feedback_matching_needs_nu_at_the_observability_index(bench_dt):
    scn = _scn(bench_dt, structure=Structure.OF_XM, nu=1, lam=Polynomial([1.0]))
    assert not mimo.has_matching(scn.structure, scn.plant, 1)
    assert mimo.has_matching(Structure.SF_XM, scn.plant, 1)
    with pytest.raises(SingularMatchingSystem, match="nu = 1"):
        mimo.nominal_params(scn)


def test_one_channel_gain_prior_bounds_kp_times_gz():
    # siso-3rd has kp = 1.5: the discrete-time law needs |kp| lambda_max(gz) < 2
    _, mscn = _one_channel_pair(Structure.SF_XM)
    nom = mimo.nominal_params(mscn)
    q = mscn.theta_dim

    def run(scn, gz_scale):
        return mimo.run(dataclasses.replace(scn, gz=gz_scale * np.eye(q)), horizon=5,
                        nominal=nom, with_certificate=True)

    assert run(mscn, 1.3).n_samples == 5  # 1.95 < 2
    with pytest.raises(GainBoundViolation, match="below 2I"):
        run(mscn, 1.34)  # 2.01
    # a kp_bound below |kp| lets gamma_theta = 1/kp_bound pass the siso check; the
    # test-mode prior check catches it, since 1.5 / 0.7 > 2
    low, _ = _one_channel_pair(Structure.SF_XM, kp_bound=0.7)
    assert mimo.run(low, horizon=5).n_samples == 5  # blind: Kp is unknown
    with pytest.raises(GainBoundViolation, match="below 2I"):
        mimo.run(low, horizon=5, nominal=mimo.nominal_params(low),
                 with_certificate=True)


def test_benchmark_gain_prior_checked_by_the_one_check():
    # the builder derives Sp and verifies Kp Sp through mimo.verify_gain_prior,
    # which raises under python -O too; a margin below zero puts Kp Sp above 2I
    d = benchmarks.mimo_dt_2x2()
    with pytest.raises(GainBoundViolation, match="below 2I"):
        benchmarks._check_mimo(d, sp_margin=-0.5)


def test_scenario_build_rejects_unstable_cancelled_mode(bench_rd1):
    # the rd1 benchmark cancels its zero dynamics dx3 = a33 x3; a33 = +2 makes
    # that mode unstable, which raises under python -O too
    p = bench_rd1["plant"]
    a = p.a.copy()
    a[2, 2] = 2.0
    with pytest.raises(ValidationError, match="minimum phase") as ei:
        _scn(bench_rd1, plant=StateSpace(a, p.b, p.c, p.domain))
    assert ei.value.field == "plant"


# -- continuous-time reference block (linsys.ReferenceBlock, stage tables) -----------


@pytest.mark.parametrize("structure", [Structure.SF_XM, Structure.SF_YM])
def test_ct_stage_tables_block_size_invariant(bench_ct, monkeypatch, structure):
    # the stage tables are filled one block at a time; the block seams change nothing
    scn = _scn(bench_ct, structure=structure, xm0=np.array([0.3, -0.2, 0.1]))
    ref = mimo.run(scn, adaptive=True, horizon=300)
    monkeypatch.setattr(engine, "CT_BLOCK", 7)
    small = mimo.run(scn, adaptive=True, horizon=300)
    for fld in ("e", "u", "eps", "m", "theta_norm"):
        np.testing.assert_allclose(getattr(small, fld), getattr(ref, fld), rtol=1e-12,
                                   atol=1e-14, err_msg=fld)


def test_ct_stage_tables_memory_flat_in_horizon(bench_ct):
    scn = _scn(bench_ct)
    short = engine.ClosedLoop(scn, law=None, horizon=10)
    long = engine.ClosedLoop(scn, law=None, horizon=50 * engine.CT_BLOCK)
    assert short._tab.shape[0] == 10 and long._tab.shape[0] == engine.CT_BLOCK
    assert long.s.size == short.s.size  # [lin, Theta, Psi]: no reference block in the state
    long.measure(0)
    long.advance()
    with pytest.raises(ValueError, match="in order"):
        long.measure(3 * engine.CT_BLOCK)


@pytest.mark.parametrize("design", ["gradient", "rd1", "nominal"])
def test_ct_stage_derivative_is_the_k1_of_measure(bench_ct, bench_rd1, design):
    # stages 2-4 compute only what the law reads; at one state and stage row
    # they must give measure's k1 bit for bit
    if design == "rd1":
        scn = _scn(bench_rd1, design="rd1")
    else:
        scn = _scn(bench_ct, structure=Structure.SF_YM)
    loop = engine.ClosedLoop(scn, law=None if design == "nominal" else scn.law, horizon=5)
    loop.measure(0)  # fills the first block of stage tables
    rng = np.random.default_rng(21)
    loop.s[:] = rng.standard_normal(loop.s.size)
    loop._tab[0, 0] = rng.standard_normal(loop._tab.shape[2])
    loop.measure(0)
    k1 = loop._k[0].copy()
    loop._work[0][:] = loop.s  # the argument of stage 2
    assert np.array_equal(loop._stage_rhs(1, loop._tab[0, 0, loop._exo]), k1)
    dpar = k1[loop._par]
    assert np.all(dpar == 0.0) if design == "nominal" else np.any(dpar != 0.0)
    assert np.all(k1[loop._psi] == 0.0) == (design != "gradient")


def test_ct_reference_stage_maps_match_a_direct_rk4_step(bench_ct):
    # stage maps of the reference block against a direct rk4 step of z' = F z + G u_m
    scn = _scn(bench_ct, structure=Structure.SF_YM)
    zb = scn.reference
    h, m = bench_ct["plant"].domain.step, 2
    rng = np.random.default_rng(5)
    z, us = rng.standard_normal(zb.nz), rng.standard_normal((3, m))
    w = np.concatenate((z, us.ravel()))
    seen = []

    def f(t, zz):
        seen.append(zz)
        return zb.f @ zz + zb.g @ us[{0.0: 0, 0.5 * h: 1, h: 2}[t]]

    want = oc.rk4_sim(f, z, h, 1)[-1]
    assert len(zb.stages) == 4
    np.testing.assert_allclose(zb.step @ w, want, rtol=1e-13, atol=1e-15)
    for (zw, u), zj in zip(zb.stages, seen[:4]):
        np.testing.assert_allclose(zw @ w, zj, rtol=1e-13, atol=1e-15)
    assert [np.flatnonzero(u.any(axis=0))[0] - zb.nz for _, u in zb.stages] == [0, m, m, 2 * m]
