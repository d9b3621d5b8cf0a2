import numpy as np
import pytest

from adaptrack import engine, mimo, siso
from adaptrack.engine import Structure
from adaptrack.errors import GainBoundViolation, SingularMatchingSystem, ValidationError
from adaptrack.linsys import Polynomial, StateSpace, ct, dt, markov_params
from adaptrack.signals import multisine
from adaptrack import benchmarks

import _oracles as oc


@pytest.fixture(scope="module")
def bench():
    return benchmarks.siso_third_order()


def _scenario(bench, structure, **kw):
    return siso.scenario(**{**bench, **kw}, structure=structure)


def _sf_gains(scn):
    """(k1, k2, kp) of the matching state feedback, read off mimo's theta* of the scenario."""
    nom = mimo.nominal_params(scn)
    kp = float(nom.kp[0, 0])
    return nom.theta_star[: scn.n, 0], 1.0 / kp, kp


# -- nominal state feedback ----------------------------------------------------


def test_nominal_sf_scalar_example():
    plant = StateSpace([[0.5]], [1.0], [2.0], dt())
    ref = StateSpace([[0.3]], [1.0], [1.0], dt())
    scn = siso.scenario(
        plant=plant, refmodel=ref, pm=Polynomial([0.4, 1.0]),
        lam=Polynomial([1.0]), lam_e=Polynomial([1.0]),
        structure=Structure.SF_XM, sign_kp=1.0, kp_bound=2.5, um=multisine(1),
    )
    k1, k2, kp = _sf_gains(scn)
    assert abs(kp - 2.0) < 1e-14
    assert abs(k2 - 0.5) < 1e-14
    assert abs(k1[0] + 0.9) < 1e-14  # places the closed-loop pole at -0.4


def test_nominal_sf_plant_already_matching():
    # plant = 1/Pm cascaded with its own zero: kp = 1, k1* = 0
    pm = Polynomial.from_roots([0.1, 0.2])
    zp = Polynomial([-0.3, 1.0])
    charp = Polynomial(np.convolve(zp.coeffs, pm.coeffs))
    a = np.zeros((3, 3))
    a[:-1, 1:] = np.eye(2)
    a[-1] = -charp.coeffs[:3]
    plant = StateSpace(a, [0, 0, 1], [-0.3, 1.0, 0.0], dt())
    ref = StateSpace(a.copy(), [0, 0, 1], [-0.3, 1.0, 0.0], dt())
    scn = siso.scenario(
        plant=plant, refmodel=ref, pm=pm,
        lam=Polynomial.from_roots([0.15, 0.25]), lam_e=Polynomial.from_roots([0.2, 0.3]),
        structure=Structure.SF_XM, sign_kp=1.0, kp_bound=1.5, um=multisine(1),
    )
    k1, k2, kp = _sf_gains(scn)
    assert abs(kp - 1.0) < 1e-12
    assert abs(k2 - 1.0) < 1e-12
    assert np.max(np.abs(k1)) < 1e-12


def test_nominal_sf_closed_loop_markov_matches_inverse_pm(bench):
    scn = _scenario(bench, Structure.SF_XM)
    k1, k2, kp = _sf_gains(scn)
    n = scn.n
    acl = scn.plant.a + np.outer(scn.plant.b[:, 0], k1)
    closed = StateSpace(acl, scn.plant.b * k2, scn.plant.c, dt())
    got = np.array([m[0, 0] for m in markov_params(closed, 2 * n)])
    want = oc.inverse_poly_impulse(scn.fpoly.coeffs, 2 * n)
    assert np.max(np.abs(got - want)) < 1e-8


# -- nominal output feedback (matching equation) --------------------------------


def test_nominal_of_first_order_reduction():
    plant = StateSpace([[0.5]], [1.0], [2.0], dt())
    ref = StateSpace([[0.3]], [1.0], [1.0], dt())
    scn = siso.scenario(
        plant=plant, refmodel=ref, pm=Polynomial([0.4, 1.0]),
        lam=Polynomial([1.0]), lam_e=Polynomial([1.0]),
        structure=Structure.OF_XM, sign_kp=1.0, kp_bound=2.5, um=multisine(1),
    )
    th1, th2, th20, th3 = oc.of_gains(mimo.nominal_params(scn), scn.n)
    assert th1.size == 0 and th2.size == 0
    assert abs(th3 - 0.5) < 1e-14  # 1/kp
    assert abs(th20 - (-(0.5 + 0.4) / 2.0)) < 1e-12  # -(a + p0)/kp


def test_nominal_of_identity_matching():
    # plant already equal to 1/Pm (Z = 1, kp = 1): all gains vanish, th3 = 1
    pm = Polynomial.from_roots([0.1, 0.2])
    a = np.zeros((2, 2))
    a[0, 1] = 1.0
    a[1] = -pm.coeffs[:2]
    plant = StateSpace(a, [0, 1], [1.0, 0.0], dt())
    scn = siso.scenario(
        plant=plant, refmodel=plant, pm=pm,
        lam=Polynomial.from_roots([0.3]), lam_e=Polynomial.from_roots([0.3]),
        structure=Structure.OF_XM, sign_kp=1.0, kp_bound=1.5, um=multisine(1),
    )
    th1, th2, th20, th3 = oc.of_gains(mimo.nominal_params(scn), scn.n)
    assert abs(th3 - 1.0) < 1e-12
    assert np.max(np.abs(np.concatenate([th1, th2, [th20]]))) < 1e-10


def test_nominal_of_polynomial_identity_residual(bench):
    scn = _scenario(bench, Structure.OF_XM)
    th1, th2, th20, th3 = oc.of_gains(mimo.nominal_params(scn), scn.n)
    a, b, c = scn.plant.a, scn.plant.b[:, 0], scn.plant.c[0]
    n = scn.n
    # the plant transfer kp Z / P at points off its poles: P(z) = det(zI - A) and
    # kp Z(z) = P(z) c (zI - A)^-1 b
    pp = lambda z: np.linalg.det(z * np.eye(n) - a)
    kzp = lambda z: pp(z) * c @ np.linalg.solve(z * np.eye(n) - a, b)
    pts = np.linspace(-2.1, 2.3, 2 * n + 2)
    az = lambda z: np.array([z**i for i in range(n - 1)])
    lhs = np.array(
        [
            th1 @ az(z) * pp(z) + (th2 @ az(z) + th20 * scn.lam(z)) * kzp(z)
            for z in pts
        ]
    )
    rhs = np.array(
        [scn.lam(z) * (pp(z) - th3 * kzp(z) * scn.fpoly(z)) for z in pts]
    )
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


def test_nominal_of_non_coprime_raises():
    # shared factor (z-0.5) between numerator and denominator
    pp = Polynomial.from_roots([0.5, 0.2, -0.3])
    a = np.zeros((3, 3))
    a[:-1, 1:] = np.eye(2)
    a[-1] = -pp.coeffs[:3]
    plant = StateSpace(a, [0, 0, 1], [Polynomial.from_roots([0.5]).coeffs[0], 1.0, 0.0], dt())
    # c realizes numerator (z - 0.5): cancels the plant pole at 0.5
    scn = siso.scenario(
        plant=plant, refmodel=plant, pm=Polynomial.from_roots([0.1, 0.2]),
        lam=Polynomial.from_roots([0.15, 0.25]), lam_e=Polynomial.from_roots([0.2, 0.3]),
        structure=Structure.OF_XM, sign_kp=1.0, kp_bound=1.5, um=multisine(1),
    )
    with pytest.raises(SingularMatchingSystem):
        mimo.nominal_params(scn)


# -- regressor ------------------------------------------------------------------


def test_regressor_zero_signals(bench):
    z3 = np.zeros(3)
    parts = {"x": z3, "xm": z3, "um": np.zeros(1), "y": np.zeros(1),
             "ym": np.zeros(1), "w1": np.zeros(2), "w2": np.zeros(2),
             "wum": np.zeros(2), "wym": np.zeros(2)}
    for s in Structure:
        assert np.all(engine.assemble_regressor(s, parts) == 0.0)


@pytest.mark.parametrize(
    "structure,expect",
    [
        (Structure.SF_XM, lambda n: 2 * n + 1),
        (Structure.SF_YM, lambda n: 3 * n),
        (Structure.OF_XM, lambda n: 3 * n),
        (Structure.OF_YM, lambda n: 4 * n - 1),
    ],
)
def test_regressor_dims(bench, structure, expect):
    scn = _scenario(bench, structure)
    assert scn.theta_dim == expect(scn.n)


def test_regressor_sf_xm_layout():
    parts = {"x": np.array([1.0, 2.0]), "xm": np.array([3.0, 4.0]), "um": np.array([5.0])}
    got = engine.assemble_regressor(Structure.SF_XM, parts)
    assert np.all(got == np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


# -- estimation frame (ClosedLoop.step) ---------------------------------------------


def _frozen_loop(scn, theta, rho=1.0):
    """The engine loop of the one-channel scenario with frozen parameters (no update law)."""
    return engine.ClosedLoop(scn, False, theta0=np.reshape(theta, (-1, 1)),
                             psi0=np.array([[rho]]))


def test_frame_zero_signals(bench):
    scn = _scenario(bench, Structure.SF_XM)
    loop = _frozen_loop(scn, np.zeros(scn.theta_dim))
    *_, fr = loop.step(0)
    assert fr.eps[0] == 0.0 and fr.m == 1.0


def test_frame_m_formula(bench):
    scn = _scenario(bench, Structure.SF_XM)
    rng = np.random.default_rng(1)
    loop = _frozen_loop(scn, rng.standard_normal(scn.theta_dim))
    loop.lin[:] = rng.standard_normal(loop.lin.size)  # plant and filter states
    *_, fr = loop.step(0)
    assert np.any(fr.zeta != 0.0) and fr.xi[0] != 0.0
    m_expected = np.sqrt(1.0 + fr.zeta @ fr.zeta + fr.xi @ fr.xi)
    assert abs(fr.m - m_expected) < 1e-15


def test_frame_m_direct_values():
    fr = engine.Frame(zeta=np.array([1.0, 1.0, 1.0]), xi=np.zeros(1), eps=np.zeros(1),
                      m=float(np.sqrt(1 + 3)))
    assert fr.m == 2.0 and fr.m2 == 4.0


def test_frame_frozen_theta_swap_term_decays(bench):
    scn = _scenario(bench, Structure.SF_XM, x0=np.ones(3))
    rng = np.random.default_rng(2)
    theta = mimo.nominal_params(scn).theta_star[:, 0] * (
        1.0 + 0.1 * rng.standard_normal(scn.theta_dim))
    loop = _frozen_loop(scn, theta)
    for k in range(100):
        *_, fr = loop.step(k)
    assert np.any(fr.zeta != 0.0)
    assert abs(fr.xi[0]) < 1e-6


# -- gradient update (engine.gradient_rhs) -----------------------------------------


def test_gradient_step_zero_eps_no_change():
    dtheta, dpsi = engine.gradient_rhs(0.5 * np.eye(3), np.eye(1), np.eye(1), np.ones(3),
                                       np.array([0.5]), np.zeros(1), 4.0)
    assert np.all(dtheta == 0.0) and np.all(dpsi == 0.0)


def test_gradient_step_scalar_example():
    dtheta, _ = engine.gradient_rhs(np.eye(1), np.eye(1), np.eye(1), np.array([1.0]),
                                    np.zeros(1), np.array([1.0]), 2.0)
    assert abs(dtheta[0, 0] + 0.5) < 1e-15


def test_gain_bounds_enforced(bench):
    def one_channel(**gains):  # siso-3rd has kp_bound = 1.8
        return _scenario(bench, Structure.SF_XM, **gains)

    one_channel(gamma_theta=0.5)
    with pytest.raises(GainBoundViolation):
        one_channel(gamma_theta=2.0)  # 2.0 >= 2/1.8
    with pytest.raises(GainBoundViolation):
        one_channel(gamma_rho=2.0)  # the discrete-time Psi gain lies below 2
    with pytest.raises(GainBoundViolation):
        one_channel(gamma_theta=-0.1)
    with pytest.raises(GainBoundViolation):
        one_channel(gamma_theta=np.diag([-0.3] + [0.5] * 6))  # indefinite


@pytest.mark.parametrize("case", ["two_outputs", "continuous_time"])
def test_refmodel_checked_by_the_one_channel_build(bench, case):
    # MimoScenario checks the reference model's I/O width and domain for siso too
    ref = bench["refmodel"]
    bad = (StateSpace(ref.a, ref.b, np.vstack([ref.c, ref.c]), ref.domain)
           if case == "two_outputs" else StateSpace(-np.eye(3), ref.b, ref.c, ct()))
    with pytest.raises(ValidationError) as exc:
        _scenario(bench, Structure.SF_XM, refmodel=bad)
    assert exc.value.field == "refmodel"


# -- closed-loop runs --------------------------------------------------------------


@pytest.mark.parametrize("structure", list(Structure))
def test_nominal_zero_ic_exact_tracking(bench, structure):
    scn = _scenario(bench, structure)
    tr = mimo.run(scn, adaptive=False, horizon=200, theta0=mimo.nominal_params(scn).theta_star)
    assert np.max(np.abs(tr.e)) < 1e-12


@pytest.mark.parametrize("structure", [Structure.SF_XM, Structure.OF_YM])
def test_nominal_random_ic_decay(bench, structure):
    rng = np.random.default_rng(5)
    scn = _scenario(bench, structure,
                    x0=rng.standard_normal(3), xm0=rng.standard_normal(3))
    tr = mimo.run(scn, adaptive=False, horizon=400, theta0=mimo.nominal_params(scn).theta_star)
    assert np.max(np.abs(tr.e[200:])) < 1e-6
    assert np.max(np.abs(tr.e[:5])) > 1e-3  # the transient was actually there


def test_adaptive_near_start_tracks(bench):
    scn = _scenario(bench, Structure.SF_XM)
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=True, horizon=5000, theta0=0.9 * nom.theta_star,
                  oracle=nom)
    tail = tr.e[-500:]
    assert float(np.sqrt(np.mean(tail**2))) < 1e-3
    assert np.isfinite(tr.theta_norm).all()


def test_adaptive_lyapunov_monotone(bench):
    scn = _scenario(bench, Structure.OF_XM)
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=True, horizon=2000, theta0=0.9 * nom.theta_star,
                  oracle=nom)
    assert np.max(np.diff(tr.v)) <= 1e-12
    assert np.max(tr.extra["ident_resid"]) < 1e-8


def test_adaptive_l2_properties(bench):
    scn = _scenario(bench, Structure.SF_XM)
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=True, horizon=5000, theta0=0.9 * nom.theta_star,
                  oracle=nom)
    l2e = tr.extra["l2_eps_cum"]
    l2d = tr.extra["l2_dtheta_cum"]
    assert np.isfinite(l2e[-1]) and np.isfinite(l2d[-1])
    assert l2e[-1] - l2e[-1000] < 1e-6
    assert l2d[-1] - l2d[-1000] < 1e-6


def test_sf_structures_agree_after_transients(bench):
    # both nominal state-feedback variants realize u = k1'x + k2 r
    scn_x = _scenario(bench, Structure.SF_XM)
    scn_y = _scenario(bench, Structure.SF_YM)
    tr_x = mimo.run(scn_x, adaptive=False, horizon=400,
                    theta0=mimo.nominal_params(scn_x).theta_star)
    tr_y = mimo.run(scn_y, adaptive=False, horizon=400,
                    theta0=mimo.nominal_params(scn_y).theta_star)
    assert np.max(np.abs(tr_x.u[200:] - tr_y.u[200:])) < 1e-6


def test_run_engine_matches_public_ops(bench):
    # independent plain-numpy rebuild of the SF_XM adaptive run: plant and
    # reference recursions, the 1/Pm filters of omega and of theta^T omega,
    # and the normalized-gradient update of (theta, rho)
    scn = _scenario(bench, Structure.SF_XM, gamma_theta=0.5, gamma_rho=1.0)
    tr = mimo.run(scn, adaptive=True, horizon=300)

    q, pm = scn.theta_dim, scn.fpoly.coeffs
    k = pm.size - 1
    comp = np.eye(k, k, 1)  # controllable canonical 1/Pm: output is the first state
    comp[-1] = -pm[:k]
    zeta_st = np.zeros((k, q))
    eta_st = np.zeros(k)
    theta, rho = np.zeros(q), 1.0
    x = np.zeros(3)
    xm = np.zeros(3)
    for t in range(300):
        y = float((scn.plant.c @ x)[0])
        ym = float((scn.refmodel.c @ xm)[0])
        umt = scn.um(t)
        omega = np.concatenate([x, xm, umt])
        u = float(theta @ omega)
        assert abs(u - tr.u[t, 0]) < 1e-9
        assert abs(y - ym - tr.e[t, 0]) < 1e-9
        zeta = zeta_st[0].copy()
        xi = float(theta @ zeta - eta_st[0])
        eps = y - ym + rho * xi  # ebar = (Pm/Pm)[e] = e
        m2 = 1.0 + zeta @ zeta + xi * xi
        assert abs(np.sqrt(m2) - tr.m[t]) < 1e-9
        assert abs(eps - tr.eps[t, 0]) < 1e-9
        zeta_st = comp @ zeta_st
        zeta_st[-1] += omega
        eta_st = comp @ eta_st
        eta_st[-1] += u
        theta = theta - 0.5 * zeta * (scn.sp[0, 0] * eps) / m2
        rho = rho - 1.0 * xi * eps / m2
        x = scn.plant.a @ x + scn.plant.b[:, 0] * u
        xm = scn.refmodel.a @ xm + scn.refmodel.b[:, 0] * float(umt[0])


def test_scalar_benchmark_end_to_end():
    b = benchmarks.siso_first_order()
    scn = siso.scenario(**b, structure=Structure.OF_YM)
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, adaptive=False, horizon=100, theta0=nom.theta_star)
    assert np.max(np.abs(tr.e)) < 1e-12
    tr = mimo.run(scn, adaptive=True, horizon=3000, theta0=0.9 * nom.theta_star,
                  oracle=nom)
    assert float(np.sqrt(np.mean(tr.e[-300:] ** 2))) < 1e-3
    assert np.max(np.diff(tr.v)) <= 1e-12


def test_run_stops_at_nonfinite_l2_sum(bench):
    # unstable plant (pole at 3, same zero) under frozen zero parameters: the
    # free response overflows and the loop stops at the last finite row
    poles = Polynomial.from_roots([3.0, 0.5, -0.4]).coeffs
    plant = StateSpace(np.vstack((np.eye(3)[1:], -poles[:3])), bench["plant"].b,
                       bench["plant"].c, dt())
    scn = _scenario(bench, Structure.SF_XM, plant=plant, x0=np.ones(3))
    tr = engine.run_closed_loop(scn, False, 1000, theta0=np.zeros((scn.theta_dim, 1)),
                                psi0=np.ones((1, 1)),
                                diagnose=lambda par, fr, e: {"one": 1.0})
    assert 0 < tr.n_samples < 1000
    assert tr.guard_events == [{"t": float(tr.n_samples), "diverged": "l2_eps"}]
    for arr in (tr.e, tr.u, tr.eps, tr.m, tr.theta_norm, tr.extra["l2_eps_cum"],
                tr.extra["l2_dtheta_cum"]):
        assert np.isfinite(arr).all()
    assert tr.extra["one"].shape == (tr.n_samples,)
