import dataclasses

import numpy as np
import pytest

from adaptrack import feedback_lin as fl
from adaptrack.errors import GainBoundViolation, SingularityGuard, ValidationError

import _oracles as oc


@pytest.fixture(scope="module")
def pair():
    plant, leader, interactor = fl.benchmark()
    tstar = fl.benchmark_theta_star(plant, leader, interactor)
    return plant, leader, interactor, tstar


@pytest.fixture(scope="module")
def scn(pair):
    return fl.FLScenario(*pair[:3])


def _matched(pair, **kw):
    """The benchmark's FLScenario with the follower at its matched start."""
    plant, leader, ia, _ = pair
    return fl.FLScenario(plant, leader, ia, x0=fl.matched_x0(plant, leader), **kw)


def _estimates(scn, theta, x, xm, umt):
    """fl.estimates at Theta = theta with every regressor evaluated at (x, x_m, u_m)."""
    y, om1, w, om3, _, _ = scn.plant.at(x)
    return fl.estimates(scn, theta.T, om1, w, om3, scn.leader.at(xm, umt)[2], y)


def _leader_rhs(leader):
    return lambda t, x: leader.at(x, leader.um(t))[0]


def _evaluate(loop, t, flat):
    """The loop's stage at any state, on fresh buffers: (derivative, signals), all new arrays."""
    return loop._stage(t, loop._stage_buffers(flat, np.zeros(flat.size)))


# -- estimate assembly ------------------------------------------------------------


def test_assemble_estimates_true_parameters(pair, scn):
    plant, leader, ia, tstar = pair
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(3)
        bhat, ahat, _ = _estimates(scn, tstar, x, np.zeros(3), np.zeros(2))
        assert np.max(np.abs(bhat - oc.fl_b(plant.theta_star, x))) < 1e-12
        assert np.max(np.abs(ahat - oc.fl_a(plant.theta_star, x))) < 1e-12


def test_assemble_estimates_zero(scn):
    bhat, ahat, v = _estimates(scn, np.zeros((scn.q, 2)), np.array([0.3, -0.2, 0.5]),
                               np.array([0.1, 0.4, -0.3]), np.ones(2))
    assert np.all(bhat == 0.0) and np.all(ahat == 0.0)
    # v = -alpha y: the leader and Lie-derivative estimates are zero too
    assert np.array_equal(v, -scn.alpha_last * np.array([0.3, -0.2]))


def test_assemble_estimates_linear_in_u(pair, scn):
    plant, leader, ia, tstar = pair
    rng = np.random.default_rng(1)
    theta = tstar + 0.3 * rng.standard_normal(tstar.shape)
    th2 = theta[3:6]
    for _ in range(5):
        x = rng.standard_normal(3)
        u1 = rng.standard_normal(2)
        u2 = rng.standard_normal(2)
        w = plant.at(x)[2]
        _, ahat, _ = _estimates(scn, theta, x, rng.standard_normal(3), rng.standard_normal(2))
        lhs = ahat @ (u1 + u2)
        rhs = th2.T @ (w @ u1) + th2.T @ (w @ u2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- linearizing control ------------------------------------------------------------


def test_control_identity_gain():
    u = fl.linearizing_control(np.eye(2), np.zeros(2), np.array([1.0, -2.0]))
    assert np.all(u == np.array([1.0, -2.0]))


def test_control_hand_example():
    u = fl.linearizing_control(np.diag([2.0, 4.0]), np.array([1.0, 1.0]),
                               np.array([3.0, 5.0]))
    assert np.max(np.abs(u - np.array([1.0, 1.0]))) < 1e-14


def test_control_guard_on_zero_matrix():
    with pytest.raises(SingularityGuard):
        fl.linearizing_control(np.zeros((2, 2)), np.zeros(2), np.ones(2))


def test_sigma_min_closed_form_matches_svd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((2, 2))
        assert abs(fl.sigma_min(a) - np.linalg.svd(a, compute_uv=False)[-1]) < 1e-10


def test_sigma_min_badly_scaled_matches_svd():
    # A_hat values met by fl_adaptive at step 4.0: sigma_max^2 - sigma_min^2
    # cancels in the Frobenius form (first), and |A|_F^4 overflows (second)
    for a, floor in (([[8.98e9, 0.074], [-2.08e9, -0.646]], 0.6),
                     ([[3.98e81, -0.0322], [-1.48e81, -0.1637]], 0.16)):
        a = np.array(a)
        want = np.linalg.svd(a, compute_uv=False)[-1]
        assert want > floor
        np.testing.assert_allclose(fl.sigma_min(a), want, rtol=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(50):
        a = rng.uniform(0.5, 2.0, (2, 2)) * rng.choice([-1.0, 1.0], (2, 2))
        np.testing.assert_allclose(fl.sigma_min(a), np.linalg.svd(a, compute_uv=False)[-1],
                                   rtol=1e-12)


# -- outer-loop signal ---------------------------------------------------------------


def test_v_signal_at_rest(pair, scn):
    tstar = pair[3]
    x = np.zeros(3)
    xm = np.zeros(3)
    v = _estimates(scn, tstar, x, xm, np.zeros(2))[2]
    assert np.max(np.abs(v)) < 1e-14


def test_v_signal_leader_reconstruction(pair):
    # Theta_m*^T omega_m equals xi_m(s)[y_m] along leader trajectories
    plant, leader, ia, tstar = pair
    h = 1e-3
    steps = 6000
    traj = oc.rk4_sim(_leader_rhs(leader), leader.x0, h, steps)
    ts = np.arange(steps + 1) * h
    ys = np.array([leader.at(x, leader.um(t))[1] for x, t in zip(traj, ts)])
    lhs = oc.interactor_apply_ct([d.coeffs for d in ia.rows], ys, h)
    rhs = np.array(
        [leader.theta_m_star.T @ leader.at(x, leader.um(t))[2]
         for x, t in zip(traj, ts)]
    )[2:-2]
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_modified_equals_unimplementable_with_true_leader_params(pair, scn):
    # with Theta_m = Theta_m*, v = Theta_m^T omega_m - v_hat equals the signal
    # built from the leader's actual output derivatives at every state
    plant, leader, ia, tstar = pair
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(3)
        xm = rng.standard_normal(3)
        umt = rng.standard_normal(2)
        y, _, _, om3, _, _ = plant.at(x)
        v_mod = _estimates(scn, tstar, x, xm, umt)[2]
        # unimplementable form: xi_m(s)[y_m] - v_hat_y with true Lie data
        dxm, ym, _ = leader.at(xm, umt)
        lm1 = leader.lie1_true(xm)
        # d/dt of leader lie1 row 2 via chain rule on the true dynamics
        a5, a2, a3 = -1.0, 0.5, 0.4  # hidden leader constants (test knows them)
        ym2dd = a5 * dxm[1] + a2 * dxm[2] + a3 * np.cos(xm[0]) * dxm[0]
        d1c = ia.rows[0].coeffs
        d2c = ia.rows[1].coeffs
        xi_ym = np.array(
            [dxm[0] + d1c[0] * ym[0], ym2dd + d2c[1] * lm1[1] + d2c[0] * ym[1]]
        )
        th3 = tstar[6:8]
        vy = th3.T @ om3 + scn.alpha_last * y
        v_unimpl = xi_ym - vy
        assert np.max(np.abs(v_mod - v_unimpl)) < 1e-12


# -- per-column frames and updates -----------------------------------------------------


def test_column_frames_zero(scn):
    xi, eps, mi = fl.column_frames(np.zeros((2, scn.q)), np.zeros(2), np.zeros((2, scn.q)),
                                   np.zeros(2))
    assert np.all(xi == 0.0) and np.all(eps == 0.0) and np.all(mi == 1.0)


def test_column_frames_per_column_formulas(scn):
    rng = np.random.default_rng(8)
    theta = rng.standard_normal((scn.q, 2))
    zetas = rng.standard_normal((2, scn.q))
    etas, e = rng.standard_normal(2), rng.standard_normal(2)
    xi, eps, mi = fl.column_frames(theta.T, e, zetas, etas)
    for i in range(2):
        assert abs(xi[i] - (etas[i] - theta[:, i] @ zetas[i])) < 1e-12
        assert abs(eps[i] - (e[i] + xi[i])) < 1e-15
        assert abs(mi[i] - np.sqrt(1.0 + zetas[i] @ zetas[i])) < 1e-12


def test_column_filters_are_the_interactor_rows(pair):
    # one block-companion realization: block i has the poles of d_i, unit
    # gain from row i of U, and H reads its first coordinate
    plant, leader, ia, _ = pair
    a, b, hs = fl.column_filters(ia)
    ks = ia.degrees
    assert a.shape == (sum(ks), sum(ks)) and b.shape == (sum(ks), 2) and hs.shape == (2, sum(ks))
    o = 0
    for i, (d, k) in enumerate(zip(ia.rows, ks)):
        blk = a[o : o + k, o : o + k]
        np.testing.assert_allclose(np.sort_complex(np.linalg.eigvals(blk)),
                                   np.sort_complex(d.roots()), atol=1e-7)
        assert np.all(a[o : o + k, :o] == 0.0) and np.all(a[o : o + k, o + k :] == 0.0)
        assert np.all(b[o : o + k, 1 - i] == 0.0) and b[o + k - 1, i] == 1.0
        assert hs[i, o] == 1.0 and np.sum(np.abs(hs[i])) == 1.0
        # DC gain 1/d_i(0) of H (-A)^-1 B on the block
        dc = hs[i, o : o + k] @ np.linalg.solve(-blk, b[o : o + k, i])
        assert abs(dc - 1.0 / d.coeffs[0]) < 1e-12
        o += k


def test_column_frames_frozen_theta_swap_decays(pair, scn):
    plant, leader, ia, tstar = pair
    a, b, hs = fl.column_filters(ia)
    filt = np.zeros((a.shape[0], scn.q + 1))
    h = 1e-3
    omega_fn = lambda t: np.sin(0.9 * t) * np.ones(scn.q) * 0.5
    for k in range(8000):
        om = omega_fn(k * h)
        drive = np.column_stack((np.tile(om, (2, 1)), tstar.T @ om))
        filt = filt + h * (a @ filt + b @ drive)
    zeta_eta = hs @ filt
    xi, _, _ = fl.column_frames(tstar.T, np.zeros(2), zeta_eta[:, : scn.q], zeta_eta[:, scn.q])
    assert np.any(zeta_eta != 0.0)
    assert np.max(np.abs(xi)) < 1e-6


def test_gradient_rhs_zero_eps(scn):
    d = fl.gradient_rhs(scn.gain, np.ones((2, scn.q)), np.zeros(2), np.full(2, 1.5))
    assert np.all(d == 0.0)


def _unit_frame(q):
    zetas = np.zeros((2, q))
    zetas[0, 0] = 1.0
    return zetas, np.array([1.0, 0.0]), np.array([np.sqrt(2.0), 1.0])


def test_gradient_rhs_scalar_formula(scn):
    d = fl.gradient_rhs(scn.gain, *_unit_frame(scn.q)).reshape(2, scn.q).T
    assert abs(d[0, 0] - 0.5) < 1e-15
    assert np.all(d[:, 1] == 0.0)


def test_gradient_rhs_per_column_gains(pair):
    plant, leader, ia, _ = pair
    rng = np.random.default_rng(9)
    q = sum((3, 3, 2, leader.qm))
    gams = []
    for _ in range(2):
        r = rng.standard_normal((q, q))
        gams.append(r @ r.T + q * np.eye(q))
    gain = fl.FLScenario(plant, leader, ia, gammas=gams).gain
    zetas, eps, mi = rng.standard_normal((2, q)), rng.standard_normal(2), 1.0 + rng.random(2)
    d = fl.gradient_rhs(gain, zetas, eps, mi).reshape(2, q)
    for i in range(2):
        np.testing.assert_allclose(d[i], gams[i] @ zetas[i] * eps[i] / mi[i] ** 2,
                                   rtol=1e-12, atol=1e-14)


def test_gradient_step_advances_column(pair, scn):
    tstar = pair[3]
    new = np.zeros((scn.q, 2)) + 1e-2 * fl.gradient_rhs(
        scn.gain, *_unit_frame(scn.q)).reshape(2, scn.q).T
    assert abs(new[0, 0] - 0.005) < 1e-15
    assert np.all(new[:, 1] == 0.0)
    # the loop's theta derivative is gradient_rhs of the frames at the same state
    loop = fl.FLLoop(scn, theta0=0.9 * tstar)
    rng = np.random.default_rng(6)
    flat = loop.s.copy()
    loop.blocks(flat)[2][:] = rng.standard_normal(loop.blocks(flat)[2].shape)
    deriv, (_, _, _, _, zetas, eps, mi) = _evaluate(loop, 0.3, flat)
    assert np.any(zetas != 0.0)
    assert np.array_equal(loop.blocks(deriv)[3].ravel(),
                          fl.gradient_rhs(loop.scenario.gain, zetas, eps, mi))
    assert np.array_equal(_evaluate(loop, 0.3, flat)[0], deriv)


def test_per_column_gains_must_be_positive_definite(pair):
    plant, leader, ia, _ = pair
    q = sum((3, 3, 2, leader.qm))
    with pytest.raises(GainBoundViolation) as ei:
        fl.FLScenario(plant, leader, ia, gammas=[-np.eye(q), np.eye(q)])
    assert ei.value.field == "gammas[0]"
    with pytest.raises(GainBoundViolation) as ei:
        fl.FLScenario(plant, leader, ia,
                      gammas=[np.eye(q), np.diag(np.r_[1.0, -1.0, np.ones(q - 2)])])
    assert ei.value.field == "gammas[1]"
    for gammas in ([np.eye(q)], [np.eye(q), np.eye(q - 1)]):
        with pytest.raises(ValidationError) as ei:
            fl.FLScenario(plant, leader, ia, gammas=gammas)
        assert ei.value.field == "gammas"


def test_scenario_derives_its_dimensions(pair, scn):
    plant, leader, ia, tstar = pair
    assert scn.dims == (3, 3, 2, leader.qm) and scn.m == ia.m == 2
    assert scn.q == scn.theta_dim == 17 and tstar.shape == (scn.q, scn.m)
    assert np.array_equal(scn.gain, np.eye(2 * scn.q))
    assert np.array_equal(scn.alpha_last, [1.0, 1.44])


@pytest.mark.parametrize("guard", [0.0, -1e-6, float("nan"), "x", [1e-6]])
def test_guard_must_be_a_positive_number(pair, guard):
    with pytest.raises(ValidationError) as ei:
        fl.FLScenario(*pair[:3], guard=guard)
    assert ei.value.field == "guard"


def test_step_outside_rk4_region_rejected_at_build(pair):
    # the column filter 1/d_1 = 1/(s + 1) has its mode at -1: |R(-4)| = 5 > 1
    with pytest.raises(ValidationError) as ei:
        fl.FLScenario(*fl.benchmark(), step=4.0)
    assert ei.value.field == "step" and "interactor[0]" in str(ei.value)
    assert fl.FLScenario(*pair[:3], step=1.0).step == 1.0


def test_loop_rejects_a_theta0_of_another_shape(scn):
    with pytest.raises(ValueError, match="theta0"):
        fl.FLLoop(scn, theta0=np.zeros((scn.q, 3)))


# -- benchmark structure ----------------------------------------------------------------


def test_benchmark_relative_degree_structure(pair):
    plant, leader, ia, _ = pair
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = 0.5 * rng.standard_normal(3)
        g = plant.at(x)[5]
        assert abs(g[0, 0]) >= 1.0  # L_g h1 row never vanishes
        assert np.all(g[1] == 0.0)  # rho_2 = 2: no direct input on y2 rate
        assert fl.sigma_min(oc.fl_a(plant.theta_star, x)) > 0.2  # decoupling matrix nonsingular


def test_benchmark_callables_match_docstring_forms(pair):
    # plant.at and leader.at against the closed forms written in benchmark()
    plant, leader, ia, _ = pair
    b1, a1, a5, a2, a3, b3, a4 = 1.0, 0.5, -1.0, 0.5, 0.4, 1.0, 0.3  # hidden leader constants
    rng = np.random.default_rng(13)
    for _ in range(10):
        x, xm, u, um = (rng.standard_normal(k) for k in (3, 3, 2, 2))
        (x1, x2, x3), (m1, m2, m3) = x, xm
        g11, c1 = 1.0 + x2**2, np.cos(x1)
        y, om1, w, om3, f, g = plant.at(x)
        np.testing.assert_allclose(y, [x1, x2], rtol=1e-15)
        np.testing.assert_allclose(om1, [x2, x2 * c1, x1], rtol=1e-15)
        np.testing.assert_allclose(w, [[g11, 0.0], [0.0, 1.0], [c1 * g11, 0.0]], rtol=1e-15)
        np.testing.assert_allclose(om3, [x3, np.sin(x1)], rtol=1e-15)
        assert f.shape == (3, 3) and g.shape == (3, 2)
        np.testing.assert_allclose(f @ plant.theta_star + g @ u,
                                   oc.fl_deriv(plant.theta_star, x, u), rtol=1e-14)
        dxm, ym, omm = leader.at(xm, um)
        gm, cm = 1.0 + m2**2, np.cos(m1)
        np.testing.assert_allclose(dxm, [-b1 * m1 + a1 * m2 + gm * um[0],
                                         a5 * m2 + a2 * m3 + a3 * np.sin(m1),
                                         -b3 * m3 + a4 * m1 + um[1]], rtol=1e-14)
        np.testing.assert_allclose(ym, [m1, m2], rtol=1e-15)
        np.testing.assert_allclose(omm, [m1, m2, m3, np.sin(m1), m1 * cm, m2 * cm, gm * um[0],
                                         cm * gm * um[0], um[1]], rtol=1e-15)
        assert omm.shape == (leader.qm,)


def test_benchmark_leader_bounded(pair):
    plant, leader, ia, _ = pair
    h = 5e-3
    traj = oc.rk4_sim(_leader_rhs(leader), leader.x0, h, 20000)
    assert np.max(np.abs(traj)) < 10.0  # bounded over a 100 s horizon


def test_benchmark_output_dynamics_identity(pair):
    # finite-differenced outputs match b(x) + A(x) u along a closed-loop run
    plant, leader, ia, tstar = pair
    scn = _matched(pair)
    h = scn.step
    tr = fl.run(scn, adaptive=False, horizon=4000, theta0=tstar)
    # reconstruct states by re-running the plant side: use recorded y and u
    # directly: D[y1] and D^2[y2] vs b + A u requires x; rerun the loop capturing x
    loop = fl.FLLoop(scn, adaptive=False, theta0=tstar)
    flat = loop.s.copy()
    xs = []
    us = []
    from adaptrack.linsys import rk4_step

    for k in range(4000):
        t = k * h
        xs.append(loop.blocks(flat)[0].copy())
        us.append(_evaluate(loop, t, flat)[1][3].copy())
        flat = rk4_step(lambda tt, s: _evaluate(loop, tt, s)[0], t, flat, h)
    xs = np.asarray(xs)
    us = np.asarray(us)
    ys = np.array([plant.at(x)[0] for x in xs])
    d1y1 = oc.d1_stencil(ys[:, 0], h)
    d2y2 = oc.d2_stencil(ys[:, 1], h)
    blk = np.array([oc.fl_b(plant.theta_star, x) for x in xs])
    amat = np.array([oc.fl_a(plant.theta_star, x) for x in xs])
    rhs = blk + np.einsum("tij,tj->ti", amat, us)
    assert np.max(np.abs(d1y1 - rhs[2:-2, 0])) < 1e-5
    assert np.max(np.abs(d2y2 - rhs[2:-2, 1])) < 1e-4


# -- closed-loop runs ---------------------------------------------------------------------


def test_run_true_params_matched_start(pair):
    plant, leader, ia, tstar = pair
    x0 = fl.matched_x0(plant, leader)
    # y2 has relative degree 2: its first derivative, along the drift alone, matches too
    lie1, lie1_m = oc.fl_lie1(plant.theta_star, x0), leader.lie1_true(leader.x0)
    assert abs(lie1[1] - lie1_m[1]) <= 1e-14 * abs(lie1_m[1])
    tr = fl.run(fl.FLScenario(plant, leader, ia, x0=x0), adaptive=False, horizon=2000,
                theta0=tstar)
    assert np.max(np.abs(tr.e)) < 1e-10


def test_run_true_params_offset_start_matches_linear_ode(pair):
    plant, leader, ia, tstar = pair
    x0 = fl.matched_x0(plant, leader) + np.array([0.0, 0.0, 0.5])
    th1, th2, th3 = plant.theta_star
    e2dot0 = th2 * 0.5  # only x3 was perturbed; L_f h2 shifts by th2 * dx3
    tr = fl.run(fl.FLScenario(plant, leader, ia, x0=x0), adaptive=False, horizon=8000,
                theta0=tstar)
    r = 1.2  # double root of d2
    pred = e2dot0 * tr.t * np.exp(-r * tr.t)
    assert np.max(np.abs(tr.e[:, 1] - pred)) < 1e-4
    assert np.max(np.abs(tr.e[:, 0])) < 1e-10


def test_run_adaptive_near_start(pair):
    tstar = pair[3]
    tr = fl.run(_matched(pair), adaptive=True, horizon=20000, theta0=0.9 * tstar,
                theta_star=tstar)
    assert np.max(np.abs(tr.extra["ident_resid"])) < 1e-8
    dv = np.diff(tr.v) / 1e-3
    assert np.all(dv <= 1e-6 * np.maximum(tr.v[:-1], 1.0))
    tail = tr.e[-4000:]
    assert float(np.sqrt(np.mean(np.sum(tail**2, axis=1)))) < 5e-2
    assert np.isfinite(tr.theta_norm).all()
    assert tr.extra["l2_eps_cum"][-1] < 1.0  # finite normalized-error energy


def test_run_guard_abort_records_event(scn):
    tr = fl.run(scn, adaptive=True, horizon=50)  # zero estimates: A_hat = 0 at t = 0
    assert tr.guard_events and tr.guard_events[0]["t"] == 0.0
    assert tr.n_samples == 0


def test_run_guard_stop_mid_run_keeps_rows_before_it(pair):
    # estimates at -0.5 theta* with a guard of 0.2: sigma_min of A_hat falls
    # below the guard at k = 988 = 15 * 64 + 28, so the last block is partial
    tstar = pair[3]
    tr = fl.run(_matched(pair, guard=0.2), adaptive=True, horizon=4000, theta0=-0.5 * tstar,
                theta_star=tstar)
    assert tr.n_samples == 988
    [event] = tr.guard_events
    assert event["t"] == 988 * 1e-3 and sorted(event) == ["sigma_min", "t"]
    assert 0.19 < event["sigma_min"] < 0.2
    for arr in (tr.v, tr.theta_norm, tr.extra["m_i"], tr.extra["ident_resid"]):
        assert arr.shape[0] == 988 and np.isfinite(arr).all()
    assert np.max(np.abs(tr.extra["ident_resid"])) < 1e-8


def test_gradient_lyapunov_slope_finite_difference(pair):
    tstar = pair[3]
    scn = _matched(pair)
    h = scn.step
    tr = fl.run(scn, adaptive=True, horizon=3000, theta0=0.9 * tstar, theta_star=tstar)
    vdot = (tr.v[2:] - tr.v[:-2]) / (2 * h)
    eps_over_m = np.sum((tr.eps[1:-1] / tr.extra["m_i"][1:-1]) ** 2, axis=1)
    assert np.max(np.abs(vdot + eps_over_m)) < 1e-4


def test_run_nonfinite_state_records_diverged_event(pair):
    plant, leader, ia, tstar = pair
    # the leader input turns NaN at t = 0.02: the RK4 step into that time
    # poisons the follower state, and the run stops before recording that row
    bad = dataclasses.replace(
        leader, um=lambda t: leader.um(t) if t < 0.02 else np.full(ia.m, np.nan))
    scn = fl.FLScenario(plant, bad, ia, x0=fl.matched_x0(plant, leader))
    tr = fl.run(scn, adaptive=True, horizon=100, theta0=tstar, theta_star=tstar)
    assert tr.n_samples == 20
    assert tr.guard_events == [{"t": 20 * 1e-3, "diverged": "plant"}]
    assert np.isfinite(tr.e).all() and np.isfinite(tr.extra["l2_eps_cum"]).all()
    assert np.isfinite(tr.extra["l2_dtheta_cum"]).all()
    assert tr.extra["ident_resid"].shape == (20, 2)
