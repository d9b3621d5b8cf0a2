import dataclasses

import numpy as np
import pytest

from adaptrack import feedback_lin as fl
from adaptrack.errors import SingularityGuard

import _oracles as oc


@pytest.fixture(scope="module")
def pair():
    plant, leader, interactor = fl.benchmark()
    tstar = fl.benchmark_theta_star(plant, leader, interactor)
    return plant, leader, interactor, tstar


def _controller(interactor, leader, theta=None, **kw):
    return fl.FLController(interactor=interactor, dims=(3, 3, 2, leader.qm),
                           theta=theta, **kw)


# -- estimate assembly ------------------------------------------------------------


def test_assemble_estimates_true_parameters(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=tstar)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(3)
        bhat, ahat = fl.assemble_estimates(ctrl, plant, x)
        assert np.max(np.abs(bhat - plant.b_true(x))) < 1e-12
        assert np.max(np.abs(ahat - plant.a_true(x))) < 1e-12


def test_assemble_estimates_zero(pair):
    plant, leader, ia, _ = pair
    ctrl = _controller(ia, leader)
    bhat, ahat = fl.assemble_estimates(ctrl, plant, np.array([0.3, -0.2, 0.5]))
    assert np.all(bhat == 0.0) and np.all(ahat == 0.0)


def test_assemble_estimates_linear_in_u(pair):
    plant, leader, ia, tstar = pair
    rng = np.random.default_rng(1)
    theta = tstar + 0.3 * rng.standard_normal(tstar.shape)
    ctrl = _controller(ia, leader, theta=theta)
    th2 = ctrl.split()[1]
    for _ in range(5):
        x = rng.standard_normal(3)
        u1 = rng.standard_normal(2)
        u2 = rng.standard_normal(2)
        w = plant.omega2_w(x)
        _, ahat = fl.assemble_estimates(ctrl, plant, x)
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


def test_v_signal_at_rest(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=tstar)
    x = np.zeros(3)
    xm = np.zeros(3)
    v = fl.v_signal(ctrl, plant, leader, x, plant.h(x), xm, np.zeros(2))
    assert np.max(np.abs(v)) < 1e-14


def test_v_signal_leader_reconstruction(pair):
    # Theta_m*^T omega_m equals xi_m(s)[y_m] along leader trajectories
    plant, leader, ia, tstar = pair
    h = 1e-3
    steps = 6000
    traj = oc.rk4_sim(lambda t, x: leader.deriv(x, leader.um(t)), leader.x0, h, steps)
    ys = np.array([leader.h(x) for x in traj])
    lhs = oc.interactor_apply_ct([d.coeffs for d in ia.rows], ys, h)
    ts = np.arange(steps + 1) * h
    rhs = np.array(
        [leader.theta_m_star.T @ leader.omega_m(x, leader.um(t))
         for x, t in zip(traj, ts)]
    )[2:-2]
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_modified_equals_unimplementable_with_true_leader_params(pair):
    # with Theta_m = Theta_m*, v = Theta_m^T omega_m - v_hat equals the signal
    # built from the leader's actual output derivatives at every state
    plant, leader, ia, tstar = pair
    rng = np.random.default_rng(3)
    ctrl = _controller(ia, leader, theta=tstar)
    for _ in range(10):
        x = rng.standard_normal(3)
        xm = rng.standard_normal(3)
        umt = rng.standard_normal(2)
        y = plant.h(x)
        v_mod = fl.v_signal(ctrl, plant, leader, x, y, xm, umt)
        # unimplementable form: xi_m(s)[y_m] - v_hat_y with true Lie data
        ym = leader.h(xm)
        lm1 = leader.lie1_true(xm)
        dxm = leader.deriv(xm, umt)
        # d/dt of leader lie1 row 2 via chain rule on the true dynamics
        a5, a2, a3 = -1.0, 0.5, 0.4  # hidden leader constants (test knows them)
        ym2dd = a5 * dxm[1] + a2 * dxm[2] + a3 * np.cos(xm[0]) * dxm[0]
        d1c = ia.rows[0].coeffs
        d2c = ia.rows[1].coeffs
        xi_ym = np.array(
            [dxm[0] + d1c[0] * ym[0], ym2dd + d2c[1] * lm1[1] + d2c[0] * ym[1]]
        )
        th3 = ctrl.split()[2]
        vy = th3.T @ plant.omega3(x) + ctrl.alpha_last * y
        v_unimpl = xi_ym - vy
        assert np.max(np.abs(v_mod - v_unimpl)) < 1e-12


# -- per-column frames and updates -----------------------------------------------------


def test_column_frames_zero(pair):
    plant, leader, ia, _ = pair
    ctrl = _controller(ia, leader)
    zetas = [np.zeros(ctrl.q), np.zeros(ctrl.q)]
    frames = fl.column_frames(ctrl, np.zeros(2), zetas, [0.0, 0.0])
    for zeta, xi, eps, m in frames:
        assert eps == 0.0 and m == 1.0


def test_column_frames_frozen_theta_swap_decays(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=tstar)
    filters = fl._ColumnFilters(ia, ctrl.q)
    states = filters.init_states()
    rng = np.random.default_rng(4)
    h = 1e-3
    omega_fn = lambda t: np.sin(0.9 * t) * np.ones(ctrl.q) * 0.5
    for k in range(8000):
        t = k * h
        om = omega_fn(t)
        for i in range(2):
            states[i] = states[i] + h * filters.deriv(
                states[i], i, om, float(tstar[:, i] @ om)
            )
    zetas, etas = filters.outputs(states)
    frames = fl.column_frames(ctrl, np.zeros(2), zetas, etas)
    for _, xi, _, _ in frames:
        assert abs(xi) < 1e-6


def test_gradient_rhs_zero_eps(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=tstar)
    frames = [(np.ones(ctrl.q), 0.0, 0.0, 1.5)] * 2
    d = fl.gradient_rhs(ctrl, frames)
    assert np.all(d == 0.0)


def test_gradient_rhs_scalar_formula(pair):
    plant, leader, ia, _ = pair
    ctrl = _controller(ia, leader)
    zeta = np.zeros(ctrl.q)
    zeta[0] = 1.0
    frames = [(zeta, 0.0, 1.0, np.sqrt(2.0)), (np.zeros(ctrl.q), 0.0, 0.0, 1.0)]
    d = fl.gradient_rhs(ctrl, frames)
    assert abs(d[0, 0] - 0.5) < 1e-15
    assert np.all(d[:, 1] == 0.0)


def test_gradient_step_advances_column(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader)
    zeta = np.zeros(ctrl.q)
    zeta[0] = 1.0
    frames = [(zeta, 0.0, 1.0, np.sqrt(2.0)), (np.zeros(ctrl.q), 0.0, 0.0, 1.0)]
    new = ctrl.theta + 1e-2 * fl.gradient_rhs(ctrl, frames)
    assert abs(new[0, 0] - 0.005) < 1e-15
    assert np.all(new[:, 1] == 0.0)
    # the loop's theta derivative is gradient_rhs of the frames at the same state
    loop = fl.FLLoop(plant, leader, _controller(ia, leader, theta=0.9 * tstar), 1e-3)
    rng = np.random.default_rng(6)
    flat = loop.pack([rng.standard_normal(s.shape) for s in loop.filters.init_states()],
                     loop.ctrl.theta)
    x, xm, states, theta = loop.unpack(flat)
    frames = loop.algebra(0.3, x, xm, states, theta)[-1]
    _, _, _, dtheta = loop.unpack(loop.rhs(0.3, flat))
    assert np.array_equal(dtheta, fl.gradient_rhs(loop.ctrl, frames, theta))


# -- benchmark structure ----------------------------------------------------------------


def test_benchmark_relative_degree_structure(pair):
    plant, leader, ia, _ = pair
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = 0.5 * rng.standard_normal(3)
        g = plant.gmat(x)
        assert abs(g[0, 0]) >= 1.0  # L_g h1 row never vanishes
        assert np.all(g[1] == 0.0)  # rho_2 = 2: no direct input on y2 rate
        assert fl.sigma_min(plant.a_true(x)) > 0.2  # decoupling matrix nonsingular


def test_benchmark_leader_bounded(pair):
    plant, leader, ia, _ = pair
    h = 5e-3
    traj = oc.rk4_sim(lambda t, x: leader.deriv(x, leader.um(t)), leader.x0, h, 20000)
    assert np.max(np.abs(traj)) < 10.0  # bounded over a 100 s horizon


def test_benchmark_output_dynamics_identity(pair):
    # finite-differenced outputs match b(x) + A(x) u along a closed-loop run
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=tstar)
    h = 1e-3
    tr = fl.run(plant, leader, ctrl, adaptive=False, horizon=4000, step=h,
                x0=fl.matched_x0(plant, leader))
    # reconstruct states by re-running the plant side: use recorded y and u
    # directly: D[y1] and D^2[y2] vs b + A u requires x; rerun the loop capturing x
    loop = fl.FLLoop(plant, leader, ctrl, h, adaptive=False)
    states = loop.filters.init_states()
    flat = loop.pack(states, ctrl.theta.copy())
    loop_x0 = fl.matched_x0(plant, leader)
    flat[: 3] = loop_x0
    xs = []
    us = []
    from adaptrack.linsys import rk4_step

    for k in range(4000):
        t = k * h
        x, xm, sts, theta = loop.unpack(flat)
        alg = loop.algebra(t, x, xm, sts, theta)
        xs.append(x.copy())
        us.append(alg[4].copy())
        flat = rk4_step(loop.rhs, t, flat, h)
    xs = np.asarray(xs)
    us = np.asarray(us)
    ys = np.array([plant.h(x) for x in xs])
    d1y1 = oc.d1_stencil(ys[:, 0], h)
    d2y2 = oc.d2_stencil(ys[:, 1], h)
    blk = np.array([plant.b_true(x) for x in xs])
    amat = np.array([plant.a_true(x) for x in xs])
    rhs = blk + np.einsum("tij,tj->ti", amat, us)
    assert np.max(np.abs(d1y1 - rhs[2:-2, 0])) < 1e-5
    assert np.max(np.abs(d2y2 - rhs[2:-2, 1])) < 1e-4


# -- closed-loop runs ---------------------------------------------------------------------


def test_run_true_params_matched_start(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=tstar)
    tr = fl.run(plant, leader, ctrl, adaptive=False, horizon=2000, step=1e-3,
                x0=fl.matched_x0(plant, leader))
    assert np.max(np.abs(tr.e)) < 1e-10


def test_run_true_params_offset_start_matches_linear_ode(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=tstar)
    x0 = fl.matched_x0(plant, leader) + np.array([0.0, 0.0, 0.5])
    th1, th2, th3 = plant.theta_star
    e2dot0 = th2 * 0.5  # only x3 was perturbed; L_f h2 shifts by th2 * dx3
    tr = fl.run(plant, leader, ctrl, adaptive=False, horizon=8000, step=1e-3, x0=x0)
    r = 1.2  # double root of d2
    pred = e2dot0 * tr.t * np.exp(-r * tr.t)
    assert np.max(np.abs(tr.e[:, 1] - pred)) < 1e-4
    assert np.max(np.abs(tr.e[:, 0])) < 1e-10


def test_run_adaptive_near_start(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=0.9 * tstar)
    tr = fl.run(plant, leader, ctrl, adaptive=True, horizon=20000, step=1e-3,
                x0=fl.matched_x0(plant, leader), theta_star=tstar)
    assert np.max(np.abs(tr.extra["ident_resid"])) < 1e-8
    dv = np.diff(tr.v) / 1e-3
    assert np.all(dv <= 1e-6 * np.maximum(tr.v[:-1], 1.0))
    tail = tr.e[-4000:]
    assert float(np.sqrt(np.mean(np.sum(tail**2, axis=1)))) < 5e-2
    assert np.isfinite(tr.theta_norm).all()
    assert tr.extra["l2_eps_cum"][-1] < 1.0  # finite normalized-error energy


def test_run_guard_abort_records_event(pair):
    plant, leader, ia, _ = pair
    ctrl = _controller(ia, leader)  # zero estimates: A_hat = 0 at t = 0
    tr = fl.run(plant, leader, ctrl, adaptive=True, horizon=50, step=1e-3)
    assert tr.guard_events and tr.guard_events[0]["t"] == 0.0
    assert tr.n_samples == 0


def test_gradient_lyapunov_slope_finite_difference(pair):
    plant, leader, ia, tstar = pair
    ctrl = _controller(ia, leader, theta=0.9 * tstar)
    h = 1e-3
    tr = fl.run(plant, leader, ctrl, adaptive=True, horizon=3000, step=h,
                x0=fl.matched_x0(plant, leader), theta_star=tstar)
    vdot = (tr.v[2:] - tr.v[:-2]) / (2 * h)
    eps_over_m = np.sum((tr.eps[1:-1] / tr.extra["m_i"][1:-1]) ** 2, axis=1)
    assert np.max(np.abs(vdot + eps_over_m)) < 1e-4


def test_run_nonfinite_state_records_diverged_event(pair):
    plant, leader, ia, tstar = pair
    # the leader input turns NaN at t = 0.02: the RK4 step into that time
    # poisons the follower state, and the run stops before recording that row
    bad = dataclasses.replace(
        leader, um=lambda t: leader.um(t) if t < 0.02 else np.full(leader.m, np.nan))
    ctrl = _controller(ia, leader, theta=tstar)
    tr = fl.run(plant, bad, ctrl, adaptive=True, horizon=100, step=1e-3,
                x0=fl.matched_x0(plant, leader), theta_star=tstar)
    assert tr.n_samples == 20
    assert tr.guard_events == [{"t": 20 * 1e-3, "diverged": "plant"}]
    assert np.isfinite(tr.e).all() and np.isfinite(tr.extra["l2_eps_cum"]).all()
    assert tr.extra["ident_resid"].shape == (20, 2)
