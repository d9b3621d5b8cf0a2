"""The fused continuous- and discrete-time stage, the nonlinear drive, and per-block diagnostics.

Each fast path is checked against the plain formula it replaces: the engine's
one closed-loop product against F lin + G v with every signal read out
separately, the nonlinear loop's regressor and filter drive against the
regressor blocks and theta_i^T omega, and the per-block certificate, identity
residual and parameter norm against their per-step formulas.
"""

import dataclasses

import numpy as np
import pytest

from adaptrack import benchmarks, engine, feedback_lin as fl, mimo, siso
from adaptrack.engine import GradientLaw, Rd1Law, Structure
from adaptrack.linsys import Polynomial, StateSpace, dt, rk4_step


def _fl_evaluate(loop, t, flat):
    """The loop's stage at any state, on fresh buffers: (derivative, signals), all new arrays."""
    return loop._stage(t, loop._stage_buffers(flat, np.zeros(flat.size)))


def _close(got, want, rtol):
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * max(np.abs(want).max(), 1.0))


def _mimo_scn(b, structure, **kw):
    return mimo.MimoScenario(**{**b, **kw}, structure=structure)


# -- engine: one closed-loop product per stage ------------------------------------------


def _unfused(loop, flat, zu):
    """[dlin, dTheta, dPsi] and (y, y_m, e, u, eps, m) from F, G, the readouts and the law."""
    rd, nl = loop._read, loop._f.shape[0]
    q, m = loop.theta.shape
    lin = flat[:nl]
    theta, psi = flat[loop._theta].reshape(q, m), flat[loop._psi].reshape(m, m)
    w = np.concatenate((lin, zu))
    y, ym, omega = rd["y"] @ w, rd["ym"] @ w, rd["omega"] @ w
    e = y - ym
    u = theta.T @ omega
    d = np.zeros(flat.size)
    d[:nl] = loop._f @ lin + loop._g @ np.concatenate((u, y, omega, e))
    zeta = rd["zeta"] @ w
    xi = theta.T @ zeta - rd["eta"] @ w
    eps = rd["ebar"] @ w + loop._je * e + psi @ xi
    m2 = 1.0 + zeta @ zeta + xi @ xi
    law = loop.law
    if isinstance(law, GradientLaw):
        d[loop._theta] = -np.outer(law.gz @ zeta, law.sp @ eps).ravel() / m2
        d[loop._psi] = -np.outer(law.gpsi @ eps, xi).ravel() / m2
    elif isinstance(law, Rd1Law):
        d[loop._theta] = -np.outer(omega, law.s.T @ (law.p @ e)).ravel()
    return d, (y, ym, e, u, eps, np.sqrt(m2))


@pytest.mark.parametrize("bench,design", [
    ("mimo-dt-2x2", "gradient"), ("mimo-dt-2x2", "nominal"),
    ("mimo-ct-2x2", "gradient"), ("mimo-ct-2x2", "nominal"), ("mimo-rd1-ct", "rd1"),
])
def test_fused_stage_equals_the_unfused_block_formula(bench, design):
    b = benchmarks.build(bench)
    if design == "rd1":
        scn = _mimo_scn(b, Structure.SF_XM, design="rd1")
    else:
        scn = _mimo_scn(b, Structure.SF_YM)
    if design == "gradient":
        scn = _mimo_scn(b, Structure.SF_YM, gz=np.diag(np.linspace(0.5, 1.5, scn.theta_dim)))
    loop = engine.ClosedLoop(scn, adaptive=design != "nominal")
    zb = scn.reference
    nst, width = loop._tab.shape[1:]
    assert nst == (1 if b["plant"].domain.is_dt else 4)
    rng = np.random.default_rng(31)
    for _ in range(4):
        flat = rng.standard_normal(loop.s.size)
        w = rng.standard_normal(loop._w.shape[1])  # [z, u_m at the step's input times]
        for j, (zw, uw) in enumerate(zb.stages):
            row = loop._tab_read.reshape(nst, width, -1)[j] @ w
            want, sigs = _unfused(loop, flat, np.concatenate((zw @ w, uw @ w)))
            (loop.s if j == 0 else loop._work[j - 1])[:] = flat  # stage j's argument
            got = loop._stage_rhs(j, row[loop._exo]).copy()
            _close(got, want, 1e-12)
            got_f, (y, e, u, fr) = loop._stage_rhs(j, row[loop._exo], frame=True)
            assert np.array_equal(got_f, got)
            ym = row[loop._ym]  # step reads y_m off the table row
            for a, b_ in zip((y, ym, e, u, fr.eps, fr.m), sigs):
                _close(a, b_, 1e-12)


# -- nonlinear loop: regressor from the estimate matrix ----------------------------------


def test_fl_regressor_and_drive_from_the_estimate_matrix():
    plant, leader, ia = fl.benchmark()
    tstar = fl.benchmark_theta_star(plant, leader, ia)
    rng = np.random.default_rng(8)
    for _ in range(10):
        theta = tstar * (1.0 + 0.2 * rng.standard_normal(tstar.shape))
        scn = fl.FLScenario(plant, leader, ia)
        loop = fl.FLLoop(scn, theta0=theta)
        flat = loop.s.copy()
        x, xm, filt, _ = loop.blocks(flat)
        x[:], xm[:] = rng.standard_normal(3), rng.standard_normal(3)
        filt[:] = rng.standard_normal(filt.shape)
        t = rng.uniform(0.0, 10.0)
        _, (y, _, _, u, _, _, _) = _fl_evaluate(loop, t, flat)
        _, om1, w, om3, _, _ = plant.at(x)
        omm = leader.at(xm, leader.um(t))[2]
        omega = np.concatenate((om1, w @ u, om3, -omm))
        _close(loop._est @ np.concatenate(([1.0], u, [-1.0])), omega, 1e-12)
        for row in loop._drive:
            _close(row[:-1], omega, 1e-12)
        # theta_i^T omega = -alpha_i y_i whenever A_hat u = v - b_hat
        tw = theta.T @ omega
        scale = np.abs(theta.T) @ np.abs(omega)
        assert np.all(np.abs(tw + scn.alpha_last * y) <= 1e-12 * scale)
        assert np.array_equal(loop._drive[:, -1], -scn.alpha_last * y)


# -- diagnostics per block ----------------------------------------------------------------


def _per_step_engine(scn, adaptive, horizon, theta0, psi0, step_diag):
    """Step a ClosedLoop by hand; step_diag(theta, psi, frame) gives one row of diagnostics."""
    loop = engine.ClosedLoop(scn, adaptive, theta0, psi0)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            theta, psi = loop.theta.copy(), loop.psi.copy()  # in effect at row k
            *_, fr = loop.step(k)
            row = step_diag(theta, psi, fr)
            if not (np.isfinite(loop.l2_eps) and np.isfinite(loop.l2_dtheta)):
                break
            out.append(row)
    return np.array(out)


def test_engine_block_diagnostics_match_per_step_formulas():
    # a horizon that is not a multiple of CT_BLOCK: two full blocks and a partial one
    b = benchmarks.mimo_dt_2x2()
    scn = _mimo_scn(b, Structure.SF_XM, x0=np.array([0.3, -0.2, 0.1]))
    nom = mimo.nominal_params(scn)
    horizon = 2 * engine.CT_BLOCK + 37
    theta0, psi0 = 0.9 * nom.theta_star, scn.sp.T.copy()
    tr = engine.run_closed_loop(scn, horizon=horizon, theta0=theta0, psi0=psi0,
                                diagnose=mimo.diagnostics(scn, nom))
    gp, gamma_inv = nom.kp.T @ np.linalg.inv(scn.sp), np.linalg.inv(scn.gamma)

    def step_diag(theta, psi, fr):
        tht, psit = theta - nom.theta_star, psi - nom.kp
        v = np.trace(tht.T @ tht @ gp) + np.trace(psit.T @ gamma_inv @ psit)
        ident = np.max(np.abs(fr.eps - (nom.kp @ tht.T @ fr.zeta + psit @ fr.xi)))
        return v, ident, np.linalg.norm(np.concatenate((theta.ravel(), psi.ravel())))

    want = _per_step_engine(scn, True, horizon, theta0, psi0, step_diag)
    assert tr.n_samples == horizon == want.shape[0]
    _close(tr.v, want[:, 0], 1e-14)
    _close(tr.extra["ident_resid"], want[:, 1], 1e-14)
    _close(tr.theta_norm, want[:, 2], 1e-14)


def test_engine_block_diagnostics_of_a_run_stopped_mid_block(monkeypatch):
    # unstable plant (pole at 3) under frozen parameters: the free response
    # overflows and the run stops inside a block of 16 rows
    monkeypatch.setattr(engine, "CT_BLOCK", 16)
    b = benchmarks.siso_third_order()
    poles = Polynomial.from_roots([3.0, 0.5, -0.4]).coeffs
    plant = StateSpace(np.vstack((np.eye(3)[1:], -poles[:3])), b["plant"].b, b["plant"].c, dt())
    scn = siso.scenario(**{**b, "plant": plant}, structure=Structure.SF_XM, x0=np.ones(3))
    nom = mimo.nominal_params(scn)
    theta0, psi0 = 0.5 * nom.theta_star, np.array([[0.7]])
    tr = engine.run_closed_loop(scn, False, 2000, theta0=theta0, psi0=psi0,
                                diagnose=mimo.diagnostics(scn, nom))
    assert tr.guard_events and "diverged" in tr.guard_events[0]
    assert tr.n_samples % 16 != 0
    gz, grho = scn.gz, scn.gamma[0, 0]
    np.testing.assert_array_equal(gz, np.eye(scn.theta_dim) / b["kp_bound"])
    tstar, kp = nom.theta_star[:, 0], nom.kp[0, 0]

    def step_diag(theta, psi, fr):
        tht, rhot = theta[:, 0] - tstar, psi[0, 0] - kp
        v = abs(kp) * tht @ np.linalg.solve(gz, tht) + rhot * rhot / grho
        ident = abs(fr.eps[0] - (kp * tht @ fr.zeta + rhot * fr.xi[0]))
        return v, ident, np.linalg.norm(np.append(theta, psi))

    want = _per_step_engine(scn, False, 2000, theta0, psi0, step_diag)
    assert want.shape[0] == tr.n_samples
    _close(tr.v, want[:, 0], 1e-14)
    _close(tr.theta_norm, want[:, 2], 1e-14)
    # the residual grows with the diverging signals: relative to each row's size
    np.testing.assert_allclose(tr.extra["ident_resid"], want[:, 1], rtol=1e-14,
                               atol=1e-14 * np.max(np.abs(tr.eps)))


def test_engine_run_stopped_at_its_first_step_has_every_column():
    # a non-finite plant start makes the first step's running sums NaN, so no row
    # is recorded; the diagnostics columns are declared before it, with zero rows
    scn = _mimo_scn(benchmarks.mimo_dt_2x2(), Structure.SF_XM, x0=np.full(3, np.nan))
    nom = mimo.nominal_params(scn)
    tr = mimo.run(scn, horizon=50, theta0=0.9 * nom.theta_star, oracle=nom)
    assert tr.guard_events == [{"t": 0.0, "diverged": "plant_filters"}]
    assert tr.v.shape == tr.extra["ident_resid"].shape == tr.theta_norm.shape == (0,)


@pytest.mark.parametrize("horizon,nan_at", [(2 * engine.CT_BLOCK + 9, None), (100, 0.02)])
def test_fl_block_diagnostics_match_per_step_formulas(horizon, nan_at):
    # a horizon that is not a multiple of CT_BLOCK, and a run whose leader input
    # turns NaN, so it stops at row 20 of its first block
    plant, leader, ia = fl.benchmark()
    tstar = fl.benchmark_theta_star(plant, leader, ia)
    if nan_at is not None:
        um = leader.um
        leader = dataclasses.replace(
            leader, um=lambda t: um(t) if t < nan_at else np.full(2, np.nan))

    scn = fl.FLScenario(plant, leader, ia, x0=fl.matched_x0(plant, leader))
    tr = fl.run(scn, horizon=horizon, theta0=0.9 * tstar, oracle=tstar)
    loop = fl.FLLoop(scn, theta0=0.9 * tstar)
    want = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(tr.n_samples):
            k1, (*_, zetas, eps, mi) = _fl_evaluate(loop, k * 1e-3, loop.s)
            theta = loop.blocks(loop.s)[3].T
            tht = tstar - theta
            v = sum(0.5 * tht[:, i] @ np.linalg.solve(g, tht[:, i])
                    for i, g in enumerate(loop.scenario.gammas))
            ident = [eps[i] - tht[:, i] @ zetas[i] for i in range(2)]
            want.append((v, *ident, np.linalg.norm(theta), *mi))
            loop.s[:] = rk4_step(lambda t, s: _fl_evaluate(loop, t, s)[0], k * 1e-3, loop.s,
                                 1e-3, k1=k1)
    want = np.array(want)
    assert tr.n_samples == (20 if nan_at is not None else horizon)
    _close(tr.v, want[:, 0], 1e-14)
    _close(tr.extra["ident_resid"], want[:, 1:3], 1e-14)
    _close(tr.theta_norm, want[:, 3], 1e-14)
    # m_i is computed per block, from the kept zeta_i, as the loop computes it per step
    assert np.array_equal(tr.extra["m_i"], want[:, 4:])
