"""RK4 on preallocated buffers: the step formula, aliasing of stage buffers, and per-loop state.

rk4_step with a work array must give the allocating step bit for bit.  The
closed loops step through buffers fixed when they are built: the signals
recorded at a grid point must survive the step's later stages, and two loops
of one scenario must not share any scratch.
"""

import math

import numpy as np
import pytest

from adaptrack import benchmarks, engine, feedback_lin as fl, mimo
from adaptrack.engine import Structure
from adaptrack.linsys import ReferenceBlock, rk4_gain, rk4_step


def _rk4_formula(f, t, x, h):
    """The classical step written out: x + (h/6) (((k1 + 2 k2) + 2 k3) + k4)."""
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _work(x):
    return tuple(np.empty((5, *x.shape), dtype=x.dtype))


# -- rk4_step -------------------------------------------------------------------------------


_A = np.array([[-0.3, 1.2, 0.0], [-0.7, -0.1, 0.4], [0.2, 0.0, -1.5]])


@pytest.mark.parametrize("f", [
    lambda t, x: _A @ x + np.sin(t),
    lambda t, x: np.array([x[1] * x[2], -np.sin(x[0]) + t, x[0] * x[0] - x[2]]),
], ids=["linear", "nonlinear"])
def test_rk4_step_with_work_equals_the_allocating_step(f):
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, t, h = rng.standard_normal(3), rng.uniform(0, 5), rng.uniform(1e-3, 0.3)
        want = _rk4_formula(f, t, x, h)
        x0 = x.copy()
        assert np.array_equal(rk4_step(f, t, x, h), want)
        work = _work(x)
        got = rk4_step(f, t, x, h, work=work)
        assert np.array_equal(got, want)
        assert got is work[4] and np.array_equal(x, x0)  # the new state is not written into x
        assert np.array_equal(rk4_step(f, t, x, h, k1=f(t, x), work=work), want)


def test_rk4_step_complex_input():
    lam = np.array([-2.78, -2.79, -0.5 + 1.3j, 0.1j])
    x = np.ones_like(lam)
    want = _rk4_formula(lambda t, v: lam * v, 0.0, x, 1.0)
    assert np.array_equal(rk4_step(lambda t, v: lam * v, 0.0, x, 1.0, work=_work(x)), want)
    assert np.array_equal(rk4_gain(lam, 1.0), np.abs(want))


def test_rk4_step_matrix_arguments_keep_every_stage():
    # the reference block's stage maps record rk4_step's stage arguments: with a
    # work array, as without, the four recorded stages are distinct arrays
    b = benchmarks.mimo_ct_2x2()
    zb = ReferenceBlock(b["refmodel"], b["lam_e"], b["nbe"])
    nz, h = zb.nz, b["plant"].domain.step
    pick = dict(zip(zb.offsets, np.split(np.eye(nz + 3 * 2)[nz:], 3)))
    x = np.eye(nz + 3 * 2)[:nz]

    def run(work):
        seen = []

        def f(t, zw):
            seen.append(zw)
            return zb.f @ zw + zb.g @ pick[t]

        return rk4_step(f, 0.0, x, h, work=work), seen

    want, want_seen = run(None)
    got, seen = run(_work(x))
    assert np.array_equal(got, want) and np.array_equal(want, zb.step)
    assert len({id(s) for s in seen}) == 4
    for s, w in zip(seen, want_seen):
        assert np.array_equal(s, w)
    for (zw, _), s in zip(zb.stages, seen):
        assert np.array_equal(zw, s)


# -- grid-point signals survive the later stages ----------------------------------------------


def _mimo_loop(bench, design):
    b = benchmarks.build(bench)
    scn = mimo.MimoScenario(**b, structure=Structure.SF_XM, x0=np.array([0.3, -0.2, 0.1]),
                            design="gradient" if design == "nominal" else design)
    theta0 = 0.9 * mimo.nominal_params(scn).theta_star
    return lambda: engine.ClosedLoop(scn, design != "nominal", theta0=theta0,
                                     psi0=scn.sp.T.copy())


_ENGINE = [("mimo-ct-2x2", "gradient"), ("mimo-ct-2x2", "nominal"), ("mimo-rd1-ct", "rd1"),
           ("mimo-dt-2x2", "gradient"), ("mimo-dt-2x2", "nominal")]


def _measured(out):
    y, ym, e, u, fr = out
    return [y, ym, e, u, fr.zeta, fr.xi, fr.eps, np.array(fr.m)]


@pytest.mark.parametrize("bench,design", _ENGINE)
def test_engine_measured_signals_survive_the_step(bench, design):
    # what step returns is its grid evaluation, untouched by the later stages: the
    # same evaluation, redone from the state before the step, gives it again
    loop = _mimo_loop(bench, design)()
    for k in range(150):
        start = loop.s.copy()
        out = loop.step(k)
        got, end = [a.copy() for a in _measured(out)], loop.s.copy()
        loop.s[:] = start
        _, (y, e, u, fr) = loop._stage_rhs(0, loop._rows[k - loop._k0][0], frame=True)
        loop.s[:] = end
        for a, b_ in zip(_measured((y, out[1], e, u, fr)), got):
            assert np.array_equal(a, b_)
    assert np.any(got[5] != 0.0)


def _fl_loop(adaptive=True):
    plant, leader, ia = fl.benchmark()
    tstar = fl.benchmark_theta_star(plant, leader, ia)
    scn = fl.FLScenario(plant, leader, ia, x0=fl.matched_x0(plant, leader))
    return fl.FLLoop(scn, adaptive=adaptive, theta0=0.9 * tstar)


def _fl_evaluate(loop, t, flat):
    """The loop's stage at any state, on fresh buffers: (derivative, signals), all new arrays."""
    return loop._stage(t, loop._stage_buffers(flat, np.zeros(flat.size)))


def _fl_rhs(loop):
    return lambda t, flat: _fl_evaluate(loop, t, flat)[0]


def _fl_measured(loop, out):
    y, ym, e, u, fr = out
    return [y, ym, e, u, fr.zeta, fr.xi, fr.eps, np.array(fr.m), loop.m_i]


def _fl_grid(loop, t, flat):
    """_fl_measured of the grid evaluation at a state, on fresh buffers, as new arrays."""
    bufs = loop._stage_buffers(flat, np.zeros(flat.size))
    _, (y, ym, e, u, zetas, eps, mi) = loop._stage(t, bufs)
    m = math.sqrt(1.0 + float(np.vdot(zetas, zetas)))
    return [np.array(a, copy=True) for a in (y, ym, e, u, zetas, bufs[-1][0], eps, m, mi)]


@pytest.mark.parametrize("adaptive", [True, False], ids=["gradient", "nominal"])
def test_fl_grid_signals_survive_the_step(adaptive):
    # the allocating reference evaluation and step run on the loop's own scratch
    # before the step, so what step returns must be its own grid evaluation,
    # untouched by the scratch its later stages write
    loop = _fl_loop(adaptive)
    for k in range(100):
        want = _fl_grid(loop, k * loop.h, loop.s.copy())
        want_new = rk4_step(_fl_rhs(loop), k * loop.h, loop.s, loop.h)
        out = loop.step(k)
        assert np.array_equal(loop.s, want_new)
        for a, b_ in zip(_fl_measured(loop, out), want):
            assert np.array_equal(a, b_)


def test_fl_evaluate_returns_arrays_no_later_call_overwrites():
    loop = _fl_loop()
    flat = loop.s.copy()
    d1, sig1 = _fl_evaluate(loop, 0.0, flat)
    before = [d1.copy()] + [np.array(a, copy=True) for a in sig1]
    flat2 = flat + 0.1
    _fl_evaluate(loop, 0.5, flat2)
    loop.step(0)
    for a, b_ in zip([d1, *sig1], before):
        assert np.array_equal(a, b_)


# -- no scratch shared between loops ----------------------------------------------------------


@pytest.mark.parametrize("bench,design", _ENGINE)
def test_engine_loops_stepped_interleaved_equal_separate_runs(bench, design):
    # each loop's row is read after the other's step, so any buffer the two
    # shared would carry one loop's values into the other's
    build = _mimo_loop(bench, design)

    def row(out):
        y, ym, e, u, fr = out
        return np.concatenate((y, ym, e, u, fr.eps, [fr.m]))

    alone, loop = [], build()
    for k in range(200):
        alone.append(row(loop.step(k)))
    a, b_ = build(), build()
    ra, rb = [], []
    for k in range(200):
        out_a, out_b = a.step(k), b_.step(k)
        ra.append(row(out_a))
        rb.append(row(out_b))
    assert np.array_equal(np.array(ra), np.array(alone))
    assert np.array_equal(np.array(rb), np.array(alone))
    assert np.array_equal(a.s, loop.s) and np.array_equal(b_.s, loop.s)


def test_fl_loops_stepped_interleaved_equal_separate_runs():
    def row(loop, out):
        y, ym, e, u, fr = out
        return np.concatenate((y, ym, e, u, fr.eps, loop.m_i))

    alone, loop = [], _fl_loop()
    for k in range(150):
        alone.append(row(loop, loop.step(k)))
    a, b_ = _fl_loop(), _fl_loop()
    ra, rb = [], []
    for k in range(150):
        out_a, out_b = a.step(k), b_.step(k)
        ra.append(row(a, out_a))
        rb.append(row(b_, out_b))
    assert np.array_equal(np.array(ra), np.array(alone))
    assert np.array_equal(np.array(rb), np.array(alone))
    assert np.array_equal(a.s, loop.s) and np.array_equal(b_.s, loop.s)


# -- the nonlinear loop's parameter-increment sum --------------------------------------------


def test_fl_l2_dtheta_is_the_running_sum_of_parameter_increments():
    plant, leader, ia = fl.benchmark()
    tstar = fl.benchmark_theta_star(plant, leader, ia)
    scn = fl.FLScenario(plant, leader, ia, x0=fl.matched_x0(plant, leader))
    h, n = scn.step, 200

    tr = fl.run(scn, horizon=n, theta0=0.9 * tstar)
    loop = fl.FLLoop(scn, theta0=0.9 * tstar)
    flat, total, want = loop.s.copy(), 0.0, []
    for k in range(n):
        new = rk4_step(_fl_rhs(loop), k * h, flat, h)
        d = loop.blocks(new)[3] - loop.blocks(flat)[3]
        total += float(np.sum(d * d)) / h
        want.append(total)
        flat = new
    got = tr.extra["l2_dtheta_cum"]
    assert got.shape == (n,) and want[-1] > 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    nominal = fl.run(scn, adaptive=False, horizon=n, theta0=0.9 * tstar)
    assert np.all(nominal.extra["l2_dtheta_cum"] == 0.0)
