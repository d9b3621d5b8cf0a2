import numpy as np
import pytest

from adaptrack import linsys as ls
from adaptrack.errors import NotHurwitz, RelativeDegreeViolation, UnobservablePair
from adaptrack.linsys import (
    DiagonalInteractor,
    FilterBank,
    Polynomial,
    RationalFilter,
    StateSpace,
    ct,
    dt,
)

import _oracles as oc


# -- polynomials --------------------------------------------------------------


def test_polynomial_from_roots_and_eval():
    p = Polynomial.from_roots([0.5, -0.2])
    assert p.degree == 2 and p.monic
    assert abs(p(0.5)) < 1e-14 and abs(p(-0.2)) < 1e-14


def test_polynomial_stability_both_domains():
    assert Polynomial.from_roots([0.9, -0.5]).is_stable(ls.Domain.DT)
    assert not Polynomial.from_roots([1.5]).is_stable(ls.Domain.DT)
    assert Polynomial.from_roots([-1.0, -2.0]).is_stable(ls.Domain.CT)
    assert not Polynomial.from_roots([0.1]).is_stable(ls.Domain.CT)


def test_polynomial_of_matrix_cayley_hamilton():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    p = Polynomial(np.poly(a)[::-1])
    assert np.max(np.abs(p.of_matrix(a))) < 1e-10 * max(1.0, np.max(np.abs(a)) ** 4)


# -- relative degree ----------------------------------------------------------


def test_relative_degree_double_integrator():
    ssm = StateSpace([[0, 1], [0, 0]], [0, 1], [1, 0], dt())
    assert ls.relative_degree(ssm, 0) == 2


def test_relative_degree_scalar():
    assert ls.relative_degree(StateSpace([[0.5]], [1], [2], dt()), 0) == 1


def test_relative_degree_direct_feedthrough_of_first_markov():
    rng = np.random.default_rng(1)
    a = 0.5 * rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    c = rng.standard_normal(3)
    while abs(c @ b) < 1e-3:
        c = rng.standard_normal(3)
    assert ls.relative_degree(StateSpace(a, b, c, dt()), 0) == 1


def test_relative_degree_decoupled_is_none():
    ssm = StateSpace([[0.5, 0], [0, 0.2]], [1, 0], [0, 1], dt())
    assert ls.relative_degree(ssm, 0) is None


def test_relative_degree_decoupled_row_of_a_multi_output_system():
    # row 0 sees the input after one step, row 1 never
    ssm = StateSpace([[0.5, 0], [0, 0.2]], [[1.0], [0.0]], np.eye(2), dt())
    assert ls.relative_degree(ssm, 0) == 1
    assert ls.relative_degree(ssm, 1) is None
    zero = StateSpace([[0.5]], [0.0], [1.0], dt())  # every Markov parameter vanishes
    assert ls.relative_degree(zero, 0) is None


def test_relative_degree_similarity_invariant():
    rng = np.random.default_rng(7)
    base = StateSpace([[0, 1, 0], [0, 0, 1], [0.1, -0.2, 0.3]], [0, 0, 1], [1.0, 0.5, 0.0], dt())
    d0 = ls.relative_degree(base, 0)
    for _ in range(10):
        t = rng.standard_normal((3, 3))
        while abs(np.linalg.det(t)) < 0.1:
            t = rng.standard_normal((3, 3))
        ti = np.linalg.inv(t)
        sim = StateSpace(t @ base.a @ ti, t @ base.b, base.c @ ti, dt())
        assert ls.relative_degree(sim, 0) == d0


# -- markov parameters --------------------------------------------------------


def test_markov_zero_a():
    ssm = StateSpace(np.zeros((2, 2)), [1, 2], [3, 4], dt())
    seq = ls.markov_params(ssm, 4)
    assert seq[0][0, 0] == 11.0
    assert all(abs(m[0, 0]) == 0.0 for m in seq[1:])


def test_markov_identity_a():
    ssm = StateSpace(np.eye(2), [1, 0], [0.5, 0], dt())
    seq = ls.markov_params(ssm, 5)
    assert all(abs(m[0, 0] - 0.5) < 1e-15 for m in seq)


def test_markov_double_integrator():
    ssm = StateSpace([[0, 1], [0, 0]], [0, 1], [1, 0], dt())
    vals = [m[0, 0] for m in ls.markov_params(ssm, 4)]
    assert vals == [0.0, 1.0, 0.0, 0.0]


# -- reachable subspace -------------------------------------------------------


def test_reachable_basis_is_orthonormal_and_spans_the_krylov_columns():
    rng = np.random.default_rng(5)
    f, g = rng.standard_normal((6, 6)), rng.standard_normal((6, 2))
    # reachable subspace of dimension 4: f keeps span{e0..e3} invariant
    f[4:, :4] = 0.0
    g[4:] = 0.0
    v = ls.reachable_basis(f, g)
    assert v.shape == (6, 4)
    assert np.max(np.abs(v.T @ v - np.eye(4))) < 1e-12
    krylov = np.hstack([np.linalg.matrix_power(f, k) @ g for k in range(6)])
    assert np.max(np.abs(krylov - v @ (v.T @ krylov))) < 1e-10 * np.max(np.abs(krylov))
    assert ls.reachable_basis(f, np.zeros((6, 2))).shape == (6, 0)


def test_observability_index():
    # a 4-state chain read at both ends: [C; C A] has rank 4
    a = np.eye(4, k=1)
    c = np.eye(4)[[0, 2]]
    two = StateSpace(a, np.eye(4)[:, [3]], c, dt())
    assert ls.observability_index(two) == 2
    one_output = StateSpace(a, np.eye(4)[:, [3]], np.eye(4)[[0]], dt())
    assert ls.observability_index(one_output) == 4


# -- filters (driven through realization() by a plain recursion) ---------------


def test_filter_zero_state_zero_input():
    f = RationalFilter([1.0], Polynomial.from_roots([0.3, 0.4]), dt(), width=3)
    assert np.all(oc.lti_sim(f.realization(), np.zeros((5, 3))) == 0.0)


def test_filter_strictly_proper_delay():
    f = RationalFilter([1.0], Polynomial([0.5, 1.0]), dt())
    outs = oc.lti_sim(f.realization(), [[1.0], [0.0]])[:, 0]
    assert outs.tolist() == [0.0, 1.0]


def test_filter_superposition():
    den = Polynomial.from_roots([0.2, -0.3])
    rng = np.random.default_rng(3)
    u1 = rng.standard_normal(50)
    u2 = rng.standard_normal(50)
    real = RationalFilter([0.3, 1.0], den, dt()).realization()
    ya, yb, yc = (oc.lti_sim(real, u[:, None])[:, 0] for u in (u1, u2, u1 + u2))
    assert np.max(np.abs(yc - (ya + yb))) < 1e-12


def test_filter_shift_invariance_dt():
    den = Polynomial.from_roots([0.5])
    rng = np.random.default_rng(4)
    u = rng.standard_normal(30)
    real = RationalFilter([1.0], den, dt()).realization()
    y1 = oc.lti_sim(real, u[:, None])[:, 0]
    y2 = oc.lti_sim(real, np.concatenate([[0.0, 0.0], u])[:, None])[:, 0]
    assert np.max(np.abs(y2[2:] - y1)) < 1e-14


def test_filter_matches_bruteforce_recursion():
    # y(t) from N/d applied to u equals the direct difference-equation solution
    den = Polynomial([0.06, -0.5, 1.0])  # (z-0.2)(z-0.3)
    num = Polynomial([1.0, 2.0])
    rng = np.random.default_rng(5)
    u = rng.standard_normal(40)
    y = oc.lti_sim(RationalFilter(num, den, dt()).realization(), u[:, None])[:, 0]
    # direct: y(t+2) = 0.5 y(t+1) - 0.06 y(t) + 2 u(t+1) + 1 u(t), for all t
    # with zero initial data (u(t) = y(t) = 0 for t < 0)
    def uat(t):
        return u[t] if 0 <= t < 40 else 0.0

    yd = np.zeros(42)
    for t in range(-2, 38):
        acc = 2.0 * uat(t + 1) + 1.0 * uat(t)
        prev1 = yd[t + 1] if t + 1 >= 0 else 0.0
        prev0 = yd[t] if t >= 0 else 0.0
        yd[t + 2] = 0.5 * prev1 - 0.06 * prev0 + acc
    assert np.max(np.abs(y - yd[:40])) < 1e-12


def test_filter_biproper_feedthrough():
    den = Polynomial.from_roots([0.4])
    f = RationalFilter(Polynomial([0.2, 1.0]), den, dt())  # (z+0.2)/(z-0.4): biproper
    y0, y1 = oc.lti_sim(f.realization(), [[1.0], [0.0]])[:, 0]
    assert abs(y0 - 1.0) < 1e-15  # feedthrough J=1, state starts at zero
    assert abs(y1 - (0.2 + 0.4)) < 1e-15  # H = 0.2 - 1*(-0.4)


def test_filter_bank_states_are_powers_over_lambda():
    lam = Polynomial.from_roots([0.2, 0.3])
    bank = FilterBank([0, 1], lam, dt(), width=1)
    refs = [RationalFilter([1.0], lam, dt()), RationalFilter([0.0, 1.0], lam, dt())]
    rng = np.random.default_rng(6)
    u = rng.standard_normal(25)[:, None]
    got = oc.lti_sim(bank.realization(), u)
    want = np.column_stack([oc.lti_sim(r.realization(), u)[:, 0] for r in refs])
    assert np.max(np.abs(got - want)) < 1e-13


def test_filter_bank_biproper_top_block():
    lam = Polynomial.from_roots([0.5])
    bank = FilterBank([0, 1], lam, dt(), width=1)  # top block z/(z-0.5): biproper
    y = oc.lti_sim(bank.realization(), [[2.0], [0.0]])
    assert y[0, 0] == 0.0 and y[0, 1] == 2.0
    assert abs(y[1, 0] - 2.0) < 1e-15 and abs(y[1, 1] - 1.0) < 1e-15


def test_filter_bank_empty():
    bank = FilterBank([], Polynomial([1.0]), dt(), width=2)
    assert oc.lti_sim(bank.realization(), [[1.0, 2.0]]).shape == (1, 0)


def test_filter_numerator_rows_are_the_single_filters_stacked():
    den = Polynomial.from_roots([0.3, -0.5, 0.2])
    nums = [[1.0], [0.2, 1.0], [0.5, -0.3, 0.0, 1.0], [0.0, 0.0, 2.0], [-0.7, 0.1, 0.4]]
    rows = np.zeros((len(nums), den.degree + 1))
    for r, c in enumerate(nums):
        rows[r, : len(c)] = c
    got = RationalFilter(rows, den, dt(), width=2).realization()
    singles = [RationalFilter(c, den, dt(), width=2).realization() for c in nums]
    assert np.array_equal(got[0], singles[0][0]) and np.array_equal(got[1], singles[0][1])
    for i in (2, 3):
        assert np.array_equal(got[i], np.vstack([s[i] for s in singles]))


@pytest.mark.parametrize("powers", [[-1, 0], [0, 1, 3]], ids=["negative", "above_deg"])
def test_filter_bank_rejects_powers_outside_the_denominator_range(powers):
    with pytest.raises(ValueError, match="power"):
        FilterBank(powers, Polynomial.from_roots([0.2, 0.3]), dt())


def test_markov_matching_after_closed_form_gain():
    # closed loop under the matching gain -kp^-1 c Pm(A) matches 1/Pm for 2n
    # parameters: the gain places the closed-loop poles at Z(z) Pm(z)
    p = Polynomial.from_roots([0.8, 0.5, -0.4])
    a = np.zeros((3, 3))
    a[:-1, 1:] = np.eye(2)
    a[-1] = -p.coeffs[:3]
    kp = 1.5
    plant = StateSpace(a, [0, 0, 1], [kp * (-0.3), kp, 0.0], dt())
    pm = Polynomial.from_roots([0.1, 0.2])
    k0, kpm = ls.ref_input_from_state(plant, DiagonalInteractor([pm]))
    assert abs(kpm[0, 0] - kp) < 1e-14
    k1 = -k0[:, 0] / kp
    acl = plant.a + np.outer(plant.b[:, 0], k1)
    zpm = Polynomial(np.convolve([-0.3, 1.0], pm.coeffs))
    assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(acl))
                         - np.sort_complex(zpm.roots()))) < 1e-6
    closed = StateSpace(acl, plant.b * (1.0 / kp), plant.c, dt())
    got = [m[0, 0] for m in ls.markov_params(closed, 6)]
    want = oc.inverse_poly_impulse(pm.coeffs, 6)
    assert np.max(np.abs(np.array(got) - want)) < 1e-8


# -- reference-input parametrization from state -------------------------------


def test_ref_input_from_state_scalar_example():
    rm = StateSpace([[0.5]], [1], [2], dt())
    ia = DiagonalInteractor([Polynomial([0.4, 1.0])])
    a1, a2 = ls.ref_input_from_state(rm, ia)
    assert abs(a1[0, 0] - 1.8) < 1e-14
    assert abs(a2[0, 0] - 2.0) < 1e-14


def test_ref_input_from_state_strictly_larger_degree_gives_zero_a2():
    # reference relative degree 3 > interactor degree 2 -> no feedthrough
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.006, -0.11, 0.6]])
    rm = StateSpace(a, [0, 0, 1], [1.0, 0.0, 0.0], dt())
    ia = DiagonalInteractor([Polynomial.from_roots([0.1, 0.2])])
    a1, a2 = ls.ref_input_from_state(rm, ia)
    assert np.max(np.abs(a2)) == 0.0


def test_ref_input_from_state_violation():
    rm = StateSpace([[0.5]], [1], [2], dt())  # relative degree 1
    ia = DiagonalInteractor([Polynomial.from_roots([0.1, 0.2])])  # degree 2
    with pytest.raises(RelativeDegreeViolation) as ei:
        ls.ref_input_from_state(rm, ia)
    assert ei.value.field == "refmodel"


def test_ref_input_from_state_dt_trajectory():
    rng = np.random.default_rng(12)
    a = np.array([[0.4, 0.1, 0.0], [0.0, 0.0, 1.0], [0.05, -0.1, 0.3]])
    b = np.array([[1.0], [0.0], [0.5]])
    c = np.array([[0.0, 1.0, 0.0]])
    rm = StateSpace(a, b, c, dt())
    ia = DiagonalInteractor([Polynomial.from_roots([0.1, 0.3])])
    a1, a2 = ls.ref_input_from_state(rm, ia)
    u = rng.standard_normal(206)
    xs, ys = oc.simulate_dt(a, b, c, rng.standard_normal(3), u)
    lhs = oc.shift_apply(ia.rows[0].coeffs, ys[:, 0])
    rhs = xs[: lhs.size] @ a1[:, 0] + u[: lhs.size] * a2[0, 0]
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_ref_input_from_state_ct_trajectory():
    h = 1e-3
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    b = np.array([[0.0], [1.0]])
    c = np.array([[1.0, 0.0]])
    rm = StateSpace(a, b, c, ct(h))
    ia = DiagonalInteractor([Polynomial.from_roots([-1.0, -2.0])])
    a1, a2 = ls.ref_input_from_state(rm, ia)

    def um(t):
        return 0.8 * np.sin(0.9 * t) + 0.3

    traj = oc.rk4_sim(lambda t, x: a @ x + b[:, 0] * um(t), np.array([0.3, -0.2]), h, 2000)
    ys = traj @ c[0]
    ts = np.arange(2001) * h
    lhs = oc.interactor_apply_ct([ia.rows[0].coeffs], ys[:, None], h)[:, 0]
    rhs = traj @ a1[:, 0] + np.array([um(t) for t in ts]) * a2[0, 0]
    assert np.max(np.abs(lhs - rhs[2:-2])) < 1e-5


# -- reference-input parametrization from I/O ---------------------------------


def test_ref_input_from_io_first_order_reduction():
    am, bm, cm = 0.5, 1.0, 2.0
    rm = StateSpace([[am]], [bm], [cm], dt())
    ia = DiagonalInteractor([Polynomial([0.4, 1.0])])
    b1, b2, b20, a2 = ls.ref_input_from_io(rm, ia, Polynomial([1.0]), 0)
    assert b1.size == 0 and b2.size == 0
    assert abs(b20[0, 0] - (am + 0.4)) < 1e-9
    assert abs(a2[0, 0] - cm * bm) < 1e-14


def test_ref_input_from_io_fresh_trajectory_consistency():
    # coefficients identified on one trajectory must reconstruct on another
    a = np.array([[0.6, 1.0, 0.0], [0.0, 0.4, 1.0], [0.0, 0.0, 0.1]])
    b = np.array([[0.0], [0.3], [1.0]])
    c = np.array([[1.0, 0.0, 0.0]])
    rm = StateSpace(a, b, c, dt())
    ia = DiagonalInteractor([Polynomial.from_roots([0.1, 0.2])])
    lam_e = Polynomial.from_roots([0.2, 0.3])
    b1, b2, b20, a2 = ls.ref_input_from_io(rm, ia, lam_e, 2)
    a1s, a2s = ls.ref_input_from_state(rm, ia)

    rng = np.random.default_rng(42)
    horizon = 400
    u = np.column_stack([np.sin(0.21 * np.arange(horizon)) + 0.4 * rng.standard_normal(horizon)])
    xs, ys = oc.simulate_dt(a, b, c, rng.standard_normal(3), u[:, 0])
    bank = FilterBank([0, 1], lam_e, dt(), width=1).realization()
    wu = oc.lti_sim(bank, u)
    wy = oc.lti_sim(bank, ys)
    rm_true = xs @ a1s[:, 0] + a2s[0, 0] * u[:, 0]
    rm_fit = wu @ b1[:, 0] + wy @ b2[:, 0] + b20[0, 0] * ys[:, 0] + a2[0, 0] * u[:, 0]
    assert np.max(np.abs((rm_true - rm_fit)[150:])) < 1e-6


def test_ref_input_from_io_non_square_fresh_trajectory_consistency():
    # two reference inputs, one output: the u_m and y_m banks differ in width
    a = np.array([[0.6, 1.0, 0.0], [0.0, 0.4, 1.0], [0.0, 0.0, 0.1]])
    b = np.array([[0.0, 0.0], [0.3, 1.0], [1.0, -0.4]])
    c = np.array([[1.0, 0.0, 0.0]])
    rm = StateSpace(a, b, c, dt())
    ia = DiagonalInteractor([Polynomial.from_roots([0.1, 0.2])])
    lam_e = Polynomial.from_roots([0.2, 0.3])
    b1, b2, b20, a2 = ls.ref_input_from_io(rm, ia, lam_e, 2)
    a1s, a2s = ls.ref_input_from_state(rm, ia)
    assert b1.shape == (4, 1) and b2.shape == (2, 1) and a2.shape == (1, 2)

    rng = np.random.default_rng(43)
    horizon = 400
    t = np.arange(horizon)
    u = np.column_stack([np.sin(0.21 * t), np.cos(0.37 * t + 0.5)])
    u += 0.4 * rng.standard_normal(u.shape)
    xs, ys = oc.simulate_dt(a, b, c, rng.standard_normal(3), u)
    wu = oc.lti_sim(FilterBank([0, 1], lam_e, dt(), width=2).realization(), u)
    wy = oc.lti_sim(FilterBank([0, 1], lam_e, dt(), width=1).realization(), ys)
    rm_true = xs @ a1s[:, 0] + u @ a2s[0]
    rm_fit = wu @ b1[:, 0] + wy @ b2[:, 0] + b20[0, 0] * ys[:, 0] + u @ a2[0]
    assert np.max(np.abs((rm_true - rm_fit)[150:])) < 1e-6


def test_ref_input_from_io_ct_fresh_trajectory_consistency():
    # CT counterpart: coefficients fitted on the built-in PE trajectory must
    # reconstruct xi_m(D)[y_m] along a fresh input and initial state
    h = 1e-3
    a = np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]])
    b = np.array([[0.0], [0.5], [1.0]])
    c = np.array([[1.0, 0.0, 0.0]])
    rm = StateSpace(a, b, c, ct(h))
    ia = DiagonalInteractor([Polynomial.from_roots([-1.0, -2.0])])
    lam_e = Polynomial.from_roots([-3.0, -4.0])
    b1, b2, b20, a2 = ls.ref_input_from_io(rm, ia, lam_e, 2)
    a1s, a2s = ls.ref_input_from_state(rm, ia)

    def u(t):
        return 0.2 + np.sin(0.7 * t) + 0.5 * np.cos(1.9 * t + 0.3)

    bank = FilterBank([0, 1], lam_e, ct(h))
    f, g = bank.fmat, bank.g

    def rhs(t, s):
        # s = [x, bank state of u, bank state of y]; bank states are D^p/lam_e
        return np.concatenate([a @ s[:3] + b[:, 0] * u(t), f @ s[3:5] + g * u(t),
                               f @ s[5:] + g * (c[0] @ s[:3])])

    steps = 12000
    traj = oc.rk4_sim(rhs, np.concatenate([[0.4, -0.3, 0.7], np.zeros(4)]), h, steps)
    us = np.array([u(k * h) for k in range(steps + 1)])
    ys = traj[:, :3] @ c[0]
    rm_true = traj[:, :3] @ a1s[:, 0] + a2s[0, 0] * us
    rm_fit = (traj[:, 3:5] @ b1[:, 0] + traj[:, 5:] @ b2[:, 0] + b20[0, 0] * ys
              + a2[0, 0] * us)
    assert np.max(np.abs((rm_true - rm_fit)[6000:])) < 1e-6


@pytest.mark.parametrize("domain", [dt(), ct(1e-3)], ids=["dt", "ct"])
def test_pe_input_array_matches_scalar(domain):
    sig = ls._pe_input(3, domain)
    ts = np.concatenate([np.arange(50) * 0.37, [1234.5]])
    assert sig(1.5).shape == (3,)
    each = np.array([sig(float(t)) for t in ts])
    np.testing.assert_allclose(sig(ts), each, rtol=0, atol=1e-14)
    grid = np.stack((ts, ts + 0.5))
    np.testing.assert_allclose(sig(grid), np.stack((each, [sig(t + 0.5) for t in ts])),
                               rtol=0, atol=1e-14)


def test_ref_input_from_io_zero_everything():
    rm = StateSpace([[0.5]], [1], [2], dt())
    ia = DiagonalInteractor([Polynomial([0.4, 1.0])])
    b1, b2, b20, a2 = ls.ref_input_from_io(rm, ia, Polynomial([1.0]), 0)
    # zero input, zero state: every regressor and the target vanish
    assert b20[0, 0] * 0.0 + a2[0, 0] * 0.0 == 0.0


def test_ref_input_from_io_unobservable():
    a = np.diag([0.5, 0.5])
    rm = StateSpace(a, [[1.0], [1.0]], [[1.0, -1.0]], dt())
    ia = DiagonalInteractor([Polynomial([0.4, 1.0])])
    with pytest.raises(UnobservablePair):
        ls.ref_input_from_io(rm, ia, Polynomial([-0.2, 1.0]), 1)


# -- Lyapunov solver ----------------------------------------------------------


def test_lyapunov_diagonal_closed_form():
    a0 = -np.diag([1.0, 2.0, 4.0])
    p = ls.lyapunov_solve_ct(a0, np.eye(3))
    assert np.max(np.abs(p - np.diag([0.5, 0.25, 0.125]))) < 1e-12


def test_lyapunov_identity_case():
    p = ls.lyapunov_solve_ct(-np.eye(2), 2.0 * np.eye(2))
    assert np.max(np.abs(p - np.eye(2))) < 1e-12


def test_lyapunov_residual_random():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a0 = rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
        q0 = rng.standard_normal((3, 3))
        q = q0 @ q0.T + 0.5 * np.eye(3)
        p = ls.lyapunov_solve_ct(a0, q)
        assert np.max(np.abs(p @ a0 + a0.T @ p + q)) < 1e-9
        assert np.min(np.linalg.eigvalsh(p)) > 0


def test_lyapunov_not_hurwitz():
    with pytest.raises(NotHurwitz):
        ls.lyapunov_solve_ct(np.array([[0.1]]), np.eye(1))
