"""Adaptive feedback-linearization tracking of a leader with unknown dynamics.

The follower is an input-affine nonlinear plant whose drift depends linearly
on an unknown parameter vector; the leader generating the reference output
has unknown dynamics but measured input, state and output.  The linearizing
control runs on parametrized estimates of the decoupling data and of the
leader's equivalent reference input, and each output channel carries its own
normalized-gradient update driven by a filtered estimation error.

Sign conventions here follow the error system xi_m(s)[e] = (Theta* -
Theta)^T omega: parameter errors are Theta* - Theta, the swap signal is
xi_i = w_i[theta_i^T omega] - theta_i^T zeta_i, and the gradient update has
a positive sign.  The linear modules use the opposite convention; the two
are documented side by side and not mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import _Recorder
from .errors import SingularityGuard
from .linsys import DiagonalInteractor, Polynomial, rk4_step


@dataclass
class FLPlant:
    """Input-affine follower dx = F(x) theta* + G(x) u, y = h(x).

    The evaluators omega1/omega2_w/omega3 are controller-side knowledge; the
    true parameter vector and the Theta*-matrices derived from it are
    simulation/test data that the controller path never reads.
    """

    n: int
    m: int
    rho: tuple
    theta_star: np.ndarray
    fmat: object  # x -> (n, l)
    gmat: object  # x -> (n, m)
    h: object  # x -> (m,)
    omega1: object  # x -> (q1,)
    omega2_w: object  # x -> (q2, m), omega2 = W(x) u
    omega3: object  # x -> (q3,)
    dims: tuple  # (q1, q2, q3)
    b_true: object = None  # x -> (m,), from theta_star
    a_true: object = None  # x -> (m, m)
    lie1_true: object = None  # x -> (m,), first Lie derivatives of h along f

    def deriv(self, x, u):
        return self.fmat(x) @ self.theta_star + self.gmat(x) @ u


@dataclass
class LeaderSystem:
    """Reference system with hidden dynamics and measured (u_m, x_m, y_m)."""

    n: int
    m: int
    deriv: object  # (x_m, u_m) -> dx_m, hidden-parameter closure
    h: object  # x_m -> y_m
    omega_m: object  # (x_m, u_m) -> (qm,)
    um: object  # t -> (m,)
    qm: int
    x0: np.ndarray
    theta_m_star: np.ndarray = None  # oracle; None outside test mode
    lie1_true: object = None  # x_m -> first output derivatives (oracle)


@dataclass
class FLController:
    """Per-column parameter estimates, gains and tracking filters."""

    interactor: DiagonalInteractor
    dims: tuple  # (q1, q2, q3, qm)
    theta: np.ndarray = None  # (q, m)
    gammas: list = field(default_factory=list)  # per-column SPD gains
    guard: float = 1e-6

    def __post_init__(self):
        self.m = self.interactor.m
        q = sum(self.dims)
        self.q = q
        if self.theta is None:
            self.theta = np.zeros((q, self.m))
        self.theta = np.asarray(self.theta, dtype=float).copy()
        if self.theta.shape != (q, self.m):
            raise ValueError(f"theta shape {self.theta.shape} != {(q, self.m)}")
        if not self.gammas:
            self.gammas = [np.eye(q) for _ in range(self.m)]
        self.gammas = [np.atleast_2d(np.asarray(g, dtype=float)) for g in self.gammas]
        self.alpha_last = np.array([d.coeffs[0] for d in self.interactor.rows])

    def split(self, theta=None):
        th = self.theta if theta is None else theta
        q1, q2, q3, qm = self.dims
        return (
            th[:q1],
            th[q1 : q1 + q2],
            th[q1 + q2 : q1 + q2 + q3],
            th[q1 + q2 + q3 :],
        )


def assemble_estimates(ctrl, plant, x, theta=None):
    """(b_hat, A_hat) at x from the current estimates: A_hat u = Theta2^T W(x) u."""
    th1, th2, _, _ = ctrl.split(theta)
    bhat = th1.T @ plant.omega1(x)
    ahat = th2.T @ plant.omega2_w(x)
    return bhat, ahat


def sigma_min(a):
    """Smallest singular value; closed form for 1x1 and 2x2 blocks."""
    m = a.shape[0]
    if m == 1:
        return abs(a[0, 0])
    if m == 2:
        # sigma1 sigma2 = |det|, sigma1^2 + sigma2^2 = |A|_F^2.  sigma_max is a
        # sum of non-negative terms, so |det| / sigma_max does not cancel; the
        # scaling to a unit largest entry keeps the squares from overflowing
        (p, q), (r, t) = a.tolist()
        s = max(abs(p), abs(q), abs(r), abs(t))
        if s == 0.0:
            return 0.0
        p, q, r, t = p / s, q / s, r / s, t / s
        f2 = p * p + q * q + r * r + t * t
        det = p * t - q * r
        smax = math.sqrt(0.5 * (f2 + math.sqrt(max(f2 * f2 - 4.0 * det * det, 0.0))))
        return s * abs(det) / smax
    return np.linalg.svd(a, compute_uv=False)[-1]


def linearizing_control(ahat, bhat, v, guard=1e-6, t=None):
    """u solving A_hat u = v - b_hat, guarded against near-singular A_hat."""
    smin = sigma_min(ahat)
    if smin < guard:
        raise SingularityGuard(smin, t)
    rhs = v - bhat
    if ahat.shape[0] == 2:
        det = ahat[0, 0] * ahat[1, 1] - ahat[0, 1] * ahat[1, 0]
        return np.array(
            [
                (ahat[1, 1] * rhs[0] - ahat[0, 1] * rhs[1]) / det,
                (ahat[0, 0] * rhs[1] - ahat[1, 0] * rhs[0]) / det,
            ]
        )
    return np.linalg.solve(ahat, rhs)


def v_signal(ctrl, plant, leader, x, y, xm, umt, theta=None):
    """Outer-loop signal v = Theta_m^T omega_m - v_hat_y(x, y)."""
    _, _, th3, thm = ctrl.split(theta)
    vy = th3.T @ plant.omega3(x) + ctrl.alpha_last * y
    return thm.T @ leader.omega_m(xm, umt) - vy


def column_frames(ctrl, e, zetas, etas, theta=None):
    """Per-column (zeta_i, xi_i, eps_i, m_i) from the filter outputs."""
    th = ctrl.theta if theta is None else theta
    frames = []
    for i in range(ctrl.m):
        zeta = zetas[i]
        xi = float(etas[i] - th[:, i] @ zeta)
        eps = float(e[i] + xi)
        m = float(np.sqrt(1.0 + zeta @ zeta))
        frames.append((zeta, xi, eps, m))
    return frames


def gradient_rhs(ctrl, frames, theta=None):
    """d theta_i / dt = + Gamma_i zeta_i eps_i / m_i^2, stacked as (q, m)."""
    th = ctrl.theta if theta is None else theta
    d = np.zeros_like(th)
    for i, (zeta, _, eps, m) in enumerate(frames):
        d[:, i] = (ctrl.gammas[i] @ zeta) * (eps / (m * m))
    return d


class _ColumnFilters:
    """States of the per-column tracking filters w_i = 1/d_i(s).

    For each output channel i the filter acts on the whole regressor (width
    q) and on the scalar theta_i^T omega; controllable canonical form, so
    the output is the first state coordinate.
    """

    def __init__(self, interactor, q):
        self.ks = [d.degree for d in interactor.rows]
        self.dens = [d.coeffs[:-1] for d in interactor.rows]  # non-leading coeffs
        self.q = q

    def init_states(self):
        return [np.zeros((k, self.q + 1)) for k in self.ks]  # last column: eta channel

    def outputs(self, states):
        zetas = [st[0, : self.q] if st.shape[0] else np.zeros(self.q) for st in states]
        etas = [float(st[0, self.q]) if st.shape[0] else 0.0 for st in states]
        return zetas, etas

    def deriv(self, state, i, omega, theta_i_omega):
        k = self.ks[i]
        d = np.zeros_like(state)
        if k == 0:
            return d
        u = np.concatenate([omega, [theta_i_omega]])
        d[:-1] = state[1:]
        d[-1] = -self.dens[i] @ state + u
        return d


class FLLoop:
    """Closed loop of follower, leader, filters and adaptation (CT, RK4)."""

    def __init__(self, plant, leader, ctrl, step, adaptive=True):
        self.plant = plant
        self.leader = leader
        self.ctrl = ctrl
        self.h = step
        self.adaptive = adaptive
        self.filters = _ColumnFilters(ctrl.interactor, ctrl.q)
        self.x = np.zeros(plant.n)
        self.xm = np.asarray(leader.x0, dtype=float).copy()
        self.l2_eps = 0.0

    def pack(self, states, theta):
        return np.concatenate(
            [self.x, self.xm] + [s.ravel() for s in states] + [theta.ravel()]
        )

    def unpack(self, flat):
        n, nm = self.plant.n, self.leader.n
        i = 0
        x = flat[i : i + n]
        i += n
        xm = flat[i : i + nm]
        i += nm
        states = []
        for k in self.filters.ks:
            size = k * (self.ctrl.q + 1)
            states.append(flat[i : i + size].reshape((k, self.ctrl.q + 1)))
            i += size
        theta = flat[i :].reshape((self.ctrl.q, self.ctrl.m))
        return x, xm, states, theta

    def diverged_block(self, flat):
        """Name of the first block of the flat state holding a non-finite value."""
        x, xm, states, theta = self.unpack(flat)
        for name, block in (("plant", [x]), ("leader", [xm]), ("filters", states),
                            ("theta", [theta])):
            if not all(np.isfinite(b).all() for b in block):
                return name
        return "l2_eps"

    def algebra(self, t, x, xm, states, theta):
        plant, leader, ctrl = self.plant, self.leader, self.ctrl
        y = plant.h(x)
        ym = leader.h(xm)
        e = y - ym
        umt = np.atleast_1d(leader.um(t))
        bhat, ahat = assemble_estimates(ctrl, plant, x, theta)
        v = v_signal(ctrl, plant, leader, x, y, xm, umt, theta)
        u = linearizing_control(ahat, bhat, v, ctrl.guard, t)
        omega = np.concatenate(
            [
                plant.omega1(x),
                plant.omega2_w(x) @ u,
                plant.omega3(x),
                -leader.omega_m(xm, umt),
            ]
        )
        zetas, etas = self.filters.outputs(states)
        frames = column_frames(ctrl, e, zetas, etas, theta)
        return y, ym, e, umt, u, omega, frames

    def deriv_from(self, x, xm, states, theta, alg):
        y, ym, e, umt, u, omega, frames = alg
        dstates = [
            self.filters.deriv(st, i, omega, float(theta[:, i] @ omega))
            for i, st in enumerate(states)
        ]
        dtheta = gradient_rhs(self.ctrl, frames, theta) if self.adaptive else np.zeros_like(theta)
        dx = self.plant.deriv(x, u)
        dxm = self.leader.deriv(xm, umt)
        return np.concatenate([dx, dxm] + [d.ravel() for d in dstates] + [dtheta.ravel()])

    def rhs(self, t, flat):
        x, xm, states, theta = self.unpack(flat)
        alg = self.algebra(t, x, xm, states, theta)
        return self.deriv_from(x, xm, states, theta, alg)


def certificate(ctrl, theta, theta_star, gamma_invs=None):
    """Sum over columns of 0.5 (theta_i* - theta_i)^T Gamma_i^-1 (theta_i* - theta_i)."""
    if gamma_invs is None:
        gamma_invs = [np.linalg.inv(g) for g in ctrl.gammas]
    v = 0.0
    for i in range(ctrl.m):
        d = theta_star[:, i] - theta[:, i]
        v += 0.5 * float(d @ gamma_invs[i] @ d)
    return v


def run(plant, leader, ctrl, adaptive=True, horizon=10000, step=1e-3, x0=None,
        theta_star=None):
    """Simulate the leader-follower loop; returns a SimTrace.

    On a singularity-guard abort, or when the running L2 sum of the
    normalized errors goes non-finite (event {"t", "diverged": <state
    block>}), the partial trace is returned with the event recorded in
    trace.guard_events.  theta_star (test mode) enables the V column and the
    per-column identity residual eps_i - theta~_i^T zeta_i in
    trace.extra["ident_resid"].
    """
    loop = FLLoop(plant, leader, ctrl, step, adaptive=adaptive)
    if x0 is not None:
        loop.x = np.asarray(x0, dtype=float).copy()
    m = ctrl.m
    rec = _Recorder(horizon, m)
    states = loop.filters.init_states()
    theta = ctrl.theta.copy()
    flat = loop.pack(states, theta)
    guard_events = []
    ident = np.zeros((horizon, m)) if theta_star is not None else None
    mi_extra = np.zeros((horizon, m))
    gamma_invs = [np.linalg.inv(g) for g in ctrl.gammas]
    with np.errstate(over="ignore", invalid="ignore"):  # the diverged event reports it
        for k in range(horizon):
            t = k * step
            x, xm, states, theta = loop.unpack(flat)
            try:
                alg = loop.algebra(t, x, xm, states, theta)
                y, ym, e, umt, u, omega, frames = alg
                k1 = loop.deriv_from(x, xm, states, theta, alg)
                flat_next = rk4_step(loop.rhs, t, flat, step, k1=k1)
            except SingularityGuard as g:
                guard_events.append({"t": t, "sigma_min": g.sigma_min})
                break
            eps = np.array([fr[2] for fr in frames])
            mis = np.array([fr[3] for fr in frames])
            mi_extra[k] = mis
            magg = float(np.sqrt(1.0 + sum(fr[0] @ fr[0] for fr in frames)))
            v = (certificate(ctrl, theta, theta_star, gamma_invs)
                 if theta_star is not None else None)
            if ident is not None:
                for i, (zeta, _, epsi, _) in enumerate(frames):
                    ident[k, i] = epsi - float((theta_star[:, i] - theta[:, i]) @ zeta)
            loop.l2_eps += step * float(np.sum((eps / mis) ** 2))
            if not math.isfinite(loop.l2_eps):
                guard_events.append({"t": t, "diverged": loop.diverged_block(flat)})
                break
            tn = float(np.linalg.norm(theta))
            rec.push(t, y, ym, e, u, magg, eps, v, tn,
                     loop.l2_eps, 0.0)
            flat = flat_next
    extra = {"m_i": mi_extra[: rec.k]}
    if ident is not None:
        extra["ident_resid"] = ident[: rec.k]
    return rec.trace(guard_events=guard_events, extra=extra)


def benchmark(theta_star=(0.8, -1.0, 0.6), d2_root=1.2):
    """A concrete two-output, three-state polynomial benchmark pair.

    Follower (outputs y = (x1, x2), vector relative degree (1, 2), no
    internal dynamics since rho1 + rho2 = n):

        dx1 = th1 x2 + (1 + x2^2) u1
        dx2 = th2 x3 + th3 sin x1
        dx3 = th3 x1 + u2

    Decoupling data, with ddi/dt notation D = d/dt:
        D[y1] = th1 x2 + (1 + x2^2) u1
        D^2[y2] = th1 th3 x2 cos x1 + th2 th3 x1
                  + th3 cos x1 (1 + x2^2) u1 + th2 u2
    so A(x) = [[1 + x2^2, 0], [th3 cos x1 (1 + x2^2), th2]] is nonsingular
    everywhere when th2 != 0 (lower triangular).  Regressors:
        omega1 = [x2, x2 cos x1, x1]
        omega2 = W(x) u,  W = [[1 + x2^2, 0], [0, 1], [cos x1 (1 + x2^2), 0]]
        omega3 = [x3, sin x1]      (first-Lie-derivative block, row 2 only)

    Leader of the same structural form with hidden coefficients and
    internal damping keeping its state bounded for bounded u_m:

        dxm1 = -b1 xm1 + a1 xm2 + (1 + xm2^2) um1
        dxm2 = a5 xm2 + a2 xm3 + a3 sin xm1
        dxm3 = -b3 xm3 + a4 xm1 + um2

    omega_m = [xm1, xm2, xm3, sin xm1, xm1 cos xm1, xm2 cos xm1,
               (1 + xm2^2) um1, cos xm1 (1 + xm2^2) um1, um2].
    """
    th1, th2, th3 = theta_star
    if th2 == 0.0:
        raise ValueError("theta2 must be nonzero for a nonsingular A(x)")
    d1 = Polynomial([1.0, 1.0])  # s + 1
    d2 = Polynomial.from_roots([-d2_root, -d2_root])
    interactor = DiagonalInteractor([d1, d2])
    a21, a22 = d2.coeffs[1], d2.coeffs[0]

    def fmat(x):
        return np.array(
            [[x[1], 0.0, 0.0], [0.0, x[2], np.sin(x[0])], [0.0, 0.0, x[0]]]
        )

    def gmat(x):
        return np.array([[1.0 + x[1] ** 2, 0.0], [0.0, 0.0], [0.0, 1.0]])

    def h(x):
        return np.array([x[0], x[1]])

    def omega1(x):
        return np.array([x[1], x[1] * np.cos(x[0]), x[0]])

    def omega2_w(x):
        g11 = 1.0 + x[1] ** 2
        return np.array([[g11, 0.0], [0.0, 1.0], [np.cos(x[0]) * g11, 0.0]])

    def omega3(x):
        return np.array([x[2], np.sin(x[0])])

    def b_true(x):
        return np.array(
            [th1 * x[1], th1 * th3 * x[1] * np.cos(x[0]) + th2 * th3 * x[0]]
        )

    def a_true(x):
        g11 = 1.0 + x[1] ** 2
        return np.array([[g11, 0.0], [th3 * np.cos(x[0]) * g11, th2]])

    def lie1_true(x):
        # first output derivatives along the drift: [L_f h1, L_f h2]
        return np.array([th1 * x[1], th2 * x[2] + th3 * np.sin(x[0])])

    plant = FLPlant(
        n=3, m=2, rho=(1, 2),
        theta_star=np.array(theta_star, dtype=float),
        fmat=fmat, gmat=gmat, h=h,
        omega1=omega1, omega2_w=omega2_w, omega3=omega3,
        dims=(3, 3, 2),
        b_true=b_true, a_true=a_true, lie1_true=lie1_true,
    )
    b1, a1, a5, a2, a3, b3, a4 = 1.0, 0.5, -1.0, 0.5, 0.4, 1.0, 0.3

    def leader_deriv(xm, um):
        return np.array(
            [
                -b1 * xm[0] + a1 * xm[1] + (1.0 + xm[1] ** 2) * um[0],
                a5 * xm[1] + a2 * xm[2] + a3 * np.sin(xm[0]),
                -b3 * xm[2] + a4 * xm[0] + um[1],
            ]
        )

    def leader_h(xm):
        return np.array([xm[0], xm[1]])

    def leader_omega_m(xm, um):
        g11 = 1.0 + xm[1] ** 2
        cx = np.cos(xm[0])
        return np.array(
            [
                xm[0], xm[1], xm[2], np.sin(xm[0]), xm[0] * cx, xm[1] * cx,
                g11 * um[0], cx * g11 * um[0], um[1],
            ]
        )

    def leader_lie1(xm):
        return np.array(
            [-b1 * xm[0] + a1 * xm[1], a5 * xm[1] + a2 * xm[2] + a3 * np.sin(xm[0])]
        )

    alpha11 = d1.coeffs[0]
    theta_m_star = np.array(
        [
            [alpha11 - b1, a2 * a4],
            [a1, a5 * a5 + a21 * a5 + a22],
            [0.0, a2 * (a5 - b3 + a21)],
            [0.0, a3 * (a5 + a21)],
            [0.0, -a3 * b1],
            [0.0, a3 * a1],
            [1.0, 0.0],
            [0.0, a3],
            [0.0, a2],
        ]
    )

    def leader_um(t):
        return np.array(
            [
                0.5 * np.sin(0.7 * t) + 0.3 * np.sin(1.9 * t + 0.8) + 0.2,
                0.6 * np.sin(0.5 * t + 0.4) + 0.3 * np.sin(1.3 * t) + 0.1,
            ]
        )

    leader = LeaderSystem(
        n=3, m=2,
        deriv=leader_deriv, h=leader_h, omega_m=leader_omega_m, um=leader_um,
        qm=9, x0=np.array([0.2, -0.1, 0.3]),
        theta_m_star=theta_m_star, lie1_true=leader_lie1,
    )
    return plant, leader, interactor


def matched_x0(plant, leader):
    """Follower start with zero tracking error AND zero error derivative.

    Benchmark-specific: copies the leader's first two states (so y(0) =
    y_m(0)) and picks x3 so the first drift derivative of y2 matches the
    leader's, killing the homogeneous error response entirely.
    """
    th1, th2, th3 = plant.theta_star
    xm = leader.x0
    lie_m = leader.lie1_true(xm)
    x3 = (lie_m[1] - th3 * np.sin(xm[0])) / th2
    return np.array([xm[0], xm[1], x3])


def benchmark_theta_star(plant, leader, interactor):
    """Stack the true column parameters of the benchmark into (q, m)."""
    th1, th2, th3 = plant.theta_star
    a21 = interactor.rows[1].coeffs[1]
    theta1 = np.array([[th1, 0.0], [0.0, th1 * th3], [0.0, th2 * th3]])
    theta2 = np.array([[1.0, 0.0], [0.0, th2], [0.0, th3]])
    theta3 = np.array([[0.0, a21 * th2], [0.0, a21 * th3]])
    return np.vstack([theta1, theta2, theta3, leader.theta_m_star])
