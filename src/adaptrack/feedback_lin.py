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
from dataclasses import dataclass

import numpy as np

from .engine import FlatLoop, Frame, check_gain, drive
from .errors import SingularityGuard, ValidationError
from .linsys import DiagonalInteractor, Polynomial, RationalFilter, check_rk4_step, ct, stack


@dataclass
class FLPlant:
    """Input-affine follower dx = F(x) theta* + G(x) u, y = h(x).

    at(x) returns (y, omega1, W, omega3, F, G) at one state, W giving omega2 =
    W(x) u.  The regressors are controller-side knowledge; the true parameter
    vector and the Theta*-matrices derived from it are simulation/test data
    that the controller path never reads.
    """

    n: int
    theta_star: np.ndarray
    at: object  # x -> (y (m,), omega1 (q1,), W (q2, m), omega3 (q3,), F (n, l), G (n, m))
    dims: tuple  # (q1, q2, q3)


@dataclass
class LeaderSystem:
    """Reference system with hidden dynamics and measured (u_m, x_m, y_m)."""

    n: int
    at: object  # (x_m, u_m) -> (dx_m, y_m, omega_m (qm,)), hidden-parameter closure
    um: object  # t -> (m,)
    qm: int
    x0: np.ndarray
    theta_m_star: np.ndarray = None  # oracle; None outside test mode
    lie1_true: object = None  # x_m -> first output derivatives (oracle)


@dataclass
class FLScenario:
    """One run of the follower on its leader: everything FLLoop reads, checked once here.

    dims = (q1, q2, q3, qm) and m = interactor.m give the (q, m) estimates,
    q = theta_dim = sum(dims).  gammas are the per-column gains (I each when
    empty), guard the floor on sigma_min(A_hat), x0 the follower's start
    (zero when None).  A failed check of the gains, the guard, the length of
    x0, or the step against the column filters 1/d_i raises ValidationError
    naming it.
    """

    plant: FLPlant
    leader: LeaderSystem
    interactor: DiagonalInteractor
    step: float = 1e-3
    x0: np.ndarray = None
    gammas: list = ()
    guard: float = 1e-6

    def __post_init__(self):
        self.dims = (*self.plant.dims, self.leader.qm)
        self.m = m = self.interactor.m
        self.q = self.theta_dim = q = sum(self.dims)
        try:
            self.guard = float(self.guard)
        except (TypeError, ValueError) as exc:
            raise ValidationError("guard", str(exc)) from exc
        if not self.guard > 0:
            raise ValidationError("guard", "must be positive")
        shape = np.shape(self.x0)
        if self.x0 is not None and shape != (self.plant.n,):
            raise ValidationError("x0", f"has shape {shape}, expected {(self.plant.n,)}")
        self.gammas = ([np.atleast_2d(np.asarray(g, dtype=float)) for g in self.gammas]
                       or [np.eye(q)] * m)
        if len(self.gammas) != m or any(g.shape != (q, q) for g in self.gammas):
            raise ValidationError("gammas", f"must be {m} matrices of shape {(q, q)}")
        # block-diagonal in the Gamma_i: acts on Theta^T flattened row by row
        self.gain = np.zeros((m * q, m * q))
        for i, g in enumerate(self.gammas):
            check_gain(g, what=f"gammas[{i}]")
            self.gain[i * q : (i + 1) * q, i * q : (i + 1) * q] = g
        self.alpha_last = np.array([d.coeffs[0] for d in self.interactor.rows])
        check_rk4_step([(f"interactor[{i}]", lam) for i, d in enumerate(self.interactor.rows)
                        for lam in d.roots()], self.step)


def _estimate_buffers(scn):
    """Buffers of estimates: X (zero outside its blocks) and its block views, Theta^T X
    and its column views, alpha y and v."""
    q1, q2, q3, _ = scn.dims
    m = scn.m
    x, p = np.zeros((scn.q, m + 2)), np.empty((m, m + 2))
    return (x, x[:q1, 0], x[q1 : q1 + q2, 1 : m + 1], x[q1 + q2 : q1 + q2 + q3, m + 1],
            x[q1 + q2 + q3 :, m + 1], p, p[:, 0], p[:, 1 : m + 1], p[:, m + 1], np.empty(m),
            np.empty(m))


def estimates(scn, tht, om1, w, om3, omm, y, buf=None):
    """(b_hat, A_hat, v) at one state of the FLScenario scn, from the regressors there.

    tht is Theta^T (row i = theta_i).  A_hat u = Theta2^T W(x) u, b_hat =
    Theta1^T omega1 and the outer-loop signal v = Theta_m^T omega_m -
    (Theta3^T omega3 + alpha y) come from one product Theta^T X, X holding
    omega1, W and [-omega3; omega_m] in its column blocks.  buf, when given,
    is a _estimate_buffers tuple that X and the results are written into.
    """
    x, xo1, xw, xo3, xom, p, bhat, ahat, pv, ay, v = buf or _estimate_buffers(scn)
    xo1[...] = om1
    xw[...] = w
    np.negative(om3, out=xo3)
    xom[...] = omm
    np.matmul(tht, x, out=p)
    return bhat, ahat, np.subtract(pv, np.multiply(scn.alpha_last, y, out=ay), out=v)


def _sigma_min_2x2(p, q, r, t):
    # sigma1 sigma2 = |det|, sigma1^2 + sigma2^2 = |A|_F^2.  sigma_max is a sum
    # of non-negative terms, so |det| / sigma_max does not cancel; the scaling
    # to a unit largest entry keeps the squares from overflowing
    s = max(abs(p), abs(q), abs(r), abs(t))
    if s == 0.0:
        return 0.0
    p, q, r, t = p / s, q / s, r / s, t / s
    f2 = p * p + q * q + r * r + t * t
    det = p * t - q * r
    smax = math.sqrt(0.5 * (f2 + math.sqrt(max(f2 * f2 - 4.0 * det * det, 0.0))))
    return s * abs(det) / smax


def sigma_min(a):
    """Smallest singular value; closed form for 1x1 and 2x2 blocks."""
    m = a.shape[0]
    if m == 1:
        return abs(a[0, 0])
    if m == 2:
        return _sigma_min_2x2(*a.ravel().tolist())
    return np.linalg.svd(a, compute_uv=False)[-1]


def linearizing_control(ahat, bhat, v, guard=1e-6, t=None):
    """u solving A_hat u = v - b_hat, guarded against near-singular A_hat."""
    if ahat.shape[0] == 2:
        # Python floats: the same IEEE operations without numpy scalar overhead
        (a, b), (c, d) = ahat.tolist()
        smin = _sigma_min_2x2(a, b, c, d)
        if smin < guard:
            raise SingularityGuard(smin, t)
        (v0, v1), (b0, b1) = v.tolist(), bhat.tolist()
        r0, r1 = v0 - b0, v1 - b1
        det = a * d - b * c
        return np.array([(d * r0 - b * r1) / det, (a * r1 - c * r0) / det])
    smin = sigma_min(ahat)
    if smin < guard:
        raise SingularityGuard(smin, t)
    return np.linalg.solve(ahat, v - bhat)


def column_frames(tht, e, zetas, etas, out=None):
    """(xi, eps, m) of every column at once; row i of tht is theta_i, of zetas zeta_i.

    xi_i = eta_i - theta_i^T zeta_i, eps_i = e_i + xi_i, m_i = sqrt(1 + |zeta_i|^2).
    out, when given, is the triple of arrays the three are written into.
    """
    if out is None:
        out = tuple(np.empty(etas.shape) for _ in range(3))
    xi, eps, mi = out
    np.subtract(etas, np.vecdot(tht, zetas, out=xi), out=xi)
    np.add(e, xi, out=eps)
    np.sqrt(np.add(1.0, np.vecdot(zetas, zetas, out=mi), out=mi), out=mi)
    return out


def gradient_rhs(gain, zetas, eps, mi, out=None):
    """d theta_i / dt = + Gamma_i zeta_i eps_i / m_i^2 for every column.

    gain is the block-diagonal FLScenario.gain; returns dTheta^T flattened
    row by row (row i = d theta_i), written into out when given.
    """
    return np.matmul(gain, (zetas * (eps / (mi * mi))[:, None]).ravel(), out=out)


def column_filters(interactor):
    """Block-companion realization (A, B, H) of all column filters w_i = 1/d_i(s).

    The state S is (K, q+1), K = sum deg d_i: each column filter owns deg d_i
    rows in controllable canonical form, driven by row i of U = [omega^T,
    theta_i^T omega], so dS = A S + B U, and row i of H S is [zeta_i^T, eta_i].
    """
    if min(interactor.degrees) < 1:
        raise ValueError("column filters 1/d_i need deg d_i >= 1")
    blocks = [(i, RationalFilter([1.0], d, ct()).realization(), [i])
              for i, d in enumerate(interactor.rows)]
    a, b, read = stack(blocks, interactor.m)
    return a, b, np.vstack([read[i][0] for i in range(interactor.m)])


class FLLoop(FlatLoop):
    """Closed loop of follower, leader, filters and adaptation over one flat state.

    Layout [x, x_m, S, Theta^T], read through slices fixed here: S holds the
    states of every column filter (see column_filters), and the estimates
    are stored transposed, row i = theta_i, so their update is one product
    with the block-diagonal gain.  The leader stays in the state: its
    dynamics are hidden, so only its callable gives x_m between grid points.

    The regressor is read off the matrix X that estimates fills, whose column
    blocks are [omega1 | W | (-omega3; omega_m)]: omega = [omega1, W u,
    omega3, -omega_m] = X [1, u, -1].  Row i of the filter drive is
    [omega^T, theta_i^T omega], and the control makes its last entry known:

        theta_i^T omega = (Theta1^T omega1)_i + (Theta2^T W u)_i
                          + (Theta3^T omega3 - Theta_m^T omega_m)_i
                        = b_hat_i + (A_hat u)_i - (v_i + alpha_i y_i),

    with v = Theta_m^T omega_m - Theta3^T omega3 - alpha y.  u solves
    A_hat u = v - b_hat, so theta_i^T omega = -alpha_i y_i exactly, and the
    drive's last column is -alpha y in place of the product (the two differ
    by the rounding of the solve).

    The stages run on FlatLoop's buffers, with h = scenario.step.  The
    scratch that a right-hand side reads only while it runs (X, omega, the
    drive) is one set per loop.  theta0, (q, m), is the start estimate,
    zero when None.
    """

    def __init__(self, scenario, adaptive=True, theta0=None):
        self.scenario = scenario
        self.plant = plant = scenario.plant
        self.leader = leader = scenario.leader
        self.adaptive = adaptive
        self.h = scenario.step
        q, m = scenario.q, scenario.m
        self._a, self._b, self._hs = column_filters(scenario.interactor)
        nk = self._a.shape[0]
        self._fshape, self._tshape = (nk, q + 1), (m, q)
        o = np.cumsum([0, plant.n, leader.n, nk * (q + 1), q * m])
        self._x, self._xm, self._filt, self._theta = map(slice, o[:-1], o[1:])
        self._allocate((("plant", self._x), ("leader", self._xm), ("filters", self._filt),
                        ("theta", self._theta)), self._theta)
        if scenario.x0 is not None:
            self.s[self._x] = scenario.x0
        self.s[self._xm] = leader.x0
        self._start("theta0", theta0, self.s[self._theta].reshape(m, q).T)
        self.frame_shapes = ((m, q), (m,))
        # scratch of every right-hand side, read only inside it: X of
        # estimates (zero outside its blocks), the weights [1, u, -1] that
        # read omega off it, omega, the drive and the products summed into
        # the derivative
        self._eb = _estimate_buffers(scenario)
        self._est = self._eb[0]
        self._omega_w = np.ones(m + 2)
        self._omega_w[-1] = -1.0
        self._omega_u, self._omega = self._omega_w[1:-1], np.empty(q)
        self._gu = np.empty(plant.n)
        # [S; drive], so that one product with [A, B] gives dS
        self._ab = np.hstack((self._a, self._b))
        self._sd = np.empty((nk + m, q + 1))
        self._sd_s, self._drive = self._sd[:nk], self._sd[nk:]
        self._drive_omega, self._drive_alpha = self._drive[:, :q], self._drive[:, q]
        self._nalpha = -scenario.alpha_last
        self._xi, _, self.m_i = self._stages[0][-1]  # the grid stage's

    def _stage_buffers(self, flat, deriv):
        """Views of one stage argument and of its derivative, and the stage's signals."""
        m, q = self._tshape
        zeta_eta = np.empty((m, q + 1))
        return (self.blocks(flat), deriv, (*self.blocks(deriv)[:3], deriv[self._theta]),
                zeta_eta, zeta_eta[:, :q], zeta_eta[:, q], np.empty(m),
                (np.empty(m), np.empty(m), np.empty(m)))

    def blocks(self, flat):
        """Views (x, x_m, S, Theta^T) of a flat state."""
        return (flat[self._x], flat[self._xm], flat[self._filt].reshape(self._fshape),
                flat[self._theta].reshape(self._tshape))

    def _stage(self, t, bufs):
        """Derivative and signals (y, y_m, e, u, zetas, eps, m_i) into one stage's buffers."""
        plant, scn = self.plant, self.scenario
        ((x, xm, filt, tht), deriv, (dx, dxm, dfilt, dtheta), zeta_eta, zetas, etas, e,
         frames) = bufs
        y, om1, w, om3, fx, gx = plant.at(x)
        dxm_, ym, omm = self.leader.at(xm, self.leader.um(t))
        np.subtract(y, ym, out=e)
        bhat, ahat, v = estimates(scn, tht, om1, w, om3, omm, y, self._eb)
        u = linearizing_control(ahat, bhat, v, scn.guard, t)
        self._omega_u[...] = u
        self._drive_omega[...] = np.matmul(self._est, self._omega_w, out=self._omega)
        np.multiply(self._nalpha, y, out=self._drive_alpha)
        np.matmul(self._hs, filt, out=zeta_eta)
        _, eps, mi = column_frames(tht, e, zetas, etas, out=frames)
        np.add(np.matmul(fx, plant.theta_star, out=dx), np.matmul(gx, u, out=self._gu), out=dx)
        dxm[...] = dxm_
        self._sd_s[...] = filt
        np.matmul(self._ab, self._sd, out=dfilt)
        if self.adaptive:  # else dtheta stays zero, as allocated
            gradient_rhs(scn.gain, zetas, eps, mi, out=dtheta)
        return deriv, (y, ym, e, u, zetas, eps, mi)

    def step(self, k):
        """Signals (y, y_m, e, u, frame) at grid point k, as ClosedLoop.step gives them.

        frame.m is sqrt(1 + |zeta|^2) over every column, and m_i holds each
        column's m_i.
        """
        t, stages = k * self.h, self._stages
        _, (y, ym, e, u, zetas, eps, _) = self._stage(t, stages[0])
        frame = Frame(zetas, self._xi, eps, math.sqrt(1.0 + float(np.vdot(zetas, zetas))))
        self._rk4_advance(lambda tt, j: self._stage(tt, stages[j])[0], t,
                          self.h * float(np.add.reduce((eps / self.m_i) ** 2)))
        return y, ym, e, u, frame


def certificate(theta, theta_star, gain_inv):
    """Sum over columns of 0.5 (theta_i* - theta_i)^T Gamma_i^-1 (theta_i* - theta_i).

    theta carries a leading step axis, (k, q, m), and one value per step is
    returned.  gain_inv is the inverse of the block-diagonal FLScenario.gain.
    """
    d = (theta_star - theta).transpose(0, 2, 1).reshape(theta.shape[0], theta_star.size)
    return 0.5 * np.vecdot(d @ gain_inv, d)


def run(scenario, adaptive=True, horizon=10000, theta0=None, oracle=None):
    """Simulate the scenario's loop through engine.drive; returns a SimTrace.

    A run stopped by drive's stop rule returns the rows before the failing
    step, with the event in trace.guard_events.  trace.extra["m_i"] holds
    each column's m_i.  oracle, the true (q, m) parameters (test mode),
    enables the V column and the per-column identity residual eps_i -
    theta~_i^T zeta_i in trace.extra["ident_resid"].  All three are
    evaluated, as theta_norm is, once per block of at most CT_BLOCK rows.
    """
    m, q = scenario.m, scenario.q
    gain_inv = None if oracle is None else np.linalg.inv(scenario.gain)

    def diagnose(par, frame, e):
        zetas = frame.zeta
        cols = {"m_i": np.sqrt(1.0 + np.vecdot(zetas, zetas))}
        if oracle is not None:
            theta = par.reshape(-1, m, q).transpose(0, 2, 1)
            cols["v"] = certificate(theta, oracle, gain_inv)
            cols["ident_resid"] = frame.eps - np.einsum("kji,kij->ki", oracle - theta, zetas)
        return cols

    return drive(FLLoop(scenario, adaptive=adaptive, theta0=theta0), horizon, diagnose)


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
    if theta_star[1] == 0.0:
        raise ValueError("theta2 must be nonzero for a nonsingular A(x)")
    d1 = Polynomial([1.0, 1.0])  # s + 1
    d2 = Polynomial.from_roots([-d2_root, -d2_root])
    interactor = DiagonalInteractor([d1, d2])
    a21, a22 = d2.coeffs[1], d2.coeffs[0]

    def plant_at(x):
        x1, x2, x3 = x.tolist()
        s1, c1 = math.sin(x1), math.cos(x1)
        g11 = 1.0 + x2**2  # pow, as in numpy scalar code: x2 * x2 can differ in the last bit
        v = np.array([
            x1, x2,  # y
            x2, x2 * c1, x1,  # omega1
            g11, 0.0, 0.0, 1.0, c1 * g11, 0.0,  # W
            x3, s1,  # omega3
            x2, 0.0, 0.0, 0.0, x3, s1, 0.0, 0.0, x1,  # F
            g11, 0.0, 0.0, 0.0, 0.0, 1.0,  # G
        ])
        return (v[:2], v[2:5], v[5:11].reshape(3, 2), v[11:13], v[13:22].reshape(3, 3),
                v[22:].reshape(3, 2))

    plant = FLPlant(
        n=3,
        theta_star=np.array(theta_star, dtype=float),
        at=plant_at, dims=(3, 3, 2),
    )
    b1, a1, a5, a2, a3, b3, a4 = 1.0, 0.5, -1.0, 0.5, 0.4, 1.0, 0.3

    def leader_at(xm, um):
        x1, x2, x3 = xm.tolist()
        u1, u2 = um.tolist()
        s1, c1 = math.sin(x1), math.cos(x1)
        g11 = 1.0 + x2**2
        v = np.array([
            -b1 * x1 + a1 * x2 + g11 * u1, a5 * x2 + a2 * x3 + a3 * s1,
            -b3 * x3 + a4 * x1 + u2,  # dx_m
            x1, x2,  # y_m
            x1, x2, x3, s1, x1 * c1, x2 * c1, g11 * u1, c1 * g11 * u1, u2,  # omega_m
        ])
        return v[:3], v[3:5], v[5:]

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
        n=3,
        at=leader_at, um=leader_um,
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
