"""Shared closed-loop machinery for the linear adaptive tracking designs.

One engine drives every linear controller structure, in both time domains.
The single-output designs are run through the same code path as the
multivariable ones with one I/O channel, so their discrete-time traces agree
bit for bit when the gain slots carry equal values.

Update law slots (basic normalized gradient, unified over domains):

    dTheta = -(Gz zeta) (Sp eps)^T / m^2      (DT: increment, CT: derivative)
    dPsi   = -(Gpsi eps) xi^T / m^2

The single-output law puts its adaptation-gain matrix in the zeta-side slot
Gz and sign(kp) in Sp; the multivariable law puts its known gain matrix in
Sp with Gz the identity.  Both yield the same certificate

    V = tr[Theta~^T Gz^-1 Theta~ Gp] + tr[Psi~^T Gpsi^-1 Psi~],
    Gp = Kp^T Sp^-1,

non-increasing along discrete-time runs and with dV/dt = -2 |eps|^2 / m^2 in
continuous time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GainBoundViolation
from .linsys import (
    DiagonalInteractor,
    FilterBank,
    Polynomial,
    RationalFilter,
    ReferenceBlock,
    StateSpace,
    rk4_step,
    stack,
)


class Structure(Enum):
    SF_XM = "sf_xm"  # state feedback, reference state available
    SF_YM = "sf_ym"  # state feedback, reference input/output only
    OF_XM = "of_xm"  # output feedback, reference state available
    OF_YM = "of_ym"  # output feedback, reference input/output only


def regressor_dim(structure, n, m, nu=None, nbe=None):
    """Regressor length for a controller structure (n states, m channels)."""
    if structure is Structure.SF_XM:
        return 2 * n + m
    if structure is Structure.SF_YM:
        return n + 2 * m * nbe + 2 * m
    if structure is Structure.OF_XM:
        return 2 * m * (nu - 1) + m + n + m
    if structure is Structure.OF_YM:
        return 2 * m * (nu - 1) + m + 2 * m * nbe + 2 * m
    raise ValueError(structure)


# regressor blocks of each structure, in stacking order
_BLOCKS = {
    Structure.SF_XM: ("x", "xm", "um"),
    Structure.SF_YM: ("x", "wum", "wym", "ym", "um"),
    Structure.OF_XM: ("w1", "w2", "y", "xm", "um"),
    Structure.OF_YM: ("w1", "w2", "y", "wum", "wym", "ym", "um"),
}


def assemble_regressor(structure, parts):
    """Stack the structure's regressor from named signal blocks.

    parts keys: x, xm, y, ym, um, w1, w2, wum, wym (only those the structure
    uses need to be present).
    """
    return np.concatenate([np.atleast_1d(parts[b]) for b in _BLOCKS[Structure(structure)]])


@dataclass
class Frame:
    """Per-step estimation-error signals."""

    omega: np.ndarray
    zeta: np.ndarray
    xi: np.ndarray
    ebar: np.ndarray
    eps: np.ndarray
    m: float

    @property
    def m2(self):
        return self.m * self.m


def gradient_rhs(gz, sp, gpsi, zeta, xi, eps, m2):
    """Right-hand sides of the normalized-gradient law (see module docstring)."""
    dtheta = (gz @ zeta)[:, None] * (sp @ eps) / -m2
    dpsi = (gpsi @ eps)[:, None] * xi / -m2
    return dtheta, dpsi


def certificate(theta_star, kp, gz, sp, gpsi):
    """Lyapunov certificate V(Theta, Psi) of the gradient law, as a closure.

    The gain inverses and Gp = Kp^T Sp^-1 are formed once, here; each trace
    is taken as tr(A^T B) = <A, B>.
    """
    gz_inv_t = np.linalg.inv(gz).T
    gpsi_inv_t = np.linalg.inv(gpsi).T
    gp = kp.T @ np.linalg.inv(sp)

    def v(theta, psi):
        tht = theta - theta_star
        psit = psi - kp
        return np.vdot(gz_inv_t @ tht, tht @ gp) + np.vdot(gpsi_inv_t @ psit, psit)

    return v


def check_gain(g, upper=None, what="gain"):
    """Raise GainBoundViolation unless 0 < sym(g) and, given `upper`, sym(g) < upper I.

    sym(g) = (g + g^T) / 2; the one eigenvalue test of every adaptation gain.
    """
    ev = np.linalg.eigvalsh(0.5 * (g + g.T))
    if not ev[0] > 0.0:
        raise GainBoundViolation(f"{what} must be positive definite")
    if upper is not None and not ev[-1] < upper:
        raise GainBoundViolation(f"{what} must lie below {upper:.4g} I")


@dataclass
class GradientLaw:
    """Gain slots of the basic normalized-gradient law.

    Both gains must be positive definite.  gz_max and gpsi_max are the
    discrete-time upper bounds (None: unbounded, as in continuous time).
    """

    gz: np.ndarray  # (q, q) zeta-side gain
    sp: np.ndarray  # (m, m) eps-side gain
    gpsi: np.ndarray  # (m, m) Psi gain
    gz_max: float = None
    gpsi_max: float = None

    def __post_init__(self):
        self.gz = np.atleast_2d(np.asarray(self.gz, dtype=float))
        self.sp = np.atleast_2d(np.asarray(self.sp, dtype=float))
        self.gpsi = np.atleast_2d(np.asarray(self.gpsi, dtype=float))
        check_gain(self.gz, self.gz_max, "zeta-side gain")
        check_gain(self.gpsi, self.gpsi_max, "Psi gain")


@dataclass
class Rd1Law:
    """Lyapunov-design law for relative-degree-one continuous-time plants.

    dTheta^T = -S^T P e omega^T with P A0 + A0^T P = -Q, A0 = -P0.
    """

    s: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def rhs(self, e, omega):
        return -(omega[:, None] * (self.s.T @ (self.p @ e)))


@dataclass
class SimTrace:
    """Uniform-grid record of a closed-loop run."""

    t: np.ndarray
    y: np.ndarray
    ym: np.ndarray
    e: np.ndarray
    u: np.ndarray
    m: np.ndarray
    eps: np.ndarray
    v: np.ndarray
    theta_norm: np.ndarray
    guard_events: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def n_samples(self):
        return self.t.size

    @property
    def n_channels(self):
        return self.y.shape[1]


class _Recorder:
    def __init__(self, n, m):
        self.t = np.zeros(n)
        self.y = np.zeros((n, m))
        self.ym = np.zeros((n, m))
        self.e = np.zeros((n, m))
        self.u = np.zeros((n, m))
        self.m = np.zeros(n)
        self.eps = np.zeros((n, m))
        self.v = np.full(n, np.nan)
        self.theta_norm = np.zeros(n)
        self.l2_eps = np.zeros(n)
        self.l2_dtheta = np.zeros(n)
        self.k = 0

    def push(self, t, y, ym, e, u, m, eps, v, theta_norm, l2e, l2d):
        k = self.k
        self.t[k] = t
        self.y[k] = y
        self.ym[k] = ym
        self.e[k] = e
        self.u[k] = u
        self.m[k] = m
        self.eps[k] = eps
        if v is not None:
            self.v[k] = v
        self.theta_norm[k] = theta_norm
        self.l2_eps[k] = l2e
        self.l2_dtheta[k] = l2d
        self.k += 1

    def trace(self, guard_events=None, extra=None):
        k = self.k
        ex = {"l2_eps_cum": self.l2_eps[:k], "l2_dtheta_cum": self.l2_dtheta[:k]}
        if extra:
            ex.update(extra)
        return SimTrace(
            t=self.t[:k],
            y=self.y[:k],
            ym=self.ym[:k],
            e=self.e[:k],
            u=self.u[:k],
            m=self.m[:k],
            eps=self.eps[:k],
            v=self.v[:k],
            theta_norm=self.theta_norm[:k],
            guard_events=list(guard_events or []),
            extra=ex,
        )


@dataclass
class LoopSpec:
    """Everything the closed-loop engine needs for one run.

    The controller side (structure, design polynomials, gains, theta0) never
    reads the plant matrices; they appear only through the simulated signals.
    """

    plant: StateSpace
    refmodel: StateSpace
    # input of the reference system: t -> (m,); the loops call it on an array
    # of times and read the channels along a new leading axis, (m, *t.shape),
    # as RefInput gives them
    um: object
    structure: Structure
    interactor: DiagonalInteractor
    fpoly: Polynomial
    lam: Polynomial = None
    nu: int = None
    lam_e: Polynomial = None
    nbe: int = None
    theta0: np.ndarray = None
    psi0: np.ndarray = None
    x0: np.ndarray = None
    xm0: np.ndarray = None

    def __post_init__(self):
        # exogenous, so built with the spec, ahead of any stepping loop
        ym = self.structure in (Structure.SF_YM, Structure.OF_YM)
        self.reference = ReferenceBlock(self.refmodel, *((self.lam_e, self.nbe) if ym else ()))

    @property
    def n(self):
        return self.plant.n

    @property
    def m(self):
        return self.plant.n_outputs

    @property
    def q(self):
        return regressor_dim(self.structure, self.n, self.m, self.nu, self.nbe)


CT_BLOCK = 256  # steps per block of continuous-time stage tables


class ClosedLoop:
    """Closed loop over one preallocated flat state vector.

    The linear part lin = [x, S] holds the plant state and the stacked states
    S of the controller filters (bank_u, bank_y, zeta, eta and the ebar rows),
    all fed from v = [u, y, omega, e]:

        lin+ = F lin + G v    (DT),        d lin/dt = F lin + G v    (CT).

    The reference block z = [x_m, bank_um, bank_ym] is driven by u_m alone,
    so it is exogenous: y_m = C_m x_m and its part of omega never depend on
    the loop.  In discrete time both are computed for the whole horizon
    before the loop.  In continuous time the coupled ODE is triangular, so
    RK4 gives z the same stage values whether it is stepped with the rest or
    alone: z is stepped alone, through the RK4 stage maps of the spec's
    ReferenceBlock, and y_m and the reference part of omega are tabulated at
    the four stage points of every step, one block of at most CT_BLOCK steps
    at a time.

    Layout of the flat state: [lin, Theta, Psi]; theta, psi and lin are views
    into it, valid for the life of the loop.
    """

    def __init__(self, spec, law, horizon):
        self.spec = spec
        self.law = law  # None = nominal (frozen parameters)
        self._gradient = law is not None and not isinstance(law, Rd1Law)
        self.domain = dom = spec.plant.domain
        plant, s = spec.plant, spec.structure
        n, m, q = spec.n, spec.m, spec.q
        vu, vy, ve = slice(0, m), slice(m, 2 * m), slice(2 * m + q, 3 * m + q)

        # lin, fed from v = [u, y, omega, e]
        blocks = [("x", (plant.a, plant.b, np.eye(n), 0.0), vu)]
        if s in (Structure.OF_XM, Structure.OF_YM):
            bank = FilterBank(range(spec.nu - 1), spec.lam, dom, width=m).realization()
            if np.any(bank[3]):
                raise ValueError("output-feedback filter banks must be strictly proper")
            blocks += [("w1", bank, vu), ("w2", bank, vy)]
        blocks += [
            ("zeta", RationalFilter([1.0], spec.fpoly, dom, width=q).realization(),
             slice(2 * m, 2 * m + q)),
            ("eta", RationalFilter([1.0], spec.fpoly, dom, width=m).realization(), vu),
        ]
        blocks += [(i, RationalFilter(d, spec.fpoly, dom).realization(), [ve.start + i])
                   for i, d in enumerate(spec.interactor.rows)]
        self._f, self._g, lr = stack(blocks, ve.stop)
        ebar_h = [lr[i][0] for i in range(m)]
        self._je = np.diag(np.vstack([lr[i][1] for i in range(m)])[:, ve])

        # every regressor block as rows over [lin, z, u_m]
        self._ref = zb = spec.reference
        nl, nz = self._f.shape[0], zb.nz

        def rows(h, at):
            out = np.zeros((h.shape[0], nl + nz + m))
            out[:, at : at + h.shape[1]] = h
            return out

        parts = {name: rows(lr[name][0], 0) for name in ("x", "w1", "w2") if name in lr}
        parts["y"] = rows(plant.c @ lr["x"][0], 0)
        parts["um"] = rows(np.eye(m), nl + nz)
        for name, hz in zb.read.items():
            parts[name] = rows(hz, nl)
        omega = assemble_regressor(s, parts)
        # one readout of lin: [y, omega (lin part), zeta, eta, ebar (strict part)]
        self._read = np.vstack((parts["y"][:, :nl], omega[:, :nl], lr["zeta"][0],
                                lr["eta"][0], *ebar_h))
        self._om_ref = omega[:, nl:]
        self._y, self._om = slice(0, m), slice(m, m + q)
        self._zeta, self._eta = slice(m + q, m + 2 * q), slice(m + 2 * q, 2 * m + 2 * q)
        self._ebar = slice(2 * m + 2 * q, 3 * m + 2 * q)

        # flat state [lin, Theta, Psi]
        o = np.cumsum([0, nl, q * m, m * m])
        self._lin, self._theta, self._psi = map(slice, o[:-1], o[1:])
        self._par = slice(o[1], o[3])
        self.s = np.zeros(o[3])
        if spec.x0 is not None:
            self.s[:n] = spec.x0
        z0 = np.zeros(nz)
        if spec.xm0 is not None:
            z0[: spec.refmodel.n] = spec.xm0
        self.lin = self.s[self._lin]
        self.theta = self.s[self._theta].reshape(q, m)
        self.psi = self.s[self._psi].reshape(m, m)
        if spec.theta0 is not None:
            theta0 = np.asarray(spec.theta0, dtype=float)
            if theta0.shape != (q, m):
                raise ValueError(f"theta0 shape {theta0.shape} != {(q, m)}")
            self.theta[:] = theta0
        if spec.psi0 is not None:
            self.psi[:] = spec.psi0
        if dom.is_dt:
            self._reference_run(z0, horizon)
        else:
            self._stage_tables(z0, horizon)
        self._pending = None
        # cumulative L2 bookkeeping
        self.l2_eps = 0.0
        self.l2_dtheta = 0.0

    def _reference_run(self, z0, horizon):
        """DT: u_m, y_m and the reference part of omega for every step."""
        um = self.spec.um(np.arange(horizon, dtype=float)).T
        z = np.empty((horizon, z0.size))
        zk = z0
        for k in range(horizon):
            z[k] = zk
            zk = self._ref.f @ zk + self._ref.g @ um[k]
        self._exo = np.hstack((z, um)) @ self._om_ref.T
        self._ym = z @ self._ref.cy.T

    def _stage_tables(self, z0, horizon):
        """CT: preallocated blocks of [reference part of omega, y_m] at the RK4 stages.

        Row j of a step's table is R_j w, w = [z, u(t), u(t + h/2), u(t + h)],
        from the reference block's stage maps.
        """
        zb, m, q = self._ref, self.spec.m, self.spec.q
        om_z, om_u = self._om_ref[:, : zb.nz], self._om_ref[:, zb.nz :]
        self._tab_read = np.vstack([np.vstack((om_z @ zw + om_u @ u, zb.cy @ zw))
                                    for zw, u in zb.stages])
        self._st_om, self._st_ym = slice(0, q), slice(q, q + m)
        nb = min(CT_BLOCK, horizon)
        self._w = np.empty((nb, zb.nz + 3 * m))
        self._tab = np.empty((nb, 4, q + m))
        self._z_next, self._k0 = z0, -nb  # the first block starts at step 0

    def _fill_block(self, k0):
        """CT: stage tables of steps k0 .. k0 + CT_BLOCK - 1, continuing from the last block."""
        nb, nz, m = self._w.shape[0], self._ref.nz, self.spec.m
        if k0 != self._k0 + nb:
            raise ValueError("continuous-time steps must be measured in order")
        h = self.domain.step
        t0 = np.arange(k0, k0 + nb) * h
        um = self.spec.um(np.stack((t0, t0 + 0.5 * h, t0 + h)))  # (m, 3, nb)
        self._w[:, nz:] = um.transpose(2, 1, 0).reshape(nb, 3 * m)
        z, w, p = self._z_next, self._w, self._ref.step.T
        for r in range(nb):
            w[r, :nz] = z
            z = w[r] @ p
        self._z_next, self._k0 = z, k0
        np.matmul(w, self._tab_read.T, out=self._tab.reshape(nb, -1))

    def _evaluate(self, flat, exo, ym, frame=False):
        """[dlin, dTheta, dPsi] at one state (DT: lin+ in place of dlin).

        Only what the law reads is computed: Rd1Law reads e and omega, a
        nominal run nothing, GradientLaw the estimation-error signals.  With
        frame set, the signals (y, y_m, e, u, Frame) that measure records are
        returned too, from the same expressions.
        """
        lin = flat[self._lin]
        theta = flat[self._theta].reshape(self.theta.shape)
        sig = self._read @ lin
        y = sig[self._y]
        e = y - ym
        omega = sig[self._om] + exo
        u = theta.T @ omega
        d = np.empty(flat.size)
        dlin = d[self._lin]
        np.matmul(self._f, lin, out=dlin)
        dlin += self._g @ np.concatenate((u, y, omega, e))
        law = self.law
        if frame or self._gradient:
            psi = flat[self._psi].reshape(self.psi.shape)
            zeta = sig[self._zeta]
            xi = theta.T @ zeta - sig[self._eta]
            ebar = sig[self._ebar] + self._je * e
            eps = ebar + psi @ xi
            mm = math.sqrt(1.0 + zeta @ zeta + xi @ xi)
        if self._gradient:
            dtheta, dpsi = gradient_rhs(law.gz, law.sp, law.gpsi, zeta, xi, eps, mm * mm)
            d[self._theta] = dtheta.ravel()
            d[self._psi] = dpsi.ravel()
        elif law is None:
            d[self._par] = 0.0
        else:
            d[self._theta] = law.rhs(e, omega).ravel()
            d[self._psi] = 0.0
        if not frame:
            return d
        return d, (y, ym, e, u, Frame(omega, zeta, xi, ebar, eps, mm))

    def _stage_rhs(self, flat, row, frame=False):
        """CT: _evaluate at one stage-table row."""
        return self._evaluate(flat, row[self._st_om], row[self._st_ym], frame)

    def measure(self, k):
        """Signals (y, y_m, e, u, frame) at grid point k and the stored state."""
        if self.domain.is_dt:
            d, out = self._evaluate(self.s, self._exo[k], self._ym[k], frame=True)
            self._pending = (out[4], d)
        else:
            r = k - self._k0
            if not 0 <= r < self._w.shape[0]:
                self._fill_block(k)
                r = 0
            stages = self._tab[r]
            k1, out = self._stage_rhs(self.s, stages[0], frame=True)
            self._pending = (out[4], k * self.domain.step, k1, stages)
        return out

    def advance(self):
        """Move the stored state to the next grid point (after measure)."""
        frame = self._pending[0]
        if self.domain.is_dt:
            d = self._pending[1]
            dpar = d[self._par]
            self.lin[:] = d[self._lin]
            self.s[self._par] += dpar
            self.l2_eps += float(frame.eps @ frame.eps) / frame.m2
            self.l2_dtheta += float(dpar @ dpar)
        else:
            _, t, k1, stages = self._pending
            h = self.domain.step
            # rk4_step evaluates stages 2, 3 and 4 in that order
            rows = iter(stages[1:])
            new = rk4_step(lambda tt, flat: self._stage_rhs(flat, next(rows)), t, self.s, h,
                           k1=k1)
            dpar = new[self._par] - self.s[self._par]
            self.l2_eps += h * float(frame.eps @ frame.eps) / frame.m2
            self.l2_dtheta += float(dpar @ dpar) / h
            self.s[:] = new
        self._pending = None

    def diverged_block(self):
        """Name of the first state block holding a non-finite value.

        Falls back to the name of the non-finite running L2 sum when the state
        itself is still finite (an overflow inside the sum).
        """
        for name, at in (("plant_filters", self._lin), ("theta", self._theta),
                         ("psi", self._psi)):
            if not np.isfinite(self.s[at]).all():
                return name
        return "l2_eps" if not math.isfinite(self.l2_eps) else "l2_dtheta"


def run_closed_loop(spec, law=None, horizon=1000, vprobe=None, probes=None):
    """Run the loop for `horizon` steps; returns a SimTrace.

    vprobe, when given, is called as vprobe(theta, psi, e) with the
    parameters in effect at each grid point and its value recorded in the V
    column (test mode only).  probes maps names to callables
    f(theta, psi, frame, e) whose per-step values land in trace.extra.
    theta and psi are views of the loop state, valid during the call.  Row k
    of the trace holds the time-t_k values of every signal, with parameters
    as used by u(t_k).

    A step whose running L2 sums come out non-finite ends the run: the trace
    stops at the last finite row and trace.guard_events holds one
    {"t": t_k, "diverged": <state block>} event.  That event reports the
    fault, so numpy's overflow and invalid-value warnings of the diverging
    step are silenced.
    """
    loop = ClosedLoop(spec, law=law, horizon=horizon)
    rec = _Recorder(horizon, spec.m)
    probes = probes or {}
    probe_vals = {name: np.zeros(horizon) for name in probes}
    h = 1.0 if loop.domain.is_dt else loop.domain.step
    par = loop.s[loop._par]
    events = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            tn = np.sqrt(par @ par)
            y, ym, e, u, frame = loop.measure(k)
            v = vprobe(loop.theta, loop.psi, e) if vprobe is not None else None
            for name, fn in probes.items():
                probe_vals[name][k] = fn(loop.theta, loop.psi, frame, e)
            loop.advance()
            if not (math.isfinite(loop.l2_eps) and math.isfinite(loop.l2_dtheta)):
                events.append({"t": k * h, "diverged": loop.diverged_block()})
                break
            rec.push(k * h, y, ym, e, u, frame.m, frame.eps, v, tn,
                     loop.l2_eps, loop.l2_dtheta)
    return rec.trace(guard_events=events,
                     extra={name: vals[: rec.k] for name, vals in probe_vals.items()})
