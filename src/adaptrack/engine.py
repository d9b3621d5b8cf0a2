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

from .errors import GainBoundViolation, SingularityGuard
from .linsys import FilterBank, RationalFilter, rk4_step, stack


class Structure(Enum):
    SF_XM = "sf_xm"  # state feedback, reference state available
    SF_YM = "sf_ym"  # state feedback, reference input/output only
    OF_XM = "of_xm"  # output feedback, reference state available
    OF_YM = "of_ym"  # output feedback, reference input/output only


# regressor blocks of each structure, in stacking order
_BLOCKS = {
    Structure.SF_XM: ("x", "xm", "um"),
    Structure.SF_YM: ("x", "wum", "wym", "ym", "um"),
    Structure.OF_XM: ("w1", "w2", "y", "xm", "um"),
    Structure.OF_YM: ("w1", "w2", "y", "wum", "wym", "ym", "um"),
}


def regressor_dim(structure, n, m, n_m, nu=None, nbe=None):
    """Regressor length: the summed widths of the structure's blocks.

    n plant states, m channels, n_m reference-model states (the width of xm),
    nu - 1 blocks in each output-feedback bank, nbe in each reference bank.
    """
    w = {"x": n, "xm": n_m, "y": m, "ym": m, "um": m,
         "w1": m * ((nu or 1) - 1), "wum": m * (nbe or 0)}
    w["w2"], w["wym"] = w["w1"], w["wum"]
    return sum(w[b] for b in _BLOCKS[Structure(structure)])


def assemble_regressor(structure, parts):
    """Stack the structure's regressor from named signal blocks.

    parts keys: x, xm, y, ym, um, w1, w2, wum, wym (only those the structure
    uses need to be present).
    """
    return np.concatenate([np.atleast_1d(parts[b]) for b in _BLOCKS[Structure(structure)]])


@dataclass
class Frame:
    """Per-step estimation-error signals."""

    zeta: np.ndarray
    xi: np.ndarray
    eps: np.ndarray
    m: float

    @property
    def m2(self):
        return self.m * self.m


def gradient_rhs(gz, sp, gpsi, zeta, xi, eps, m2, out=None):
    """Right-hand sides (dTheta, dPsi) of the normalized-gradient law (see module docstring).

    out, when given, is the pair of arrays the two are written into.
    """
    if out is None:
        out = (np.empty((zeta.size, eps.size)), np.empty((eps.size, xi.size)))
    r = eps / -m2
    np.multiply((gz @ zeta)[:, None], sp @ r, out=out[0])
    np.multiply((gpsi @ r)[:, None], xi, out=out[1])
    return out


def certificate(theta_star, kp, gz, sp, gpsi):
    """Lyapunov certificate V(Theta, Psi) of the gradient law, as a closure.

    The gain inverses and Gp = Kp^T Sp^-1 are formed once, here; each trace
    is taken as tr(A^T B) = <A, B>.  theta and psi carry a leading step axis,
    and v returns one value per step.
    """
    gz_inv_t = np.linalg.inv(gz).T
    gpsi_inv_t = np.linalg.inv(gpsi).T
    gp = kp.T @ np.linalg.inv(sp)

    def v(theta, psi):
        tht = theta - theta_star
        psit = psi - kp
        return (np.einsum("kij,kij->k", gz_inv_t @ tht, tht @ gp)
                + np.einsum("kij,kij->k", gpsi_inv_t @ psit, psit))

    return v


def check_gain(g, upper=None, what="gain"):
    """Raise GainBoundViolation on `what` unless 0 < sym(g) and, given `upper`, sym(g) < upper I.

    sym(g) = (g + g^T) / 2; the one eigenvalue test of every adaptation gain.
    """
    ev = np.linalg.eigvalsh(0.5 * (g + g.T))
    if not ev[0] > 0.0:
        raise GainBoundViolation(what, "must be positive definite")
    if upper is not None and not ev[-1] < upper:
        raise GainBoundViolation(what, f"must lie below {upper:.4g} I")


@dataclass
class GradientLaw:
    """Gain slots of the basic normalized-gradient law.

    The scenario (mimo.MimoScenario) checks its gains: gz and the Psi gain
    positive definite, the Psi gain below 2I in discrete time.
    """

    gz: np.ndarray  # (q, q) zeta-side gain
    sp: np.ndarray  # (m, m) eps-side gain
    gpsi: np.ndarray  # (m, m) Psi gain


@dataclass
class Rd1Law:
    """Lyapunov-design law for relative-degree-one continuous-time plants.

    dTheta^T = -S^T P e omega^T with P A0 + A0^T P = -Q, A0 = -P0.
    """

    s: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self._nsp = -(self.s.T @ self.p)

    def rhs(self, e, omega, out=None):
        """dTheta = omega (-S^T P e)^T, written into out when given."""
        return np.multiply.outer(omega, self._nsp @ e, out=out)


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
    """Trace rows pushed one step at a time, and the diagnostics of each block of rows.

    drive copies the parameters in effect at each step into row k - k0 of
    par and, when frame gives the shapes of zeta and xi, the frame's zeta
    and xi into the same row of zeta and xi.  close_block then fills
    theta_norm over the rows pushed since the last block, at most CT_BLOCK
    of them, and calls diagnose(par, frame, e) with the block's frame (zeta,
    xi, eps and m along a leading step axis) and tracking errors.  Each
    named column it returns fills those rows: "v" of v, any other name of an
    extra column, allocated the first time the name is returned.
    """

    def __init__(self, n, m, npar, frame=None):
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
        self.columns = {"v": self.v}
        self.k = 0
        nb = min(CT_BLOCK, n)
        self.par = np.empty((nb, npar))
        self.zeta = self.xi = None
        if frame is not None:
            self.zeta, self.xi = (np.empty((nb, *shape)) for shape in frame)
        self.k0 = 0  # first row of the open block

    def push(self, t, y, ym, e, u, frame, l2e, l2d):
        """Record row k; True when that fills the open block."""
        k = self.k
        self.t[k] = t
        self.y[k] = y
        self.ym[k] = ym
        self.e[k] = e
        self.u[k] = u
        self.m[k] = frame.m
        self.eps[k] = frame.eps
        self.l2_eps[k] = l2e
        self.l2_dtheta[k] = l2d
        if self.zeta is not None:
            self.zeta[k - self.k0] = frame.zeta
            self.xi[k - self.k0] = frame.xi
        self.k += 1
        return self.k - self.k0 == self.par.shape[0]

    def close_block(self, diagnose=None):
        k0, k = self.k0, self.k
        rows, par = slice(k0, k), self.par[: k - k0]
        self.theta_norm[rows] = np.sqrt(np.vecdot(par, par))
        if diagnose is not None:
            frame = Frame(self.zeta[: k - k0], self.xi[: k - k0], self.eps[rows], self.m[rows])
            for name, vals in diagnose(par, frame, self.e[rows]).items():
                if name not in self.columns:
                    self.columns[name] = np.zeros((self.t.size, *np.shape(vals)[1:]))
                self.columns[name][rows] = vals
        self.k0 = k

    def trace(self, guard_events):
        """The SimTrace of the rows pushed."""
        k = self.k
        ex = {"l2_eps_cum": self.l2_eps, "l2_dtheta_cum": self.l2_dtheta, **self.columns}
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
            guard_events=guard_events,
            extra={name: vals[:k] for name, vals in ex.items() if name != "v"},
        )


# steps per block of reference tables and of diagnostics; small, because a CT table
# holds four rows per step, each as wide as lin's drive c
CT_BLOCK = 64


class FlatLoop:
    """A loop over one flat state s, in the interface that drive steps.

    step(k) -> (y, y_m, e, u, Frame) gives the signals at grid point k, moves
    s to grid point k + 1 and adds the step's terms to the running sums
    l2_eps and l2_dtheta.  h is the grid step (1 in discrete time), par the
    view of s holding the adaptive parameters, and frame_shapes the shapes of
    the frame's zeta and xi.

    Every stage runs on buffers fixed at build: the derivative rows K[j] (a
    block that no stage writes stays zero), rk4_step's work arrays, and,
    from _stage_buffers, each stage's signal arrays and its views of its
    argument (s itself for j = 0) and of K[j].  Each stage has signal arrays
    of its own, so what step returns survives until the next step.
    """

    def _allocate(self, blocks, par, nst=4):
        """Build s, zero and laid out in the (name, slice) blocks, par and nst stages' buffers."""
        self.s = np.zeros(blocks[-1][1].stop)
        self._named = blocks
        self.par = self.s[par]
        self._k = np.zeros((nst, self.s.size))
        self._work = tuple(np.empty((5, self.s.size)))
        self._stages = [self._stage_buffers(a, d)
                        for a, d in zip((self.s, *self._work[: nst - 1]), self._k)]
        self._new_par, self._dpar = self._work[4][par], np.empty(self.par.size)
        self.l2_eps = self.l2_dtheta = 0.0  # the running L2 sums

    def _start(self, name, value, view):
        """Write the start value of `name` into view, its shape checked; None keeps zero."""
        if value is not None:
            value = np.asarray(value, dtype=float)
            if value.shape != view.shape:
                raise ValueError(f"{name} shape {value.shape} != {view.shape}")
            view[...] = value

    def _rk4_advance(self, stage, t, l2e):
        """One RK4 step of s from grid time t, whose first stage step wrote into K[0].

        stage(tt, j) returns K[j], the derivative at stage j = 1, 2, 3, whose
        argument is rk4_step's work[j - 1].  l2e is the step's increment of
        l2_eps; each loop writes its own expression, which fixes its rounding.
        """
        js = iter((1, 2, 3))  # rk4_step evaluates stages 2, 3 and 4 in that order
        new = rk4_step(lambda tt, _: stage(tt, next(js)), t, self.s, self.h, k1=self._k[0],
                       work=self._work)
        dpar = np.subtract(self._new_par, self.par, out=self._dpar)
        self.l2_eps += l2e
        self.l2_dtheta += float(dpar @ dpar) / self.h
        self.s[...] = new

    def diverged_block(self):
        """Name of the first state block holding a non-finite value.

        Falls back to the name of the non-finite running L2 sum when the state
        itself is still finite (an overflow inside the sum).
        """
        for name, at in self._named:
            if not np.isfinite(self.s[at]).all():
                return name
        return "l2_eps" if not math.isfinite(self.l2_eps) else "l2_dtheta"


class ClosedLoop(FlatLoop):
    """Closed loop over one preallocated flat state vector.

    The linear part lin = [x, S] holds the plant state and the stacked states
    S of the controller filters (bank_u, bank_y, zeta, eta and the ebar rows),
    all fed from v = [u, y, omega, e]:

        lin+ = F lin + G v    (DT),        d lin/dt = F lin + G v    (CT).

    The reference block z = [x_m, bank_um, bank_ym] is driven by u_m alone,
    so it is exogenous: y_m = C_m x_m and its part of omega never depend on
    the loop.  In continuous time the coupled ODE is triangular, so RK4 gives
    z the same stage values whether it is stepped with the rest or alone.  In
    both domains z is stepped alone, through the step map of the scenario's
    ReferenceBlock, one block of CT_BLOCK steps at a time, and its
    contribution is tabulated at the stage points of every step (one in DT,
    the four RK4 stages in CT).

    y, e = y - y_m and omega are each a readout of lin plus an exogenous
    part, so the loop is closed through them once, at build time:

        F lin + G v = Fc lin + c + G_u u,
        Fc = F + G_y R_y + G_omega R_omega + G_e R_y,
        c = G_omega omega_ref - G_e y_m,

    R_y and R_omega reading y and the lin part of omega.  Fc is stacked on
    the readouts of e, ebar, omega, zeta, eta and y, so one product per
    stage gives the state part of the derivative and every signal.  A table
    row holds the exogenous parts (c, -y_m, -J_e y_m, omega_ref) of the first
    four blocks of that product, then y_m.

    Layout of the flat state: [lin, Theta, Psi]; theta, psi and lin are views
    into it, valid for the life of the loop.

    scenario is a multivariable scenario (mimo.MimoScenario): the plant and
    the reference model, its input um and its prebuilt ReferenceBlock
    `reference`, the structure and its design polynomials, theta_dim and the
    initial states x0 and xm0, and its update law `law`.  theta0 and psi0
    are the initial parameters, zero when None; with adaptive False they stay
    there.  The controller side never reads the plant matrices; they appear
    only through the simulated signals.
    """

    def __init__(self, scenario, adaptive=True, theta0=None, psi0=None):
        self.scenario = scn = scenario
        self.law = scn.law if adaptive else None  # None: frozen parameters
        self._gradient = adaptive and scn.design == "gradient"
        self.domain = dom = scn.plant.domain
        self.h = 1.0 if dom.is_dt else dom.step
        plant, s = scn.plant, scn.structure
        n, m, q = scn.n, scn.m, scn.theta_dim
        vu, vy = slice(0, m), slice(m, 2 * m)
        vo, ve = slice(2 * m, 2 * m + q), slice(2 * m + q, 3 * m + q)

        # lin, fed from v = [u, y, omega, e]
        blocks = [("x", (plant.a, plant.b, np.eye(n), 0.0), vu)]
        if s in (Structure.OF_XM, Structure.OF_YM):
            bank = FilterBank(range(scn.nu - 1), scn.lam, dom, width=m).realization()
            blocks += [("w1", bank, vu), ("w2", bank, vy)]
        blocks += [
            ("zeta", RationalFilter([1.0], scn.fpoly, dom, width=q).realization(), vo),
            ("eta", RationalFilter([1.0], scn.fpoly, dom, width=m).realization(), vu),
        ]
        blocks += [(i, RationalFilter(d, scn.fpoly, dom).realization(), [ve.start + i])
                   for i, d in enumerate(scn.interactor.rows)]
        f, g, lr = stack(blocks, ve.stop)
        self._f, self._g = f, g
        self._je = np.diag(np.vstack([lr[i][1] for i in range(m)])[:, ve])  # e into ebar

        # every regressor block as rows over [lin, z, u_m]
        self._ref = zb = scn.reference
        nl, nz = f.shape[0], zb.nz

        def rows(h, at):
            out = np.zeros((h.shape[0], nl + nz + m))
            out[:, at : at + h.shape[1]] = h
            return out

        parts = {name: rows(lr[name][0], 0) for name in ("x", "w1", "w2") if name in lr}
        parts["y"] = rows(plant.c @ lr["x"][0], 0)
        parts["um"] = rows(np.eye(m), nl + nz)
        for name, hz in zb.read.items():
            parts[name] = rows(hz, nl)
        # the signals as rows over [lin, z, u_m]; ebar = (its row) + J_e e
        self._read = rd = {
            "y": parts["y"], "ym": parts["ym"], "omega": assemble_regressor(s, parts),
            "zeta": rows(lr["zeta"][0], 0), "eta": rows(lr["eta"][0], 0),
            "ebar": rows(np.vstack([lr[i][0] for i in range(m)]), 0)}
        ry, ym = rd["y"][:, :nl], rd["ym"][:, nl:]
        rom, om_ref = rd["omega"][:, :nl], rd["omega"][:, nl:]
        je = self._je[:, None]

        # one product of lin gives [dlin - c - G_u u, e, ebar, omega, zeta, eta, y]
        # (in DT, lin+ in place of dlin); the first four blocks take their
        # exogenous parts, over [z, u_m], from the table row.  omega and zeta
        # are adjacent, so one product with Theta gives u and Theta^T zeta
        fused = [("dlin", f + (g[:, vy] + g[:, ve]) @ ry + g[:, vo] @ rom,
                  g[:, vo] @ om_ref - g[:, ve] @ ym),
                 ("e", ry, -ym), ("ebar", rd["ebar"][:, :nl] + je * ry, -je * ym),
                 ("omega", rom, om_ref), ("zeta", rd["zeta"][:, :nl], None),
                 ("eta", rd["eta"][:, :nl], None), ("y", ry, None)]
        self._fused = np.vstack([r for _, r, _ in fused])
        self._gu = np.ascontiguousarray(g[:, vu])
        o = np.cumsum([0] + [r.shape[0] for _, r, _ in fused])
        (_, self._e, self._ebar, self._om, self._zeta, self._eta,
         self._y) = map(slice, o[:-1], o[1:])
        self._exo, self._ym = slice(0, o[4]), slice(o[4], o[4] + m)
        self._oz, self._zx = slice(o[3], o[5]), slice(o[4], o[6])
        exo = np.vstack([x for *_, x in fused if x is not None] + [ym])
        self._tab_read = np.vstack([exo[:, :nz] @ zw + exo[:, nz:] @ u for zw, u in zb.stages])

        # flat state [lin, Theta, Psi] and the RK4 buffers (the law's unused blocks stay zero)
        o = np.cumsum([0, nl, q * m, m * m])
        self._lin, self._theta, self._psi = map(slice, o[:-1], o[1:])
        self._par = par = slice(o[1], o[3])
        nst = len(zb.stages)
        self._allocate((("plant_filters", self._lin), ("theta", self._theta),
                        ("psi", self._psi)), par, nst)
        if scn.x0 is not None:
            self.s[:n] = scn.x0
        self.lin = self.s[self._lin]
        self.theta = self.s[self._theta].reshape(q, m)
        self.psi = self.s[self._psi].reshape(m, m)
        self._start("theta0", theta0, self.theta)
        self._start("psi0", psi0, self.psi)
        self.frame_shapes = ((q,), (m,))

        # stage tables, one block of steps at a time
        z0 = np.zeros(nz)
        if scn.xm0 is not None:
            z0[: scn.refmodel.n] = scn.xm0
        self._offsets = np.array(zb.offsets)[:, None]
        self._w = np.empty((CT_BLOCK, nz + len(zb.offsets) * m))
        self._tab = np.empty((CT_BLOCK, nst, exo.shape[0]))
        self._z_next, self._k0 = z0, -CT_BLOCK  # the first block starts at step 0
        # the exogenous part of every table row, and y_m of each step
        self._rows = [tuple(self._tab[r, :, self._exo]) for r in range(CT_BLOCK)]
        self._ym_rows = list(self._tab[:, 0, self._ym])

        self._lin_next, self._par_step = self._k[0][self._lin], self._k[0][par]  # DT

    def _stage_buffers(self, arg, d):
        """Views of one stage argument and of its derivative row, and the stage's signals."""
        q, m = self.scenario.theta_dim, self.scenario.m
        sig = np.empty(self._fused.shape[0])
        uz = np.empty((2, m))  # [u, Theta^T zeta]
        return (arg[self._lin], arg[self._theta].reshape(q, m), arg[self._psi].reshape(m, m),
                sig, sig[self._exo], sig[self._oz].reshape(2, -1), uz, uz[0], uz[1],
                np.empty(self._gu.shape[0]), sig[self._lin], d[self._lin],
                sig[self._zeta], sig[self._eta], sig[self._ebar], sig[self._zx], np.empty(m),
                sig[self._e], sig[self._om], sig[self._y],
                (d[self._theta].reshape(q, m), d[self._psi].reshape(m, m)))

    def _fill_block(self, k0):
        """Stage tables of steps k0 .. k0 + CT_BLOCK - 1, continuing from the last block.

        Row j of a step's table is R_j w, w = [z, u_m at the step's input
        times], from the reference block's stage maps.
        """
        nb, nz = CT_BLOCK, self._ref.nz
        if k0 != self._k0 + nb:
            raise ValueError("steps must be taken in order")
        um = self.scenario.um(np.arange(k0, k0 + nb) * self.h + self._offsets)  # (m, stages, nb)
        self._w[:, nz:] = um.transpose(2, 1, 0).reshape(nb, -1)
        z, w, p = self._z_next, self._w, self._ref.step.T
        for r in range(nb):
            w[r, :nz] = z
            z = w[r] @ p
        self._z_next, self._k0 = z, k0
        np.matmul(w, self._tab_read.T, out=self._tab.reshape(nb, -1))

    def _stage_rhs(self, j, row, frame=False):
        """[dlin, dTheta, dPsi] at stage j's argument, written into K[j] and returned.

        DT: lin+ in place of dlin.  row is the exogenous part of the stage's
        table row.  Only what the law reads is computed: Rd1Law reads e and
        omega, a frozen run nothing, GradientLaw the estimation-error
        signals; the laws write into K[j].  With frame set, the signals (y, e,
        u, Frame) that step returns are returned too, as views of stage j's
        buffers.
        """
        (lin, theta, psi, sig, exo, oz, uz, u, tz, gu_u, sig_lin, dlin, zeta, xi, ebar, zx,
         eps, e, om, y, dpar) = self._stages[j]
        np.matmul(self._fused, lin, out=sig)
        np.add(exo, row, out=exo)
        np.matmul(oz, theta, out=uz)
        np.add(sig_lin, np.matmul(self._gu, u, out=gu_u), out=dlin)
        if frame or self._gradient:
            np.subtract(tz, xi, out=xi)  # xi takes eta's place: [zeta, xi] is contiguous
            np.add(np.matmul(psi, xi, out=eps), ebar, out=eps)
            mm = math.sqrt(1.0 + zx @ zx)
        law = self.law
        if self._gradient:
            gradient_rhs(law.gz, law.sp, law.gpsi, zeta, xi, eps, mm * mm, out=dpar)
        elif law is not None:
            law.rhs(e, om, out=dpar[0])
        if not frame:
            return self._k[j]
        return self._k[j], (y, e, u, Frame(zeta, xi, eps, mm))

    def step(self, k):
        """Signals (y, y_m, e, u, frame) at grid point k; moves the state to grid point k + 1."""
        r = k - self._k0
        if not 0 <= r < CT_BLOCK:
            self._fill_block(k)
            r = 0
        rows = self._rows[r]
        _, (y, e, u, frame) = self._stage_rhs(0, rows[0], frame=True)
        if self.domain.is_dt:
            dpar = self._par_step
            self.lin[...] = self._lin_next
            np.add(self.par, dpar, out=self.par)
            self.l2_eps += float(frame.eps @ frame.eps) / frame.m2
            self.l2_dtheta += float(dpar @ dpar)
        else:
            self._rk4_advance(lambda tt, j: self._stage_rhs(j, rows[j]), k * self.h,
                              self.h * float(frame.eps @ frame.eps) / frame.m2)
        return y, self._ym_rows[r], e, u, frame


def drive(loop, horizon, diagnose=None):
    """Step a FlatLoop for `horizon` steps; returns the SimTrace of the run.

    Row k holds loop.step(k) and, in the recorder's block buffers, the
    parameters in effect then and, when diagnose is given, the frame's zeta
    and xi.  The recorder's close_block(diagnose) runs before the first step,
    on an empty block, so that every column diagnose names exists even when
    the run stops at its first step; then on every full block and the final
    one.

    The stop rule: the first failing step ends the run before its row, with
    one event in trace.guard_events, {"t": t_k, "sigma_min": <value>} for a
    SingularityGuard and {"t": t_k, "diverged": <state block>} for running
    L2 sums non-finite after the step.  The event reports the fault, so
    numpy's overflow and invalid-value warnings of the failing step are
    silenced.
    """
    rec = _Recorder(horizon, loop.scenario.m, loop.par.size,
                    None if diagnose is None else loop.frame_shapes)
    events, par, h = [], loop.par, loop.h
    rec.close_block(diagnose)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(horizon):
            rec.par[k - rec.k0] = par
            try:
                y, ym, e, u, frame = loop.step(k)
            except SingularityGuard as g:
                events.append({"t": k * h, "sigma_min": g.sigma_min})
                break
            if not (math.isfinite(loop.l2_eps) and math.isfinite(loop.l2_dtheta)):
                events.append({"t": k * h, "diverged": loop.diverged_block()})
                break
            if rec.push(k * h, y, ym, e, u, frame, loop.l2_eps, loop.l2_dtheta):
                rec.close_block(diagnose)
        rec.close_block(diagnose)
    return rec.trace(events)


def run_closed_loop(scenario, adaptive=True, horizon=1000, theta0=None, psi0=None,
                    diagnose=None):
    """Run the scenario's ClosedLoop for `horizon` steps through drive; returns a SimTrace.

    Row k of the trace holds the time-t_k values of every signal, with
    parameters as used by u(t_k).  diagnose(par, frame, e), when given, is
    evaluated once per block of at most CT_BLOCK rows, on arrays with a
    leading step axis: par (k, q m + m m) holds the parameters [Theta, Psi]
    in effect at each row, flattened row by row, frame holds zeta, xi, eps
    and m, and e is (k, m).  It returns named columns of k values: "v" fills
    trace.v, any other name trace.extra (test mode).

    A run stopped by drive's stop rule returns the rows before the failing
    step, with the event in trace.guard_events.
    """
    return drive(ClosedLoop(scenario, adaptive, theta0, psi0), horizon, diagnose)
