"""Multivariable adaptive tracking designs, unified over both time domains.

The plant interactor is restricted to the diagonal case diag{d_i(D)}.  The
reconstruction of the equivalent reference input, the controller structures
and the matrix normalized-gradient laws live here once: the single-output
module `siso` only validates its problem and maps it to a one-channel
`MimoScenario`.  A separate Lyapunov-design law covers continuous-time
plants whose channels all have relative degree one.

Building a `MimoScenario` checks the paper's three plant assumptions, for
every module and mode: each plant row's relative degree equals its
interactor degree with Kp nonsingular (fields interactor[i] and plant), the
modes the matching law cancels are stable, i.e. the plant is minimum phase
(field plant), and each reference row's relative degree is at least its
interactor degree (field refmodel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import GradientLaw, Rd1Law, Structure, check_gain, regressor_dim
from .errors import (
    GainBoundViolation,
    RelativeDegreeViolation,
    SingularKp,
    SingularMatchingSystem,
    ValidationError,
)
from .linsys import (
    RANK_RTOL,
    DiagonalInteractor,
    FilterBank,
    Polynomial,
    ReferenceBlock,
    StateSpace,
    check_rk4_step,
    lyapunov_solve_ct,
    observability_index,
    reachable_basis,
    ref_input_from_io,
    ref_input_from_state,
    relative_degree,
    rk4_gain,
    stack,
)


def interactor_row_gains(plant, interactor):
    """(K0_total, Kp) with xi_m(D)[y] = K0_total^T x + Kp u along trajectories.

    Row i of K0_total^T is c_i d_i(A); row i of Kp collects the d_i
    coefficients against the plant Markov parameters, which reduces to
    c_i A^(deg d_i - 1) B when the row relative degrees equal the interactor
    degrees (checked: RelativeDegreeViolation on interactor[i], SingularKp on
    plant).
    """
    for i, d in enumerate(interactor.rows):
        rr = relative_degree(plant, i)
        if rr != d.degree:
            raise RelativeDegreeViolation(
                f"interactor[{i}]", f"degree {d.degree} != plant row {i} relative degree {rr}"
            )
    k0, kp = ref_input_from_state(plant, interactor)
    sv = np.linalg.svd(kp, compute_uv=False)
    if sv[-1] < 1e-9 * max(sv[0], 1.0):
        raise SingularKp("plant", "high-frequency gain matrix Kp is singular")
    return k0, kp


def sf_nominal(plant, interactor):
    """Matching state-feedback gains (K1, K2): K1^T = -Kp^-1 K0^T, K2 = Kp^-1."""
    k0, kp = interactor_row_gains(plant, interactor)
    kp_inv = np.linalg.inv(kp)
    k1 = -(kp_inv @ k0.T).T
    return k1, kp_inv, kp


def hidden_modes(plant, k1):
    """Closed-loop modes cancelled by the matching law u = K1^T x + K2 r (the plant zeros).

    The observable subspace of (A + B K1^T, C) carries the interactor roots;
    the cancelled modes are the spectrum of A + B K1^T on its complement, the
    unobservable subspace, which is invariant.
    """
    acl = plant.a + plant.b @ k1.T
    obs = reachable_basis(acl.T, plant.c.T)
    hid = np.linalg.svd(obs)[0][:, obs.shape[1] :]
    return np.linalg.eigvals(hid.T @ acl @ hid)


def _gain(attr, g, dim, upper=None):
    """g as a (dim, dim) adaptation gain: None stands for I, a scalar for g I.

    check_gain bounds it between 0 and `upper` I.
    """
    g = np.asarray(1.0 if g is None else g, dtype=float)
    g = g * np.eye(dim) if g.ndim == 0 else g
    if g.shape != (dim, dim):
        raise ValidationError(attr, f"has shape {g.shape}, expected () or {(dim, dim)}")
    check_gain(g, upper, attr)
    return g


@dataclass
class MimoScenario:
    """A square multivariable tracking problem in either time domain.

    Everything engine.ClosedLoop reads for one run; `reference` is the
    scenario's ReferenceBlock and `law` its update law, both built once here.
    `design` picks the law: "gradient", the normalized-gradient law of
    either domain, or "rd1", the continuous-time Lyapunov law for
    first-order interactor rows with the gain `q`.  The build checks the
    design assumptions it holds, the plant assumptions among them; a
    failure raises ValidationError naming the attribute.
    """

    plant: StateSpace
    refmodel: StateSpace
    interactor: DiagonalInteractor
    fpoly: Polynomial  # stable monic, degree = max interactor degree
    sp: np.ndarray  # known gain standing in for the high-frequency gain prior
    structure: Structure = Structure.SF_XM
    nu: int = None  # output-feedback filter order
    lam: Polynomial = None  # monic stable, degree nu-1
    lam_e: Polynomial = None  # reference-signal filter denominator
    nbe: int = None  # reference-signal bank blocks
    gamma: np.ndarray = None  # Psi gain, below 2I in discrete time; default I
    gz: np.ndarray = None  # zeta-side gain; default I
    design: str = "gradient"
    q: np.ndarray = None  # the rd1 law's Q, positive definite symmetric part; default I
    # input of the reference system: t -> (m,); the loops call it on an array
    # of times and read the channels along a new leading axis, (m, *t.shape),
    # as RefInput gives them
    um: object = None
    x0: np.ndarray = None
    xm0: np.ndarray = None

    def __post_init__(self):
        m, dom = self.plant.n_outputs, self.plant.domain
        if self.plant.n_inputs != m:
            raise ValidationError("plant", "must be square")
        if self.refmodel.n_outputs != m or self.refmodel.n_inputs != m:
            raise ValidationError("refmodel", "I/O width must match the plant")
        if dom != self.refmodel.domain:  # the tag and the step: one clock for both blocks
            rdom = self.refmodel.domain
            raise ValidationError("refmodel", f"domain {rdom.tag.value} at step {rdom.step:g} "
                                  f"differs from the plant's {dom.tag.value} at {dom.step:g}")
        if self.interactor.m != m:
            raise ValidationError("interactor", "size must match the output width")
        self.interactor.validate_stable(dom.tag)
        # every polynomial held is checked, also one the structure does not read
        for attr in ("fpoly", "lam", "lam_e"):
            poly = getattr(self, attr)
            if poly is not None and not poly.is_stable(dom.tag):
                raise ValidationError(attr, "polynomial is not stable for the domain")
        if self.fpoly.degree != self.interactor.max_degree or not self.fpoly.monic:
            raise ValidationError("fpoly", "must be monic of the maximum interactor degree")
        if not dom.is_dt:  # every stable linear mode of the loop, at the RK4 step
            polys = [(attr, getattr(self, attr)) for attr in ("fpoly", "lam", "lam_e")]
            polys += [(f"interactor[{i}]", d) for i, d in enumerate(self.interactor.rows)]
            eigs = [(key, lam) for key in ("plant", "refmodel")
                    for lam in np.linalg.eigvals(getattr(self, key).a)]
            check_rk4_step(eigs + [(key, lam) for key, p in polys if p is not None
                                    for lam in p.roots()], dom.step)
        # the plant assumptions; the loop never reads the plant, so nothing is kept
        k1, _, _ = sf_nominal(self.plant, self.interactor)
        modes = hidden_modes(self.plant, k1)
        if np.any(np.abs(modes) >= 1.0 if dom.is_dt else modes.real >= 0.0):
            raise ValidationError("plant", f"cancelled modes {modes} are not stable: the "
                                  "plant must be minimum phase")
        ref_input_from_state(self.refmodel, self.interactor)
        self.sp = np.atleast_2d(np.asarray(self.sp, dtype=float))
        if self.sp.shape != (m, m):
            raise ValidationError("sp", f"has shape {self.sp.shape}, expected {(m, m)}")
        order = max(self.plant.n - m, 1)  # nu and nbe when unset
        ym = self.structure in (Structure.SF_YM, Structure.OF_YM)
        if self.structure in (Structure.OF_XM, Structure.OF_YM):
            if self.nu is None:
                self.nu = order
            if self.lam is None or self.lam.degree != self.nu - 1 or not self.lam.monic:
                raise ValidationError("lam", f"must be monic of degree nu - 1 = {self.nu - 1}")
        if ym:
            if self.nbe is None:
                self.nbe = order
            if self.lam_e is None or not self.lam_e.monic:
                raise ValidationError("lam_e", "must be monic")
            if self.nbe > self.lam_e.degree + 1:
                raise ValidationError("nbe", "exceeds what lam_e can realize properly")
        self.gamma = _gain("gamma", self.gamma, m, 2.0 if dom.is_dt else None)
        self.gz = _gain("gz", self.gz, self.theta_dim)
        self.q = _gain("q", self.q, m)
        if self.design == "gradient":
            self.law = GradientLaw(gz=self.gz, sp=self.sp, gpsi=self.gamma)
        elif self.design == "rd1":
            if dom.is_dt:
                raise ValidationError("design", "rd1 needs a continuous-time plant")
            if any(d.degree != 1 for d in self.interactor.rows):
                raise ValidationError("design", "rd1 needs first-order interactor rows")
            p0 = np.diag([d.coeffs[0] for d in self.interactor.rows])
            self.law = Rd1Law(s=self.sp, p=lyapunov_solve_ct(-p0, self.q), q=self.q)
        else:
            raise ValidationError("design", "must be gradient or rd1")
        # exogenous, so built with the scenario, ahead of any stepping loop
        self.reference = ReferenceBlock(self.refmodel, *((self.lam_e, self.nbe) if ym else ()))

    @property
    def n(self):
        return self.plant.n

    @property
    def m(self):
        return self.plant.n_outputs

    @property
    def theta_dim(self):
        return regressor_dim(self.structure, self.n, self.m, self.refmodel.n, self.nu, self.nbe)


@dataclass
class MimoNominal:
    kp: np.ndarray
    theta_star: np.ndarray


def has_matching(structure, plant, nu):
    """Whether the structure has matching parameters for the plant: every
    state-feedback structure, and output feedback with nu at least the
    observability index of (A, C) (Tao, Adaptive Control Design and Analysis,
    2003, ch. 9).  Output feedback reads the plant."""
    return structure in (Structure.SF_XM, Structure.SF_YM) or nu >= observability_index(plant)


def output_feedback_gains(scenario, k1):
    """K1 = [theta1; theta2; theta20] with K1^T [w1; w2; y] = k1^T x along trajectories.

    The plant and both output-feedback banks are stacked as engine.ClosedLoop
    stacks them, y = C x closed into the w2 bank, and the identity is solved
    on the reachable subspace of that system from u: there u = K1^T [w1; w2;
    y] + K2 r gives the loop of the state feedback u = k1^T x + K2 r, and the
    modes outside it are the banks' own, which decay.  When the solution is
    not unique (nu above the observability index, several channels), the
    minimum-norm one is returned.  Raises SingularMatchingSystem for a
    non-minimal plant, and when there is no solution (nu too small).
    """
    plant, n, m = scenario.plant, scenario.n, scenario.m
    a, b, c = plant.a, plant.b, plant.c
    if min(reachable_basis(a, b).shape[1], reachable_basis(a.T, c.T).shape[1]) < n:
        raise SingularMatchingSystem("plant (A, B, C) is not minimal")
    vu, vy = slice(0, m), slice(m, 2 * m)
    bank = FilterBank(range(scenario.nu - 1), scenario.lam, plant.domain, width=m).realization()
    f, g, read = stack([("x", (a, b, np.eye(n), 0.0), vu), ("w1", bank, vu), ("w2", bank, vy)],
                       2 * m)
    x = read["x"][0]
    basis = reachable_basis(f + g[:, vy] @ c @ x, g[:, vu])
    lhs = np.vstack([read["w1"][0], read["w2"][0], c @ x]) @ basis
    rhs = k1.T @ x @ basis
    sol = np.linalg.lstsq(lhs.T, rhs.T, rcond=RANK_RTOL)[0]
    if np.max(np.abs(sol.T @ lhs - rhs), initial=0.0) > 1e-9 * max(1.0, np.max(np.abs(rhs))):
        raise SingularMatchingSystem(
            f"no output-feedback matching gains: nu = {scenario.nu} is below the "
            "observability index of (A, C)")
    return sol


def nominal_params(scenario):
    """Assemble Theta* for the scenario's structure (plant knowledge needed).

    Theta* stacks K1, the reference-input blocks times K2^T and (K2 A2)^T.
    Every structure takes (k1, K2 = Kp^-1) from sf_nominal; K1 is k1 for
    state feedback and output_feedback_gains(scenario, k1) for output
    feedback.
    """
    s = scenario.structure
    k1, k2, kp = sf_nominal(scenario.plant, scenario.interactor)
    if s in (Structure.OF_XM, Structure.OF_YM):
        k1 = output_feedback_gains(scenario, k1)
    a1, a2 = ref_input_from_state(scenario.refmodel, scenario.interactor)
    if s in (Structure.SF_XM, Structure.OF_XM):
        ref = [a1 @ k2.T]
    else:
        b1, b2, b20, _ = ref_input_from_io(
            scenario.refmodel, scenario.interactor, scenario.lam_e, scenario.nbe
        )
        ref = [b1 @ k2.T, b2 @ k2.T, (k2 @ b20).T]
    theta = np.vstack([k1, *ref, (k2 @ a2).T])
    return MimoNominal(kp=kp, theta_star=theta)


def verify_gain_prior(kp, sp, domain, gz=None):
    """Check the known-gain assumption of the basic law against the true Kp.

    Kp Sp must be symmetric positive definite.  In discrete time the law also
    needs lambda_max(sym Kp Sp) lambda_max(sym gz) < 2: Kp Sp < 2I at the
    default gz = I, and |kp| gamma_theta < 2 for one channel.  Only possible
    with plant knowledge (test mode and the benchmark builders).  In
    continuous time the fastest adaptation mode, -lambda_max(sym Kp Sp)
    lambda_max(sym gz), must lie in RK4's stability region at the step.  A
    failure names sp when Kp Sp is not symmetric positive definite, and kp
    when the true Kp is too large for the domain's bound.
    """
    prod = kp @ sp
    if np.max(np.abs(prod - prod.T)) > 1e-9 * max(1.0, np.max(np.abs(prod))):
        raise GainBoundViolation("sp", "Kp Sp is not symmetric")
    ev = np.linalg.eigvalsh(0.5 * (prod + prod.T))
    if ev[0] <= 0:
        raise GainBoundViolation("sp", "Kp Sp is not positive definite")
    gz_max = 1.0 if gz is None else np.linalg.eigvalsh(0.5 * (gz + gz.T))[-1]
    rate = ev[-1] * gz_max
    if domain.is_dt and rate >= 2.0:
        raise GainBoundViolation("kp", "Kp Sp must be below 2I / lambda_max(gz) = "
                                 f"{2.0 / gz_max:.4g} I in discrete time")
    if not domain.is_dt and rk4_gain([-rate], domain.step)[0] > 1.0:
        raise GainBoundViolation("kp", f"lambda_max(Kp Sp) lambda_max(gz) = {rate:.4g} puts "
                                 f"the adaptation outside RK4's stability region at step "
                                 f"{domain.step:g}")


def diagnostics(scenario, nominal, law):
    """Block diagnostics of a test-mode run: the diagnose of engine.run_closed_loop.

    The gradient law gives its certificate V and the residual of the
    estimation identity eps = Kp Theta~^T zeta + Psi~ xi ("ident_resid"),
    once the gain prior that V rests on is verified.  The rd1 law gives V =
    e^T P e + tr[Theta~ Ms^-1 Theta~^T] with Ms = Kp^-1 S.
    """
    tstar, kp = nominal.theta_star, nominal.kp
    if isinstance(law, Rd1Law):
        ms = np.linalg.inv(kp) @ law.s
        ms_inv = np.linalg.inv(0.5 * (ms + ms.T))

        def rd1(theta, psi, frame, e):
            tht = theta - tstar
            return {"v": np.vecdot(e @ law.p, e) + np.einsum("kij,kij->k", tht @ ms_inv, tht)}

        return rd1
    verify_gain_prior(kp, scenario.sp, scenario.plant.domain, scenario.gz)
    v = engine.certificate(tstar, kp, scenario.gz, scenario.sp, scenario.gamma)

    def gradient(theta, psi, frame, e):
        tz = np.einsum("kij,ki->kj", theta - tstar, frame.zeta)
        pred = tz @ kp.T + np.einsum("kij,kj->ki", psi - kp, frame.xi)
        return {"v": v(theta, psi), "ident_resid": np.abs(frame.eps - pred).max(axis=1)}

    return gradient


def run(scenario, adaptive=True, horizon=2000, theta0=None, psi0=None, nominal=None,
        with_certificate=False):
    """Simulate the scenario with its update law; returns a SimTrace.

    The rd1 law holds Psi at zero, so it takes no psi0 (ValueError).  Nominal
    mode and certificates require the matching parameters (has_matching).
    """
    m, q, law = scenario.m, scenario.theta_dim, scenario.law
    if psi0 is not None and scenario.design == "rd1":
        raise ValueError("psi0: the rd1 law holds Psi at zero")
    if nominal is None and (with_certificate or not adaptive):
        nominal = nominal_params(scenario)
    diagnose = diagnostics(scenario, nominal, law) if with_certificate else None
    if not adaptive:
        law, th0, ps0 = None, nominal.theta_star, np.zeros((m, m))
    else:
        th0 = np.zeros((q, m)) if theta0 is None else np.asarray(theta0, dtype=float)
        ps0 = scenario.sp.T.copy() if psi0 is None else np.asarray(psi0, dtype=float)
        if scenario.design == "rd1":
            ps0 = np.zeros((m, m))
    return engine.run_closed_loop(scenario, law=law, horizon=horizon, theta0=th0, psi0=ps0,
                                  diagnose=diagnose)
