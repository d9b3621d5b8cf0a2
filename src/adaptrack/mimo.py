"""Multivariable adaptive tracking designs, unified over both time domains.

The plant interactor is restricted to the diagonal case diag{d_i(D)}; the
reconstruction of the equivalent reference input, the controller structures
and the matrix normalized-gradient laws mirror the single-output module,
which is exactly the one-channel instance of this machinery.  A separate
Lyapunov-design law covers continuous-time plants whose channels all have
relative degree one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import GradientLaw, Rd1Law, Structure, regressor_dim
from .errors import DomainMismatch, GainBoundViolation, RelativeDegreeViolation, SingularKp
from .linsys import (
    DiagonalInteractor,
    Polynomial,
    StateSpace,
    lyapunov_solve_ct,
    ref_input_from_io,
    ref_input_from_state,
    relative_degree,
)


def interactor_row_gains(plant, interactor):
    """(K0_total, Kp) with xi_m(D)[y] = K0_total^T x + Kp u along trajectories.

    Row i of K0_total^T is c_i d_i(A); row i of Kp collects the d_i
    coefficients against the plant Markov parameters, which reduces to
    c_i A^(deg d_i - 1) B when the row relative degrees equal the interactor
    degrees (checked).
    """
    for i, d in enumerate(interactor.rows):
        rr = relative_degree(plant, i, allow_decoupled=True)
        if rr != d.degree:
            raise RelativeDegreeViolation(
                f"plant row {i} relative degree {rr} != interactor degree {d.degree}"
            )
    k0, kp = ref_input_from_state(plant, interactor)
    sv = np.linalg.svd(kp, compute_uv=False)
    if sv[-1] < 1e-9 * max(sv[0], 1.0):
        raise SingularKp("high-frequency gain matrix is singular")
    return k0, kp


def sf_nominal(plant, interactor):
    """Matching state-feedback gains (K1, K2): K1^T = -Kp^-1 K0^T, K2 = Kp^-1."""
    k0, kp = interactor_row_gains(plant, interactor)
    kp_inv = np.linalg.inv(kp)
    k1 = -(kp_inv @ k0.T).T
    return k1, kp_inv, kp


def hidden_modes(plant, interactor):
    """Closed-loop modes cancelled by the matching law (the transmission zeros).

    Eigenvalues of A + B K1*^T are the interactor roots plus the cancelled
    modes; the interactor roots are matched and removed, the rest returned.
    """
    k1, _, _ = sf_nominal(plant, interactor)
    eigs = list(np.linalg.eigvals(plant.a + plant.b @ k1.T))
    for d in interactor.rows:
        for r in d.roots():
            j = int(np.argmin([abs(ev - r) for ev in eigs]))
            eigs.pop(j)
    return np.array(eigs)


def default_order(n, m):
    """nu and nbe of a scenario that leaves them unset."""
    return max(n - m, 1)


@dataclass
class MimoScenario:
    """A square multivariable tracking problem in either time domain."""

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
    gamma: np.ndarray = None  # Psi gain; default I
    um: object = None
    x0: np.ndarray = None
    xm0: np.ndarray = None

    def __post_init__(self):
        m = self.plant.n_outputs
        if self.plant.n_inputs != m:
            raise ValueError("plant must be square")
        if self.refmodel.n_outputs != m or self.refmodel.n_inputs != m:
            raise ValueError("reference model I/O width must match the plant")
        if self.plant.domain.tag != self.refmodel.domain.tag:
            raise ValueError("plant and reference model domains differ")
        if self.interactor.m != m:
            raise ValueError("interactor size must match the output width")
        self.interactor.validate_stable(self.plant.domain.tag)
        if self.fpoly.degree != self.interactor.max_degree or not self.fpoly.monic:
            raise ValueError("fpoly must be monic of the maximum interactor degree")
        if not self.fpoly.is_stable(self.plant.domain.tag):
            raise ValueError("fpoly must be stable")
        self.sp = np.atleast_2d(np.asarray(self.sp, dtype=float))
        if self.gamma is None:
            self.gamma = np.eye(m)
        self.gamma = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        n = self.plant.n
        if self.structure in (Structure.OF_XM, Structure.OF_YM):
            if self.nu is None:
                self.nu = default_order(n, m)
            if self.lam is None or self.lam.degree != self.nu - 1 or not self.lam.monic:
                raise ValueError("lam must be monic of degree nu-1")
            if self.lam.degree > 0 and not self.lam.is_stable(self.plant.domain.tag):
                raise ValueError("lam must be stable")
        if self.structure in (Structure.SF_YM, Structure.OF_YM):
            if self.nbe is None:
                self.nbe = default_order(n, m)
            if self.lam_e is None or not self.lam_e.monic:
                raise ValueError("lam_e must be monic")
            if self.lam_e.degree > 0 and not self.lam_e.is_stable(self.plant.domain.tag):
                raise ValueError("lam_e must be stable")
            if self.nbe > self.lam_e.degree + 1:
                raise ValueError("nbe exceeds what lam_e can realize properly")

    @property
    def n(self):
        return self.plant.n

    @property
    def m(self):
        return self.plant.n_outputs

    @property
    def theta_dim(self):
        return regressor_dim(self.structure, self.n, self.m, nu=self.nu, nbe=self.nbe)

    def loop_spec(self, theta0=None, psi0=None):
        return engine.LoopSpec(
            plant=self.plant,
            refmodel=self.refmodel,
            um=self.um,
            structure=self.structure,
            interactor=self.interactor,
            fpoly=self.fpoly,
            lam=self.lam,
            nu=self.nu,
            lam_e=self.lam_e,
            nbe=self.nbe,
            theta0=theta0,
            psi0=psi0,
            x0=self.x0,
            xm0=self.xm0,
        )


@dataclass
class MimoNominal:
    structure: Structure
    kp: np.ndarray
    theta_star: np.ndarray
    blocks: dict = field(default_factory=dict)


def nominal_params(scenario):
    """Assemble Theta* for a state-feedback scenario (plant knowledge needed).

    Output-feedback matching gains are not synthesized here; adaptive
    output-feedback runs operate without certificate oracles.
    """
    s = scenario.structure
    if s in (Structure.OF_XM, Structure.OF_YM):
        raise NotImplementedError(
            "output-feedback nominal gains are not synthesized for multivariable plants"
        )
    k1, k2, kp = sf_nominal(scenario.plant, scenario.interactor)
    a1, a2 = ref_input_from_state(scenario.refmodel, scenario.interactor)
    blocks = {"k1": k1, "k2": k2, "a1": a1, "a2": a2}
    if s is Structure.SF_XM:
        theta = np.vstack([k1, a1 @ k2.T, (k2 @ a2).T])
    else:
        b1, b2, b20, _ = ref_input_from_io(
            scenario.refmodel, scenario.interactor, scenario.lam_e, scenario.nbe
        )
        blocks.update(b1=b1, b2=b2, b20=b20)
        theta = np.vstack([k1, b1 @ k2.T, b2 @ k2.T, (k2 @ b20).T, (k2 @ a2).T])
    return MimoNominal(structure=s, kp=kp, theta_star=theta, blocks=blocks)


def rd1_law(interactor, s, q=None):
    """Build the relative-degree-one law from the interactor diag{D + a_i}."""
    if any(d.degree != 1 for d in interactor.rows):
        raise ValueError("relative-degree-one design needs first-order interactor rows")
    p0 = np.diag([d.coeffs[0] for d in interactor.rows])
    if np.any(np.diag(p0) <= 0):
        raise ValueError("interactor constants must be positive")
    q = np.eye(interactor.m) if q is None else np.atleast_2d(np.asarray(q, dtype=float))
    p = lyapunov_solve_ct(-p0, q)
    return Rd1Law(s=np.atleast_2d(np.asarray(s, dtype=float)), p=p, q=q)


def verify_gain_prior(kp, sp, domain):
    """Check the known-gain assumption of the basic law against the true Kp.

    Kp Sp must be symmetric positive definite, and additionally below 2I in
    discrete time.  Only possible with plant knowledge (test mode and the
    benchmark builders).
    """
    prod = kp @ sp
    if np.max(np.abs(prod - prod.T)) > 1e-9 * max(1.0, np.max(np.abs(prod))):
        raise GainBoundViolation("Kp Sp is not symmetric")
    ev = np.linalg.eigvalsh(0.5 * (prod + prod.T))
    if ev[0] <= 0:
        raise GainBoundViolation("Kp Sp is not positive definite")
    if domain.is_dt and ev[-1] >= 2.0:
        raise GainBoundViolation("Kp Sp must be below 2I in discrete time")


def certificate_probe(scenario, nominal):
    """Gradient-law certificate V for test-mode runs."""
    v = engine.certificate(nominal.theta_star, nominal.kp, np.eye(scenario.theta_dim),
                           scenario.sp, scenario.gamma)

    def probe(theta, psi, e):
        return v(theta, psi)

    return probe


def identity_probe(nominal):
    """Residual of eps = Kp Theta~^T zeta + Psi~ xi (test mode)."""

    def probe(theta, psi, frame, e):
        pred = nominal.kp @ ((theta - nominal.theta_star).T @ frame.zeta) + (
            psi - nominal.kp
        ) @ frame.xi
        return float(np.abs(frame.eps - pred).max())

    return probe


def rd1_certificate_probe(scenario, nominal, law):
    """V = e^T P e + tr[Theta~ Ms^-1 Theta~^T] with Ms = Kp^-1 S (test mode)."""
    ms = np.linalg.inv(nominal.kp) @ law.s
    ms_inv = np.linalg.inv(0.5 * (ms + ms.T))

    def probe(theta, psi, e):
        tht = theta - nominal.theta_star
        return float(e @ law.p @ e + np.vdot(tht @ ms_inv, tht))

    return probe


def run(scenario, design="gradient", adaptive=True, horizon=2000, theta0=None,
        psi0=None, q_matrix=None, nominal=None, with_certificate=False):
    """Simulate the scenario; returns a SimTrace.

    design="gradient" is the basic normalized-gradient law in either domain;
    design="rd1" is the continuous-time Lyapunov law (state feedback,
    first-order interactor rows).  Nominal mode and certificates require the
    matching parameters, available for state-feedback structures only.
    """
    m, q = scenario.m, scenario.theta_dim
    dom = scenario.plant.domain
    vprobe = None
    if design == "rd1":
        if dom.is_dt:
            raise DomainMismatch("the relative-degree-one design is continuous-time")
        law = rd1_law(scenario.interactor, scenario.sp, q_matrix)
        if not adaptive:
            law = None
    elif design == "gradient":
        law = GradientLaw(gz=np.eye(q), sp=scenario.sp, gpsi=scenario.gamma,
                          gpsi_max=2.0 if dom.is_dt else None)
        if not adaptive:
            law = None
    else:
        raise ValueError(f"unknown design {design!r}")
    if adaptive:
        th0 = np.zeros((q, m)) if theta0 is None else np.asarray(theta0, dtype=float)
        ps0 = scenario.sp.T.copy() if psi0 is None else np.asarray(psi0, dtype=float)
        if design == "rd1":
            ps0 = np.zeros((m, m))
    else:
        if nominal is None:
            nominal = nominal_params(scenario)
        th0 = nominal.theta_star
        ps0 = np.zeros((m, m))
    probes = None
    if with_certificate:
        if nominal is None:
            nominal = nominal_params(scenario)
        if design == "rd1":
            vprobe = rd1_certificate_probe(scenario, nominal, law or rd1_law(
                scenario.interactor, scenario.sp, q_matrix))
        else:
            verify_gain_prior(nominal.kp, scenario.sp, scenario.plant.domain)
            vprobe = certificate_probe(scenario, nominal)
            probes = {"ident_resid": identity_probe(nominal)}
    spec = scenario.loop_spec(theta0=th0, psi0=ps0)
    return engine.run_closed_loop(spec, law=law, horizon=horizon, vprobe=vprobe,
                                  probes=probes)
