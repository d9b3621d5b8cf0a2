"""Single-input single-output discrete-time adaptive tracking designs.

Four controller structures are supported: state feedback using the
reference system state, state feedback using only its input/output, and the
same two variants for output feedback.  The reference trajectory comes from
a state-space system whose parameters the controller never reads; the
equivalent reference input is reconstructed from measured reference signals
through a parametrized estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import GradientLaw, Structure, regressor_dim
from .errors import RelativeDegreeViolation, SingularMatchingSystem
from .linsys import (
    DiagonalInteractor,
    Polynomial,
    StateSpace,
    ref_input_from_io,
    ref_input_from_state,
    relative_degree,
    siso_transfer,
)


def theta_dim(structure, n):
    """Regressor length of the design for an n-state plant (nu = n, nbe = n - 1)."""
    return regressor_dim(structure, n, 1, nu=n, nbe=n - 1)


@dataclass
class SisoScenario:
    """A discrete-time SISO tracking problem plus the design choices for it."""

    plant: StateSpace
    refmodel: StateSpace
    pm: Polynomial  # stable monic, degree = plant relative degree
    lam: Polynomial  # output-feedback filter denominator, monic stable deg n-1
    lam_e: Polynomial  # reference-signal filter denominator, monic stable deg n-1
    structure: Structure = Structure.SF_XM
    sign_kp: float = 1.0
    kp_bound: float = 2.0
    um: object = None  # callable t -> scalar/1-vector
    x0: np.ndarray = None
    xm0: np.ndarray = None

    def __post_init__(self):
        if not self.plant.domain.is_dt or not self.refmodel.domain.is_dt:
            raise ValueError("SISO designs are discrete-time")
        if self.plant.n_inputs != 1 or self.plant.n_outputs != 1:
            raise ValueError("plant must be SISO")
        if self.refmodel.n_inputs != 1 or self.refmodel.n_outputs != 1:
            raise ValueError("reference model must be SISO")
        n = self.plant.n
        nstar = relative_degree(self.plant)
        if self.pm.degree != nstar or not self.pm.monic:
            raise ValueError(f"pm must be monic of degree n* = {nstar}")
        if not self.pm.is_stable(self.plant.domain.tag):
            raise ValueError("pm must be stable")
        _, zpoly, _ = siso_transfer(self.plant)
        if zpoly.degree > 0 and not zpoly.is_stable(self.plant.domain.tag):
            raise ValueError("plant zeros must be stable (minimum phase)")
        nmstar = relative_degree(self.refmodel)
        if nmstar < nstar:
            raise RelativeDegreeViolation(
                f"reference relative degree {nmstar} < plant relative degree {nstar}"
            )
        for name, poly in (("lam", self.lam), ("lam_e", self.lam_e)):
            if poly.degree != n - 1 or not poly.monic:
                raise ValueError(f"{name} must be monic of degree n-1 = {n - 1}")
            if poly.degree > 0 and not poly.is_stable(self.plant.domain.tag):
                raise ValueError(f"{name} must be stable")
        if self.sign_kp not in (-1.0, 1.0, -1, 1):
            raise ValueError("sign_kp must be +-1")
        if self.kp_bound <= 0:
            raise ValueError("kp_bound must be positive")

    @property
    def n(self):
        return self.plant.n

    @property
    def nstar(self):
        return relative_degree(self.plant)

    @property
    def theta_dim(self):
        return theta_dim(self.structure, self.n)

    def loop_spec(self, theta0=None, rho0=None):
        return engine.LoopSpec(
            plant=self.plant,
            refmodel=self.refmodel,
            um=self.um,
            structure=self.structure,
            interactor=DiagonalInteractor([self.pm]),
            fpoly=self.pm,
            lam=self.lam,
            nu=self.n,
            lam_e=self.lam_e,
            nbe=self.n - 1,
            theta0=None if theta0 is None else np.asarray(theta0, dtype=float).reshape(-1, 1),
            psi0=None if rho0 is None else np.array([[float(rho0)]]),
            x0=self.x0,
            xm0=self.xm0,
        )


@dataclass
class SisoNominal:
    """Matching controller parameters, available only with plant knowledge."""

    structure: Structure
    kp: float
    rho_star: float
    theta_star: np.ndarray
    blocks: dict = field(default_factory=dict)


def nominal_state_feedback(scenario):
    """Gains (k1, k2) of the matching state-feedback law u = k1^T x + k2 r.

    k2 = 1/kp and k1 places the closed-loop characteristic polynomial at
    Z(z) Pm(z); the gain is the closed form -kp^-1 c Pm(A), which is the
    unique such gain for a controllable pair.
    """
    plant = scenario.plant
    k0t, kpm = ref_input_from_state(plant, DiagonalInteractor([scenario.pm]))
    kp = float(kpm[0, 0])
    k1 = -(k0t[:, 0] / kp)
    k2 = 1.0 / kp
    return k1, k2, kp


def nominal_output_feedback(scenario):
    """Solve the polynomial matching identity for the output-feedback gains.

    Returns (theta1, theta2, theta20, theta3) with theta3 = 1/kp, from the
    linear system obtained by matching powers of z in

        theta1^T a(z) P(z) + (theta2^T a(z) + theta20 L(z)) kp Z(z)
            = L(z) (P(z) - kp theta3 Z(z) Pm(z)).
    """
    n = scenario.n
    kp, zpoly, ppoly = siso_transfer(scenario.plant)
    lam = scenario.lam
    theta3 = 1.0 / kp
    ncoef = 2 * n - 1  # powers z^0 .. z^(2n-2)

    def padded(coeffs):
        out = np.zeros(ncoef)
        c = np.asarray(coeffs, dtype=float)
        if c.size > ncoef and np.max(np.abs(c[ncoef:])) > 1e-12:
            raise AssertionError("matching identity degree overflow")
        out[: min(c.size, ncoef)] = c[:ncoef]
        return out

    cols = []
    for i in range(n - 1):  # theta1 columns: z^i P(z)
        cols.append(padded(np.convolve(np.eye(1, i + 1, i).ravel(), ppoly.coeffs)))
    kpz = kp * zpoly.coeffs
    for i in range(n - 1):  # theta2 columns: z^i kp Z(z)
        cols.append(padded(np.convolve(np.eye(1, i + 1, i).ravel(), kpz)))
    cols.append(padded(np.convolve(lam.coeffs, kpz)))  # theta20 column
    mat = np.column_stack(cols)
    zpm = np.convolve(zpoly.coeffs, scenario.pm.coeffs)  # monic, same length as P
    rhs = padded(np.convolve(lam.coeffs, ppoly.coeffs - (kp * theta3) * zpm))
    sv = np.linalg.svd(mat, compute_uv=False) if mat.size else np.array([1.0])
    if sv[-1] < 1e-9 * max(sv[0], 1.0):
        raise SingularMatchingSystem(
            "matching system is singular; plant numerator and denominator share a factor"
        )
    sol = np.linalg.solve(mat, rhs)
    theta1 = sol[: n - 1]
    theta2 = sol[n - 1 : 2 * n - 2]
    theta20 = float(sol[2 * n - 2])
    return theta1, theta2, theta20, theta3


def nominal_params(scenario):
    """Assemble theta* for the scenario's controller structure."""
    s = scenario.structure
    interactor = DiagonalInteractor([scenario.pm])
    a1, a2m = ref_input_from_state(scenario.refmodel, interactor)
    alpha1 = a1[:, 0]
    alpha2 = float(a2m[0, 0])
    blocks = {"alpha1": alpha1, "alpha2": alpha2}
    if s in (Structure.SF_YM, Structure.OF_YM):
        b1, b2, b20, _ = ref_input_from_io(
            scenario.refmodel, interactor, scenario.lam_e, scenario.n - 1
        )
        beta1 = b1[:, 0]
        beta2 = b2[:, 0]
        beta20 = float(b20[0, 0])
        blocks.update(beta1=beta1, beta2=beta2, beta20=beta20)
    if s in (Structure.SF_XM, Structure.SF_YM):
        k1, k2, kp = nominal_state_feedback(scenario)
        blocks.update(k1=k1, k2=k2)
        if s is Structure.SF_XM:
            theta = np.concatenate([k1, k2 * alpha1, [k2 * alpha2]])
        else:
            theta = np.concatenate(
                [k1, k2 * beta1, k2 * beta2, [k2 * beta20], [k2 * alpha2]]
            )
    else:
        theta1, theta2, theta20, theta3 = nominal_output_feedback(scenario)
        kp = 1.0 / theta3
        blocks.update(theta1=theta1, theta2=theta2, theta20=theta20, theta3=theta3)
        if s is Structure.OF_XM:
            theta = np.concatenate(
                [theta1, theta2, [theta20], theta3 * alpha1, [theta3 * alpha2]]
            )
        else:
            theta = np.concatenate(
                [
                    theta1,
                    theta2,
                    [theta20],
                    theta3 * beta1,
                    theta3 * beta2,
                    [theta3 * beta20],
                    [theta3 * alpha2],
                ]
            )
    return SisoNominal(
        structure=s, kp=kp, rho_star=kp, theta_star=theta, blocks=blocks
    )


@dataclass
class SisoGains:
    gamma_theta: np.ndarray = None  # SPD, default (1/kp_bound) I
    gamma_rho: float = 1.0

    def resolved(self, dim, kp_bound):
        g = self.gamma_theta
        if g is None:
            g = (1.0 / kp_bound) * np.eye(dim)
        elif np.isscalar(g):
            g = float(g) * np.eye(dim)
        else:
            g = np.atleast_2d(np.asarray(g, dtype=float))
        return g, float(self.gamma_rho)


def certificate_probe(scenario, nominal, gains=None):
    """V(theta~, rho~) evaluator for test-mode runs (plant knowledge needed), per step."""
    q = scenario.theta_dim
    gz, grho = (gains or SisoGains()).resolved(q, scenario.kp_bound)
    tstar = nominal.theta_star.reshape(-1, 1)
    kp = np.array([[nominal.kp]])
    sp = np.array([[float(scenario.sign_kp)]])
    v = engine.certificate(tstar, kp, gz, sp, np.array([[grho]]))

    def probe(theta, psi, e):
        return v(theta, psi)

    return probe


def identity_probe(nominal):
    """Residual of eps = rho* theta~^T zeta + rho~ xi (test mode), per step of a block."""
    kp = nominal.kp

    def probe(theta, psi, frame, e):
        pred = (kp * np.vecdot(theta[:, :, 0] - nominal.theta_star, frame.zeta)
                + (psi[:, 0, 0] - kp) * frame.xi[:, 0])
        return np.abs(frame.eps[:, 0] - pred)

    return probe


def run(scenario, adaptive=True, horizon=2000, gains=None, theta0=None, rho0=None,
        nominal=None, with_certificate=False):
    """Simulate the scenario's closed loop; returns a SimTrace.

    Nominal mode (adaptive=False) drives u = theta*^T omega and requires the
    matching parameters in `nominal`.  Adaptive mode never reads them; pass
    `nominal` with with_certificate=True only to record the Lyapunov
    certificate of a test-mode run.
    """
    q = scenario.theta_dim
    gains = gains or SisoGains()
    gz, grho = gains.resolved(q, scenario.kp_bound)
    if adaptive:
        law = GradientLaw(gz=gz, sp=[[float(scenario.sign_kp)]], gpsi=[[grho]],
                          gz_max=2.0 / scenario.kp_bound, gpsi_max=2.0)
        th0 = np.zeros(q) if theta0 is None else np.asarray(theta0, dtype=float)
        r0 = float(scenario.sign_kp) if rho0 is None else float(rho0)
    else:
        if nominal is None:
            nominal = nominal_params(scenario)
        law = None
        th0 = nominal.theta_star
        r0 = nominal.rho_star
    vprobe = None
    probes = None
    if with_certificate:
        if nominal is None:
            nominal = nominal_params(scenario)
        vprobe = certificate_probe(scenario, nominal, gains)
        probes = {"ident_resid": identity_probe(nominal)}
    spec = scenario.loop_spec(theta0=th0, rho0=r0)
    return engine.run_closed_loop(spec, law=law, horizon=horizon, vprobe=vprobe,
                                  probes=probes)
