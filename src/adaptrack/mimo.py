"""Multivariable adaptive tracking designs, unified over both time domains.

The plant interactor is restricted to the diagonal case diag{d_i(D)}.  The
reconstruction of the equivalent reference input, the controller structures
and the matrix normalized-gradient laws live here once: the single-output
module `siso` only validates its problem and maps it to a one-channel
`MimoScenario`.  A separate Lyapunov-design law covers continuous-time
plants whose channels all have relative degree one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import GradientLaw, Rd1Law, Structure, regressor_dim
from .errors import (
    DomainMismatch,
    GainBoundViolation,
    RelativeDegreeViolation,
    SingularKp,
    SingularMatchingSystem,
)
from .linsys import (
    DiagonalInteractor,
    Polynomial,
    StateSpace,
    lyapunov_solve_ct,
    ref_input_from_io,
    ref_input_from_state,
    relative_degree,
    siso_transfer,
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
    gz: np.ndarray = None  # zeta-side gain; default I
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
        self.gz = (np.eye(self.theta_dim) if self.gz is None
                   else np.atleast_2d(np.asarray(self.gz, dtype=float)))

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
    kp: np.ndarray
    theta_star: np.ndarray


def has_matching(structure, n, m, nu):
    """Whether nominal_params synthesizes Theta*: every state-feedback
    structure, and output feedback of one channel with nu = n."""
    return structure in (Structure.SF_XM, Structure.SF_YM) or (m == 1 and nu == n)


def nominal_output_feedback(scenario):
    """Solve the one-channel polynomial matching identity for the output-feedback gains.

    Returns (theta1, theta2, theta20, theta3) with theta3 = 1/kp, from the
    linear system obtained by matching powers of D in

        theta1^T a(D) P(D) + (theta2^T a(D) + theta20 L(D)) kp Z(D)
            = L(D) (P(D) - kp theta3 Z(D) Pm(D)),

    where Pm is the interactor row and nu = n.
    """
    n = scenario.n
    kp, zpoly, ppoly = siso_transfer(scenario.plant)
    lam = scenario.lam
    theta3 = 1.0 / kp
    ncoef = 2 * n - 1  # powers D^0 .. D^(2n-2)

    def padded(coeffs):
        out = np.zeros(ncoef)
        c = np.asarray(coeffs, dtype=float)
        if c.size > ncoef and np.max(np.abs(c[ncoef:])) > 1e-12:
            raise AssertionError("matching identity degree overflow")
        out[: min(c.size, ncoef)] = c[:ncoef]
        return out

    cols = []
    for i in range(n - 1):  # theta1 columns: D^i P(D)
        cols.append(padded(np.convolve(np.eye(1, i + 1, i).ravel(), ppoly.coeffs)))
    kpz = kp * zpoly.coeffs
    for i in range(n - 1):  # theta2 columns: D^i kp Z(D)
        cols.append(padded(np.convolve(np.eye(1, i + 1, i).ravel(), kpz)))
    cols.append(padded(np.convolve(lam.coeffs, kpz)))  # theta20 column
    mat = np.column_stack(cols)
    zpm = np.convolve(zpoly.coeffs, scenario.interactor.rows[0].coeffs)  # monic, as long as P
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
    """Assemble Theta* for the scenario's structure (plant knowledge needed).

    Theta* stacks K1, the reference-input blocks times K2^T and (K2 A2)^T.
    State feedback takes (K1, K2) from sf_nominal; output feedback takes
    K1 = [theta1; theta2; theta20] and K2 = theta3 from
    nominal_output_feedback, which covers one channel only.
    """
    s = scenario.structure
    if not has_matching(s, scenario.n, scenario.m, scenario.nu):
        raise NotImplementedError(
            "output-feedback matching gains are synthesized for one channel with nu = n"
        )
    if s in (Structure.OF_XM, Structure.OF_YM):
        theta1, theta2, theta20, theta3 = nominal_output_feedback(scenario)
        k1 = np.concatenate([theta1, theta2, [theta20]])[:, None]
        k2 = np.array([[theta3]])
        kp = np.linalg.inv(k2)
    else:
        k1, k2, kp = sf_nominal(scenario.plant, scenario.interactor)
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


def verify_gain_prior(kp, sp, domain, gz=None):
    """Check the known-gain assumption of the basic law against the true Kp.

    Kp Sp must be symmetric positive definite.  In discrete time the law also
    needs lambda_max(sym Kp Sp) lambda_max(sym gz) < 2: Kp Sp < 2I at the
    default gz = I, and |kp| gamma_theta < 2 for one channel.  Only possible
    with plant knowledge (test mode and the benchmark builders).
    """
    prod = kp @ sp
    if np.max(np.abs(prod - prod.T)) > 1e-9 * max(1.0, np.max(np.abs(prod))):
        raise GainBoundViolation("Kp Sp is not symmetric")
    ev = np.linalg.eigvalsh(0.5 * (prod + prod.T))
    if ev[0] <= 0:
        raise GainBoundViolation("Kp Sp is not positive definite")
    gz_max = 1.0 if gz is None else np.linalg.eigvalsh(0.5 * (gz + gz.T))[-1]
    if domain.is_dt and ev[-1] * gz_max >= 2.0:
        raise GainBoundViolation(
            f"Kp Sp must be below 2I / lambda_max(gz) = {2.0 / gz_max:.4g} I in discrete time")


def certificate_probe(scenario, nominal):
    """Gradient-law certificate V for test-mode runs, one value per step of a block."""
    v = engine.certificate(nominal.theta_star, nominal.kp, scenario.gz, scenario.sp,
                           scenario.gamma)

    def probe(theta, psi, e):
        return v(theta, psi)

    return probe


def identity_probe(nominal):
    """Residual of eps = Kp Theta~^T zeta + Psi~ xi (test mode), per step of a block."""

    def probe(theta, psi, frame, e):
        tz = np.einsum("kij,ki->kj", theta - nominal.theta_star, frame.zeta)
        pred = tz @ nominal.kp.T + np.einsum("kij,kj->ki", psi - nominal.kp, frame.xi)
        return np.abs(frame.eps - pred).max(axis=1)

    return probe


def rd1_certificate_probe(scenario, nominal, law):
    """V = e^T P e + tr[Theta~ Ms^-1 Theta~^T] with Ms = Kp^-1 S (test mode), per step."""
    ms = np.linalg.inv(nominal.kp) @ law.s
    ms_inv = np.linalg.inv(0.5 * (ms + ms.T))

    def probe(theta, psi, e):
        tht = theta - nominal.theta_star
        return np.vecdot(e @ law.p, e) + np.einsum("kij,kij->k", tht @ ms_inv, tht)

    return probe


def run(scenario, design="gradient", adaptive=True, horizon=2000, theta0=None,
        psi0=None, q_matrix=None, nominal=None, with_certificate=False):
    """Simulate the scenario; returns a SimTrace.

    design="gradient" is the basic normalized-gradient law in either domain;
    design="rd1" is the continuous-time Lyapunov law (state feedback,
    first-order interactor rows).  Nominal mode and certificates require the
    matching parameters: every state-feedback structure, and output feedback
    for one channel.
    """
    m, q = scenario.m, scenario.theta_dim
    dom = scenario.plant.domain
    if design == "rd1":
        if dom.is_dt:
            raise DomainMismatch("the relative-degree-one design is continuous-time")
        law = rd1_law(scenario.interactor, scenario.sp, q_matrix)
    elif design == "gradient":
        law = GradientLaw(gz=scenario.gz, sp=scenario.sp, gpsi=scenario.gamma,
                          gpsi_max=2.0 if dom.is_dt else None)
    else:
        raise ValueError(f"unknown design {design!r}")
    if nominal is None and (with_certificate or not adaptive):
        nominal = nominal_params(scenario)
    vprobe = probes = None
    if with_certificate:
        if design == "rd1":
            vprobe = rd1_certificate_probe(scenario, nominal, law)
        else:
            verify_gain_prior(nominal.kp, scenario.sp, dom, scenario.gz)
            vprobe = certificate_probe(scenario, nominal)
            probes = {"ident_resid": identity_probe(nominal)}
    if not adaptive:
        law, th0, ps0 = None, nominal.theta_star, np.zeros((m, m))
    else:
        th0 = np.zeros((q, m)) if theta0 is None else np.asarray(theta0, dtype=float)
        ps0 = scenario.sp.T.copy() if psi0 is None else np.asarray(psi0, dtype=float)
        if design == "rd1":
            ps0 = np.zeros((m, m))
    spec = scenario.loop_spec(theta0=th0, psi0=ps0)
    return engine.run_closed_loop(spec, law=law, horizon=horizon, vprobe=vprobe,
                                  probes=probes)
