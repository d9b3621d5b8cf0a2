"""Single-input single-output discrete-time adaptive tracking designs.

Four controller structures are supported: state feedback using the
reference system state, state feedback using only its input/output, and the
same two variants for output feedback.  The reference trajectory comes from
a state-space system whose parameters the controller never reads; the
equivalent reference input is reconstructed from measured reference signals
through a parametrized estimate.

The SISO scheme is the one-channel configuration of the multivariable one:
this module validates a SISO problem and maps it to a `mimo.MimoScenario`
with interactor [Pm], f = Pm, nu = n, nbe = n - 1, Sp = sign(kp),
Gamma = gamma_rho and the zeta-side gain gamma_theta.  Runs and matching
parameters come from `mimo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mimo
from .engine import Structure, check_gain, regressor_dim
from .errors import RelativeDegreeViolation, ValidationError
from .linsys import DiagonalInteractor, Polynomial, StateSpace, relative_degree, siso_transfer

# not called here: the benchmark's tracer test (perfbench/tests/test_perfbench.py)
# asserts that this module's namespace binds it
from .linsys import ref_input_from_io  # noqa: F401


@dataclass
class SisoGains:
    gamma_theta: np.ndarray = None  # SPD or scalar, default (1/kp_bound) I
    gamma_rho: float = 1.0


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
            raise ValidationError("domain", "SISO designs are discrete-time")
        if self.plant.n_inputs != 1 or self.plant.n_outputs != 1:
            raise ValidationError("plant", "must be SISO")
        if self.refmodel.n_inputs != 1 or self.refmodel.n_outputs != 1:
            raise ValidationError("refmodel", "must be SISO")
        tag = self.plant.domain.tag
        for name, poly in (("pm", self.pm), ("lam", self.lam), ("lam_e", self.lam_e)):
            if not poly.is_stable(tag):
                raise ValidationError(name, "polynomial is not stable for the domain")
        n = self.plant.n
        nstar = relative_degree(self.plant)
        if self.pm.degree != nstar or not self.pm.monic:
            raise ValidationError("pm", f"must be monic of degree n* = {nstar}")
        _, zpoly, _ = siso_transfer(self.plant)
        if not zpoly.is_stable(tag):
            raise ValidationError("plant", "zeros must be stable (minimum phase)")
        nmstar = relative_degree(self.refmodel)
        if nmstar < nstar:
            raise RelativeDegreeViolation(
                f"reference relative degree {nmstar} < plant relative degree {nstar}"
            )
        for name, poly in (("lam", self.lam), ("lam_e", self.lam_e)):
            if poly.degree != n - 1 or not poly.monic:
                raise ValidationError(name, f"must be monic of degree n-1 = {n - 1}")
        if self.sign_kp not in (-1.0, 1.0, -1, 1):
            raise ValidationError("sign_kp", "must be +-1")
        if self.kp_bound <= 0:
            raise ValidationError("kp_bound", "must be positive")

    @property
    def n(self):
        return self.plant.n

    @property
    def theta_dim(self):
        return regressor_dim(self.structure, self.n, 1, self.refmodel.n, nu=self.n,
                             nbe=self.n - 1)

    def as_mimo(self, gains=None):
        """The one-channel MimoScenario of this problem, with its adaptation gains.

        gamma_theta must lie below (2/kp_bound) I: with kp_bound >= |kp| that
        is the discrete-time law's |kp| gamma_theta < 2.
        """
        gains = gains or SisoGains()
        scn = mimo.MimoScenario(
            plant=self.plant, refmodel=self.refmodel, interactor=DiagonalInteractor([self.pm]),
            fpoly=self.pm, sp=[[float(self.sign_kp)]], structure=self.structure,
            nu=self.n, lam=self.lam, lam_e=self.lam_e, nbe=self.n - 1, gamma=gains.gamma_rho,
            gz=1.0 / self.kp_bound if gains.gamma_theta is None else gains.gamma_theta,
            um=self.um, x0=self.x0, xm0=self.xm0,
        )
        check_gain(scn.gz, 2.0 / self.kp_bound, "gz")
        return scn


def nominal_params(scenario):
    """Matching parameters of the one-channel scenario (plant knowledge needed)."""
    return mimo.nominal_params(scenario.as_mimo())


def run(scenario, adaptive=True, horizon=2000, gains=None, theta0=None, nominal=None,
        with_certificate=False):
    """Simulate the scenario's closed loop through `mimo.run`; returns a SimTrace.

    Nominal mode (adaptive=False) drives u = theta*^T omega and requires the
    matching parameters in `nominal`.  Adaptive mode never reads them; pass
    `nominal` with with_certificate=True only to record the Lyapunov
    certificate of a test-mode run.
    """
    return mimo.run(
        scenario.as_mimo(gains), adaptive=adaptive, horizon=horizon,
        theta0=None if theta0 is None else np.reshape(theta0, (-1, 1)),
        nominal=nominal, with_certificate=with_certificate,
    )
