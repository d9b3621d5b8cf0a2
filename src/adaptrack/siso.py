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
Gamma = gamma_rho and the zeta-side gain gamma_theta.  Runs, matching
parameters and the plant checks come from `mimo`: building the one-channel
scenario checks that Pm has the plant's relative degree (field
interactor[0]), that the plant is minimum phase (field plant) and that the
reference model's relative degree is at least Pm's (field refmodel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mimo
from .engine import Structure, check_gain, regressor_dim
from .errors import ValidationError
from .linsys import DiagonalInteractor, Polynomial, StateSpace

# not called here: the benchmark's tracer test (perfbench/tests/test_perfbench.py)
# asserts that this module's namespace binds it
from .linsys import ref_input_from_io  # noqa: F401


@dataclass
class SisoGains:
    gamma_theta: np.ndarray = None  # SPD or scalar, default (1/kp_bound) I
    gamma_rho: float = 1.0


@dataclass
class SisoScenario:
    """A discrete-time SISO tracking problem plus the design choices for it.

    The plant assumptions are checked where as_mimo builds its MimoScenario.
    """

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
        n = self.plant.n
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

