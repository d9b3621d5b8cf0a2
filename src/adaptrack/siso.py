"""Single-input single-output discrete-time adaptive tracking designs.

Four controller structures are supported: state feedback using the
reference system state, state feedback using only its input/output, and the
same two variants for output feedback.  The reference trajectory comes from
a state-space system whose parameters the controller never reads; the
equivalent reference input is reconstructed from measured reference signals
through a parametrized estimate.

The SISO scheme is the one-channel configuration of the multivariable one:
`scenario` checks what is particular to a SISO problem and builds the
`mimo.MimoScenario` with interactor [Pm], f = Pm, nu = n, nbe = n - 1,
Sp = sign(kp), Gamma = gamma_rho and the zeta-side gain gamma_theta.  Runs,
matching parameters and the plant checks come from `mimo`: building the
one-channel scenario checks that Pm has the plant's relative degree (field
interactor[0]), that the plant is minimum phase (field plant), and that the
reference model is SISO, in the plant's domain, with a relative degree of
at least Pm's (field refmodel).
"""

from __future__ import annotations

from . import mimo
from .engine import Structure, check_gain
from .errors import ValidationError
from .linsys import DiagonalInteractor

# not called here: the benchmark's tracer test (perfbench/tests/test_perfbench.py)
# asserts that this module's namespace binds it
from .linsys import ref_input_from_io  # noqa: F401

# not called here: the benchmark's tracer (perfbench/tracer.py) wraps this binding
from .mimo import nominal_params  # noqa: F401


def scenario(plant, refmodel, pm, lam, lam_e, structure=Structure.SF_XM, sign_kp=1.0,
             kp_bound=2.0, um=None, x0=None, xm0=None, gamma_theta=None, gamma_rho=1.0):
    """The one-channel MimoScenario of a discrete-time SISO tracking problem.

    pm is stable monic of the plant's relative degree; lam and lam_e, the
    output-feedback and reference-signal filter denominators, are monic
    stable of degree n - 1.  kp_bound > 0 bounds |kp|, and gamma_theta (SPD
    or scalar, default (1/kp_bound) I) must lie below (2/kp_bound) I: that
    is the discrete-time law's |kp| gamma_theta < 2.  A failure raises
    ValidationError naming the argument, gz for gamma_theta.
    """
    if not plant.domain.is_dt:
        raise ValidationError("domain", "SISO designs are discrete-time")
    if plant.n_inputs != 1 or plant.n_outputs != 1:
        raise ValidationError("plant", "must be SISO")
    n = plant.n
    for name, poly in (("lam", lam), ("lam_e", lam_e)):
        if poly.degree != n - 1 or not poly.monic:
            raise ValidationError(name, f"must be monic of degree n-1 = {n - 1}")
    if sign_kp not in (-1.0, 1.0):
        raise ValidationError("sign_kp", "must be +-1")
    if kp_bound <= 0:
        raise ValidationError("kp_bound", "must be positive")
    scn = mimo.MimoScenario(
        plant=plant, refmodel=refmodel, interactor=DiagonalInteractor([pm]), fpoly=pm,
        sp=[[float(sign_kp)]], structure=structure, nu=n, lam=lam, lam_e=lam_e, nbe=n - 1,
        gamma=gamma_rho, gz=1.0 / kp_bound if gamma_theta is None else gamma_theta,
        um=um, x0=x0, xm0=xm0,
    )
    check_gain(scn.gz, 2.0 / kp_bound, "gz")
    return scn
