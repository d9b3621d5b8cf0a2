"""Adaptive output tracking when the reference trajectory comes from a
system with unknown parameters.

Subpackages by role: `linsys` (polynomials, state spaces, filters, the
reference-input parametrizations), `mimo` (unified multivariable designs in
both domains), `siso` (discrete-time single-channel designs, validated and
run as the one-channel configuration of `mimo`), `feedback_lin` (nonlinear
leader-follower tracking), `harness`/`cli` (scenario files, metrics,
persistence), `benchmarks` (ready systems).
"""

from .engine import SimTrace, Structure
from .errors import (
    AdaptrackError,
    DomainMismatch,
    GainBoundViolation,
    NotHurwitz,
    ParseError,
    RelativeDegreeViolation,
    SingularityGuard,
    SingularKp,
    SingularMatchingSystem,
    UnobservablePair,
    ValidationError,
)
from .linsys import (
    DiagonalInteractor,
    Domain,
    FilterBank,
    Polynomial,
    RationalFilter,
    StateSpace,
    TimeDomain,
    ct,
    dt,
    lyapunov_solve_ct,
    markov_params,
    ref_input_from_io,
    ref_input_from_state,
    relative_degree,
)
from .signals import Channel, RefInput, Sinusoid, multisine

__version__ = "0.1.0"

__all__ = [
    "AdaptrackError", "Channel", "DiagonalInteractor", "Domain", "DomainMismatch",
    "FilterBank", "GainBoundViolation", "NotHurwitz",
    "ParseError", "Polynomial", "RationalFilter", "RefInput",
    "RelativeDegreeViolation", "SimTrace", "SingularKp", "SingularMatchingSystem",
    "SingularityGuard", "Sinusoid", "StateSpace", "Structure", "TimeDomain",
    "UnobservablePair", "ValidationError", "ct", "dt", "lyapunov_solve_ct",
    "markov_params", "multisine", "ref_input_from_io", "ref_input_from_state",
    "relative_degree",
]
