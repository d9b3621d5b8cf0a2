"""Exception types raised by the library."""


class AdaptrackError(Exception):
    """Base class for all library errors."""


class UnobservablePair(AdaptrackError):
    """(A, c) fails the observability rank test."""


class NotHurwitz(AdaptrackError):
    """Matrix has an eigenvalue with nonnegative real part."""


class SingularMatchingSystem(AdaptrackError):
    """No output-feedback matching gains: a non-minimal plant, or nu too small."""


class DomainMismatch(AdaptrackError):
    """Operation not defined for the time domain of its arguments."""


class SingularityGuard(AdaptrackError):
    """Estimated input-gain matrix fell below the invertibility guard."""

    def __init__(self, sigma_min, t):
        super().__init__(
            f"estimated input gain near singular (sigma_min={sigma_min:.3e} at t={t})"
        )
        self.sigma_min = sigma_min
        self.t = t


class ParseError(AdaptrackError):
    """Scenario file is malformed."""


class ValidationError(AdaptrackError):
    """Scenario content violates an invariant; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class GainBoundViolation(ValidationError):
    """Adaptation gain, or the gain prior against the true Kp, outside its admissible range."""


class RelativeDegreeViolation(ValidationError):
    """A row relative degree breaks the interactor: a plant row's differs from its
    interactor degree (field interactor[i]), or a reference row's lies below it
    (field refmodel)."""


class SingularKp(ValidationError):
    """High-frequency gain matrix of the plant is singular (field plant)."""
