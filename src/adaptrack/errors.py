"""Exception types raised by the library."""


class AdaptrackError(Exception):
    """Base class for all library errors."""


class NoRelativeDegree(AdaptrackError):
    """All Markov parameters of an output row vanish up to the state order."""


class UnobservablePair(AdaptrackError):
    """(A, c) fails the observability rank test."""


class RelativeDegreeViolation(AdaptrackError):
    """Reference system relative degree is smaller than required."""


class NotHurwitz(AdaptrackError):
    """Matrix has an eigenvalue with nonnegative real part."""


class SingularMatchingSystem(AdaptrackError):
    """No output-feedback matching gains: a non-minimal plant, or nu too small."""


class SingularKp(AdaptrackError):
    """High-frequency gain matrix is singular."""


class GainBoundViolation(AdaptrackError):
    """Adaptation gain outside its admissible range."""


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
