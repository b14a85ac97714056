"""Domain error types raised across the library."""


class HyparrError(Exception):
    """Base class for all domain errors; the CLI maps these to exit code 1."""


class ZeroForm(HyparrError):
    """A hyperplane form is identically zero."""


class DuplicateHyperplane(HyparrError):
    """Two forms are proportional over the rationals (same hyperplane)."""


class NotEssential(HyparrError):
    """The forms do not span the full dual space (common intersection > {0})."""


class OnHyperplane(HyparrError):
    """A queried point lies on a hyperplane; carries the 1-based index."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"point lies on hyperplane {index}")


class UnknownFlat(HyparrError):
    """The given flat does not belong to the intersection lattice."""


class TooLarge(HyparrError):
    """Enumeration would exceed the configured hyperplane limit."""


class Infeasible(HyparrError):
    """An interior point was requested for an inconsistent system."""


class NotLocallyConsistent(HyparrError):
    """The sign vector fails consistency at some proper flat."""


class GloballyConsistent(HyparrError):
    """The sign vector is globally consistent (its sphere bounds a disk)."""


class WeightConditionViolated(HyparrError):
    """Monodromy weights fail the certificate conditions."""


class GenericityFailed(HyparrError):
    """Random draws exhausted the retry budget without a generic realization."""


class WitnessNotFound(HyparrError):
    """No verified locally-consistent, globally-inconsistent witness found."""


class RealizationInvalid(HyparrError):
    """A catalog arrangement failed its built-in incidence verification."""


class InternalError(HyparrError):
    """An internal invariant failed: a defect in hyparr, not in the input."""
