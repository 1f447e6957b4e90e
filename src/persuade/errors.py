"""Exception types shared across the package.

Validation problems are collected as ValidationIssue records so a caller
sees every defect at once; everything else is a plain exception raised at
the point of failure.
"""

from __future__ import annotations

from ._record import record


class PersuadeError(Exception):
    """Base class for all package-specific errors."""


@record
class ValidationIssue:
    """One violated input invariant.

    Attributes:
        code: stable machine-readable name, e.g. "ProbabilityNotNormalized".
        location: where in the input the problem sits, e.g. "states[3].prob".
        message: human-readable description.
    """

    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.location}: {self.message}"


class ValidationFailed(PersuadeError):
    """Raised when an instance fails validation; carries every issue found."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class MalformedRational(PersuadeError):
    """A numeric field could not be parsed as an exact rational."""


class NotSymmetric(PersuadeError):
    """An operation requiring an action-symmetric instance got an asymmetric one."""


class WrongActionCount(PersuadeError):
    """An operation was applied to an instance with an unsupported action count."""


class SizeLimitExceeded(PersuadeError):
    """The instance would create more LP columns than the configured cap."""


class InvalidSetting(PersuadeError):
    """An environment variable read by the package holds an unusable value."""


class CharacterizationMismatch(PersuadeError):
    """A closed-form construction failed to reproduce the LP optimum."""


class InconsistentPayments(PersuadeError):
    """Expected payments cannot be turned into per-recommendation prices."""


class PositiveExternalityViolated(PersuadeError):
    """An operation requiring positive externalities got an instance without them."""


class NonMonotoneSender(PersuadeError):
    """An operation requiring a monotone sender payoff got a non-monotone one."""


class GenerationFailed(PersuadeError):
    """A random generator could not produce an instance under the given flags."""


class IterationLimit(PersuadeError):
    """An iterative procedure exceeded its bound; indicates a bug or bad input."""


class CertificateFailed(PersuadeError):
    """A solver's answer failed its independent optimality certificate."""


class OracleUnsound(PersuadeError):
    """A separation oracle missed a violated constraint it should have found."""


class UnknownExample(PersuadeError):
    """Requested built-in example name does not exist."""
