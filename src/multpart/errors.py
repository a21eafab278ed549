"""Exception hierarchy for multpart.

Every error raised deliberately by the package derives from MultpartError,
so callers can catch one base class. The CLI maps subfamilies to exit codes.
"""

from __future__ import annotations


class MultpartError(Exception):
    """Base class for all multpart errors."""


class ParamError(MultpartError):
    """A constructor or command argument is malformed: of the wrong type,
    an unknown name, or a count, size or budget out of its range."""


class UnknownNameError(ParamError):
    """A catalog or suite name is not recognized."""


class ConfigError(ParamError):
    """An ensemble config document failed validation.

    The message names the offending field path.
    """


class DomainError(MultpartError):
    """An evaluation point lies outside the mathematical domain; every tilt
    x outside [0, rho) raises it (Ensemble.check_tilt)."""


class RegimeError(MultpartError):
    """The requested quantity is undefined in this ensemble's regime; the
    message names the hypothesis that decided it (Ensemble.require)."""


class NegativeCoefficientError(MultpartError):
    """A series power produced a negative coefficient.

    Raised when f**b is not an admissible series (some coefficient of the
    expansion is negative), which makes the would-be count law signed.
    """


class QuadratureError(MultpartError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class ConvergenceError(MultpartError):
    """An iterative solver ran out of iterations before its tolerance."""


class TailError(MultpartError):
    """A count-law tail scan exceeded its support budget."""


class BudgetExhausted(MultpartError):
    """A rejection sampler used its full attempt budget without accepting.

    Attributes carry the attempt count and the (possibly zero) empirical
    acceptance rate so callers can distinguish bad luck from structural
    obstructions (e.g. gcd-supported part sets where no partition of n
    exists at all).
    """

    def __init__(self, message: str, attempts: int = 0, budget: int = 0,
                 acceptance_estimate: float = 0.0):
        super().__init__(message)
        self.attempts = attempts
        self.budget = budget
        self.acceptance_estimate = acceptance_estimate


class EmptySupportError(BudgetExhausted):
    """No partition of the requested weight carries positive mass."""


class TableError(MultpartError):
    """A coefficient table is missing data the operation needs."""


class FitUnstable(MultpartError):
    """A regression used by a diagnostic is degenerate."""
