"""Semantic exception hierarchy for fhmix.

Public functions raise these instead of bare ValueError/RuntimeError so
callers can distinguish contract violations (bad inputs) from mathematical
infeasibility and from numerical trouble.
"""

from __future__ import annotations


class FhmixError(Exception):
    """Base class for all fhmix errors."""


class DomainError(FhmixError, ValueError):
    """An argument lies outside its mathematical domain (e.g. u not in (0,1))."""


class InvalidMarginalError(FhmixError, ValueError):
    """Marginal parameters violate the family domain or give zero variance."""


class DegenerateMarginalError(FhmixError, ValueError):
    """A marginal has zero variance, so correlation with it is undefined."""


class InvalidMatrixError(FhmixError, ValueError):
    """A matrix argument is not symmetric / unit-diagonal / within range."""


class InvalidDistributionError(FhmixError, ValueError):
    """Probability vector entries are materially negative or do not sum to 1."""


class InfeasibleError(FhmixError):
    """The requested joint law does not exist (constraint named in message)."""


class UnachievableCorrelationError(FhmixError, ValueError):
    """A target correlation lies outside its Frechet-Hoeffding interval."""

    def __init__(self, message: str, rho: float, rho_minus: float, rho_plus: float):
        super().__init__(message)
        self.rho = rho
        self.rho_minus = rho_minus
        self.rho_plus = rho_plus


class CapacityError(FhmixError, ValueError):
    """Dimension exceeds what the implementation supports."""


class NumericalError(FhmixError, FloatingPointError):
    """An internal numerical invariant failed (should not happen on valid input)."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to reach the requested tolerance.

    fhmix no longer raises it: every correlation extreme has a closed form.
    It stays as public API, so callers that catch it keep working.
    """

    def __init__(self, message: str, abserr: float | None = None):
        super().__init__(message)
        self.abserr = abserr


class ConfigError(FhmixError, ValueError):
    """A job configuration file is malformed or inconsistent."""
