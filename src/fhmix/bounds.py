"""Extreme correlations achievable by a pair of marginals.

They are attained by inverse-transform coupling through one uniform U:

    rho_plus  = Corr(F_i^{-1}(U), F_j^{-1}(U))        (comonotone)
    rho_minus = Corr(F_i^{-1}(U), F_j^{-1}(1 - U))    (antithetic)

Correlation ignores location and scale, so both are integrals of products of
standardized quantiles q(u) = (F^{-1}(u) - mu) / sigma, exact through the
elementary primitives G(u) = int_0^u q of every family.  Two continuous
families give a shape constant (Demirtas & Hedeker 2011).  The
normal/exponential one, int phi^2 / (1 - Phi), has no elementary form and is
written out to double precision from a 40-digit mpmath value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri, xlogy

from .errors import DegenerateMarginalError, NumericalError
from .marginals import MarginalSpec, _empirical_cum_weights, _empirical_standardization
# ``quantile`` stays importable from here: bench/tracing.py wraps it by name
from .marginals import quantile  # noqa: F401

#: extremes closer than this are treated as a degenerate (zero-width) interval
DEGENERATE_WIDTH = 1e-10

_DISCRETE = ("bernoulli", "empirical")

# (rho_minus, rho_plus) of two continuous shapes, keyed by the sorted family pair
_SHAPE_EXTREMES = {
    ("exponential", "exponential"): (1.0 - math.pi ** 2 / 6.0, 1.0),
    # the normal quantile is odd, so the interval is symmetric
    ("exponential", "normal"): (-0.9031972855686253, 0.9031972855686253),
    ("exponential", "uniform"): (-math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 2.0),
    ("normal", "normal"): (-1.0, 1.0),
    ("normal", "uniform"): (-math.sqrt(3.0 / math.pi), math.sqrt(3.0 / math.pi)),
    ("uniform", "uniform"): (-1.0, 1.0),
}


@dataclass(frozen=True)
class CorrelationExtremes:
    """Closed correlation interval [rho_minus, rho_plus] for a marginal pair."""

    rho_minus: float
    rho_plus: float
    method: str  # always "closed_form"; kept as a field of the public record

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho_minus) and math.isfinite(self.rho_plus)):
            raise NumericalError(
                f"non-finite correlation extremes ({self.rho_minus}, {self.rho_plus})"
            )
        if self.rho_minus > self.rho_plus:
            raise NumericalError(
                f"rho_minus={self.rho_minus} exceeds rho_plus={self.rho_plus}"
            )

    @property
    def width(self) -> float:
        return self.rho_plus - self.rho_minus

    @property
    def degenerate(self) -> bool:
        """True when the interval has (numerically) zero width."""
        return self.width < DEGENERATE_WIDTH

    def contains(self, rho: float, slack: float = 1e-9) -> bool:
        return self.rho_minus - slack <= rho <= self.rho_plus + slack


def corr_extremes(mi: MarginalSpec, mj: MarginalSpec) -> CorrelationExtremes:
    """Minimum and maximum achievable correlation between two marginals.

    Exact on the standardized marginals, so invariant under location and
    scale; ``method`` is ``"closed_form"`` for every pair.  The pair is
    ordered canonically before computing, so the result is exactly
    symmetric in its arguments.
    """
    a, b = sorted((mi, mj), key=_sort_key)
    if a.family == "bernoulli" and b.family == "bernoulli":
        return bernoulli_corr_extremes(a.params[0], b.params[0])

    if a.family not in _DISCRETE:  # discrete families sort first
        return CorrelationExtremes(*_SHAPE_EXTREMES[a.family, b.family], "closed_form")

    z, c = _standard_atoms(a)
    # Q_a = z[k] on (c[k], c[k + 1]], where q_b(1 - u) integrates q_b over [1 - c[k + 1], 1 - c[k])
    g_plus, g_minus = _primitive(b, np.stack((c, 1.0 - c)))
    rho_plus = _clip_corr(float(z @ np.diff(g_plus)))
    rho_minus = _clip_corr(-float(z @ np.diff(g_minus)))
    if rho_minus > rho_plus:
        if rho_minus - rho_plus > 1e-9:
            raise NumericalError(f"rho_minus={rho_minus} exceeds rho_plus={rho_plus}")
        rho_minus = rho_plus
    return CorrelationExtremes(rho_minus, rho_plus, "closed_form")


def bernoulli_corr_extremes(p: float, q: float) -> CorrelationExtremes:
    """Closed-form correlation extremes for Bern(p) and Bern(q) marginals.

    With denominator sqrt(p q (1-p)(1-q)):

        rho_minus = ((p + q - 1) * 1(p + q > 1) - p q) / denom
        rho_plus  = (min(p, q) - p q) / denom

    Raises :class:`DegenerateMarginalError` if p or q is 0 or 1 (zero
    variance).
    """
    for name, value in (("p", p), ("q", q)):
        if not 0.0 < value < 1.0:
            raise DegenerateMarginalError(
                f"{name}={value} gives a zero-variance Bernoulli marginal"
            )
    denom = math.sqrt(p * q * (1.0 - p) * (1.0 - q))
    lower_e = (p + q - 1.0) if p + q > 1.0 else 0.0
    rho_minus = _clip_corr((lower_e - p * q) / denom)
    rho_plus = _clip_corr((min(p, q) - p * q) / denom)
    return CorrelationExtremes(rho_minus, rho_plus, "closed_form")


def _standard_atoms(m: MarginalSpec) -> tuple[np.ndarray, np.ndarray]:
    """Standardized atoms z of a discrete marginal and its breakpoints
    c = [0, ..., 1]: the quantile is z[k] on u in (c[k], c[k + 1]]."""
    if m.family == "bernoulli":
        (p,) = m.params
        return np.array([-p, 1.0 - p]) / math.sqrt(p * (1.0 - p)), np.array([0.0, 1.0 - p, 1.0])
    _, sd, d = _empirical_standardization(m)
    return d / sd, np.concatenate(([0.0], _empirical_cum_weights(m)))


def _primitive(m: MarginalSpec, u: np.ndarray) -> np.ndarray:
    """G(u) = int_0^u q, with G(0) = G(1) = 0, of the standardized quantile q of m."""
    if m.family in _DISCRETE:  # piecewise linear between the breakpoints
        z, c = _standard_atoms(m)
        return np.interp(u, c, np.concatenate(([0.0], np.cumsum(z * np.diff(c)))))
    if m.family == "uniform":  # q(u) = sqrt(3) (2u - 1)
        return -math.sqrt(3.0) * u * (1.0 - u)
    if m.family == "exponential":  # q(u) = -log(1 - u) - 1
        return xlogy(1.0 - u, 1.0 - u)
    z = ndtri(np.minimum(u, 1.0 - u))  # normal: G(u) = -phi(Phi^-1(u)), even about 1/2
    return -np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _clip_corr(x: float) -> float:
    return min(1.0, max(-1.0, x))


def _sort_key(m: MarginalSpec):
    return (m.family, m.params, m.values or (), m.weights or ())


def __getattr__(name: str):
    # ``quad`` loads scipy.integrate on lookup only, for bench/tracing.py, which wraps
    # it by name; it goes with those wrappers (the observability item on ROADMAP.md)
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
