"""Extreme correlations achievable by a pair of marginals.

For fixed marginals F_i, F_j the achievable correlations form a closed
interval.  Its endpoints are attained by inverse-transform coupling through
a single uniform U:

    rho_plus  = Corr(F_i^{-1}(U), F_j^{-1}(U))        (comonotone)
    rho_minus = Corr(F_i^{-1}(U), F_j^{-1}(1 - U))    (antithetic)

Both reduce to one-dimensional integrals of quantile products,

    Corr = (int_0^1 F_i^{-1}(u) F_j^{-1}(g(u)) du - mu_i mu_j) / (sigma_i sigma_j)

with g(u) = u or 1 - u.  For a pair of Bernoulli marginals the integrals
collapse to closed forms; every other pair is handled by adaptive quadrature
on (eps, 1 - eps).  Finite variance makes the truncated tails negligible:
with eps = 1e-12 the omitted mass contributes well under the 1e-8 tolerance
for every supported family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import DegenerateMarginalError, NumericalError, QuadratureError
from .marginals import MarginalSpec, moments, quantile, quantile_jumps

#: endpoint clip for quadrature panels
QUAD_EPS = 1e-12
#: absolute tolerance contract on each quantile-product integral
QUAD_ABS_TOL = 1e-8
#: extremes closer than this are treated as a degenerate (zero-width) interval
DEGENERATE_WIDTH = 1e-10

_QUAD_LIMIT = 400


@dataclass(frozen=True)
class CorrelationExtremes:
    """Closed correlation interval [rho_minus, rho_plus] for a marginal pair."""

    rho_minus: float
    rho_plus: float
    method: str  # "closed_form" or "quadrature"

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

    Bernoulli-Bernoulli pairs use the closed forms of
    :func:`bernoulli_corr_extremes`; all other pairs integrate the quantile
    products by adaptive quadrature to absolute tolerance 1e-8.  The pair is
    ordered canonically before computing, so the result is exactly symmetric
    in its arguments.

    Raises :class:`QuadratureError` if the integrator cannot certify the
    tolerance.
    """
    a, b = sorted((mi, mj), key=_sort_key)
    if a.family == "bernoulli" and b.family == "bernoulli":
        return bernoulli_corr_extremes(a.params[0], b.params[0])

    mu_a, sd_a = moments(a)
    mu_b, sd_b = moments(b)

    jumps_a = quantile_jumps(a)
    jumps_b = quantile_jumps(b)

    i_plus = _quantile_product_integral(a, b, antithetic=False,
                                        breakpoints=jumps_a + jumps_b)
    i_minus = _quantile_product_integral(a, b, antithetic=True,
                                         breakpoints=jumps_a + tuple(1.0 - t for t in jumps_b))

    rho_plus = _clip_corr((i_plus - mu_a * mu_b) / (sd_a * sd_b))
    rho_minus = _clip_corr((i_minus - mu_a * mu_b) / (sd_a * sd_b))
    if rho_minus > rho_plus:
        if rho_minus - rho_plus > 1e-9:
            raise NumericalError(
                f"quadrature produced rho_minus={rho_minus} > rho_plus={rho_plus}"
            )
        rho_minus = rho_plus
    return CorrelationExtremes(rho_minus, rho_plus, "quadrature")


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


def _quantile_product_integral(
    a: MarginalSpec,
    b: MarginalSpec,
    antithetic: bool,
    breakpoints: tuple[float, ...],
) -> float:
    """int_eps^{1-eps} F_a^{-1}(u) F_b^{-1}(u or 1-u) du, certified to 1e-8."""
    if antithetic:
        def f(u: float) -> float:
            return quantile(a, u) * quantile(b, 1.0 - u)
    else:
        def f(u: float) -> float:
            return quantile(a, u) * quantile(b, u)

    lo, hi = QUAD_EPS, 1.0 - QUAD_EPS
    points = sorted({t for t in breakpoints if lo < t < hi}) or None
    limit = _QUAD_LIMIT
    if points is not None and len(points) >= _QUAD_LIMIT:
        # quad needs more subintervals than breakpoints; keep the usual
        # refinement budget on top of the initial panels
        limit += len(points)
    result = quad(f, lo, hi, epsabs=QUAD_ABS_TOL * 1e-2, epsrel=1e-12,
                  limit=limit, points=points, full_output=True)
    value, abserr = result[0], result[1]
    if len(result) > 3 and abserr > QUAD_ABS_TOL:
        raise QuadratureError(
            f"quantile-product integral for ({a}, {b}) did not converge: "
            f"{result[3]} (abserr={abserr:.3g})",
            abserr=abserr,
        )
    if not math.isfinite(value) or abserr > QUAD_ABS_TOL:
        raise QuadratureError(
            f"quantile-product integral for ({a}, {b}) reached abserr={abserr:.3g}, "
            f"needed {QUAD_ABS_TOL}",
            abserr=abserr,
        )
    return value


def _clip_corr(x: float) -> float:
    return min(1.0, max(-1.0, x))


def _sort_key(m: MarginalSpec):
    return (m.family, m.params, m.values or (), m.weights or ())
