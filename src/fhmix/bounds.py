"""Extreme correlations achievable by a pair of marginals.

They are attained by inverse-transform coupling through one uniform U:

    rho_plus  = Corr(F_i^{-1}(U), F_j^{-1}(U))        (comonotone)
    rho_minus = Corr(F_i^{-1}(U), F_j^{-1}(1 - U))    (antithetic)

Correlation ignores location and scale, so both are integrals of products of
standardized quantiles q(u) = (F^{-1}(u) - mu) / sigma, exact through the
elementary primitives G(u) = int_0^u q of every family.  A discrete
marginal's breakpoints are read from the nearer end, so tiny masses in its
tails stay exact.  Two continuous families give a shape constant (Demirtas &
Hedeker 2011).  The normal/exponential one, int phi^2 / (1 - Phi), has no
elementary form and is written out to double precision from a 40-digit
mpmath value.

The primitives are evaluated at a discrete marginal's few breakpoints by
scalar standard-library calls, and the sums over the atoms are correctly
rounded by ``math.fsum``, so the extremes, and the plans built on them, do
not depend on which of numpy's SIMD paths or OpenBLAS's kernels the CPU takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateMarginalError, NumericalError
from .marginals import MarginalSpec, _empirical_standardization
# ``quantile`` stays importable from here: bench/tracing.py wraps it by name
from .marginals import quantile  # noqa: F401

#: extremes closer than this are treated as a degenerate (zero-width) interval
DEGENERATE_WIDTH = 1e-10

_DISCRETE = ("bernoulli", "empirical")
_STANDARD_NORMAL = NormalDist()
_SQRT_2PI = math.sqrt(2.0 * math.pi)

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
    scale.  The pair is ordered canonically before computing, so the result
    is exactly symmetric in its arguments.
    """
    a, b = sorted((mi, mj), key=_sort_key)
    if a.family == "bernoulli" and b.family == "bernoulli":
        return bernoulli_corr_extremes(a.params[0], b.params[0])

    if a.family not in _DISCRETE:  # discrete families sort first
        return CorrelationExtremes(*_SHAPE_EXTREMES[a.family, b.family])

    z, w = _standard_atoms(a)
    u, v = _breakpoints(w)
    # Q_a = z[k] on (u[k], u[k + 1]], where q_b(1 - u) integrates q_b over the mirrored
    # breakpoints, (v[k + 1], v[k]]
    rho_plus = _clip_corr(math.fsum((z * np.diff(_primitive(b, u, v))).tolist()))
    rho_minus = _clip_corr(-math.fsum((z * np.diff(_primitive(b, v, u))).tolist()))
    if 0.0 < rho_minus - rho_plus <= 1e-9:  # rounding at a zero-width interval
        rho_minus = rho_plus
    return CorrelationExtremes(rho_minus, rho_plus)


def bernoulli_corr_extremes(p: float, q: float) -> CorrelationExtremes:
    """Closed-form correlation extremes for Bern(p) and Bern(q) marginals.

    The covariances min(p, q) - p q and max(0, p + q - 1) - p q over
    sqrt(p q (1-p)(1-q)) reduce, for p <= q, to ratios with no difference
    to cancel and no four-fold product to underflow at extreme p and q:

        rho_plus  =  sqrt(p (1-q) / (q (1-p)))
        rho_minus = -sqrt(p q / ((1-p)(1-q)))    if p <= 1 - q
                    -sqrt((1-p)(1-q) / (p q))    otherwise

    Raises :class:`DegenerateMarginalError` if p or q is 0 or 1 (zero
    variance).
    """
    for name, value in (("p", p), ("q", q)):
        if not 0.0 < value < 1.0:
            raise DegenerateMarginalError(
                f"{name}={value} gives a zero-variance Bernoulli marginal"
            )
    p, q = min(p, q), max(p, q)
    if p <= 1.0 - q:
        rho_minus = -math.sqrt(p * q / ((1.0 - p) * (1.0 - q)))
    else:
        rho_minus = -math.sqrt((1.0 - p) * (1.0 - q) / (p * q))
    rho_plus = math.sqrt(p * (1.0 - q) / (q * (1.0 - p)))
    return CorrelationExtremes(_clip_corr(rho_minus), _clip_corr(rho_plus))


def _standard_atoms(m: MarginalSpec) -> tuple[np.ndarray, np.ndarray]:
    """Standardized atoms z of a discrete marginal and their weights."""
    if m.family == "bernoulli":
        (p,) = m.params
        return np.array([-p, 1.0 - p]) / math.sqrt(p * (1.0 - p)), np.array([1.0 - p, p])
    _, sd, d = _empirical_standardization(m)
    return d / sd, np.asarray(m.weights)


def _sides(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mass to the left and to the right of each breakpoint of atoms with
    weights w, each summed from its own end, so that it is exact where it is small."""
    return (np.concatenate(([0.0], np.cumsum(w))),
            np.concatenate((np.cumsum(w[::-1])[::-1], [0.0])))


def _breakpoints(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints u = [0, ..., 1] of atoms with weights w, and v = 1 - u: each
    keeps the smaller of its two sides as summed, and the other is 1 minus it."""
    left, right = _sides(w)
    small = left <= right
    return np.where(small, left, 1.0 - right), np.where(small, 1.0 - left, right)


def _primitive(m: MarginalSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """G(u) = int_0^u q, with G(0) = G(1) = 0, of the standardized quantile q of m,
    at points given as u and v = 1 - u, the smaller of which is exact."""
    if m.family in _DISCRETE:  # piecewise linear between the breakpoints, from the nearer end
        z, w = _standard_atoms(m)
        left, right = _sides(w)
        zw = z * w
        g_left = np.concatenate(([0.0], np.cumsum(zw)))
        g_right = -np.concatenate((np.cumsum(zw[::-1])[::-1], [0.0]))
        return np.where(u <= v, np.interp(u, left, g_left),
                        np.interp(v, right[::-1], g_right[::-1]))
    if m.family == "uniform":  # q(u) = sqrt(3) (2u - 1)
        return -math.sqrt(3.0) * u * v
    # a handful of breakpoints per pair: scalar standard-library calls cost
    # less than a numpy call each, and their bits do not follow numpy's SIMD paths
    if m.family == "exponential":  # q(u) = -log(1 - u) - 1, so G = v log v
        return np.array([b * math.log1p(-a) if a <= b else b * math.log(b) if b else 0.0
                         for a, b in zip(u.tolist(), v.tolist())])
    # normal: G(u) = -phi(Phi^-1(u)), even about 1/2, and 0 at u = 0 and 1
    return np.array([_normal_primitive(min(a, b)) for a, b in zip(u.tolist(), v.tolist())])


def _normal_primitive(p: float) -> float:
    """-phi(Phi^-1(p)), the normal's G, at p in [0, 1/2]."""
    if p == 0.0:
        return 0.0
    z = _STANDARD_NORMAL.inv_cdf(p)
    return -math.exp(-0.5 * z * z) / _SQRT_2PI


def _clip_corr(x: float) -> float:
    if math.isnan(x):
        raise NumericalError("a correlation extreme evaluated to NaN")
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
