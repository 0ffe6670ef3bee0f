"""Univariate marginal distributions, represented by their quantile functions.

A marginal is described by a :class:`MarginalSpec` naming one of five
families.  All downstream machinery touches a marginal only through
``quantile`` (the pseudoinverse cdf, ``inf{x : F(x) >= u}``) and ``moments``
(exact mean and standard deviation), so every family must provide both in
closed form.  Families with infinite or zero variance are rejected at
construction: correlation targets are meaningless for them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import inversion
from .errors import DomainError, InvalidMarginalError

#: family name -> parameter names, in the order its MarginalSpec constructor
#: takes them; config files use these names as keys
_FAMILY_FIELDS = {
    "uniform": ("a", "b"),
    "exponential": ("rate",),
    "normal": ("mean", "sd"),
    "bernoulli": ("p",),
    "empirical": ("values", "weights"),
}
FAMILIES = tuple(_FAMILY_FIELDS)

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class MarginalSpec:
    """A named univariate distribution with finite, strictly positive variance.

    Construct via the family classmethods (``MarginalSpec.uniform(0, 1)``,
    ``MarginalSpec.exponential(2.0)``, ...) rather than positionally; the
    constructor validates family-specific parameter domains.

    Instances are immutable and hashable, safe to share across threads.
    """

    family: str
    params: tuple[float, ...] = ()
    values: tuple[float, ...] | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidMarginalError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        names = () if self.family == "empirical" else _FAMILY_FIELDS[self.family]
        if len(self.params) != len(names):
            raise InvalidMarginalError(
                f"{self.family} params must be ({', '.join(names)}), got {self.params}")
        getattr(self, f"_check_{self.family}")()

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, a: float, b: float) -> "MarginalSpec":
        """Continuous uniform on [a, b], a < b."""
        return cls("uniform", (float(a), float(b)))

    @classmethod
    def exponential(cls, rate: float) -> "MarginalSpec":
        """Exponential with rate > 0 (mean 1/rate)."""
        return cls("exponential", (float(rate),))

    @classmethod
    def normal(cls, mean: float, sd: float) -> "MarginalSpec":
        """Normal with standard deviation sd > 0."""
        return cls("normal", (float(mean), float(sd)))

    @classmethod
    def bernoulli(cls, p: float) -> "MarginalSpec":
        """Bernoulli 0/1 with success probability p in (0, 1)."""
        return cls("bernoulli", (float(p),))

    @classmethod
    def empirical(
        cls,
        values: "list[float] | tuple[float, ...]",
        weights: "list[float] | tuple[float, ...] | None" = None,
    ) -> "MarginalSpec":
        """Discrete distribution on the given values.

        Weights default to uniform and must sum to 1 within 1e-12.  Tied
        values are merged by summing their weights; values are stored sorted,
        so the quantile is the right-continuous step inverse.
        """
        vals = [float(v) for v in values]
        if not vals:
            raise InvalidMarginalError("empirical marginal needs at least one value")
        if weights is None:
            wts = [1.0 / len(vals)] * len(vals)
        else:
            wts = [float(w) for w in weights]
        if len(wts) != len(vals):
            raise InvalidMarginalError(
                f"{len(vals)} values but {len(wts)} weights"
            )
        merged: dict[float, float] = {}
        for v, w in zip(vals, wts):
            if not math.isfinite(v):
                raise InvalidMarginalError(f"non-finite empirical value {v!r}")
            if not math.isfinite(w) or w < 0.0:
                raise InvalidMarginalError(f"invalid weight {w!r}")
            merged[v] = merged.get(v, 0.0) + w
        total = math.fsum(merged.values())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidMarginalError(
                f"weights sum to {total!r}, expected 1 within {_WEIGHT_SUM_TOL}"
            )
        pairs = sorted((v, w / total) for v, w in merged.items() if w > 0.0)
        return cls(
            "empirical",
            (),
            values=tuple(v for v, _ in pairs),
            weights=tuple(w for _, w in pairs),
        )

    # -- validation ---------------------------------------------------------

    def _check_uniform(self) -> None:
        a, b = self.params
        if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
            raise InvalidMarginalError(f"uniform requires finite a < b, got ({a}, {b})")

    def _check_exponential(self) -> None:
        (rate,) = self.params
        if not math.isfinite(rate) or rate <= 0.0:
            raise InvalidMarginalError(f"exponential rate must be > 0, got {rate}")

    def _check_normal(self) -> None:
        mean, sd = self.params
        if not (math.isfinite(mean) and math.isfinite(sd)) or sd <= 0.0:
            raise InvalidMarginalError(f"normal requires finite mean and sd > 0, got ({mean}, {sd})")

    def _check_bernoulli(self) -> None:
        (p,) = self.params
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise InvalidMarginalError(f"bernoulli p must be in [0,1], got {p}")
        if p in (0.0, 1.0):
            raise InvalidMarginalError(
                f"bernoulli p={p} has zero variance; correlation is undefined"
            )

    def _check_empirical(self) -> None:
        if self.values is None or self.weights is None:
            raise InvalidMarginalError("empirical marginal missing values/weights")
        if len(self.values) < 2:
            raise InvalidMarginalError(
                "empirical marginal needs >= 2 distinct values (zero variance otherwise)"
            )

    @functools.cached_property
    def _levels(self) -> tuple[np.ndarray, ...]:
        """Search tables over an empirical's cumulative weights, built on
        first use."""
        return inversion.levels(_empirical_cum_weights(self))

    def __str__(self) -> str:
        if self.family == "empirical":
            return f"empirical({len(self.values or ())} atoms)"
        return f"{self.family}({', '.join(repr(p) for p in self.params)})"


def quantile(m: MarginalSpec, u):
    """Pseudoinverse cdf ``inf{x : F(x) >= u}`` evaluated at ``u`` in (0, 1).

    Accepts a scalar or an ndarray and returns the same shape.  Endpoint
    values 0 and 1 are rejected (they would map to infinities for unbounded
    families); samplers only ever produce open-interval uniforms.
    """
    arr = np.asarray(u, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0)):
        raise DomainError("quantile argument must lie in the open interval (0, 1)")
    out = _quantile_into(m, arr, np.empty_like(arr))
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


def _quantile_into(m: MarginalSpec, u: np.ndarray, out: np.ndarray,
                   work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """:func:`quantile` of ``u`` written into ``out``, with no range check:
    the one formula per family that both ``quantile`` and the sampler
    evaluate.  ``out`` may be ``u`` itself only when ``u`` is contiguous:
    numpy 2.4.6 computes ``np.negative(v, out=v)`` wrongly for a column v
    with a 64-byte stride, as in an (rows, 8) array.  ``work`` is lent to
    the empirical search (:func:`fhmix.inversion.index`)."""
    if m.family == "uniform":
        a, b = m.params
        np.multiply(u, b - a, out=out)
        np.add(out, a, out=out)
    elif m.family == "exponential":
        (rate,) = m.params
        np.negative(u, out=out)
        np.log1p(out, out=out)
        np.negative(out, out=out)
        np.divide(out, rate, out=out)
    elif m.family == "normal":
        mean, sd = m.params
        ndtri(u, out=out)
        np.multiply(out, sd, out=out)
        np.add(out, mean, out=out)
    elif m.family == "bernoulli":
        (p,) = m.params
        np.greater(u, 1.0 - p, out=out)
    else:  # empirical
        # the index is below len(values), as the cdf ends at 1.0 and u < 1:
        # "clip" is only the mode of take that writes into out unbuffered
        np.take(m.values, inversion.index(m._levels, u, "left", work), out=out, mode="clip")
    return out


def moments(m: MarginalSpec) -> tuple[float, float]:
    """Exact (mean, standard deviation) of the marginal."""
    if m.family == "uniform":
        a, b = m.params
        return (a + b) / 2.0, (b - a) / math.sqrt(12.0)
    if m.family == "exponential":
        (rate,) = m.params
        return 1.0 / rate, 1.0 / rate
    if m.family == "normal":
        mean, sd = m.params
        return mean, sd
    if m.family == "bernoulli":
        (p,) = m.params
        return p, math.sqrt(p * (1.0 - p))
    mean, sd, _ = _empirical_standardization(m)
    if sd <= 0.0:
        raise InvalidMarginalError("empirical marginal has zero variance")
    return mean, sd


def quantile_jumps(m: MarginalSpec) -> tuple[float, ...]:
    """Interior u-locations where the quantile function jumps.

    Continuous families return (); discrete families return the cumulative
    probabilities strictly inside (0, 1).  A numerical integral over
    quantile products should split its panels at these points.
    """
    if m.family == "bernoulli":
        (p,) = m.params
        return (1.0 - p,)
    if m.family == "empirical":
        cumw = _empirical_cum_weights(m)
        return tuple(float(c) for c in cumw[:-1] if 0.0 < c < 1.0)
    return ()


def _empirical_cum_weights(m: MarginalSpec) -> np.ndarray:
    cumw = np.cumsum(np.asarray(m.weights, dtype=float))
    cumw[-1] = 1.0
    return cumw


def _empirical_standardization(m: MarginalSpec) -> tuple[float, float, np.ndarray]:
    """Mean, sd and centred atoms x - mean of an empirical, from offsets to the
    first atom: exact for clustered values, so a large location costs nothing."""
    d = np.asarray(m.values) - m.values[0]
    w = np.asarray(m.weights)
    shift = float(w @ d)
    d -= shift
    return m.values[0] + shift, math.sqrt(w @ (d * d)), d
