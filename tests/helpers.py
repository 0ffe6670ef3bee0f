"""Shared oracles and statistical utilities for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: cdfs are written directly per family, joint laws are recomputed by
dense linear solves or interval geometry, and z-scores use known moments.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import accumulate
from statistics import NormalDist

import numpy as np
from scipy.integrate import quad
from scipy.special import kolmogorov, ndtr
from scipy.stats import kstest

from fhmix import (
    ConcurrenceMatrix,
    JointPMF,
    MarginalSpec,
    atom_bits,
    inversion,
    moments,
    quantile,
)
from fhmix.bernoulli_joint import _bit_table
from fhmix.cli import JobConfig
from fhmix.marginals import _FAMILY_FIELDS

KS_ALPHA = 1e-3


# ---------------------------------------------------------------------------
# cdfs and KS tests
# ---------------------------------------------------------------------------

def cdf(m: MarginalSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if m.family == "uniform":
        a, b = m.params
        return np.clip((x - a) / (b - a), 0.0, 1.0)
    if m.family == "exponential":
        (rate,) = m.params
        return np.where(x >= 0.0, -np.expm1(-rate * x), 0.0)
    if m.family == "normal":
        mean, sd = m.params
        return ndtr((x - mean) / sd)
    if m.family == "bernoulli":
        (p,) = m.params
        return np.where(x >= 1.0, 1.0, np.where(x >= 0.0, 1.0 - p, 0.0))
    vals = np.asarray(m.values)
    wts = np.asarray(m.weights)
    cum = np.cumsum(wts)
    idx = np.searchsorted(vals, x, side="right")
    return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)


def is_discrete(m: MarginalSpec) -> bool:
    return m.family in ("bernoulli", "empirical")


def ks_pvalue(samples: np.ndarray, m: MarginalSpec) -> float:
    """KS p-value of samples against the family cdf.

    Continuous families defer to scipy.  Discrete families compare the
    empirical cdf with F at the support atoms and use the (conservative)
    Kolmogorov asymptotic for sup|F_hat - F|.
    """
    if not is_discrete(m):
        return float(kstest(samples, lambda x: cdf(m, x)).pvalue)
    atoms = [0.0, 1.0] if m.family == "bernoulli" else list(m.values)
    n = samples.shape[0]
    d = max(
        abs(float((samples <= a).mean()) - float(cdf(m, np.array(a))))
        for a in atoms
    )
    return float(kolmogorov(d * math.sqrt(n)))


def ulps(x, y) -> np.ndarray:
    """How many doubles apart x and y are, elementwise (finite values)."""
    def ordered(a):
        bits = np.asarray(a, dtype=float).view(np.int64)
        return np.where(bits < 0, np.int64(-2 ** 63) - bits, bits)
    return np.abs(ordered(x) - ordered(y))


def standard_normal_quantile(u) -> np.ndarray:
    """The standard library's AS241, one value at a time."""
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(float(v)) for v in np.ravel(u)])


# ---------------------------------------------------------------------------
# z-score helpers (known-moment standardization)
# ---------------------------------------------------------------------------

def mean_z(w: np.ndarray, target: float) -> float:
    """z-score for E[w] = target with the SE estimated from w itself."""
    spread = float(w.std(ddof=1))
    if spread == 0.0:
        return 0.0 if abs(float(w.mean()) - target) <= 1e-12 else math.inf
    return float((w.mean() - target) / (spread / math.sqrt(w.shape[0])))


def corr_z(x: np.ndarray, y: np.ndarray, mx, sx, my, sy, target: float) -> float:
    """z-score for Corr(x, y) = target using the known moments, not estimates."""
    return mean_z(((x - mx) / sx) * ((y - my) / sy), target)


def concurrence_z(x: np.ndarray, y: np.ndarray, target: float) -> float:
    n = x.shape[0]
    p_hat = float((x == y).mean())
    if target in (0.0, 1.0):
        return 0.0 if p_hat == target else math.inf
    return (p_hat - target) / math.sqrt(target * (1.0 - target) / n)


# ---------------------------------------------------------------------------
# correlation-extreme oracles
# ---------------------------------------------------------------------------

def quantile_jumps(m: MarginalSpec) -> tuple[float, ...]:
    """Interior u-locations where the quantile function jumps.

    Continuous families return (); discrete families return the cumulative
    probabilities strictly inside (0, 1).  A numerical integral over
    quantile products should split its panels at these points.
    """
    if m.family == "bernoulli":
        (p,) = m.params
        return (1.0 - p,) if 1.0 - p < 1.0 else ()
    if m.family == "empirical":
        return tuple(c for c in accumulate(m.weights[:-1]) if 0.0 < c < 1.0)
    return ()


def quad_corr_extremes(mi: MarginalSpec, mj: MarginalSpec) -> tuple[float, float]:
    """(rho_minus, rho_plus) by adaptive quadrature of raw quantile products.

    Integrates F_i^{-1}(u) F_j^{-1}(u or 1 - u) over (1e-12, 1 - 1e-12),
    split at the jumps of discrete quantiles, and subtracts mu_i mu_j.  The
    tolerance is absolute on the raw integral, so keep locations and scales
    moderate.
    """
    (mu_i, sd_i), (mu_j, sd_j) = moments(mi), moments(mj)
    out = []
    for antithetic in (True, False):
        def f(u):
            return quantile(mi, u) * quantile(mj, 1.0 - u if antithetic else u)

        jumps = {*quantile_jumps(mi), *(1.0 - t if antithetic else t for t in quantile_jumps(mj))}
        value = quad(f, 1e-12, 1.0 - 1e-12, epsabs=1e-10, epsrel=1e-12, limit=200,
                     points=sorted(jumps) or None, full_output=True)[0]
        out.append((value - mu_i * mu_j) / (sd_i * sd_j))
    return out[0], out[1]


def finite_sum_extremes(emp: MarginalSpec, cont: MarginalSpec) -> tuple[float, float]:
    """(rho_minus, rho_plus) of an empirical against a normal or exponential
    marginal, as exact finite sums.

    Atom v_k holds u in (c_{k-1}, c_k], where F^{-1}(u) integrates to
    P(c_k) - P(c_{k-1}) with P(u) = int_0^u F^{-1} in closed form, and
    F^{-1}(1 - u) to P(1 - c_{k-1}) - P(1 - c_k).  Cumulative weights are
    summed exactly; the normal quantile is the standard library's.
    """
    values, weights = emp.values, emp.weights
    cum = [0.0, *(float(c) for c in accumulate(Fraction(w) for w in weights))]
    cum[-1] = 1.0
    if cont.family == "normal":
        mean, sd = cont.params
        std = NormalDist()

        def prim(u):
            inner = std.pdf(std.inv_cdf(u)) if 0.0 < u < 1.0 else 0.0
            return mean * u - sd * inner
    else:
        (rate,) = cont.params

        def prim(u):
            return (u + ((1.0 - u) * math.log1p(-u) if u < 1.0 else 0.0)) / rate
    mu_a = math.fsum(w * v for v, w in zip(values, weights))
    sd_a = math.sqrt(math.fsum(w * (v - mu_a) ** 2 for v, w in zip(values, weights)))
    mu_b, sd_b = moments(cont)
    lo, hi = cum[:-1], cum[1:]
    plus = math.fsum(v * (prim(b) - prim(a)) for v, a, b in zip(values, lo, hi))
    minus = math.fsum(v * (prim(1.0 - a) - prim(1.0 - b)) for v, a, b in zip(values, lo, hi))
    return (minus - mu_a * mu_b) / (sd_a * sd_b), (plus - mu_a * mu_b) / (sd_a * sd_b)


# ---------------------------------------------------------------------------
# joint-law oracles
# ---------------------------------------------------------------------------

def pmf_residual(pmf: JointPMF, marginal_probs, conc_entries: np.ndarray) -> float:
    """Worst violation of mass, marginal, and concurrence constraints."""
    bits = _bit_table(pmf.n)
    res = [abs(float(pmf.probs.sum()) - 1.0)]
    for i, p in enumerate(marginal_probs):
        res.append(abs(float(pmf.probs[bits[:, i] == 1].sum()) - p))
    for i in range(pmf.n):
        for j in range(i + 1, pmf.n):
            agree = float(pmf.probs[bits[:, i] == bits[:, j]].sum())
            res.append(abs(agree - conc_entries[i, j]))
    return max(res)


def solve_three_coordinate_system(marginals3, pairs3, alpha: float) -> np.ndarray:
    """Dense solve of the 8-unknown system used by the 3-coordinate tables.

    Constraints: three bit-marginals, three pairwise agreement masses
    (order (1,2), (1,3), (2,3)), total mass 1, and P(111) = alpha.
    """
    bits = [atom_bits(k, 3) for k in range(8)]
    A = np.zeros((8, 8))
    b = np.zeros(8)
    for i in range(3):
        A[i] = [bit[i] for bit in bits]
        b[i] = marginals3[i]
    for r, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)], start=3):
        A[r] = [1.0 if bit[i] == bit[j] else 0.0 for bit in bits]
        b[r] = pairs3[r - 3]
    A[6] = 1.0
    b[6] = 1.0
    A[7, 7] = 1.0
    b[7] = alpha
    return np.linalg.solve(A, b)


def asym_pair_pmf(p: float, q: float, r: float) -> np.ndarray:
    """Unique law of (X, Y) with X~Bern(p), Y~Bern(q), P(X=Y)=r; order 00,01,10,11."""
    p11 = 0.5 * (p + q + r - 1.0)
    return np.array([1.0 - p - q + p11, q - p11, p - p11, p11])


def direct_algorithm_law(l12: float, l13: float, l23: float) -> np.ndarray:
    """Exact joint law of the interval-based triple sampler, from first principles.

    The sampler marks X1 on [0, l13] and X2 on [lo, hi] with one uniform,
    then copies/complements both according to an independent fair coin B3.
    """
    lo = 0.5 * (1.0 + l13 - l23 - l12)
    hi = 0.5 * (1.0 + l13 + l23 - l12)
    overlap = max(0.0, min(l13, hi) - max(0.0, lo))
    px = np.zeros((2, 2))  # px[x1, x2]
    px[1, 1] = overlap
    px[1, 0] = l13 - overlap
    px[0, 1] = (hi - lo) - overlap
    px[0, 0] = 1.0 - l13 - (hi - lo) + overlap
    probs = np.zeros(8)
    for b1 in (0, 1):
        for b2 in (0, 1):
            probs[(b1 << 2) | (b2 << 1) | 1] = 0.5 * px[b1, b2]
            probs[(b1 << 2) | (b2 << 1) | 0] = 0.5 * px[1 - b1, 1 - b2]
    return probs


def lift_law(pmf: JointPMF) -> JointPMF:
    """Exact law of the coin-lift map applied to a draw from ``pmf``.

    Each atom x contributes mass p(x)/2 to (x, 1) and p(x)/2 to (1-x, 0).
    """
    out = np.zeros(2 ** (pmf.n + 1))
    for k in range(2 ** pmf.n):
        x = atom_bits(k, pmf.n)
        idx_hi = 0
        idx_lo = 0
        for b in x:
            idx_hi = (idx_hi << 1) | b
            idx_lo = (idx_lo << 1) | (1 - b)
        out[(idx_hi << 1) | 1] += 0.5 * pmf.probs[k]
        out[(idx_lo << 1) | 0] += 0.5 * pmf.probs[k]
    return JointPMF(pmf.n + 1, out)


# ---------------------------------------------------------------------------
# random feasible inputs
# ---------------------------------------------------------------------------

def random_feasible_triple(rng: np.random.Generator) -> tuple[float, float, float]:
    from fhmix import trivariate_feasible

    while True:
        l = rng.random(3)
        if trivariate_feasible(*l):
            return tuple(float(v) for v in l)


def random_concurrence4(rng: np.random.Generator) -> ConcurrenceMatrix:
    return ConcurrenceMatrix.from_lower_triangle(rng.random(6), 4)


def random_feasible_quad(rng: np.random.Generator) -> ConcurrenceMatrix:
    from fhmix import quadrivariate_alpha_interval

    while True:
        conc = random_concurrence4(rng)
        if quadrivariate_alpha_interval(conc).feasible:
            return conc


def random_pmf(rng: np.random.Generator, n: int) -> JointPMF:
    """A random joint law (its own marginals/concurrences are feasible by construction)."""
    probs = rng.random(2 ** n)
    probs /= probs.sum()
    return JointPMF(n, probs)


def leaky_lift(real_lift):
    """``real_lift`` with mass moved off coordinate 3's agreement pattern.

    Half the mass of the heaviest atom, and as much of its complement, moves
    to the atoms that differ from them in coordinate 3 alone.  Total mass,
    complement symmetry and every marginal hold; each concurrence (k, 3)
    misses by twice the moved half, and (1,3) is the first such row.
    """
    def leaky(q: JointPMF) -> JointPMF:
        pmf = real_lift(q)
        n = pmf.n
        probs = pmf.probs.copy()
        x = int(probs.argmax())
        moved = probs[x] / 2
        for atom in (x, 2 ** n - 1 - x):
            probs[atom] -= moved
            probs[atom ^ (1 << (n - 3))] += moved
        return JointPMF(n, probs)

    return leaky


def spy_on_levels(monkeypatch) -> list:
    """The lengths of the cdfs passed to ``inversion.levels`` from now on."""
    calls, real = [], inversion.levels
    monkeypatch.setattr(inversion, "levels", lambda cdf: calls.append(len(cdf)) or real(cdf))
    return calls


class FixedCoin:
    """Duck-typed stand-in for a Generator whose next coin flip is forced."""

    def __init__(self, value: int):
        self.value = value

    def integers(self, low, high, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=np.int64)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def serialize_config(cfg: JobConfig) -> str:
    """Canonical JSON for a config; parse(serialize(parse(t))) == parse(t)."""
    doc: dict = {"marginals": [marginal_record(m) for m in cfg.marginals]}
    if cfg.correlation is not None:
        doc["correlation"] = list(cfg.correlation)
    else:
        doc["concurrence"] = list(cfg.concurrence or ())
    doc["count"] = cfg.count
    doc["seed"] = cfg.seed
    doc["streams"] = cfg.streams
    doc["alpha_policy"] = "midpoint" if cfg.alpha is None else {"explicit": cfg.alpha}
    return json.dumps(doc, indent=2) + "\n"


def marginal_record(m: MarginalSpec) -> dict:
    """The config file's object for ``m``."""
    if m.family == "empirical":
        return {"family": "empirical", "values": list(m.values or ()),
                "weights": list(m.weights or ())}
    return {"family": m.family,
            **dict(zip(_FAMILY_FIELDS[m.family], m.params))}
