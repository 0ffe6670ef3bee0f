"""Reference computations for the benchmark, made without fhmix.

Marginals are plain tuples here, so nothing below can share a code path with
the library it checks:

    ("uniform", a, b)   ("exponential", rate)   ("normal", mean, sd)
    ("bernoulli", p)    ("empirical", values, weights)

Empirical values are sorted and distinct and their weights are dyadic, so
every cumulative weight is exact in binary floating point.

Correlation extremes come from closed forms for the location-scale families
(Demirtas & Hedeker 2011), from an mpmath integral for normal/exponential,
from exact sums over merged cumulative weights for discrete pairs, and from
exact piecewise integrals of the continuous quantile for discrete against
continuous.  Feasibility of a concurrence matrix is decided by HiGHS on the
full 2^n-atom system.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.special import ndtri

CONTINUOUS = ("uniform", "exponential", "normal")
DISCRETE = ("bernoulli", "empirical")

# Extremes of location-scale pairs depend only on the two shapes.  Keys are
# sorted family pairs; values are (rho_minus, rho_plus).
_SHAPE_EXTREMES = {
    ("uniform", "uniform"): (-1.0, 1.0),
    ("normal", "normal"): (-1.0, 1.0),
    ("exponential", "exponential"): (1.0 - math.pi ** 2 / 6.0, 1.0),
    ("normal", "uniform"): (-math.sqrt(3.0 / math.pi), math.sqrt(3.0 / math.pi)),
    ("exponential", "uniform"): (-math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 2.0),
}


# Corr(Phi^-1(U), -log(1 - U)); recreate with
#   python3 -c "import sys; sys.path.insert(0, 'bench'); import reference; \
#               print(repr(reference.normal_exponential_rho_plus()))"
NORMAL_EXPONENTIAL_RHO = 0.9031972855686253


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def moments(m) -> tuple[float, float]:
    """Exact (mean, standard deviation)."""
    family = m[0]
    if family == "uniform":
        a, b = m[1], m[2]
        return (a + b) / 2.0, (b - a) / math.sqrt(12.0)
    if family == "exponential":
        return 1.0 / m[1], 1.0 / m[1]
    if family == "normal":
        return m[1], m[2]
    mean, var = _discrete_moments_exact(m)
    return float(mean), math.sqrt(var)


def _atoms(m) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact atoms and cumulative weights of a discrete marginal."""
    if m[0] == "bernoulli":
        p = Fraction(m[1])
        return (Fraction(0), Fraction(1)), (1 - p, Fraction(1))
    values = tuple(Fraction(v) for v in m[1])
    cum, total = [], Fraction(0)
    for w in m[2]:
        total += Fraction(w)
        cum.append(total)
    if total != 1:
        raise ValueError("empirical weights must sum to exactly 1")
    return values, tuple(cum)


def _discrete_moments_exact(m) -> tuple[Fraction, Fraction]:
    values, cum = _atoms(m)
    weights = [c - prev for c, prev in zip(cum, (Fraction(0),) + cum[:-1])]
    mean = sum(w * v for w, v in zip(weights, values))
    var = sum(w * (v - mean) ** 2 for w, v in zip(weights, values))
    return mean, var


# ---------------------------------------------------------------------------
# correlation extremes
# ---------------------------------------------------------------------------

def extremes(ma, mb) -> tuple[float, float]:
    """(rho_minus, rho_plus) of the antithetic and comonotone couplings."""
    fa, fb = ma[0], mb[0]
    if fa in CONTINUOUS and fb in CONTINUOUS:
        pair = tuple(sorted((fa, fb)))
        if pair == ("exponential", "normal"):
            return -NORMAL_EXPONENTIAL_RHO, NORMAL_EXPONENTIAL_RHO
        return _SHAPE_EXTREMES[pair]
    if fa == "bernoulli" and fb == "bernoulli":
        return _bernoulli_pair(ma[1], mb[1])
    if fa in DISCRETE and fb in DISCRETE:
        return _discrete_pair(ma, mb)
    if fa in CONTINUOUS:
        ma, mb = mb, ma
    if ma[0] == "bernoulli":
        return _bernoulli_continuous(ma[1], mb[0])
    return _discrete_continuous(ma, mb[0])


def _bernoulli_pair(p: float, q: float) -> tuple[float, float]:
    # P(both 1) is min(p, q) under U -> (U, U) and max(0, p + q - 1) under
    # U -> (U, 1 - U).
    denom = math.sqrt(p * (1.0 - p) * q * (1.0 - q))
    return ((max(0.0, p + q - 1.0) - p * q) / denom,
            (min(p, q) - p * q) / denom)


def _bernoulli_continuous(p: float, family: str) -> tuple[float, float]:
    # X = 1(U > 1 - p) against a standardized quantile Q with primitive G:
    # cov+ = -G(1 - p) and cov- = G(p).
    sd = math.sqrt(p * (1.0 - p))
    if family == "uniform":
        rho = math.sqrt(3.0 * p * (1.0 - p))
        return -rho, rho
    if family == "normal":
        rho = math.exp(-0.5 * float(ndtri(p)) ** 2) / math.sqrt(2.0 * math.pi) / sd
        return -rho, rho
    return (1.0 - p) * math.log1p(-p) / sd, -p * math.log(p) / sd


def _primitive(family: str, u: Fraction) -> float:
    """G(u) = integral from 0 to u of the standardized quantile."""
    t = 1 - u
    if family == "uniform":
        uf = float(u)
        return math.sqrt(3.0) * (uf * uf - uf)
    if family == "exponential":
        tf = float(t)
        return tf * math.log(tf) if tf > 0.0 else 0.0
    # normal: G(u) = -phi(ndtri(u)), even about u = 1/2
    v = float(min(u, t))
    if v <= 0.0:
        return 0.0
    z = float(ndtri(v))
    return -math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _discrete_continuous(m, family: str) -> tuple[float, float]:
    values, cum = _atoms(m)
    mean, var = _discrete_moments_exact(m)
    sd = math.sqrt(var)
    lows = (Fraction(0),) + cum[:-1]
    plus = math.fsum(float(v - mean) * (_primitive(family, hi) - _primitive(family, lo))
                     for v, lo, hi in zip(values, lows, cum))
    # Q(1 - U) on (lo, hi] integrates Q over [1 - hi, 1 - lo)
    minus = math.fsum(float(v - mean) * (_primitive(family, 1 - lo) - _primitive(family, 1 - hi))
                      for v, lo, hi in zip(values, lows, cum))
    return minus / sd, plus / sd


def _discrete_pair(ma, mb) -> tuple[float, float]:
    va, ca = _atoms(ma)
    vb, cb = _atoms(mb)
    mean_a, var_a = _discrete_moments_exact(ma)
    mean_b, var_b = _discrete_moments_exact(mb)
    scale = math.sqrt(float(var_a) * float(var_b))

    def expectation(antithetic: bool) -> Fraction:
        cuts_b = [1 - c for c in cb] if antithetic else list(cb)
        cuts = sorted(set(ca) | set(cuts_b) | {Fraction(0), Fraction(1)})
        total = Fraction(0)
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            ub = 1 - mid if antithetic else mid
            total += (hi - lo) * va[bisect.bisect_left(ca, mid)] * vb[bisect.bisect_left(cb, ub)]
        return total

    return (float(expectation(True) - mean_a * mean_b) / scale,
            float(expectation(False) - mean_a * mean_b) / scale)


def normal_exponential_rho_plus() -> float:
    """Corr(Phi^-1(U), -log(1 - U)), integrated by mpmath in z-space."""
    import mpmath as mp

    with mp.workdps(30):
        def integrand(z):
            tail = mp.erfc(z / mp.sqrt(2)) / 2        # 1 - Phi(z)
            return z * -mp.log(tail) * mp.npdf(z)
        return float(mp.quad(integrand, [-mp.inf, 0, mp.inf]))


def normal_exponential_rho_minus() -> float:
    """Corr(Phi^-1(U), -log(U)), integrated directly (symmetry check)."""
    import mpmath as mp

    with mp.workdps(30):
        def integrand(z):
            return z * -mp.log(mp.ncdf(-z)) * mp.npdf(z)
        return float(mp.quad(integrand, [-mp.inf, 0, mp.inf]))


# ---------------------------------------------------------------------------
# fair-coin laws
# ---------------------------------------------------------------------------

def bit_table(n: int) -> np.ndarray:
    """(2^n, n) bits of each atom index, the first coordinate most significant."""
    k = np.arange(2 ** n)
    return (k[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1


def concurrences(probs: np.ndarray, n: int) -> np.ndarray:
    """P(B_i = B_j) for every pair, with 1 on the diagonal."""
    bits = bit_table(n)
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = math.fsum(probs[bits[:, i] == bits[:, j]])
    return out


def bit_marginals(probs: np.ndarray, n: int) -> np.ndarray:
    bits = bit_table(n)
    return np.array([math.fsum(probs[bits[:, i] == 1]) for i in range(n)])


def highs_feasible(lam: np.ndarray) -> bool:
    """Does a fair-coin law with concurrence matrix ``lam`` exist?"""
    n = lam.shape[0]
    bits = bit_table(n)
    rows = [np.ones(2 ** n)] + [bits[:, i].astype(float) for i in range(n)]
    rhs = [1.0] + [0.5] * n
    for i in range(n):
        for j in range(i + 1, n):
            rows.append((bits[:, i] == bits[:, j]).astype(float))
            rhs.append(float(lam[i, j]))
    res = linprog(np.zeros(2 ** n), A_eq=np.array(rows), b_eq=np.array(rhs),
                  bounds=(0, None), method="highs")
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"HiGHS gave no verdict: {res.message}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def z_limit(tests: int, false_alarm: float = 1e-6) -> float:
    """|z| bound that a correct program exceeds in any of ``tests`` normal
    z-scores with probability at most ``false_alarm`` (Bonferroni)."""
    return float(-ndtri(false_alarm / (2.0 * tests)))
