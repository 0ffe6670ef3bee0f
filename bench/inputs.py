"""Seeded inputs: marginals, fair-coin laws, targets and the fault probes.

Marginals are the plain tuples of ``reference``; ``to_spec`` and
``to_record`` turn them into fhmix objects and CLI config records.
Concurrence matrices are always the concurrences of an explicit fair-coin
law (a pmf over {0,1}^n that gives mass pi(x) = pi(complement of x)), so
every "feasible" input is feasible by construction, and the target
correlations are lambda * rho_plus + (1 - lambda) * rho_minus with the
reference extremes.
"""

from __future__ import annotations

import numpy as np

import reference as ref

# Weights of empirical marginals are multiples of 1/EMPIRICAL_DENOM, so their
# cumulative sums are exact in floating point.
EMPIRICAL_DENOM = 1024

# Pairs for which fhmix.bounds raises QuadratureError at every call: an
# absolute tolerance on the raw quantile-product integral fails under a large
# location or scale.  Correlation ignores location and scale, so the expected
# extremes are +-sqrt(3/pi) (normal/uniform) and +-sqrt(3)/2
# (exponential/uniform).
FAULT_PAIRS = (
    (("normal", 1e6, 1.0), ("uniform", 0.0, 1.0)),
    (("normal", 0.0, 1e6), ("uniform", 0.0, 1.0)),
    (("uniform", 1e9, 1e9 + 1.0), ("exponential", 1.0)),
    (("exponential", 1e-4), ("uniform", 0.0, 1.0)),
)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

# Locations and scales stay near 1: fhmix.bounds applies an absolute
# tolerance to the raw quantile-product integral, and with exponential means
# near 2 and empirical values near -5 it fails on about 1 pair in 700.
def uniform(rng) -> tuple:
    a = float(rng.uniform(-1.0, 1.0))
    return ("uniform", a, a + float(rng.uniform(0.5, 2.0)))


def exponential(rng) -> tuple:
    return ("exponential", float(rng.uniform(1.0, 2.0)))


def normal(rng) -> tuple:
    return ("normal", float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 1.5)))


def bernoulli(rng) -> tuple:
    return ("bernoulli", float(rng.uniform(0.15, 0.85)))


def empirical(rng, atoms: int) -> tuple:
    """``atoms`` distinct sorted values with dyadic weights, each >= 1/1024."""
    values: set[float] = set()
    loc, scale = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.0)
    while len(values) < atoms:
        values.add(float(loc + scale * rng.standard_normal()))
    counts = 1 + rng.multinomial(EMPIRICAL_DENOM - atoms, np.full(atoms, 1.0 / atoms))
    return ("empirical", tuple(sorted(values)), tuple(float(c) / EMPIRICAL_DENOM for c in counts))


MAKERS = {"U": uniform, "E": exponential, "N": normal, "B": bernoulli}


def marginals_from_pattern(rng, pattern: str, empirical_atoms: int = 6) -> tuple:
    """One marginal per letter of ``pattern``; equal letters share one spec.

    Letters: U, E, N, B, M (empirical), and lower-case letters for a second
    distinct spec of the same family (u, e, n, b, m).
    """
    specs: dict[str, tuple] = {}
    out = []
    for letter in pattern:
        if letter not in specs:
            family = letter.upper()
            specs[letter] = (empirical(rng, empirical_atoms) if family == "M"
                             else MAKERS[family](rng))
        out.append(specs[letter])
    return tuple(out)


def to_spec(m):
    from fhmix import MarginalSpec

    if m[0] == "empirical":
        return MarginalSpec.empirical(m[1], m[2])
    return getattr(MarginalSpec, m[0])(*m[1:])


def to_record(m) -> dict:
    fields = {"uniform": ("a", "b"), "exponential": ("rate",),
              "normal": ("mean", "sd"), "bernoulli": ("p",)}
    if m[0] == "empirical":
        return {"family": "empirical", "values": list(m[1]), "weights": list(m[2])}
    return {"family": m[0], **dict(zip(fields[m[0]], m[1:]))}


# ---------------------------------------------------------------------------
# fair-coin laws and their concurrences
# ---------------------------------------------------------------------------

def _symmetrize(mu: np.ndarray) -> np.ndarray:
    # atom 2^n - 1 - k is the complement of atom k
    return 0.5 * (mu + mu[::-1])


def interior_law(rng, n: int) -> np.ndarray:
    """Every atom has positive mass, so the concurrences are interior."""
    return _symmetrize(rng.dirichlet(np.ones(2 ** n)))


def clustered_law(rng, n: int, heavy: int = 8) -> np.ndarray:
    """Half the mass on a few atoms, half spread over all of them."""
    mu = 0.5 * rng.dirichlet(np.full(2 ** n, 0.5))
    mu[rng.choice(2 ** n, heavy, replace=False)] += 0.5 * rng.dirichlet(np.ones(heavy))
    return _symmetrize(mu / mu.sum())


def dyadic_law(rng, n: int, draws: int = 16) -> np.ndarray:
    """Atom masses are multiples of 1/(2*draws), a power of two."""
    mu = np.bincount(rng.integers(0, 2 ** n, draws), minlength=2 ** n) / draws
    return _symmetrize(mu)


def concurrence_of(law: np.ndarray) -> np.ndarray:
    return ref.concurrences(law, int(round(np.log2(law.size))))


def targets(marginals, lam: np.ndarray) -> np.ndarray:
    """Correlations lambda * rho_plus + (1 - lambda) * rho_minus."""
    n = len(marginals)
    rho = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = ref.extremes(marginals[i], marginals[j])
            rho[i, j] = rho[j, i] = lam[i, j] * hi + (1.0 - lam[i, j]) * lo
    return rho


def lower_triangle(m: np.ndarray) -> list[float]:
    """Strict lower triangle, row-major: [m21, m31, m32, m41, ...]."""
    n = m.shape[0]
    return [float(m[i, j]) for i in range(1, n) for j in range(i)]
