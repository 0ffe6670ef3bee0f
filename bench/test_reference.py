"""Tests of the benchmark's reference computations.

Run with:  python3 -m pytest bench/test_reference.py

Each closed form or exact sum is compared with a direct numerical integral
of the quantile product, written here from the family definitions.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

import inputs
import reference as ref


def quantile(m, u: float) -> float:
    family = m[0]
    if family == "uniform":
        return m[1] + (m[2] - m[1]) * u
    if family == "exponential":
        return -math.log1p(-u) / m[1]
    if family == "normal":
        return m[1] + m[2] * float(ndtri(u))
    if family == "bernoulli":
        return 1.0 if u > 1.0 - m[1] else 0.0
    cum = np.cumsum(m[2])
    return m[1][int(np.searchsorted(cum, u, side="left"))]


def jumps(m) -> list[float]:
    if m[0] == "bernoulli":
        return [1.0 - m[1]]
    if m[0] == "empirical":
        return list(np.cumsum(m[2])[:-1])
    return []


def numeric_extremes(a, b) -> tuple[float, float]:
    mu_a, sd_a = ref.moments(a)
    mu_b, sd_b = ref.moments(b)

    def corr(antithetic: bool) -> float:
        points = jumps(a) + [1.0 - t if antithetic else t for t in jumps(b)]
        value, _ = quad(lambda u: (quantile(a, u) - mu_a)
                        * (quantile(b, 1.0 - u if antithetic else u) - mu_b),
                        0.0, 1.0, points=sorted(set(points)) or None,
                        epsabs=1e-13, epsrel=1e-13, limit=500)
        return value / (sd_a * sd_b)

    return corr(True), corr(False)


MARGINALS = [
    ("uniform", -1.0, 2.5),
    ("exponential", 1.7),
    ("normal", 0.3, 2.0),
    ("bernoulli", 0.3),
    ("bernoulli", 0.625),
    ("empirical", (-1.0, 0.25, 3.0, 4.5), (0.375, 0.25, 0.25, 0.125)),
    ("empirical", (0.0, 2.0, 7.0), (0.5, 0.375, 0.125)),
]


@pytest.mark.parametrize("a", MARGINALS, ids=lambda m: m[0])
@pytest.mark.parametrize("b", MARGINALS, ids=lambda m: m[0])
def test_extremes_match_numeric_integral(a, b):
    lo, hi = ref.extremes(a, b)
    n_lo, n_hi = numeric_extremes(a, b)
    assert lo == pytest.approx(n_lo, abs=2e-7)
    assert hi == pytest.approx(n_hi, abs=2e-7)
    assert ref.extremes(b, a) == pytest.approx((lo, hi), abs=1e-15)


def test_closed_forms():
    assert ref.extremes(("normal", 0.0, 1.0), ("uniform", 0.0, 1.0))[1] == \
        pytest.approx(math.sqrt(3.0 / math.pi), abs=1e-15)
    assert ref.extremes(("exponential", 1.0), ("uniform", 0.0, 1.0))[0] == \
        pytest.approx(-math.sqrt(3.0) / 2.0, abs=1e-15)
    assert ref.extremes(("exponential", 2.0), ("exponential", 5.0)) == \
        pytest.approx((1.0 - math.pi ** 2 / 6.0, 1.0), abs=1e-15)


def test_normal_exponential_constant_is_the_mpmath_integral():
    value = ref.normal_exponential_rho_plus()
    assert value == pytest.approx(ref.NORMAL_EXPONENTIAL_RHO, abs=1e-15)
    assert ref.normal_exponential_rho_minus() == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("p", [0.25, 0.625, 0.125])
@pytest.mark.parametrize("other", [("uniform", 0.0, 1.0), ("normal", 1.0, 3.0),
                                   ("exponential", 0.5), ("bernoulli", 0.375)])
def test_bernoulli_closed_forms_match_the_exact_sums(p, other):
    as_empirical = ("empirical", (0.0, 1.0), (1.0 - p, p))
    assert ref.extremes(("bernoulli", p), other) == \
        pytest.approx(ref.extremes(as_empirical, other), abs=1e-13)


@pytest.mark.parametrize("m", MARGINALS, ids=lambda m: m[0])
def test_moments_match_numeric_integral(m):
    mean, sd = ref.moments(m)
    points = sorted(set(jumps(m))) or None
    n_mean = quad(lambda u: quantile(m, u), 0.0, 1.0, points=points, limit=200)[0]
    n_var = quad(lambda u: (quantile(m, u) - mean) ** 2, 0.0, 1.0, points=points,
                 limit=200)[0]
    assert mean == pytest.approx(n_mean, abs=1e-9)
    assert sd == pytest.approx(math.sqrt(n_var), rel=1e-9)


def test_concurrences_of_a_law():
    probs = np.zeros(8)
    probs[0b000] = probs[0b111] = 0.25
    probs[0b011] = probs[0b100] = 0.25
    lam = ref.concurrences(probs, 3)
    assert lam[0, 1] == 0.5 and lam[0, 2] == 0.5 and lam[1, 2] == 1.0
    assert np.array_equal(ref.bit_marginals(probs, 3), [0.5, 0.5, 0.5])


@pytest.mark.parametrize("n, value, feasible", [
    (3, 0.5, True), (3, 0.3, False), (5, 0.41, True), (5, 0.37, False),
    (8, 0.44, True), (8, 0.41, False),
])
def test_highs_verdict_on_equal_concurrences(n, value, feasible):
    # n fair coins with all concurrences c exist iff c >= the smallest share
    # of agreeing pairs over balanced splits (the max-cut bound)
    lam = np.full((n, n), value)
    np.fill_diagonal(lam, 1.0)
    assert ref.highs_feasible(lam) is feasible


@pytest.mark.parametrize("seed", range(3))
def test_generated_laws_are_feasible_and_fair(seed):
    rng = inputs.rng_for(seed)
    for law in (inputs.interior_law(rng, 5), inputs.clustered_law(rng, 6),
                inputs.dyadic_law(rng, 6)):
        n = int(math.log2(law.size))
        assert math.fsum(law) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(ref.bit_marginals(law, n), 0.5, atol=1e-15)
        assert ref.highs_feasible(inputs.concurrence_of(law))


def test_dyadic_law_has_small_denominators():
    lam = inputs.concurrence_of(inputs.dyadic_law(inputs.rng_for(4), 6))
    assert all((v * 32).is_integer() for v in lam.ravel())


def test_z_limit_grows_with_the_number_of_tests():
    assert 4.8 < ref.z_limit(1) < 5.0
    assert ref.z_limit(100) > ref.z_limit(10) > ref.z_limit(1)
