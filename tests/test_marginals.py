import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from fhmix import DomainError, InvalidMarginalError, MarginalSpec, moments, quantile
from fhmix.marginals import _quantile_into
from helpers import KS_ALPHA, ks_pvalue, mean_z

ALL_FAMILIES = [
    MarginalSpec.uniform(0.0, 1.0),
    MarginalSpec.uniform(-2.0, 3.0),
    MarginalSpec.exponential(1.0),
    MarginalSpec.exponential(0.25),
    MarginalSpec.normal(0.0, 1.0),
    MarginalSpec.normal(-1.0, 2.5),
    MarginalSpec.bernoulli(0.5),
    MarginalSpec.bernoulli(0.2),
    MarginalSpec.empirical([0.0, 1.0, 4.0], [0.5, 0.25, 0.25]),
]


@pytest.mark.parametrize(
    "m,u,expected",
    [
        (MarginalSpec.bernoulli(0.5), 0.9, 1.0),
        (MarginalSpec.bernoulli(0.5), 0.5, 0.0),   # inf{x: F(x) >= u} at the jump
        (MarginalSpec.bernoulli(0.5), 0.500001, 1.0),
        (MarginalSpec.uniform(0.0, 1.0), 0.3, 0.3),
        (MarginalSpec.exponential(1.0), 0.5, math.log(2.0)),
        (MarginalSpec.normal(0.0, 1.0), 0.5, 0.0),
        (MarginalSpec.empirical([0.0, 1.0], [0.5, 0.5]), 0.5, 0.0),
        (MarginalSpec.empirical([0.0, 1.0], [0.5, 0.5]), 0.5000001, 1.0),
    ],
)
def test_quantile_examples(m, u, expected):
    assert quantile(m, u) == pytest.approx(expected, abs=1e-12)


def test_quantile_vectorized_matches_scalar():
    u = np.linspace(0.01, 0.99, 57)
    for m in ALL_FAMILIES:
        vec = quantile(m, u)
        scal = np.array([quantile(m, float(v)) for v in u])
        assert np.array_equal(vec, scal)


def reference_quantile(m: MarginalSpec, u: np.ndarray) -> np.ndarray:
    """Each family's formula written out plainly, as the library had it
    before the in-place kernels: the kernels must keep every rounding."""
    if m.family == "uniform":
        a, b = m.params
        return a + (b - a) * u
    if m.family == "exponential":
        (rate,) = m.params
        return -np.log1p(-u) / rate
    if m.family == "normal":
        mean, sd = m.params
        return mean + sd * ndtri(u)
    if m.family == "bernoulli":
        (p,) = m.params
        return np.where(u > 1.0 - p, 1.0, 0.0)
    cumw = np.cumsum(m.weights)
    cumw[-1] = 1.0
    return np.asarray(m.values)[np.searchsorted(cumw, u, side="left")]


@pytest.mark.parametrize("m", ALL_FAMILIES + [
    MarginalSpec.exponential(3.0),
    MarginalSpec.uniform(1e9, 1e9 + 7.0),
    MarginalSpec.empirical(np.arange(48.0) ** 2, np.arange(1.0, 49.0) / 1176.0),
])
def test_public_and_sampler_quantiles_agree_bit_for_bit(m):
    rng = np.random.default_rng(17)
    edges = [1.0 - m.params[0]] if m.family == "bernoulli" else []
    if m.family == "empirical":
        edges = list(np.cumsum(m.weights)[:-1])
    u = np.concatenate([rng.random(20_000), edges, np.nextafter(edges, 0.0),
                        np.nextafter(edges, 1.0), [2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]])
    u = u[(u > 0.0) & (u < 1.0)]
    in_place = u.copy()
    _quantile_into(m, in_place, in_place)
    expected = reference_quantile(m, u).tobytes()
    assert in_place.tobytes() == expected
    assert quantile(m, u).tobytes() == expected
    assert np.array([quantile(m, float(v)) for v in u[-50:]]).tobytes() == expected[-50 * 8:]


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_quantile_rejects_endpoints(bad):
    for m in (MarginalSpec.uniform(0, 1), MarginalSpec.bernoulli(0.5)):
        with pytest.raises(DomainError):
            quantile(m, bad)
        with pytest.raises(DomainError):
            quantile(m, np.array([0.5, bad]))


def test_normal_quantile_accuracy():
    # round-trip through the cdf: |Phi(Phi^-1(u)) - u| stays below 1e-9
    m = MarginalSpec.normal(0.0, 1.0)
    u = np.concatenate([
        np.linspace(1e-10, 1e-2, 2001),
        np.linspace(0.01, 0.99, 4001),
        1.0 - np.linspace(1e-10, 1e-2, 2001),
    ])
    z = quantile(m, u)
    assert np.max(np.abs(ndtr(z) - u)) < 1e-9


@pytest.mark.parametrize(
    "make",
    [
        lambda: MarginalSpec.uniform(1.0, 1.0),
        lambda: MarginalSpec.uniform(2.0, 1.0),
        lambda: MarginalSpec.exponential(0.0),
        lambda: MarginalSpec.exponential(-1.0),
        lambda: MarginalSpec.normal(0.0, 0.0),
        lambda: MarginalSpec.normal(0.0, -2.0),
        lambda: MarginalSpec.bernoulli(0.0),
        lambda: MarginalSpec.bernoulli(1.0),
        lambda: MarginalSpec.bernoulli(-0.5),
        lambda: MarginalSpec.empirical([1.0], [1.0]),
        lambda: MarginalSpec.empirical([1.0, 1.0], [0.5, 0.5]),   # merges to one atom
        lambda: MarginalSpec.empirical([0.0, 1.0], [0.6, 0.6]),
        lambda: MarginalSpec.empirical([0.0, 1.0], [0.5]),
        lambda: MarginalSpec("weird", (1.0,)),
    ],
)
def test_invalid_marginals_rejected(make):
    with pytest.raises(InvalidMarginalError):
        make()


@pytest.mark.parametrize(
    "family, params",
    [
        ("uniform", (0.0,)),
        ("uniform", (0.0, 1.0, 2.0)),
        ("exponential", ()),
        ("exponential", (1.0, 2.0)),
        ("normal", (0.0,)),
        ("normal", (0.0, 1.0, 2.0)),
        ("bernoulli", ()),
        ("bernoulli", (0.5, 0.5)),
        ("empirical", (1.0,)),
    ],
)
def test_wrong_parameter_count_rejected(family, params):
    # empirical keeps its law in values/weights and takes no params
    with pytest.raises(InvalidMarginalError, match="params must be"):
        MarginalSpec(family, params, values=(0.0, 1.0), weights=(0.5, 0.5))


def test_empirical_merges_ties_and_sorts():
    m = MarginalSpec.empirical([2.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    assert m.values == (1.0, 2.0)
    assert m.weights == (0.5, 0.5)


@pytest.mark.parametrize(
    "m,expected",
    [
        (MarginalSpec.bernoulli(0.5), (0.5, 0.5)),
        (MarginalSpec.exponential(1.0), (1.0, 1.0)),
        (MarginalSpec.uniform(0.0, 1.0), (0.5, 1.0 / math.sqrt(12.0))),
        (MarginalSpec.normal(-1.0, 2.5), (-1.0, 2.5)),
    ],
)
def test_moments_examples(m, expected):
    mu, sd = moments(m)
    assert mu == pytest.approx(expected[0], abs=1e-15)
    assert sd == pytest.approx(expected[1], abs=1e-15)


def test_empirical_moments_match_numpy():
    vals = [0.0, 1.0, 4.0]
    wts = [0.5, 0.25, 0.25]
    mu, sd = moments(MarginalSpec.empirical(vals, wts))
    v = np.array(vals)
    w = np.array(wts)
    assert mu == pytest.approx(float(w @ v), abs=1e-15)
    assert sd == pytest.approx(math.sqrt(float(w @ (v - mu) ** 2)), abs=1e-15)


def test_empirical_moments_ignore_location():
    # values loc + 2^j v are exact in binary, so Fraction gives the true sd
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(2000):
        k = int(rng.integers(2, 9))
        loc = int(rng.integers(0, 10 ** 9))
        scale = 2.0 ** int(rng.integers(-13, 21))
        offsets = rng.choice(np.arange(-40, 41), size=k, replace=False) / 8
        counts = rng.integers(1, 64, size=k)
        m = MarginalSpec.empirical([loc + scale * v for v in offsets], counts / counts.sum())
        xs = [Fraction(v) for v in m.values]
        ws = [Fraction(w) for w in m.weights]
        mean = sum(w * x for w, x in zip(ws, xs)) / sum(ws)
        sd = math.sqrt(sum(w * (x - mean) ** 2 for w, x in zip(ws, xs)) / sum(ws))
        worst = max(worst, abs(moments(m)[1] - sd) / sd)
    assert worst <= 1e-13


def test_quantile_monotone():
    rng = np.random.default_rng(20240811)
    u = np.sort(rng.uniform(1e-9, 1.0 - 1e-9, size=4000))
    for m in ALL_FAMILIES:
        q = quantile(m, u)
        assert np.all(np.diff(q) >= 0.0), f"quantile not monotone for {m}"


def test_quantile_transform_passes_ks():
    rng = np.random.default_rng(7)
    for m in ALL_FAMILIES:
        x = quantile(m, rng.uniform(1e-12, 1.0 - 1e-12, size=100_000))
        assert ks_pvalue(x, m) >= KS_ALPHA, f"KS failed for {m}"


def test_moment_consistency_one_million():
    rng = np.random.default_rng(99)
    for m in ALL_FAMILIES:
        mu, sd = moments(m)
        x = quantile(m, rng.uniform(1e-12, 1.0 - 1e-12, size=1_000_000))
        assert abs(mean_z(x, mu)) <= 4.0, f"mean off for {m}"
        assert abs(mean_z((x - mu) ** 2, sd ** 2)) <= 4.0, f"variance off for {m}"
