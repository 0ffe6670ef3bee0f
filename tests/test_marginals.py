import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from fhmix import DomainError, InvalidMarginalError, MarginalSpec, moments, quantile
from fhmix.marginals import _quantile_into
from helpers import (
    KS_ALPHA,
    ks_pvalue,
    mean_z,
    quantile_jumps,
    spy_on_levels,
    standard_normal_quantile,
    ulps,
)

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
    before the in-place kernels: the kernels must keep every rounding.  The
    normal's is the standard library's AS241."""
    if m.family == "uniform":
        a, b = m.params
        return a + (b - a) * u
    if m.family == "exponential":
        (rate,) = m.params
        return -np.log1p(-u) / rate
    if m.family == "normal":
        mean, sd = m.params
        return mean + sd * standard_normal_quantile(u)
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
    got = in_place.tobytes()
    assert quantile(m, u).tobytes() == got
    assert np.array([quantile(m, float(v)) for v in u[-50:]]).tobytes() == got[-50 * 8:]
    if m.family == "normal":
        # mean + sd z of the standard quantile z, which equals the standard
        # library's in the central branch and is within 4 ulp of it in the tails
        mean, sd = m.params
        z = quantile(MarginalSpec.normal(0.0, 1.0), u)
        assert got == (mean + sd * z).tobytes()
        central = np.abs(u - 0.5) <= 0.425
        assert central.sum() > 15_000 and (~central).sum() > 2_000
        want = standard_normal_quantile(u)
        assert z[central].tobytes() == want[central].tobytes()
        assert ulps(z[~central], want[~central]).max() <= 4
    else:
        assert got == reference_quantile(m, u).tobytes()


@pytest.mark.parametrize("rate", [1e-300, 1e-5, 0.25, 1.0, 3.0, 7.1, 1e12, 1e300])
def test_exponential_quantile_is_minus_log1p_over_rate(rate):
    u = np.concatenate([np.random.default_rng(5).random(2 ** 20),
                        [2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 5e-324, 1e-310, 2.0 ** -1022]])
    u = u[u > 0.0]
    got = quantile(MarginalSpec.exponential(rate), u)
    assert got.tobytes() == (-np.log1p(-u) / rate).tobytes()


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
    "make",
    [
        lambda: MarginalSpec.uniform(-1e308, 1e308),  # b - a is inf: every draw is inf
        lambda: MarginalSpec.exponential(1e-320),     # 1/rate is inf
        lambda: MarginalSpec.normal(0.0, 1e308),      # the tails draw inf
        lambda: MarginalSpec.empirical([-1e308, 1e308]),  # its spread is inf
    ],
)
def test_marginals_that_overflow_are_rejected(make):
    # finite parameters, but a mean, sd or extreme quantile that is not
    with pytest.raises(InvalidMarginalError, match="overflows"):
        make()


@pytest.mark.parametrize(
    "values,weights",
    [
        ((1.0, 0.0), (0.9, 0.9)),             # decreasing values
        ((0.0, 1.0, 2.0), (0.5, 0.5)),        # fewer weights than values
        ((0.0, 1.0), (1.5, -0.5)),            # a negative weight
        ((0.0, 0.0, 1.0), (0.25, 0.25, 0.5)),  # a tie left unmerged
        ((0.0, math.inf), (0.5, 0.5)),
        ((0.0, 1.0), (0.5, 0.6)),
    ],
)
def test_the_constructor_checks_an_empirical_law(values, weights):
    with pytest.raises(InvalidMarginalError):
        MarginalSpec("empirical", (), values=values, weights=weights)


@pytest.mark.parametrize(
    "values,weights",
    [
        ([1.0, 1.0, 2.0], [-0.1, 0.6, 0.5]),      # merging ties would hide it
        ([math.nan, 0.0, 1.0], [0.0, 0.5, 0.5]),  # dropping zeros would hide it
    ],
)
def test_bad_input_does_not_hide_in_ties_or_zero_weights(values, weights):
    with pytest.raises(InvalidMarginalError):
        MarginalSpec.empirical(values, weights)


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


def test_an_empirical_spec_builds_its_guide_table_once(monkeypatch):
    calls = spy_on_levels(monkeypatch)
    m = MarginalSpec.empirical(np.arange(48.0), [1 / 64] * 32 + [1 / 32] * 16)
    assert calls == [48] and "_levels" in vars(m)
    assert m._levels.steps == 1 and m._levels.cdf[47] == 1.0
    calls.clear()
    # weights short of 1 are checked as given, then normalized: two specs
    m = MarginalSpec.empirical([0.0, 1.0, 2.0], [0.5, 0.25, 0.25 - 1e-13])
    assert calls == [3, 3] and math.fsum(m.weights) == 1.0
    calls.clear()
    for other in ALL_FAMILIES:
        if other.family != "empirical":
            MarginalSpec(other.family, other.params)
    assert calls == []


def test_an_empirical_spec_keeps_its_table_through_pickle_and_replace():
    m = MarginalSpec.empirical([0.0, 1.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
    for other in (pickle.loads(pickle.dumps(m)), dataclasses.replace(m)):
        assert other == m and hash(other) == hash(m) and repr(other) == repr(m)
        assert other._levels.steps == m._levels.steps
        assert np.array_equal(other._levels.cells, m._levels.cells)
        assert other._levels.cdf.tobytes() == m._levels.cdf.tobytes()


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


def test_quantile_jumps_are_interior():
    # 1 - 1e-17 rounds to 1.0, which is no interior jump
    assert quantile_jumps(MarginalSpec.bernoulli(1e-17)) == ()
    assert quantile_jumps(MarginalSpec.bernoulli(1e-9)) == (1.0 - 1e-9,)
    for m in ALL_FAMILIES:
        assert all(0.0 < u < 1.0 for u in quantile_jumps(m))


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
