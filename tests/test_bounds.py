import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fhmix
from fhmix import (
    CorrelationExtremes,
    DegenerateMarginalError,
    MarginalSpec,
    bernoulli_corr_extremes,
    corr_extremes,
    moments,
    quantile,
)
from helpers import corr_z, finite_sum_extremes, quad_corr_extremes

NORMAL_EXPONENTIAL_RHO = 0.9031972855686253  # mpmath, 30 digits


def two_point(p: float) -> MarginalSpec:
    """Bern(p) rebuilt as an empirical marginal, to take the finite-sum path."""
    return MarginalSpec.empirical([0.0, 1.0], [1.0 - p, p])


def test_exponential_pair_extremes():
    ext = corr_extremes(MarginalSpec.exponential(1.0), MarginalSpec.exponential(1.0))
    assert ext.method == "closed_form"
    assert ext.rho_minus == pytest.approx(1.0 - math.pi ** 2 / 6.0, abs=1e-6)
    assert ext.rho_plus == pytest.approx(1.0, abs=1e-6)


def test_many_atom_empirical_stays_in_the_error_hierarchy():
    # 999 jump points: more quadrature breakpoints than the default
    # subinterval limit of 400
    values = np.sort(np.random.default_rng(8).normal(size=1000))
    emp = MarginalSpec.empirical(values)
    ext = corr_extremes(emp, MarginalSpec.uniform(0.0, 1.0))
    # exact finite sums: atom k carries u in (c_k, c_{k+1}], each of mass 1/1000
    c = np.arange(1001) / 1000.0
    plus = float(np.sum(values * (c[1:] ** 2 - c[:-1] ** 2) / 2.0))  # E[Q(U) U]
    minus = float(values.mean()) - plus                             # E[Q(U) (1 - U)]
    mu, sd = float(values.mean()), float(values.std())
    scale = sd / math.sqrt(12.0)
    assert ext.rho_plus == pytest.approx((plus - 0.5 * mu) / scale, abs=1e-7)
    assert ext.rho_minus == pytest.approx((minus - 0.5 * mu) / scale, abs=1e-7)


def test_uniform_pair_extremes():
    ext = corr_extremes(MarginalSpec.uniform(0.0, 1.0), MarginalSpec.uniform(0.0, 1.0))
    assert ext.rho_minus == pytest.approx(-1.0, abs=1e-8)
    assert ext.rho_plus == pytest.approx(1.0, abs=1e-8)


def test_normal_pair_extremes_vs_monte_carlo():
    m = MarginalSpec.normal(0.0, 1.0)
    ext = corr_extremes(m, m)
    assert ext.rho_plus == pytest.approx(1.0, abs=1e-6)
    # oracle: Monte Carlo correlation of the antithetic quantile transforms
    rng = np.random.default_rng(123)
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=10_000_000)
    x = quantile(m, u)
    y = quantile(m, 1.0 - u)
    mc = float(np.corrcoef(x, y)[0, 1])
    assert ext.rho_minus == pytest.approx(mc, abs=1e-6)
    assert ext.rho_minus == pytest.approx(-1.0, abs=1e-6)


def test_bernoulli_half_pair_is_full_interval():
    ext = bernoulli_corr_extremes(0.5, 0.5)
    assert ext.rho_minus == -1.0
    assert ext.rho_plus == 1.0
    assert ext.method == "closed_form"


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.77])
def test_equal_bernoulli_attains_plus_one(p):
    assert bernoulli_corr_extremes(p, p).rho_plus == pytest.approx(1.0, abs=1e-15)


def test_bernoulli_extremes_vs_enumeration_oracle():
    # oracle: correlation is linear in the overlap mass, so optimize it by
    # scanning the overlap across its achievable range
    p, q = 0.3, 0.6
    denom = math.sqrt(p * q * (1.0 - p) * (1.0 - q))
    overlaps = np.linspace(max(0.0, p + q - 1.0), min(p, q), 200_001)
    corrs = (overlaps - p * q) / denom
    ext = bernoulli_corr_extremes(p, q)
    assert ext.rho_minus == pytest.approx(float(corrs.min()), abs=1e-9)
    assert ext.rho_plus == pytest.approx(float(corrs.max()), abs=1e-9)
    assert ext.rho_minus == pytest.approx(-0.801784, abs=1e-6)
    assert ext.rho_plus == pytest.approx(0.534522, abs=1e-6)


@pytest.mark.parametrize("p,q", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
def test_bernoulli_degenerate_rejected(p, q):
    with pytest.raises(DegenerateMarginalError):
        bernoulli_corr_extremes(p, q)


def test_closed_form_agrees_with_quadrature():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, q = rng.uniform(0.05, 0.95, size=2)
        closed = bernoulli_corr_extremes(p, q)
        quadrature = corr_extremes(two_point(p), two_point(q))
        assert quadrature.method == "closed_form"
        assert quadrature.rho_minus == pytest.approx(closed.rho_minus, abs=1e-7)
        assert quadrature.rho_plus == pytest.approx(closed.rho_plus, abs=1e-7)


def test_bernoulli_pair_dispatches_to_closed_form():
    ext = corr_extremes(MarginalSpec.bernoulli(0.3), MarginalSpec.bernoulli(0.6))
    assert ext == bernoulli_corr_extremes(0.3, 0.6)


@pytest.mark.parametrize(
    "m",
    [
        MarginalSpec.uniform(-1.0, 2.0),
        MarginalSpec.exponential(0.5),
        MarginalSpec.normal(1.0, 2.0),
        MarginalSpec.empirical([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]),
    ],
)
def test_identical_marginals_attain_plus_one(m):
    assert corr_extremes(m, m).rho_plus == pytest.approx(1.0, abs=1e-6)


def test_argument_order_is_irrelevant():
    pairs = [
        (MarginalSpec.uniform(0.0, 1.0), MarginalSpec.exponential(2.0)),
        (MarginalSpec.normal(0.0, 1.0), MarginalSpec.exponential(1.0)),
        (MarginalSpec.bernoulli(0.4), MarginalSpec.uniform(0.0, 1.0)),
        (MarginalSpec.empirical([0.0, 2.0], [0.5, 0.5]), MarginalSpec.normal(0.0, 1.0)),
    ]
    for mi, mj in pairs:
        assert corr_extremes(mi, mj) == corr_extremes(mj, mi)


@pytest.mark.parametrize(
    "mi,mj",
    [
        (MarginalSpec.uniform(0.0, 1.0), MarginalSpec.exponential(1.0)),
        (MarginalSpec.exponential(1.0), MarginalSpec.normal(0.0, 1.0)),
    ],
)
def test_antithetic_monte_carlo_matches_rho_minus(mi, mj):
    ext = corr_extremes(mi, mj)
    rng = np.random.default_rng(42)
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=1_000_000)
    x = quantile(mi, u)
    y = quantile(mj, 1.0 - u)
    (mux, sdx), (muy, sdy) = moments(mi), moments(mj)
    assert abs(corr_z(x, y, mux, sdx, muy, sdy, ext.rho_minus)) <= 4.0


def test_mixed_pair_has_interior_maximum():
    ext = corr_extremes(MarginalSpec.uniform(0.0, 1.0), MarginalSpec.exponential(1.0))
    assert ext.rho_minus < 0.0 < ext.rho_plus < 1.0


def test_extremes_ordering_invariant():
    rng = np.random.default_rng(5)
    families = [
        MarginalSpec.uniform(0.0, 1.0),
        MarginalSpec.exponential(1.0),
        MarginalSpec.normal(0.0, 1.0),
        MarginalSpec.bernoulli(0.3),
        MarginalSpec.empirical([0.0, 1.0, 2.0], [0.3, 0.4, 0.3]),
    ]
    for _ in range(10):
        mi, mj = rng.choice(len(families), size=2)
        ext = corr_extremes(families[mi], families[mj])
        assert ext.rho_minus <= ext.rho_plus
        assert -1.0 <= ext.rho_minus and ext.rho_plus <= 1.0


def test_degenerate_flag():
    assert CorrelationExtremes(0.5, 0.5, "closed_form").degenerate
    assert not CorrelationExtremes(-1.0, 1.0, "closed_form").degenerate


def test_normal_exponential_constant():
    exact = CorrelationExtremes(-NORMAL_EXPONENTIAL_RHO, NORMAL_EXPONENTIAL_RHO, "closed_form")
    for normal in (MarginalSpec.normal(0.0, 1.0), MarginalSpec.normal(-2.0, 0.1),
                   MarginalSpec.normal(1e6, 3e4)):
        for rate in (1.0, 3.0, 1e-4):
            exponential = MarginalSpec.exponential(rate)
            assert corr_extremes(exponential, normal) == exact
            assert corr_extremes(normal, exponential) == exact


def test_normal_exponential_constant_is_the_quantile_integral():
    # Corr(Phi^-1(U), -log(1 - U)), folded at 1/2 so that no node comes
    # near u = 1, where both quantiles diverge
    normal, exponential = MarginalSpec.normal(0.0, 1.0), MarginalSpec.exponential(1.0)

    def product(u: float) -> float:
        return quantile(normal, u) * (quantile(exponential, u) - 1.0)

    value, abserr = quad(lambda u: product(u) + product(1.0 - u), 0.0, 0.5,
                         epsabs=1e-13, epsrel=0.0, limit=100)
    assert abserr <= 1e-12
    assert value == pytest.approx(NORMAL_EXPONENTIAL_RHO, abs=1e-12)


def test_importing_fhmix_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(fhmix.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, fhmix, fhmix.cli; assert 'scipy.integrate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize(
    "mi,mj,rho",
    [
        (MarginalSpec.normal(1e6, 1.0), MarginalSpec.uniform(0.0, 1.0), math.sqrt(3.0 / math.pi)),
        (MarginalSpec.normal(0.0, 1e6), MarginalSpec.uniform(0.0, 1.0), math.sqrt(3.0 / math.pi)),
        (MarginalSpec.uniform(1e9, 1e9 + 1.0), MarginalSpec.exponential(1.0), math.sqrt(3.0) / 2.0),
        (MarginalSpec.exponential(1e-4), MarginalSpec.uniform(0.0, 1.0), math.sqrt(3.0) / 2.0),
        (MarginalSpec.normal(1e6, 1.0), MarginalSpec.exponential(1.0), NORMAL_EXPONENTIAL_RHO),
    ],
)
def test_large_location_and_scale_give_shape_constants(mi, mj, rho):
    # each of these raised QuadratureError under an absolute tolerance on the
    # raw quantile-product integral
    ext = corr_extremes(mi, mj)
    assert ext.rho_minus == pytest.approx(-rho, abs=1e-12)
    assert ext.rho_plus == pytest.approx(rho, abs=1e-12)


def test_exponential_against_offset_empirical():
    # numerical integration of these extremes failed on about one pair in 15
    rng = np.random.default_rng(123)
    for _ in range(300):
        values = np.round(rng.uniform(-5.0, -4.0, size=6), 3)
        counts = 1 + rng.multinomial(1024 - 6, np.full(6, 1 / 6))
        emp = MarginalSpec.empirical(values, counts / 1024)
        expo = MarginalSpec.exponential(round(float(rng.uniform(0.5, 2.0)), 3))
        ext = corr_extremes(emp, expo)
        lo, hi = finite_sum_extremes(emp, expo)
        assert ext.rho_minus == pytest.approx(lo, abs=1e-9)
        assert ext.rho_plus == pytest.approx(hi, abs=1e-9)


@pytest.mark.parametrize("cont", [MarginalSpec.normal(0.3, 2.0), MarginalSpec.exponential(1.5)])
def test_many_atom_empirical_matches_finite_sums(cont):
    emp = MarginalSpec.empirical(np.random.default_rng(9).normal(size=3000))
    ext = corr_extremes(emp, cont)
    lo, hi = finite_sum_extremes(emp, cont)
    assert ext.rho_minus == pytest.approx(lo, abs=1e-9)
    assert ext.rho_plus == pytest.approx(hi, abs=1e-9)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def marginal_and_transform(draw):
    """A marginal, and a copy moved by a location of up to about 1e9 and
    scaled by 2^-13 .. 2^20.

    Locations are +-10^d plus a small integer, so that large ones come up
    often; with power-of-two scales and empirical values in multiples of 1/8
    the copy's parameters are exact in floating point, so it is the same
    distribution up to location and scale.  Exponential marginals take the
    scale through their rate; Bernoulli ones stay put.
    """
    family = draw(st.sampled_from(["uniform", "exponential", "normal", "bernoulli", "empirical"]))
    loc = float(draw(st.sampled_from([-1, 1])) * 10 ** draw(st.integers(0, 9))
                + draw(st.integers(-1000, 1000)))
    scale = 2.0 ** draw(st.integers(-13, 20))
    unit = st.floats(0.25, 4.0)
    if family == "uniform":
        a, w = draw(st.floats(-2.0, 2.0)), draw(unit)
        return (MarginalSpec.uniform(a, a + w),
                MarginalSpec.uniform(loc + scale * a, loc + scale * (a + w)))
    if family == "normal":
        mean, sd = draw(st.floats(-2.0, 2.0)), draw(unit)
        return MarginalSpec.normal(mean, sd), MarginalSpec.normal(loc + scale * mean, scale * sd)
    if family == "exponential":
        rate = draw(unit)
        return MarginalSpec.exponential(rate), MarginalSpec.exponential(rate / scale)
    if family == "bernoulli":
        m = MarginalSpec.bernoulli(draw(st.floats(0.02, 0.98)))
        return m, m
    k = draw(st.integers(2, 8))
    values = [v / 8.0 for v in draw(st.lists(st.integers(-64, 64), min_size=k, max_size=k,
                                             unique=True))]
    counts = draw(st.lists(st.integers(1, 16), min_size=k, max_size=k))
    weights = [c / sum(counts) for c in counts]
    return (MarginalSpec.empirical(values, weights),
            MarginalSpec.empirical([loc + scale * v for v in values], weights))


def _far_empirical():
    values, weights = [-1.0, 0.125, 2.0, 3.5], [0.1, 0.2, 0.3, 0.4]
    moved = [1e9 - 999.0 + 2.0 ** -13 * v for v in values]
    return MarginalSpec.empirical(values, weights), MarginalSpec.empirical(moved, weights)


@settings(max_examples=300, deadline=None)
@given(first=marginal_and_transform(), second=marginal_and_transform())
@example(first=_far_empirical(), second=_far_empirical())
@example(first=_far_empirical(), second=(MarginalSpec.uniform(0.0, 1.0),) * 2)
def test_extremes_invariant_symmetric_and_ordered(first, second):
    (mi, mi_moved), (mj, mj_moved) = first, second
    ext = corr_extremes(mi, mj)
    moved = corr_extremes(mi_moved, mj_moved)
    assert moved.rho_minus == pytest.approx(ext.rho_minus, abs=1e-12)
    assert moved.rho_plus == pytest.approx(ext.rho_plus, abs=1e-12)
    assert moved.method == ext.method
    for a, b in ((mi, mj), (mi_moved, mj_moved)):
        e = corr_extremes(a, b)
        assert corr_extremes(b, a) == e
        assert -1.0 <= e.rho_minus <= e.rho_plus <= 1.0


@settings(max_examples=40, deadline=None)
@given(first=marginal_and_transform(), second=marginal_and_transform())
def test_extremes_match_quadrature_oracle(first, second):
    mi, mj = first[0], second[0]
    ext = corr_extremes(mi, mj)
    lo, hi = quad_corr_extremes(mi, mj)
    assert ext.rho_minus == pytest.approx(lo, abs=1e-7)
    assert ext.rho_plus == pytest.approx(hi, abs=1e-7)
