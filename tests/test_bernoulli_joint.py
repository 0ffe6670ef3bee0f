import itertools
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhmix import (
    ConcurrenceMatrix,
    DomainError,
    InfeasibleError,
    InvalidDistributionError,
    InvalidMatrixError,
    JointPMF,
    NumericalError,
    asymmetric_pair_feasible,
    atom_bits,
    atom_index,
    bivariate_pmf,
    lift_asymmetric_draw,
    lp_feasible,
    pushforward,
    quadrivariate_alpha_interval,
    quadrivariate_lifted_pmf,
    quadrivariate_pmf,
    quadrivariate_sample,
    reduce_symmetric_draw,
    symmetrize,
    trivariate_alpha_interval,
    trivariate_feasible,
    trivariate_pmf,
    trivariate_sample_direct,
    violated_principal_submatrix,
)
from fhmix import bernoulli_joint
from fhmix.bernoulli_joint import _bit_table, lift
from helpers import (
    FixedCoin,
    asym_pair_pmf,
    concurrence_z,
    direct_algorithm_law,
    leaky_lift,
    lift_law,
    pmf_residual,
    random_feasible_quad,
    random_feasible_triple,
    solve_three_coordinate_system,
)


# ---------------------------------------------------------------------------
# atoms and containers
# ---------------------------------------------------------------------------

def test_atom_indexing_roundtrip():
    for n in (1, 2, 3, 4, 6):
        for k in range(2 ** n):
            assert atom_index(atom_bits(k, n)) == k
    assert atom_bits(4, 3) == (1, 0, 0)  # first coordinate is the high bit


def test_concurrence_matrix_validation():
    with pytest.raises(InvalidMatrixError):
        ConcurrenceMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(InvalidMatrixError):
        ConcurrenceMatrix(np.array([[1.0, 1.3], [1.3, 1.0]]))
    with pytest.raises(InvalidMatrixError):
        ConcurrenceMatrix(np.array([[0.9, 0.2], [0.2, 1.0]]))
    m = ConcurrenceMatrix.from_lower_triangle([0.1, 0.2, 0.3], 3)
    assert m.entry(1, 0) == 0.1 and m.entry(2, 0) == 0.2 and m.entry(2, 1) == 0.3
    assert np.array_equal(m.entries, m.entries.T)


def test_joint_pmf_validation():
    with pytest.raises(InvalidDistributionError):
        JointPMF(2, np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(InvalidDistributionError):
        JointPMF(2, np.array([0.3, 0.3, 0.3, 0.3]))
    # tiny negatives are clamped
    pmf = JointPMF(1, np.array([1.0 + 1e-13, -1e-13]))
    assert pmf.probs[1] == 0.0


def test_accessors_reject_a_coordinate_outside_the_pmf():
    pmf = JointPMF(3, np.full(8, 0.125))
    for bad in (-1, -3, 3, 7, 1.0, 1.5):
        msg = rf"coordinate {bad} is not in 0\.\.2"
        with pytest.raises(DomainError, match=msg):
            pmf.marginal_prob(bad)
        with pytest.raises(DomainError, match=msg):
            pmf.concurrence(0, bad)
        with pytest.raises(DomainError, match=msg):
            pmf.concurrence(bad, 1)
    assert pmf.concurrence(1, 1) == 1.0
    assert pmf.concurrence(2, 0) == pmf.concurrence(0, 2) == 0.5


@st.composite
def joint_pmfs(draw):
    """Random, dyadic or sparse pmfs at n = 1..12."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("random", "dyadic", "sparse")))
    if kind == "random":
        weights = rng.random(2 ** n)
    elif kind == "dyadic":
        weights = rng.multinomial(1024, np.full(2 ** n, 0.5 ** n)) / 1024.0
    else:
        weights = np.zeros(2 ** n)
        atoms = rng.choice(2 ** n, size=min(2 ** n, int(rng.integers(1, 6))), replace=False)
        weights[atoms] = rng.random(atoms.size) + 1e-3
    return JointPMF(n, weights / weights.sum())


@settings(max_examples=80, deadline=None)
@given(pmf=joint_pmfs())
def test_accessors_equal_the_masked_sums_bit_for_bit(pmf):
    # the per-coordinate masked sums are the floats every caller has seen,
    # and the LP's pivots react to a change of one ulp in its inputs
    bits = _bit_table(pmf.n)
    conc = pmf.concurrence_matrix().entries
    for i in range(pmf.n):
        assert pmf.marginal_prob(i) == float(pmf.probs[bits[:, i] == 1].sum())
        for j in range(pmf.n):
            agree = float(pmf.probs[bits[:, i] == bits[:, j]].sum())
            assert pmf.concurrence(i, j) == agree
            if i != j:
                assert conc[i, j] == min(1.0, agree)


def test_a_lifted_pmf_that_misses_a_row_raises_naming_it(monkeypatch):
    monkeypatch.setattr(bernoulli_joint, "lift", leaky_lift(lift))
    with pytest.raises(NumericalError, match=r"concurrence \(1,3\) row"):
        quadrivariate_lifted_pmf(ConcurrenceMatrix.filled(4, 1.0), 1.0)


# ---------------------------------------------------------------------------
# n = 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "lam,expected",
    [
        (1.0, (0.5, 0.0, 0.0, 0.5)),
        (0.0, (0.0, 0.5, 0.5, 0.0)),
        (0.3, (0.15, 0.35, 0.35, 0.15)),
    ],
)
def test_bivariate_table(lam, expected):
    pmf = bivariate_pmf(lam)
    assert tuple(pmf.probs) == expected
    # agreement cells are exactly lambda/2, disagreement exactly (1-lambda)/2
    assert pmf.probs[0] == lam / 2.0 and pmf.probs[3] == lam / 2.0
    assert pmf.probs[1] == (1.0 - lam) / 2.0 and pmf.probs[2] == (1.0 - lam) / 2.0


def test_bivariate_constraints_exact():
    rng = np.random.default_rng(11)
    conc = np.eye(2)
    for lam in rng.random(100):
        conc[0, 1] = conc[1, 0] = lam
        assert pmf_residual(bivariate_pmf(lam), (0.5, 0.5), conc) <= 1e-12


# ---------------------------------------------------------------------------
# n = 3, symmetric
# ---------------------------------------------------------------------------

def test_trivariate_feasibility_examples():
    assert not trivariate_feasible(0.3, 0.3, 0.3)
    assert trivariate_feasible(1.0, 1.0, 1.0)
    assert trivariate_feasible(0.5, 0.5, 0.5)
    assert lp_feasible([0.5] * 3, ConcurrenceMatrix.filled(3, 0.5)).feasible


def test_trivariate_alpha_interval_examples():
    iv = trivariate_alpha_interval(0.5, 0.5, 0.5)
    assert (iv.lo, iv.hi) == (0.0, 0.25)
    # every alpha on a 0.05 grid inside the interval yields a valid pmf
    for alpha in np.arange(0.0, 0.2500001, 0.05):
        pmf = trivariate_pmf(0.5, 0.5, 0.5, float(alpha))
        assert pmf.probs.min() >= 0.0

    iv1 = trivariate_alpha_interval(1.0, 1.0, 1.0)
    assert (iv1.lo, iv1.hi) == (0.5, 0.5)

    iv3 = trivariate_alpha_interval(0.3, 0.3, 0.3)
    assert not iv3.feasible
    assert iv3.lo == 0.0
    assert iv3.hi == pytest.approx(-0.05, abs=1e-12)


@pytest.mark.parametrize(
    "alpha,expected",
    [
        (0.25, (0.0, 0.25, 0.25, 0.0, 0.25, 0.0, 0.0, 0.25)),
        (0.0, (0.25, 0.0, 0.0, 0.25, 0.0, 0.25, 0.25, 0.0)),
    ],
)
def test_trivariate_half_tables(alpha, expected):
    pmf = trivariate_pmf(0.5, 0.5, 0.5, alpha)
    assert np.allclose(pmf.probs, expected, atol=1e-15)


def test_trivariate_all_ones():
    pmf = trivariate_pmf(1.0, 1.0, 1.0, 0.5)
    expected = np.zeros(8)
    expected[0] = expected[7] = 0.5
    assert np.array_equal(pmf.probs, expected)


def test_trivariate_alpha_out_of_range_names_atom():
    with pytest.raises(InfeasibleError, match=r"p\d{3}"):
        trivariate_pmf(0.5, 0.5, 0.5, 0.3)
    with pytest.raises(InfeasibleError, match=r"p000"):
        trivariate_pmf(0.5, 0.5, 0.5, 0.26)


def test_trivariate_matches_linear_system_solve():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        l12, l13, l23 = random_feasible_triple(rng)
        iv = trivariate_alpha_interval(l12, l13, l23)
        for alpha in (iv.lo, iv.midpoint, iv.hi):
            expected = solve_three_coordinate_system(
                (0.5, 0.5, 0.5), (l12, l13, l23), alpha
            )
            got = trivariate_pmf(l12, l13, l23, alpha).probs
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_trivariate_grid_agrees_with_lp():
    grid = np.linspace(0.0, 1.0, 5)
    for l12, l13, l23 in itertools.product(grid, repeat=3):
        closed = trivariate_feasible(l12, l13, l23)
        conc = ConcurrenceMatrix.from_lower_triangle([l12, l13, l23], 3)
        assert closed == lp_feasible([0.5] * 3, conc, mode="float").feasible


@st.composite
def small_dyadic_concurrences(draw):
    """A 3x3 or 4x4 concurrence matrix with dyadic entries: either k/16
    entries drawn at random, or the concurrences of a fair-coin law of
    sixteen masses of 1/16, each split evenly between an atom and its
    complement, on a random subset of atoms, so that laws on a face of the
    feasible set come up often.  Then up to two entries move by +-1/64
    (kept in [0, 1])."""
    n = draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(0, 16), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
        e = ConcurrenceMatrix.from_lower_triangle([k / 16 for k in ks], n).entries.copy()
    else:
        support = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=2 ** n,
                                unique=True))
        probs = np.zeros(2 ** n)
        for atom in draw(st.lists(st.sampled_from(support), min_size=16, max_size=16)):
            probs[atom] += 1 / 32
            probs[2 ** n - 1 - atom] += 1 / 32
        e = JointPMF(n, probs).concurrence_matrix().entries.copy()
    for i, j in draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                              max_size=2)):
        step = draw(st.sampled_from([-1, 1])) / 64
        e[i, j] = e[j, i] = min(1.0, max(0.0, e[i, j] + step))
    return ConcurrenceMatrix(e)


@settings(max_examples=300, deadline=None)
@given(conc=small_dyadic_concurrences())
def test_closed_form_verdicts_equal_the_exact_lp(conc):
    e = conc.entries
    if conc.n == 3:
        closed = trivariate_feasible(e[0, 1], e[0, 2], e[1, 2])
    else:
        closed = quadrivariate_alpha_interval(conc).feasible
    assert closed == lp_feasible([0.5] * conc.n, conc, mode="exact").feasible


# ---------------------------------------------------------------------------
# direct trivariate sampler
# ---------------------------------------------------------------------------

def test_direct_sampler_comonotone():
    rng = np.random.default_rng(1)
    draws = trivariate_sample_direct(1.0, 1.0, 1.0, rng, size=1000)
    assert np.all(draws.min(axis=1) == draws.max(axis=1))


def test_direct_sampler_rejects_infeasible():
    rng = np.random.default_rng(1)
    with pytest.raises(InfeasibleError, match="0.9"):
        trivariate_sample_direct(0.3, 0.3, 0.3, rng)


def test_direct_sampler_induced_law_is_exact():
    # the law implied by the interval construction hits the targets exactly
    rng = np.random.default_rng(77)
    for _ in range(20):
        l12, l13, l23 = random_feasible_triple(rng)
        law = direct_algorithm_law(l12, l13, l23)
        pmf = JointPMF(3, law)
        conc = np.array([[1.0, l12, l13], [l12, 1.0, l23], [l13, 1.0, 1.0]])
        conc[1, 2] = conc[2, 1] = l23
        assert pmf_residual(pmf, (0.5, 0.5, 0.5), conc) <= 1e-12


def test_direct_sampler_monte_carlo():
    rng = np.random.default_rng(404)
    l12, l13, l23 = 0.55, 0.4, 0.7
    assert trivariate_feasible(l12, l13, l23)
    draws = trivariate_sample_direct(l12, l13, l23, rng, size=200_000)
    targets = {(0, 1): l12, (0, 2): l13, (1, 2): l23}
    for (i, j), lam in targets.items():
        assert abs(concurrence_z(draws[:, i], draws[:, j], lam)) <= 4.0
    for i in range(3):
        assert abs(draws[:, i].mean() - 0.5) <= 4.0 * 0.5 / math.sqrt(draws.shape[0])


def test_direct_sampler_scalar_form():
    rng = np.random.default_rng(8)
    triple = trivariate_sample_direct(0.5, 0.5, 0.5, rng)
    assert isinstance(triple, tuple) and len(triple) == 3
    assert all(b in (0, 1) for b in triple)


# ---------------------------------------------------------------------------
# asymmetric <-> symmetric reduction
# ---------------------------------------------------------------------------

def test_symmetrize_borders_matrix():
    one = symmetrize([0.3], ConcurrenceMatrix(np.eye(1)))
    assert np.array_equal(one.entries, np.array([[1.0, 0.3], [0.3, 1.0]]))

    base = ConcurrenceMatrix.from_lower_triangle([0.6], 2)
    bordered = symmetrize([0.2, 0.9], base)
    expected = np.array([
        [1.0, 0.6, 0.2],
        [0.6, 1.0, 0.9],
        [0.2, 0.9, 1.0],
    ])
    assert np.array_equal(bordered.entries, expected)


def test_reduce_examples():
    assert tuple(reduce_symmetric_draw((1, 0, 1))) == (1, 0)
    assert tuple(reduce_symmetric_draw((0, 0, 0))) == (1, 1)


def test_lift_examples():
    assert tuple(lift_asymmetric_draw((1, 1), FixedCoin(1))) == (1, 1, 1)
    assert tuple(lift_asymmetric_draw((1, 0), FixedCoin(0))) == (0, 1, 0)


def test_lift_reduce_roundtrip():
    for bits in itertools.product((0, 1), repeat=3):
        for coin in (0, 1):
            lifted = lift_asymmetric_draw(bits, FixedCoin(coin))
            assert tuple(reduce_symmetric_draw(lifted)) == bits


def test_reduction_equivalence_at_pmf_level():
    # lifting an asymmetric law yields fair coins with the bordered matrix,
    # and reducing back recovers the original law exactly
    rng = np.random.default_rng(15)
    for _ in range(20):
        p, q, r = rng.random(3)
        if not asymmetric_pair_feasible(p, q, r):
            continue
        target = asym_pair_pmf(p, q, r)
        lifted = lift_law(JointPMF(2, target))
        bordered = symmetrize([p, q], ConcurrenceMatrix.from_lower_triangle([r], 2))
        assert pmf_residual(lifted, (0.5, 0.5, 0.5), bordered.entries) <= 1e-12
        reduced = pushforward(
            lifted, lambda bits: tuple(1 if b == bits[-1] else 0 for b in bits[:-1])
        )
        assert np.max(np.abs(reduced.probs - target)) <= 1e-12


def _reduce(bits):
    return tuple(1 if b == bits[-1] else 0 for b in bits[:-1])


@st.composite
def reduced_laws(draw):
    """Random laws on {0,1}^m, m = 1..8, some with many zero-mass atoms."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.random(2 ** m) * (rng.random(2 ** m) < draw(st.sampled_from([0.1, 0.5, 1.0])))
    w[rng.integers(2 ** m)] += 1.0
    return JointPMF(m, w / w.sum())


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(q=reduced_laws())
def test_lift_is_the_coin_lift_law_and_reduces_back(q):
    lifted = lift(q)
    assert np.array_equal(lifted.probs, lift_law(q).probs)
    assert np.array_equal(pushforward(lifted, _reduce).probs, q.probs)
    # fair coins, whose concurrences are the reduced law's border and matrix
    border = [q.marginal_prob(i) for i in range(q.n)]
    bordered = symmetrize(border, q.concurrence_matrix())
    assert pmf_residual(lifted, (0.5,) * (q.n + 1), bordered.entries) <= 1e-12


# ---------------------------------------------------------------------------
# n = 4
# ---------------------------------------------------------------------------

def test_quadrivariate_interval_examples():
    ones = quadrivariate_alpha_interval(ConcurrenceMatrix.filled(4, 1.0))
    assert (ones.lo, ones.hi) == (1.0, 1.0)
    q = quadrivariate_pmf(ConcurrenceMatrix.filled(4, 1.0), 1.0)
    assert q.probs[7] == 1.0 and q.probs[:7].max() == 0.0

    half = quadrivariate_alpha_interval(ConcurrenceMatrix.filled(4, 0.5))
    assert (half.lo, half.hi) == (0.0, 0.25)
    for alpha in (half.lo, half.hi):
        assert quadrivariate_pmf(ConcurrenceMatrix.filled(4, 0.5), alpha).probs.min() >= 0.0

    sub = ConcurrenceMatrix.from_lower_triangle([0.3, 0.3, 0.3, 0.5, 0.5, 0.5], 4)
    assert not quadrivariate_alpha_interval(sub).feasible
    assert not lp_feasible([0.5] * 4, sub).feasible


@pytest.mark.parametrize(
    "alpha,expected",
    [
        (0.0, (0.25, 0.0, 0.0, 0.25, 0.0, 0.25, 0.25, 0.0)),
        (0.25, (0.0, 0.25, 0.25, 0.0, 0.25, 0.0, 0.0, 0.25)),
    ],
)
def test_quadrivariate_half_tables(alpha, expected):
    q = quadrivariate_pmf(ConcurrenceMatrix.filled(4, 0.5), alpha)
    assert np.allclose(q.probs, expected, atol=1e-15)


def test_quadrivariate_alpha_out_of_range_names_atom():
    with pytest.raises(InfeasibleError, match=r"q\d{3}"):
        quadrivariate_pmf(ConcurrenceMatrix.filled(4, 0.5), 0.4)


def test_quadrivariate_matches_linear_system_solve():
    rng = np.random.default_rng(361)
    for _ in range(40):
        conc = random_feasible_quad(rng)
        e = conc.entries
        iv = quadrivariate_alpha_interval(conc)
        for alpha in (iv.lo, iv.midpoint, iv.hi):
            expected = solve_three_coordinate_system(
                (e[0, 3], e[1, 3], e[2, 3]),
                (e[0, 1], e[0, 2], e[1, 2]),
                alpha,
            )
            got = quadrivariate_pmf(conc, alpha).probs
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_quadrivariate_lifted_pmf_exact():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        conc = random_feasible_quad(rng)
        iv = quadrivariate_alpha_interval(conc)
        lifted = quadrivariate_lifted_pmf(conc, iv.midpoint)
        assert pmf_residual(lifted, (0.5,) * 4, conc.entries) <= 1e-12
        # it is exactly the coin-lift law of the reduced pmf (coin = last bit)
        oracle = lift_law(quadrivariate_pmf(conc, iv.midpoint))
        assert np.max(np.abs(lifted.probs - oracle.probs)) <= 1e-15


def test_quadrivariate_sample_comonotone():
    rng = np.random.default_rng(2)
    draws = quadrivariate_sample(ConcurrenceMatrix.filled(4, 1.0), rng, size=500)
    assert np.all(draws.min(axis=1) == draws.max(axis=1))


def test_quadrivariate_sample_block_structure():
    # lambda_12 = 1 with all other pairs at 1/2 forces B1 == B2
    e = np.full((4, 4), 0.5)
    np.fill_diagonal(e, 1.0)
    e[0, 1] = e[1, 0] = 1.0
    conc = ConcurrenceMatrix(e)
    assert quadrivariate_alpha_interval(conc).feasible
    assert lp_feasible([0.5] * 4, conc).feasible
    rng = np.random.default_rng(3)
    draws = quadrivariate_sample(conc, rng, size=200_000)
    assert np.array_equal(draws[:, 0], draws[:, 1])
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        assert abs(concurrence_z(draws[:, i], draws[:, j], 0.5)) <= 4.0


def test_quadrivariate_sample_rejects_infeasible():
    rng = np.random.default_rng(4)
    bad = ConcurrenceMatrix.from_lower_triangle([0.3, 0.3, 0.3, 0.5, 0.5, 0.5], 4)
    with pytest.raises(InfeasibleError):
        quadrivariate_sample(bad, rng)


def test_quadrivariate_monte_carlo():
    conc = ConcurrenceMatrix.from_lower_triangle([0.5, 0.6, 0.55, 0.45, 0.5, 0.6], 4)
    assert quadrivariate_alpha_interval(conc).feasible
    rng = np.random.default_rng(6)
    draws = quadrivariate_sample(conc, rng, size=200_000)
    for i in range(4):
        for j in range(i + 1, 4):
            z = concurrence_z(draws[:, i], draws[:, j], conc.entry(i, j))
            assert abs(z) <= 4.0, (i, j, z)


# ---------------------------------------------------------------------------
# pmf exactness sweep (all three closed-form dimensions)
# ---------------------------------------------------------------------------

def test_constructed_pmfs_are_exact():
    rng = np.random.default_rng(999)
    for _ in range(100):
        lam = float(rng.random())
        conc2 = np.array([[1.0, lam], [lam, 1.0]])
        assert pmf_residual(bivariate_pmf(lam), (0.5, 0.5), conc2) <= 1e-12

        l12, l13, l23 = random_feasible_triple(rng)
        iv = trivariate_alpha_interval(l12, l13, l23)
        alpha = float(rng.uniform(iv.lo, iv.hi))
        conc3 = ConcurrenceMatrix.from_lower_triangle([l12, l13, l23], 3)
        pmf3 = trivariate_pmf(l12, l13, l23, alpha)
        assert pmf_residual(pmf3, (0.5,) * 3, conc3.entries) <= 1e-12

        conc4 = random_feasible_quad(rng)
        iv4 = quadrivariate_alpha_interval(conc4)
        alpha4 = float(rng.uniform(iv4.lo, iv4.hi))
        pmf4 = quadrivariate_lifted_pmf(conc4, alpha4)
        assert pmf_residual(pmf4, (0.5,) * 4, conc4.entries) <= 1e-12


def test_midpoint_alpha_always_valid():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        l12, l13, l23 = random_feasible_triple(rng)
        iv = trivariate_alpha_interval(l12, l13, l23)
        assert trivariate_pmf(l12, l13, l23, iv.midpoint).probs.min() >= 0.0
        conc = random_feasible_quad(rng)
        iv4 = quadrivariate_alpha_interval(conc)
        assert quadrivariate_pmf(conc, iv4.midpoint).probs.min() >= 0.0


# ---------------------------------------------------------------------------
# asymmetric pair condition and submatrix screening
# ---------------------------------------------------------------------------

def test_asymmetric_pair_condition_examples():
    assert asymmetric_pair_feasible(0.5, 0.5, 1.0)
    assert asymmetric_pair_feasible(0.5, 0.5, 0.0)
    assert not asymmetric_pair_feasible(0.9, 0.9, 0.0)   # both likely 1: must agree often
    assert asymmetric_pair_feasible(0.0, 0.4, 0.6)       # X == 0 forces r = 1 - q
    assert not asymmetric_pair_feasible(0.0, 0.4, 0.5)


def test_violated_submatrix_detection():
    e = np.full((5, 5), 0.5)
    np.fill_diagonal(e, 1.0)
    for i, j in itertools.combinations((0, 2, 4), 2):
        e[i, j] = e[j, i] = 0.3
    bad = ConcurrenceMatrix(e)
    assert violated_principal_submatrix(bad) == (0, 2, 4)
    assert violated_principal_submatrix(ConcurrenceMatrix.filled(5, 0.5)) is None


def test_necessity_propagates_to_feasible_high_dimensional_matrices():
    # any concurrence matrix realized by an actual law passes every 3- and
    # 4-dimensional closed-form test
    from helpers import random_pmf

    rng = np.random.default_rng(272)
    for n in (5, 6, 7):
        for _ in range(10):
            law = random_pmf(rng, n)
            conc = law.concurrence_matrix()
            assert violated_principal_submatrix(conc) is None


def _screen_by_loop(conc):
    e = conc.entries
    for tri in itertools.combinations(range(conc.n), 3):
        i, j, k = tri
        if not trivariate_feasible(e[i, j], e[i, k], e[j, k]):
            return tri
    for quad in itertools.combinations(range(conc.n), 4):
        if not quadrivariate_alpha_interval(conc.submatrix(quad)).feasible:
            return quad
    return None


@st.composite
def screen_inputs(draw):
    """Random and dyadic entries, and concurrences of sparse fair-coin laws:
    on faces of the feasible set, moved off them by multiples of 1/64 or of
    5e-13 (inside and outside the 1e-12 slack)."""
    n = draw(st.integers(3, 9))
    kind = draw(st.sampled_from(["random", "dyadic", "law", "law+1/64", "law+5e-13"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        e = rng.uniform(draw(st.sampled_from([0.0, 0.3])), 1.0, (n, n))
    elif kind == "dyadic":
        e = rng.integers(0, 9, (n, n)) / 8
    else:
        probs = np.zeros(2 ** n)
        np.add.at(probs, rng.integers(0, 2 ** n, rng.integers(1, 2 * n)), 1.0)
        law = JointPMF(n, (probs + probs[::-1]) / (2 * probs.sum()))
        e = law.concurrence_matrix().entries.copy()
        step = 1 / 64 if kind == "law+1/64" else 5e-13
        e += step * rng.integers(-3, 4, (n, n)) * (rng.random((n, n)) < 0.3)
    e = np.clip(np.triu(e, 1), 0.0, 1.0)
    return ConcurrenceMatrix(e + e.T + np.eye(n))


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(conc=screen_inputs())
def test_screen_equals_the_closed_form_tests_in_combinations_order(conc):
    assert violated_principal_submatrix(conc) == _screen_by_loop(conc)



_EDGES = list(itertools.combinations(range(4), 2))  # 12, 13, 14, 23, 24, 34


def _form(edges) -> np.ndarray:
    """A sum of concurrences of a 4x4 matrix, as coefficients on _EDGES."""
    edges = list(edges)
    return np.array([edges.count(e) for e in _EDGES])


def test_every_alpha_interval_bound_restates_a_triangle_inequality():
    # quadrivariate_alpha_interval bounds alpha <= (s_T - 1)/2 per triangle
    # T, and alpha >= s_C/2 - 1 per 4-cycle C (the edges left when a perfect
    # matching is removed) and alpha >= 0.  Its interval is nonempty iff
    # s_T >= 1, T's lower inequality, and s_C - s_T <= 1 for every pair.
    # Each of the 12 (cycle, triangle) pairs gives the upper inequality
    # s - 2 l_e <= 1 of a different (triangle, edge) pair, all 12 of them,
    # so the 4-subset test is the 3-subset test of its four triangles
    triangles = {t: _form(itertools.combinations(t, 2))
                 for t in itertools.combinations(range(4), 3)}
    matchings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    cycles = [_form(_EDGES) - _form(m) for m in matchings]
    uppers = {(t, e): s - 2 * _form([e])
              for t, s in triangles.items() for e in itertools.combinations(t, 2)}
    restated = []
    for c in cycles:
        for s_t in triangles.values():
            hits = [key for key, f in uppers.items() if np.array_equal(f, c - s_t)]
            assert len(hits) == 1
            restated.append(hits[0])
    assert sorted(restated) == sorted(uppers)

    # the forms are the code's bounds
    rng = np.random.default_rng(44)
    for _ in range(200):
        e = np.triu(rng.uniform(0.0, 1.0, (4, 4)), 1)
        conc = ConcurrenceMatrix(e + e.T + np.eye(4))
        x = np.array([conc.entry(i, j) for i, j in _EDGES])
        interval = quadrivariate_alpha_interval(conc)
        hi = min(0.5 * (s @ x - 1.0) for s in triangles.values())
        lo = max([0.0] + [0.5 * (c @ x) - 1.0 for c in cycles])
        assert interval.hi == pytest.approx(hi, abs=1e-15)
        assert interval.lo == pytest.approx(lo, abs=1e-15)
