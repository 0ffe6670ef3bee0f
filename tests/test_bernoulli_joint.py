import itertools
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fhmix import (
    AlphaInterval,
    ConcurrenceMatrix,
    DomainError,
    InfeasibleError,
    InvalidDistributionError,
    InvalidMatrixError,
    JointPMF,
    MarginalSpec,
    NumericalError,
    asymmetric_pair_feasible,
    atom_bits,
    atom_index,
    bivariate_pmf,
    build_plan_from_concurrence,
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
from fhmix import bernoulli_joint, inversion
from fhmix.bernoulli_joint import FEAS_TOL, _bit_table, lift
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
    # the signed mass is tested, and only a clipped pmf is rescaled to mass 1
    pmf = JointPMF(3, np.array([0.5 + 1.8e-12] * 2 + [-0.9e-12] * 4 + [0.0] * 2))
    assert pmf.probs.tolist() == [0.5, 0.5] + [0.0] * 6
    with pytest.raises(InvalidDistributionError, match="pmf sums to"):
        JointPMF(3, np.array([0.5 + 1.8e-12] * 2 + [0.0] * 6))
    probs = np.array([0.1, 0.2, 0.3, 0.4 + 5e-13])
    assert JointPMF(2, probs).probs.tolist() == probs.tolist()


@pytest.mark.parametrize("build,error,text", [
    (lambda: trivariate_pmf(0.5, 0.5, 0.5, 0.5), InfeasibleError, "atom p000 = -0.25 < 0"),
    (lambda: AlphaInterval(np.float64(0.25), np.float64(0.125), False).midpoint,
     InfeasibleError, "alpha interval [0.25, 0.125] is empty"),
    (lambda: JointPMF(2, np.array([0.75, 0.25, 0.25, -0.25])), InvalidDistributionError,
     "atom p11 = -0.25 is negative beyond tolerance"),
    (lambda: bernoulli_joint._check_constraints(JointPMF(1, np.array([0.5, 0.5])), [0.25], []),
     NumericalError, "marginal 1 row: 0.5, wanted 0.25 (off by 0.25"),
    (lambda: trivariate_pmf(np.float64(1.5), 0.5, 0.5, 0.0), InvalidMatrixError,
     "lambda12=1.5 must lie in [0, 1]"),
    (lambda: lp_feasible([np.float64(1.5), 0.5], ConcurrenceMatrix.filled(2, 0.5)),
     DomainError, "marginal probability 1 = 1.5 not in [0, 1]"),
    (lambda: JointPMF(2, np.full(4, 0.25)).marginal_prob(np.int64(5)), DomainError,
     "coordinate 5 is not in 0..1"),
], ids=["alpha-atom", "empty-interval", "pmf-atom", "constraint-row", "unit-interval",
        "lp-marginal", "coordinate"])
def test_error_texts_print_plain_floats(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert text in str(info.value) and "np.float64" not in str(info.value)


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


@st.composite
def supported_pmfs(draw):
    """pmfs at n = 1..12 whose k atoms of positive mass are placed at random,
    with k one, a power of two, one past it or any size, the first or last
    atom of {0,1}^n left empty on request, and masses summing to 1 up to a
    few ulp either way."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    free = list(range(2 ** n))
    if n > 1 and draw(st.booleans()):
        free.pop(0)
    if n > 1 and draw(st.booleans()):
        free.pop()
    m = draw(st.integers(0, len(free).bit_length() - 1))
    k = min(len(free), draw(st.sampled_from(
        [1, 2 ** m, 2 ** m + 1, int(rng.integers(1, len(free) + 1))])))
    weights = np.zeros(2 ** n)
    atoms = rng.choice(free, size=k, replace=False)
    if draw(st.booleans()):
        weights[atoms] = rng.random(k) ** 4 + 1e-9
    else:  # one heavy atom and k - 1 of 1e-6 each
        weights[atoms] = 1e-6
        weights[atoms[0]] = 1.0
    scale = 1.0 + draw(st.integers(-6, 2)) * 2.0 ** -53
    return JointPMF(n, weights / weights.sum() * scale)


@seed(26)
@settings(max_examples=300, deadline=None)
@given(pmf=supported_pmfs(), query_seed=st.integers(0, 2 ** 32 - 1))
def test_the_support_search_finds_the_atom_of_the_full_search(pmf, query_seed):
    # the search over the atoms of positive mass alone draws, for every x in
    # [0, 1), the atom that np.searchsorted finds over all 2^n running sums,
    # set to 1.0 from the last atom of positive mass on
    cdf = np.cumsum(pmf.probs)
    cdf[np.flatnonzero(pmf.probs)[-1]:] = 1.0
    inner = cdf[cdf < 1.0]
    x = np.concatenate([inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                        [0.0, 2.0 ** -53, 1.0 - 2.0 ** -53],
                        np.random.default_rng(query_seed).random(64)])
    x = x[(x >= 0.0) & (x < 1.0)]
    tables, support, masks = pmf._support_tables
    found = support[inversion.index(tables, x, "right")]
    assert np.array_equal(found, np.searchsorted(cdf, x, "right"))
    # a gather into the guide table, then at most ceil(log2(k + 1)) steps
    assert len(tables.cells) <= 2 ** 16
    assert tables.steps <= math.ceil(math.log2(len(support) + 1))
    # row i of the masks is each atom's bit i, as all ones or all zeros
    bits = _bit_table(pmf.n)[support].T.astype(np.uint64)
    assert np.array_equal(masks, bits * np.uint64(2 ** 64 - 1))


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


unit_values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))


@seed(3)
@settings(max_examples=300, deadline=None)
@given(lams=st.tuples(unit_values, unit_values, unit_values))
def test_trivariate_closed_form_is_the_papers(lams):
    """The n = 3 interval and table are the paper's, for feasible and
    infeasible triples alike, though the code computes them as the
    three-coordinate system with fair marginals."""
    l12, l13, l23 = lams
    s, m = l12 + l13 + l23, min(lams)
    iv = trivariate_alpha_interval(l12, l13, l23)
    assert abs(iv.lo - max(0.0, (s - m - 1.0) / 2.0)) <= 1e-15
    assert abs(iv.hi - min(m / 2.0, (s - 1.0) / 2.0)) <= 1e-15
    if iv.lo <= iv.hi:
        for alpha in (iv.lo, iv.midpoint, iv.hi):
            expected = solve_three_coordinate_system((0.5,) * 3, lams, alpha)
            assert np.max(np.abs(trivariate_pmf(l12, l13, l23, alpha).probs - expected)) <= 1e-12


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


@pytest.mark.parametrize(
    "lower",
    [[0.3, 0.3, 0.3], [0.1, 0.9, 0.9], [0.0] * 6, [0.3, 0.3, 0.3, 0.5, 0.5, 0.5]],
)
def test_direct_samplers_give_the_plans_diagnostics(lower):
    n = 3 if len(lower) == 3 else 4
    conc = ConcurrenceMatrix.from_lower_triangle(lower, n)
    plan = build_plan_from_concurrence([MarginalSpec.bernoulli(0.5)] * n, conc)
    assert plan.recipe is None
    rng = np.random.default_rng(6)
    with pytest.raises(InfeasibleError) as err:
        if n == 3:
            trivariate_sample_direct(*lower, rng)
        else:
            quadrivariate_sample(conc, rng)
    assert plan.diagnostics in str(err.value)


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


def test_a_plan_names_the_principal_submatrix_the_screen_rejects():
    # triangle (1, 3, 5) sums to 0.9 < 1; at n >= 5 the screen decides before the LP
    conc = ConcurrenceMatrix.from_lower_triangle(
        [0.5, 0.3, 0.5, 0.5, 0.5, 0.5, 0.3, 0.5, 0.3, 0.5], 5)
    plan = build_plan_from_concurrence([MarginalSpec.bernoulli(0.5)] * 5, conc)
    assert not plan.feasible
    assert plan.diagnostics == ("infeasible concurrence matrix: principal submatrix on "
                                "coordinates (1, 3, 5) fails its closed-form existence test")


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


def _exactly(values: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """``values @ forms.T`` for forms with coefficients -1, 0, 1 on values in
    [0, 1], of shape (count, ..., k): each entry has the sign of the exact
    value, and is that value correctly rounded where it is under 1e-11 in
    size.  Where ``values[m]`` holds multiples of 2^-49 only, its sums are
    exact, as every partial sum is such a multiple under 8 in size.
    Elsewhere a float sum of at most 7 terms is off by less than 1e-14, and
    ``math.fsum`` recomputes the small entries."""
    out = values @ forms.T
    scaled = values * 2.0 ** 49
    for m in np.flatnonzero(np.any(scaled != np.rint(scaled), axis=tuple(range(1, values.ndim)))):
        for *head, r in zip(*np.nonzero(np.abs(out[m]) < 1e-11)):
            out[(m, *head, r)] = math.fsum(values[(m, *head)] * forms[r])
    return out


#: 1 <= a + b + c and a + b + c - 2x <= 1 for each x of a triangle (a, b, c),
#: as forms on (a, b, c, 1) that are >= 0 where the triangle holds
_TRIANGLE_FORMS = np.array([[1, 1, 1, -1], [1, -1, -1, 1], [-1, 1, -1, 1], [-1, -1, 1, 1]])


def _triangle_slacks(e: np.ndarray) -> np.ndarray:
    """The slack of 1 <= a + b + c <= 1 + 2*min of each triangle, in
    combinations order, of each matrix of the stack ``e`` (count, n, n), by
    :func:`_exactly`."""
    i, j, k = np.array(list(itertools.combinations(range(e.shape[-1]), 3))).T
    edges = np.stack([e[..., i, j], e[..., i, k], e[..., j, k], np.ones(e[..., i, j].shape)],
                     axis=-1)
    return _exactly(edges, _TRIANGLE_FORMS).min(axis=-1)


def _exact_triangle_slack(e: np.ndarray) -> float:
    """Smallest slack of 1 <= a + b + c <= 1 + 2*min over the triangles of
    ``e``, exact in sign on its float entries, and correctly rounded under
    1e-11."""
    return float(_triangle_slacks(np.asarray(e, dtype=float)[None]).min())


def _alpha_pair_forms() -> np.ndarray:
    """Twice the sum at alpha = 0 of each atom that falls with alpha = P(X =
    111) and each that rises, among the eight atoms of a 4-subset's reduced
    system (X_i = 1(B_i = B_4)), as integer forms on (l14, l24, l34, l12,
    l13, l23, 1).  The alpha interval is nonempty iff every such sum is >= 0.
    The atoms are read off the dense solve in helpers."""
    def atoms(b, alpha=0.0):
        return solve_three_coordinate_system(b[:3], b[3:], alpha)

    base = atoms(np.zeros(6))
    forms = np.column_stack([atoms(unit) - base for unit in np.eye(6)] + [base])
    move = atoms(np.zeros(6), 1.0) - base
    forms, move = np.rint(2.0 * forms), np.rint(move)
    assert np.all(np.abs(move) == 1.0)
    return (forms[move < 0][:, None] + forms[move > 0][None]).reshape(-1, 7)


_ALPHA_PAIR_FORMS = _alpha_pair_forms()
#: the first failing triangle is less than 1e-11 outside its face, where the
#: screen's 1e-12 slack may admit what exact arithmetic rejects
_NEAR = "near"


def _screen_reference(e: np.ndarray) -> list:
    """For each (n, n) matrix of the stack ``e``: the first 3-subset, in
    combinations order, whose triangle test fails in exact arithmetic, else
    the first 4-subset whose alpha interval is empty, else None (or
    ``_NEAR``).  Independent of the screen and of ``_triangle_holds``."""
    n = e.shape[-1]
    tri = list(itertools.combinations(range(n), 3))
    quad = list(itertools.combinations(range(n), 4))
    slacks = _triangle_slacks(e)
    first = (slacks < 0.0).argmax(axis=1)
    slacks = slacks[np.arange(len(e)), first]  # of the first failing triangle, if any
    a, b, c, w = np.array(quad, dtype=int).reshape(-1, 4).T
    x = e[slacks >= 0.0]
    edges = np.stack([x[:, a, w], x[:, b, w], x[:, c, w], x[:, a, b], x[:, a, c], x[:, b, c],
                      np.ones(x[:, a, w].shape)], axis=-1)
    empty = np.column_stack([(_exactly(edges, _ALPHA_PAIR_FORMS) < 0.0).any(axis=-1),
                             np.ones(len(x), bool)])
    empty = iter(empty.argmax(axis=1).tolist())
    out = []
    for t, slack in zip(first.tolist(), slacks.tolist()):
        if slack < 0.0:
            out.append(tri[t] if slack <= -1e-11 else _NEAR)
        else:
            q = next(empty)
            out.append(quad[q] if q < len(quad) else None)
    return out


def _assert_screen_matches(e: np.ndarray) -> int:
    """Screen each matrix of the stack ``e`` and compare with the reference;
    returns how many were compared."""
    compared = 0
    for x, expected in zip(e, _screen_reference(e)):
        if expected is _NEAR:
            continue
        got = violated_principal_submatrix(ConcurrenceMatrix(x))
        assert got == expected, x
        assert got is None or all(type(v) is int for v in got)
        compared += 1
    return compared


def _screen_batch(rng: np.random.Generator, n: int, kind: str, count: int) -> np.ndarray:
    """``count`` concurrence matrices of one kind, as a (count, n, n) stack:
    uniform or dyadic entries, or the concurrences of complement-symmetric
    laws.  A sparse law puts 1 to 16 draws of dyadic mass on atoms, so its
    concurrences are exact and lie on faces; it may also be moved on about
    30% of its entries, by up to 3 multiples of 1/64, or by up to 24 of 2^-41
    (4.5e-13: inside and outside the 1e-12 slack and the 1e-11 band).  A
    dense law lies inside."""
    if kind == "random":
        e = rng.uniform(rng.choice([0.0, 0.3], (count, 1, 1)), 1.0, (count, n, n))
    elif kind == "dyadic":
        e = rng.integers(0, 9, (count, n, n)) / 8
    else:
        if kind == "dense":
            probs = rng.random((count, 2 ** n))
        else:
            probs = np.zeros((count, 2 ** n))
            atoms = 2 ** rng.integers(0, 5, (count, 1))
            np.add.at(probs, (np.arange(count)[:, None], rng.integers(0, 2 ** n, (count, 16))),
                      np.arange(16) < atoms)
        probs = (probs + probs[:, ::-1]) / (2 * probs.sum(axis=1, keepdims=True))
        bits = _bit_table(n)
        agree = bits[:, :, None] == bits[:, None, :]
        e = (probs @ agree.reshape(2 ** n, n * n)).reshape(count, n, n)
        if kind != "law":
            step, most = (2.0 ** -6, 3) if kind == "law+1/64" else (2.0 ** -41, 24)
            e += step * rng.integers(-most, most + 1, e.shape) * (rng.random(e.shape) < 0.3)
    e = np.clip(np.triu(e, 1), 0.0, 1.0)
    return e + e.transpose(0, 2, 1) + np.eye(n)


_SCREEN_KINDS = ("random", "dyadic", "law", "dense", "law+1/64", "law+2^-41")


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(n=st.integers(3, 9), kind=st.sampled_from(_SCREEN_KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_screen_equals_the_closed_form_tests_in_combinations_order(n, kind, seed):
    _assert_screen_matches(_screen_batch(np.random.default_rng(seed), n, kind, 1))


def test_screen_equals_an_exact_reference_on_many_matrices():
    rng = np.random.default_rng(23)
    compared = 0
    for n in range(4, 13):
        for kind in _SCREEN_KINDS:
            for _ in range(9):
                compared += _assert_screen_matches(_screen_batch(rng, n, kind, 250))
    assert compared >= 100_000


# (n, batch, index) of near-face inputs in a replay of the "law+2^-41" kind:
# default_rng(99), n = 4..12 in order, 9 batches of 250 each.  The float LP
# raised NumericalError on the first 18 ("failed to terminate" or "basis is
# singular") and called the last 3 infeasible; HiGHS finds all 21 feasible
NEAR_FACE_REPLAY = {
    (10, 0, 129), (11, 0, 142), (11, 2, 162), (11, 2, 181), (11, 5, 140), (11, 5, 147),
    (11, 6, 24), (11, 7, 234), (11, 8, 231), (12, 0, 46), (12, 1, 185), (12, 2, 164),
    (12, 2, 193), (12, 2, 245), (12, 4, 212), (12, 4, 247), (12, 6, 91), (12, 7, 235),
    (10, 1, 149), (10, 4, 57), (12, 6, 20),
}


def test_near_face_lp_inputs_of_the_replay_get_plans():
    rng = np.random.default_rng(99)
    uniform = MarginalSpec.uniform(0.0, 1.0)
    built = 0
    for n in range(4, 13):
        for batch in range(9):
            e = _screen_batch(rng, n, "law+2^-41", 250)
            for index in sorted(k for m, b, k in NEAR_FACE_REPLAY if (m, b) == (n, batch)):
                conc = ConcurrenceMatrix(e[index])
                plan = build_plan_from_concurrence([uniform] * n, conc)
                assert plan.feasible, (n, batch, index)
                assert pmf_residual(plan.recipe.pmf, [0.5] * n, conc.entries) <= 1e-9
                built += 1
    assert built == len(NEAR_FACE_REPLAY)


def test_one_verdict_at_the_faces_and_every_admitted_alpha_builds():
    # concurrences of sparse fair-coin laws, on faces of the feasible set,
    # moved by multiples of 2.5e-13 across them: about half the entries at
    # n = 3 and 4, one triangle's entries at n = 5 (screen and LP)
    rng = np.random.default_rng(16)
    uniform = MarginalSpec.uniform(0.0, 1.0)
    seen = {True: 0, False: 0}
    for n in [3] * 400 + [4] * 400 + [5] * 60:
        probs = np.zeros(2 ** n)
        np.add.at(probs, rng.integers(0, 2 ** n, rng.integers(1, 2 * n + 1)), 1.0)
        e = JointPMF(n, (probs + probs[::-1]) / (2 * probs.sum())).concurrence_matrix().entries
        if n == 5:
            i, j, k = sorted(rng.choice(5, 3, replace=False))
            move = np.zeros((n, n))
            move[[i, i, j], [j, k, k]] = rng.choice([-8, -6, -4, -3, 3, 4, 6, 8], 3)
        else:
            move = rng.integers(-8, 9, (n, n)) * (rng.random((n, n)) < 0.5)
        e = np.clip(np.triu(e + 2.5e-13 * move, 1), 0.0, 1.0)
        conc = ConcurrenceMatrix(e + e.T + np.eye(n))

        plan = build_plan_from_concurrence([uniform] * n, conc)
        verdicts = {plan.feasible, violated_principal_submatrix(conc) is None}
        if n == 3:
            lams = conc.entry(0, 1), conc.entry(0, 2), conc.entry(1, 2)
            interval = trivariate_alpha_interval(*lams)
            verdicts |= {interval.feasible, trivariate_feasible(*lams)}
        if n == 4:
            interval = quadrivariate_alpha_interval(conc)
            try:
                quadrivariate_sample(conc, np.random.default_rng(0))
                verdicts |= {interval.feasible, True}
            except InfeasibleError:
                verdicts |= {interval.feasible, False}
        assert len(verdicts) == 1, conc.entries
        seen[plan.feasible] += 1

        slack = _exact_triangle_slack(conc.entries)
        if slack >= 0:
            assert plan.feasible, conc.entries
        if slack < -1.01e-12:
            assert not plan.feasible, conc.entries

        if n == 5 or not plan.feasible:
            continue
        edges = (interval.lo - FEAS_TOL, interval.lo - 9e-13, interval.lo,
                 interval.hi, interval.hi + 9e-13, interval.hi + FEAS_TOL)
        plans = [plan] + [build_plan_from_concurrence([uniform] * n, conc, alpha=a)
                          for a in edges if interval.contains(a)]
        for p in plans:
            assert p.feasible
            assert pmf_residual(p.recipe.pmf, [0.5] * n, conc.entries) <= 16 * FEAS_TOL
            # the reported alpha is the drawn law's P(X = 111): all coins agree at n = 4
            law = p.recipe.pmf.probs
            assert p.recipe.alpha == (law[7] if n == 3 else law[0] + law[15]), conc.entries
            assert 0.0 <= p.recipe.alpha <= 1.0, conc.entries
    assert min(seen.values()) > 100


def test_float_lp_agrees_with_the_triangle_rule_outside_its_band():
    # fair-coin laws with one triangle on a face: no mass where its three
    # coins agree (sum 1), or where coin w differs from the two others, which
    # agree (l_wa + l_wb - l_ab = 1); then its edges move by d/3 each, across
    # the face (a shortfall) or into the feasible set (an excess).  Float
    # lp_feasible accepts a total violation up to 1e-9, so it may accept
    # shortfalls up to 1e-9 (the oracle's band); from 1.5e-9 both verdicts
    # are infeasible
    rng = np.random.default_rng(18)
    checked = {"feasible": 0, "infeasible": 0}
    for n in [3] * 50 + [4] * 50 + [5] * 50:
        bits = _bit_table(n)
        t = np.sort(rng.choice(n, 3, replace=False))
        v = int(rng.integers(-1, 3))
        if v < 0:
            empty = (bits[:, t] == bits[:, t[:1]]).all(axis=1)
            outward = {(t[0], t[1]): -1, (t[0], t[2]): -1, (t[1], t[2]): -1}
        else:
            w, (a, b) = t[v], np.delete(t, v)
            empty = (bits[:, a] == bits[:, b]) & (bits[:, w] != bits[:, a])
            outward = {tuple(sorted(edge)): sign
                       for edge, sign in (((w, a), 1), ((w, b), 1), ((a, b), -1))}
        probs = rng.random(2 ** n)
        probs[empty] = 0.0
        e = JointPMF(n, (probs + probs[::-1]) / (2 * probs.sum())).concurrence_matrix().entries
        for shortfall in (0.0, 1e-12, 1e-10, 1.5e-9, 2e-9, 2.5e-9, 1e-8,
                          -1e-12, -1e-10, -2e-9, -1e-8):
            m = e.copy()
            for (i, j), s in outward.items():
                m[i, j] = m[j, i] = e[i, j] + s * shortfall / 3
            conc = ConcurrenceMatrix(m)
            lp = lp_feasible([0.5] * n, conc, mode="float").feasible
            rule = violated_principal_submatrix(conc) is None
            if _exact_triangle_slack(m) >= 0:
                assert lp and rule, (m, shortfall)
                checked["feasible"] += 1
            if shortfall >= 1e-10:
                assert not rule, (m, shortfall)
            if shortfall >= 1.5e-9:
                assert not lp, (m, shortfall)
                checked["infeasible"] += 1
    assert min(checked.values()) > 150


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
