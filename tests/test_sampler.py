import dataclasses
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhmix import (
    BernoulliRecipe,
    CapacityError,
    ConcurrenceMatrix,
    CorrelationExtremes,
    CorrelationMatrix,
    DomainError,
    InfeasibleError,
    InvalidMatrixError,
    JointPMF,
    MarginalSpec,
    UnachievableCorrelationError,
    build_plan,
    build_plan_from_concurrence,
    convexity_from_correlation,
    moments,
    quantile,
    sample_batch,
    sample_vector,
)
from fhmix import sampler
from fhmix.sampler import _batch_values, _generator
from helpers import KS_ALPHA, concurrence_z, corr_z, ks_pvalue, mean_z, random_pmf

UNIFORM = MarginalSpec.uniform(0.0, 1.0)
EXP = MarginalSpec.exponential(1.0)


def mixture_correlation(plan, i, j) -> float:
    ext = plan.pair_extremes(i, j)
    lam = plan.lam.entry(i, j)
    return lam * ext.rho_plus + (1.0 - lam) * ext.rho_minus


# ---------------------------------------------------------------------------
# lambda conversion
# ---------------------------------------------------------------------------

def test_convexity_endpoints():
    ext = CorrelationExtremes(-0.3, 0.8, "closed_form")
    assert convexity_from_correlation(0.8, ext) == 1.0
    assert convexity_from_correlation(-0.3, ext) == 0.0


def test_convexity_exponential_zero_target():
    ext = CorrelationExtremes(1.0 - math.pi ** 2 / 6.0, 1.0, "closed_form")
    lam = convexity_from_correlation(0.0, ext)
    assert lam == pytest.approx(1.0 - 6.0 / math.pi ** 2, abs=1e-12)
    assert lam * ext.rho_plus + (1.0 - lam) * ext.rho_minus == pytest.approx(0.0, abs=1e-15)


def test_convexity_out_of_range_reports_interval():
    ext = CorrelationExtremes(-0.3, 0.8, "closed_form")
    with pytest.raises(UnachievableCorrelationError) as err:
        convexity_from_correlation(0.9, ext)
    assert err.value.rho_minus == -0.3 and err.value.rho_plus == 0.8
    assert "-0.3" in str(err.value) and "0.8" in str(err.value)


def test_convexity_degenerate_interval():
    ext = CorrelationExtremes(0.25, 0.25, "closed_form")
    assert convexity_from_correlation(0.25, ext) == 0.5
    with pytest.raises(UnachievableCorrelationError):
        convexity_from_correlation(0.3, ext)


def test_plan_round_trip_identity():
    rng = np.random.default_rng(17)
    marginals = [UNIFORM, EXP, MarginalSpec.normal(0.0, 1.0), MarginalSpec.bernoulli(0.5)]
    plan = build_plan(marginals, CorrelationMatrix.filled(4, 0.0))
    for i in range(4):
        for j in range(i + 1, 4):
            assert mixture_correlation(plan, i, j) == pytest.approx(
                plan.target_corr.entry(i, j), abs=1e-9
            )
    # random achievable targets round-trip as well
    for _ in range(20):
        i, j = 0, 1
        ext = plan.pair_extremes(i, j)
        rho = float(rng.uniform(ext.rho_minus, ext.rho_plus))
        lam = convexity_from_correlation(rho, ext)
        assert lam * ext.rho_plus + (1.0 - lam) * ext.rho_minus == pytest.approx(rho, abs=1e-9)


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------

def test_plan_rejects_impossible_pair_target():
    with pytest.raises(UnachievableCorrelationError):
        build_plan([EXP, EXP], CorrelationMatrix.from_lower_triangle([-0.9], 2))


def test_fair_coin_triple_infeasible_targets():
    plan = build_plan([MarginalSpec.bernoulli(0.5)] * 3, CorrelationMatrix.filled(3, -0.4))
    assert not plan.feasible
    assert plan.lam.entry(0, 1) == pytest.approx(0.3, abs=1e-12)
    assert "0.9" in plan.diagnostics and "< 1" in plan.diagnostics
    rng = np.random.default_rng(0)
    with pytest.raises(InfeasibleError):
        sample_vector(plan, rng)
    with pytest.raises(InfeasibleError):
        sample_batch(plan, 10, seed=0)


def test_pair_plan_at_maximum():
    probe = build_plan([UNIFORM, EXP], CorrelationMatrix.from_lower_triangle([0.0], 2))
    ext = probe.pair_extremes(0, 1)
    plan = build_plan([UNIFORM, EXP],
                      CorrelationMatrix.from_lower_triangle([ext.rho_plus], 2))
    assert plan.feasible and plan.recipe.kind == "bivariate"
    assert plan.lam.entry(0, 1) == 1.0


def test_uniform_triple_zero_targets():
    plan = build_plan([UNIFORM] * 3, CorrelationMatrix.filled(3, 0.0))
    assert plan.feasible
    assert plan.recipe.kind == "trivariate"
    for i in range(3):
        for j in range(i + 1, 3):
            assert plan.lam.entry(i, j) == pytest.approx(0.5, abs=1e-9)
    iv = plan.recipe.alpha_interval
    assert iv.lo == pytest.approx(0.0, abs=1e-9)
    assert iv.hi == pytest.approx(0.25, abs=1e-9)
    assert plan.recipe.alpha == pytest.approx(0.125, abs=1e-9)


def test_quadrivariate_plan_recipe():
    plan = build_plan([UNIFORM] * 4, CorrelationMatrix.filled(4, 0.0))
    assert plan.feasible and plan.recipe.kind == "quadrivariate"
    assert plan.recipe.pmf.n == 4


def test_oracle_plan_recipe():
    plan = build_plan([UNIFORM] * 6, CorrelationMatrix.filled(6, 0.0))
    assert plan.feasible and plan.recipe.kind == "oracle_pmf"
    assert plan.recipe.pmf.n == 6


def test_plan_dimension_guards():
    with pytest.raises(DomainError):
        build_plan([UNIFORM], CorrelationMatrix(np.eye(1)))
    with pytest.raises(CapacityError):
        build_plan([UNIFORM] * 13, CorrelationMatrix.filled(13, 0.0))
    with pytest.raises(DomainError):
        build_plan([UNIFORM] * 3, CorrelationMatrix.filled(4, 0.0))


def test_plan_infeasible_submatrix_diagnostics():
    e = np.full((5, 5), 0.5)
    np.fill_diagonal(e, 1.0)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        e[i, j] = e[j, i] = 0.3
    plan = build_plan_from_concurrence([MarginalSpec.bernoulli(0.5)] * 5,
                                       ConcurrenceMatrix(e))
    assert not plan.feasible
    assert "(1, 2, 3)" in plan.diagnostics


def test_wrong_triangle_length_is_a_matrix_error():
    for cls in (CorrelationMatrix, ConcurrenceMatrix):
        with pytest.raises(InvalidMatrixError, match="need 3 lower-triangle entries"):
            cls.from_lower_triangle([0.1, 0.2], 3)


def test_plan_from_concurrence_derives_targets():
    plan = build_plan_from_concurrence([UNIFORM, UNIFORM],
                                       ConcurrenceMatrix.from_lower_triangle([0.75], 2))
    # extremes are (-1, 1) so rho = 0.75*1 + 0.25*(-1) = 0.5
    assert plan.target_corr.entry(0, 1) == pytest.approx(0.5, abs=1e-8)


def test_explicit_alpha_is_validated():
    target = CorrelationMatrix.filled(3, 0.0)
    plan = build_plan([UNIFORM] * 3, target, alpha=0.25)
    assert plan.recipe.alpha == 0.25
    with pytest.raises(InfeasibleError):
        build_plan([UNIFORM] * 3, target, alpha=0.5)


# ---------------------------------------------------------------------------
# sampling behaviour
# ---------------------------------------------------------------------------

def test_comonotone_pair_shares_its_uniform():
    plan = build_plan([UNIFORM, UNIFORM], CorrelationMatrix.from_lower_triangle([1.0], 2))
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = sample_vector(plan, rng)
        assert x[0] == x[1]
    batch = sample_batch(plan, 5000, seed=10)
    assert np.array_equal(batch.values[:, 0], batch.values[:, 1])


def test_sample_vector_pinned_draws():
    # a single draw consumes one uniform, then one recipe uniform; pinning
    # the values keeps that order and the quantile path from drifting
    marginals = [UNIFORM, MarginalSpec.exponential(1.5), MarginalSpec.normal(0.0, 2.0),
                 MarginalSpec.bernoulli(0.3)]
    plan = build_plan_from_concurrence(marginals, ConcurrenceMatrix.filled(4, 0.625))
    rng = np.random.default_rng(2024)
    expected = [
        [0.3241686620187182, 0.26120782273144844, -0.9121464477660267, 0.0],
        [0.3094520308816917, 0.24684655895005206, -0.9948083507464076, 0.0],
        [0.004197901134533222, 0.002804491372262702, -5.271447740617573, 0.0],
    ]
    for row in expected:
        assert sample_vector(plan, rng).tolist() == row


def test_antithetic_pair_mirrors_its_uniform():
    plan = build_plan([UNIFORM, UNIFORM], CorrelationMatrix.from_lower_triangle([-1.0], 2))
    batch = sample_batch(plan, 5000, seed=11)
    assert np.array_equal(batch.values[:, 1], 1.0 - batch.values[:, 0])


def test_batch_determinism_and_stream_independence():
    plan = build_plan([UNIFORM, EXP, MarginalSpec.normal(0.0, 1.0)],
                      CorrelationMatrix.filled(3, 0.2))
    a = sample_batch(plan, 20_000, seed=42, stream_id=0)
    b = sample_batch(plan, 20_000, seed=42, stream_id=0)
    assert np.array_equal(a.values, b.values)

    c = sample_batch(plan, 20_000, seed=42, stream_id=1)
    assert not np.array_equal(a.values, c.values)
    # cross-stream correlation of x1 is zero within 4 standard errors
    mu, sd = moments(UNIFORM)
    z = corr_z(a.values[:, 0], c.values[:, 0], mu, sd, mu, sd, 0.0)
    assert abs(z) <= 4.0

    d = sample_batch(plan, 20_000, seed=43, stream_id=0)
    assert not np.array_equal(a.values, d.values)


def test_exponential_triple_zero_correlation():
    plan = build_plan([EXP] * 3, CorrelationMatrix.filled(3, 0.0))
    batch = sample_batch(plan, 400_000, seed=5)
    mu, sd = moments(EXP)
    for i in range(3):
        for j in range(i + 1, 3):
            z = corr_z(batch.values[:, i], batch.values[:, j], mu, sd, mu, sd, 0.0)
            assert abs(z) <= 4.0


def test_marginals_preserved_regardless_of_coupling():
    marginals = [UNIFORM, EXP, MarginalSpec.normal(0.0, 1.0), MarginalSpec.bernoulli(0.5)]
    plan = build_plan(marginals, CorrelationMatrix.filled(4, 0.15))
    batch = sample_batch(plan, 100_000, seed=21)
    for i, m in enumerate(marginals):
        assert ks_pvalue(batch.values[:, i], m) >= KS_ALPHA, f"KS failed for {m}"


def test_correlation_identity_mixed_marginals():
    marginals = [UNIFORM, EXP, MarginalSpec.normal(0.0, 1.0), MarginalSpec.bernoulli(0.5)]
    plan = build_plan(marginals, CorrelationMatrix.filled(4, 0.15))
    batch = sample_batch(plan, 300_000, seed=22)
    for i in range(4):
        for j in range(i + 1, 4):
            (mi, si), (mj, sj) = moments(marginals[i]), moments(marginals[j])
            target = mixture_correlation(plan, i, j)
            z = corr_z(batch.values[:, i], batch.values[:, j], mi, si, mj, sj, target)
            assert abs(z) <= 4.0, (i, j, z)


def test_concurrence_identity_fair_coins():
    marginals = [MarginalSpec.bernoulli(0.5)] * 4
    plan = build_plan_from_concurrence(
        marginals,
        ConcurrenceMatrix.from_lower_triangle([0.5, 0.6, 0.55, 0.45, 0.5, 0.6], 4),
    )
    assert plan.feasible
    batch = sample_batch(plan, 300_000, seed=9)
    vals = batch.values
    assert set(np.unique(vals)) <= {0.0, 1.0}
    for i in range(4):
        for j in range(i + 1, 4):
            z = concurrence_z(vals[:, i], vals[:, j], plan.lam.entry(i, j))
            assert abs(z) <= 4.0, (i, j, z)


def test_oracle_recipe_statistics():
    plan = build_plan([MarginalSpec.bernoulli(0.5)] * 5, CorrelationMatrix.filled(5, 0.0))
    assert plan.recipe.kind == "oracle_pmf"
    batch = sample_batch(plan, 200_000, seed=13)
    for i in range(5):
        for j in range(i + 1, 5):
            z = concurrence_z(batch.values[:, i], batch.values[:, j], 0.5)
            assert abs(z) <= 4.0


def test_sample_batch_input_guards():
    plan = build_plan([UNIFORM, UNIFORM], CorrelationMatrix.from_lower_triangle([0.5], 2))
    with pytest.raises(DomainError):
        sample_batch(plan, 0, seed=1)
    with pytest.raises(DomainError):
        sample_batch(plan, 10, seed=-1)


# ---------------------------------------------------------------------------
# draw order
# ---------------------------------------------------------------------------

MIXED = [UNIFORM, EXP, MarginalSpec.normal(-1.0, 2.0), MarginalSpec.bernoulli(0.3),
         MarginalSpec.empirical([0.0, 1.0, 4.0], [0.5, 0.25, 0.25])]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    law_seed=st.integers(0, 2 ** 32 - 1),
    seed=st.integers(0, 2 ** 63),
    stream_id=st.integers(0, 3),
    chunks=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    data=st.data(),
)
def test_chunks_concatenate_to_one_batch(n, law_seed, seed, stream_id, chunks, data):
    marginals = data.draw(st.lists(st.sampled_from(MIXED), min_size=n, max_size=n))
    # any law's concurrences are feasible for fair coins (symmetrize it)
    conc = random_pmf(np.random.default_rng(law_seed), n).concurrence_matrix()
    plan = build_plan_from_concurrence(marginals, conc)
    rng = _generator(seed, stream_id)
    parts = np.concatenate([_batch_values(plan, c, rng) for c in chunks])
    whole = sample_batch(plan, sum(chunks), seed, stream_id).values
    assert parts.tobytes() == whole.tobytes()


def test_batch_is_a_prefix_of_any_longer_batch():
    plan = build_plan([UNIFORM] * 3, CorrelationMatrix.filled(3, 0.2))
    longer = sample_batch(plan, 20, seed=5).values
    assert sample_batch(plan, 10, seed=5).values.tobytes() == longer[:10].tobytes()
    for k in range(1, 21):
        assert sample_batch(plan, k, seed=5).values.tobytes() == longer[:k].tobytes()


def test_draw_chunk_size_does_not_change_the_bytes(monkeypatch):
    plan = build_plan(MIXED, CorrelationMatrix.filled(5, 0.1))
    whole = sample_batch(plan, 1000, seed=3).values
    monkeypatch.setattr(sampler, "CHUNK_ROWS", 7)
    assert sample_batch(plan, 1000, seed=3).values.tobytes() == whole.tobytes()


class _ZeroGenerator:
    """Stand-in for a Generator whose every uniform is exactly 0.0."""

    def random(self, size):
        return np.zeros(size)


def test_zero_uniform_draws_the_median():
    marginals = [UNIFORM, EXP, MarginalSpec.normal(0.0, 1.0)]
    plan = build_plan(marginals, CorrelationMatrix.filled(3, 0.2))
    rows = _batch_values(plan, 3, _ZeroGenerator())
    assert np.isfinite(rows).all()
    assert rows.tolist() == [[quantile(m, 0.5) for m in marginals]] * 3


class _ScriptedGenerator:
    """Stand-in for a Generator: every row's U is ``u``, and the recipe
    uniforms are ``atom_uniforms`` in turn."""

    def __init__(self, u: float, atom_uniforms):
        self.u = u
        self.atom_uniforms = list(atom_uniforms)

    def random(self, size):
        if isinstance(size, int):  # JointPMF.sample draws recipe uniforms only
            rows, self.atom_uniforms = self.atom_uniforms[:size], self.atom_uniforms[size:]
            return np.array(rows)
        k, _ = size
        rows = np.column_stack([np.full(k, self.u), self.atom_uniforms[:k]])
        self.atom_uniforms = self.atom_uniforms[k:]
        return rows


def _drawn_atoms(plan, atom_uniforms) -> np.ndarray:
    """Recipe atoms the sampler draws for these recipe uniforms, read off
    uniform(0, 1) coordinates: bit i is 1 where x_i rides U = 1/4."""
    rows = _batch_values(plan, len(atom_uniforms), _ScriptedGenerator(0.25, atom_uniforms))
    assert np.isin(rows, [0.25, 0.75]).all()
    return (rows == 0.25) @ (1 << np.arange(plan.n - 1, -1, -1))


def test_uniform_past_the_float_support_sum_draws_the_last_support_atom():
    # the support (atoms 00, 01, 10) sums to 1 - 2^-53 in floats and atom 11
    # has zero mass; a search over the full cdf, whose last entry is forced
    # to 1, drew atom 11 for a recipe uniform of 1 - 2^-53
    top = 1.0 - 2.0 ** -53
    pmf = JointPMF(2, [0.5, 0.25, 0.25 - 2.0 ** -53, 0.0])
    assert np.cumsum(pmf.probs)[2] == top
    plan = build_plan([UNIFORM] * 2, CorrelationMatrix.filled(2, 0.0))
    plan = dataclasses.replace(plan, recipe=BernoulliRecipe("oracle_pmf", pmf))
    assert _drawn_atoms(plan, [top, top]).tolist() == [0b10, 0b10]
    rows = _batch_values(plan, 1, _ScriptedGenerator(top, [top]))
    assert rows.tolist() == [[top, 2.0 ** -53]]
    assert pmf.sample(_ScriptedGenerator(top, [top])).tolist() == [1, 0]


def fair_coin_law(rng: np.random.Generator, n: int, spread: bool) -> JointPMF:
    """Float weights on up to 2n random atoms, plus, if ``spread``, a
    Dirichlet(1/2) layer over all atoms; each mass split evenly with its
    complement, so every coin is fair."""
    probs = np.zeros(2 ** n)
    atoms = rng.integers(0, 2 ** n, rng.integers(1, 2 * n + 1))
    np.add.at(probs, atoms, rng.random(len(atoms)))
    if spread:
        probs += rng.dirichlet(np.full(2 ** n, 0.5))
    probs += probs[::-1]
    return JointPMF(n, probs / probs.sum())


@settings(max_examples=40, deadline=timedelta(seconds=10))
@given(n=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_no_recipe_draws_a_zero_mass_atom(n, seed):
    # the compiled recipe (closed form for n <= 4, an LP witness above) of a
    # spread law, and a sparse law used as its own recipe, whose float sums
    # need not reach 1.  LP recipes compile from spread laws because some
    # sparse ones at n >= 11 raise the LP's open wrong-basis NumericalError.
    rng = np.random.default_rng(seed)
    spread = fair_coin_law(rng, n, spread=True)
    plan = build_plan_from_concurrence([UNIFORM] * n, spread.concurrence_matrix())
    assert plan.feasible
    for recipe in (plan.recipe, BernoulliRecipe("oracle_pmf", fair_coin_law(rng, n, False))):
        cdf = np.cumsum(recipe.pmf.probs)
        edges = cdf[cdf < 1.0]
        x = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            [0.0, 1.0 - 2.0 ** -53], rng.random(64)])
        atoms = _drawn_atoms(dataclasses.replace(plan, recipe=recipe), x[x < 1.0])
        assert (recipe.pmf.probs[atoms] > 0.0).all()


def _recipe_plan(pmf: JointPMF) -> sampler.SamplingPlan:
    """A bare plan drawing ``pmf`` as its recipe, with uniform(0, 1)
    coordinates, so ``_drawn_atoms`` can read the atoms back."""
    return sampler.SamplingPlan((UNIFORM,) * pmf.n, None, (), None,
                                BernoulliRecipe("oracle_pmf", pmf), True, "feasible")


@st.composite
def pmfs(draw):
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "dyadic", "zeros", "clustered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "dyadic":
        # masses j / 2^m: cdf entries exact, often equal to the query itself
        m = 2 ** draw(st.integers(1, 16))
        cuts = np.sort(rng.integers(0, m + 1, 2 ** n - 1))
        return JointPMF(n, np.diff(cuts, prepend=0, append=m) / m)
    if kind == "random":
        w = rng.random(2 ** n) ** 4
    elif kind == "zeros":
        w = rng.random(2 ** n) * (rng.random(2 ** n) < 0.3)
        w[rng.integers(2 ** n)] += 1.0
    else:
        # one heavy atom, the others 1e-6 each, all in one narrow stretch
        w = np.full(2 ** n, 1e-6)
        w[rng.integers(2 ** n)] = 1.0
    return JointPMF(n, w / w.sum())


@settings(max_examples=150, deadline=None)
@given(pmf=pmfs(), seed=st.integers(0, 2 ** 32 - 1))
def test_drawn_atom_is_the_searchsorted_atom_of_the_support(pmf, seed):
    # the per-coordinate descent equals np.searchsorted over the cdf of the
    # support atoms alone, its last entry forced to 1
    support = np.flatnonzero(pmf.probs)
    cdf = np.cumsum(pmf.probs[support])
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    inner = cdf[cdf < 1.0]
    x = np.concatenate([inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                        [0.0, 2.0 ** -53, 1.0 - 2.0 ** -53], rng.random(64)])
    x = x[(x >= 0.0) & (x < 1.0)]
    expected = support[np.searchsorted(cdf, x, side="right")]
    assert np.array_equal(_drawn_atoms(_recipe_plan(pmf), x), expected)
    bits = pmf.sample(_ScriptedGenerator(0.25, x), len(x))
    assert np.array_equal(bits @ (1 << np.arange(pmf.n - 1, -1, -1)), expected)


def test_wide_rows_draw_the_kernel_quantiles():
    # rows of 8 doubles give each output column a 64-byte stride, on which
    # numpy 2.4.6 computes an in-place np.negative wrongly; every value must
    # still be the exponential quantile of its row's U or 1 - U
    ms = [MarginalSpec.exponential(1.0 + i) for i in range(8)]
    plan = build_plan(ms, CorrelationMatrix.filled(8, 0.3))
    values = sample_batch(plan, 5000, seed=9).values
    u = _generator(9, 0).random((5000, 2))[:, 0]
    for i, m in enumerate(ms):
        forwards, backwards = quantile(m, u), quantile(m, 1.0 - u)
        assert ((values[:, i] == forwards) | (values[:, i] == backwards)).all()
