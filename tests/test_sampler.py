import dataclasses
import hashlib
import math
import re
import sys
import threading
import time
import tracemalloc
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
    InvalidMarginalError,
    InvalidMatrixError,
    JointPMF,
    MarginalSpec,
    NumericalError,
    UnachievableCorrelationError,
    build_plan,
    build_plan_from_concurrence,
    convexity_from_correlation,
    lp_feasible,
    moments,
    quantile,
    sample_batch,
    sample_vector,
    violated_principal_submatrix,
)
from fhmix import bernoulli_joint, sampler
from fhmix.sampler import _batch_values, _generator
from helpers import (
    KS_ALPHA,
    concurrence_z,
    corr_z,
    ks_pvalue,
    leaky_lift,
    mean_z,
    pmf_residual,
    random_pmf,
    spy_on_levels,
)

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
    ext = CorrelationExtremes(-0.3, 0.8)
    assert convexity_from_correlation(0.8, ext) == 1.0
    assert convexity_from_correlation(-0.3, ext) == 0.0


def test_convexity_exponential_zero_target():
    ext = CorrelationExtremes(1.0 - math.pi ** 2 / 6.0, 1.0)
    lam = convexity_from_correlation(0.0, ext)
    assert lam == pytest.approx(1.0 - 6.0 / math.pi ** 2, abs=1e-12)
    assert lam * ext.rho_plus + (1.0 - lam) * ext.rho_minus == pytest.approx(0.0, abs=1e-15)


def test_convexity_out_of_range_reports_interval():
    ext = CorrelationExtremes(-0.3, 0.8)
    with pytest.raises(UnachievableCorrelationError) as err:
        convexity_from_correlation(0.9, ext)
    assert err.value.rho_minus == -0.3 and err.value.rho_plus == 0.8
    assert "-0.3" in str(err.value) and "0.8" in str(err.value)


def test_convexity_degenerate_interval():
    ext = CorrelationExtremes(0.25, 0.25)
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

def test_pair_extremes_rejects_a_diagonal_or_out_of_range_pair():
    plan = build_plan([UNIFORM, EXP, UNIFORM], CorrelationMatrix.filled(3, 0.1))
    assert plan.pair_extremes(2, 1) is plan.pair_extremes(1, 2)
    for i, j in [(1, 1), (0, 3), (3, 0), (-1, 2)]:
        with pytest.raises(DomainError, match=rf"pair \({i}, {j}\)"):
            plan.pair_extremes(i, j)


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


def test_plan_infeasible_triple_above_its_upper_bound_diagnostics():
    plan = build_plan_from_concurrence([UNIFORM] * 3,
                                       ConcurrenceMatrix.from_lower_triangle([1.0, 1.0, 0.0], 3))
    assert not plan.feasible and plan.recipe is None
    assert plan.diagnostics == (
        "infeasible concurrence matrix: lambda12 + lambda13 + lambda23 = 2.000000 "
        "> 1 + 2*min(lambda) = 1.000000 (over by 1)"
    )


def test_plan_infeasible_quadruple_diagnostics():
    plan = build_plan_from_concurrence([UNIFORM] * 4, ConcurrenceMatrix.filled(4, 0.0))
    assert not plan.feasible and plan.recipe is None
    assert plan.diagnostics == (
        "infeasible concurrence matrix: alpha lower bound 0.000000 (from 4-cycle sums) "
        "exceeds upper bound -0.500000 (from the minimum triangle sum) (over by 0.5)"
    )


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


@pytest.mark.parametrize("n", [2, 5, 12])
def test_alpha_outside_n_3_and_4_is_a_domain_error(n):
    # only the n = 3 and n = 4 recipes have a free parameter alpha
    with pytest.raises(DomainError, match=rf"^alpha applies to n = 3 and 4 only, not to n = {n}$"):
        build_plan([UNIFORM] * n, CorrelationMatrix.filled(n, 0.0), alpha=123.0)
    with pytest.raises(DomainError, match=rf"not to n = {n}$"):
        build_plan_from_concurrence([UNIFORM] * n, ConcurrenceMatrix.filled(n, 0.5), alpha=0.1)


def test_a_lifted_lp_recipe_that_misses_a_row_raises_naming_it(monkeypatch):
    monkeypatch.setattr(bernoulli_joint, "lift", leaky_lift(bernoulli_joint.lift))
    with pytest.raises(NumericalError, match=r"concurrence \(1,3\) row"):
        build_plan_from_concurrence([UNIFORM] * 6, ConcurrenceMatrix.filled(6, 1.0))


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
    # the values keeps that order and the quantile path from drifting.  The
    # normal column is 2 NormalDist().inv_cdf(U), bit for bit
    marginals = [UNIFORM, MarginalSpec.exponential(1.5), MarginalSpec.normal(0.0, 2.0),
                 MarginalSpec.bernoulli(0.3)]
    plan = build_plan_from_concurrence(marginals, ConcurrenceMatrix.filled(4, 0.625))
    rng = np.random.default_rng(2024)
    expected = [
        [0.3241686620187182, 0.26120782273144844, -0.9121464477660265, 0.0],
        [0.3094520308816917, 0.24684655895005206, -0.9948083507464075, 0.0],
        [0.004197901134533222, 0.002804491372262702, -5.271447740617572, 0.0],
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


@settings(max_examples=30, deadline=timedelta(seconds=10))
@given(n=st.integers(5, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_lifted_lp_recipes_meet_the_fair_coin_constraints(n, seed):
    # an n >= 5 recipe is the lift of a witness of the reduced system, so
    # each atom carries the mass of its complement
    conc = fair_coin_law(np.random.default_rng(seed), n, spread=True).concurrence_matrix()
    plan = build_plan_from_concurrence([UNIFORM] * n, conc)
    assert plan.feasible and plan.recipe.kind == "oracle_pmf"
    probs = plan.recipe.pmf.probs
    assert np.array_equal(probs, probs[::-1])
    assert pmf_residual(plan.recipe.pmf, [0.5] * n, conc.entries) <= 1e-9


def test_sparse_n11_law_compiles():
    # the 27th of a seeded stream of sparse complement-symmetric laws: its
    # full 2^11-atom system ends on a basis whose witness misses by 0.287
    rng = np.random.default_rng(0)
    for _ in range(27):
        n = int(rng.integers(5, 13))
        probs = np.zeros(2 ** n)
        for atom in rng.integers(0, 2 ** n, rng.integers(1, 2 * n + 1)):
            w = rng.uniform(1e-3, 1)
            probs[atom] += w
            probs[2 ** n - 1 - atom] += w
    law = JointPMF(n, probs / probs.sum())
    assert n == 11 and np.count_nonzero(law.probs) == 20
    conc = law.concurrence_matrix()
    plan = build_plan_from_concurrence([UNIFORM] * 11, conc)
    assert plan.feasible
    assert pmf_residual(plan.recipe.pmf, [0.5] * 11, conc.entries) <= 1e-9


# five uniforms with concurrence (1,4) 2e-9 below 1, on which Dantzig's pass
# ends with a basic value of -1e-9 (the Bland restart's lowest is -1.1e-16);
# HiGHS meets every row within 2.2e-16
NEAR_FACE_N5 = [0.2272945729512399, 0.5244411777796993, 0.5126423899466896,
                0.9999999979999998, 0.2272945729512399, 0.5244411757796993,
                0.1321890703388145, 0.9048944973875745, 0.607747890559115, 0.1321890703388145]


def test_a_near_face_n5_plan_is_feasible():
    conc = ConcurrenceMatrix.from_lower_triangle(NEAR_FACE_N5, 5)
    plan = build_plan_from_concurrence([UNIFORM] * 5, conc)
    assert plan.feasible and plan.recipe.kind == "oracle_pmf"
    assert pmf_residual(plan.recipe.pmf, [0.5] * 5, conc.entries) <= 1e-9


def test_near_face_plans_at_n5_to_7_are_verdicts():
    # sparse complement-symmetric laws, one shift d added to about half their
    # concurrences: most fail the screen, the rest reach the LP within 2e-9
    # of a face.  No plan raises, and every recipe meets its rows within 1e-9
    rng = np.random.default_rng(3)
    shifts = [-2e-9, -1.5e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 1.5e-9, 2e-9]
    feasible = 0
    for t in range(300):
        n = 5 + t % 3
        k = rng.integers(1, n + 1)
        mu = np.zeros(2 ** n)
        np.add.at(mu, rng.integers(0, 2 ** n, k), rng.random(k))
        mu = mu + mu[::-1]
        e = JointPMF(n, mu / mu.sum()).concurrence_matrix().entries.copy()
        upper = np.triu_indices(n, 1)
        d = shifts[rng.integers(0, len(shifts))]
        e[upper] = np.clip(e[upper] + d * (rng.random(len(upper[0])) < 0.5), 0.0, 1.0)
        e.T[upper] = e[upper]
        plan = build_plan_from_concurrence([UNIFORM] * n, ConcurrenceMatrix(e))
        if plan.feasible:
            feasible += 1
            assert pmf_residual(plan.recipe.pmf, [0.5] * n, e) <= 1e-9, (t, e)
    assert feasible > 30


def test_lp_certificate_names_the_fair_coin_constraints():
    # mean concurrence 0.42 < 30/66 breaks a max-cut inequality while every
    # 3- and 4-subset passes the screen.  Moving the second coordinate of
    # the certificate's first concurrence row to the end makes the reduced
    # system's marginal rows bind; they are concurrences (i, 12)
    rng = np.random.default_rng(61)
    lam = np.triu(np.full((12, 12), 0.42) + rng.uniform(-0.02, 0.02, (12, 12)), 1)
    lam = lam + lam.T + np.eye(12)
    before = build_plan_from_concurrence([UNIFORM] * 12, ConcurrenceMatrix(lam))
    a = int(re.search(r"concurrence \(\d+,(\d+)\)", before.diagnostics)[1]) - 1
    perm = list(range(12))
    perm[a], perm[11] = 11, a
    conc = ConcurrenceMatrix(lam[np.ix_(perm, perm)])
    plan = build_plan_from_concurrence([UNIFORM] * 12, conc)
    assert not plan.feasible and violated_principal_submatrix(conc) is None
    raw = lp_feasible(conc.entries[:-1, -1].tolist(), conc.submatrix(range(11))).certificate
    bound = re.findall(r"\[marginal (\d+)\]", raw)
    assert bound
    for text in (before.diagnostics, plan.diagnostics):
        assert "marginal" not in text
    for i in bound:
        assert f"[concurrence ({i},12)]" in plan.diagnostics


def test_sample_batch_input_guards():
    plan = build_plan([UNIFORM, UNIFORM], CorrelationMatrix.from_lower_triangle([0.5], 2))
    with pytest.raises(DomainError):
        sample_batch(plan, 0, seed=1)
    with pytest.raises(DomainError):
        sample_batch(plan, 10, seed=-1)


@pytest.mark.parametrize("name", ["count", "seed", "stream_id"])
@pytest.mark.parametrize("bad", [3.0, 3.9, "7", True, False])
def test_sample_batch_takes_integers_only(name, bad):
    # a float is not truncated, a string not parsed, a bool not read as 0/1
    plan = build_plan([UNIFORM, UNIFORM], CorrelationMatrix.from_lower_triangle([0.5], 2))
    args = {"count": 5, "seed": 2, "stream_id": 1, name: bad}
    with pytest.raises(DomainError, match=rf"^{name} must be an integer >= [01], got "):
        sample_batch(plan, **args)
    if name != "count":
        with pytest.raises(DomainError, match=rf"^{name} must be an integer"):
            _generator(args["seed"], args["stream_id"])


def test_sample_batch_takes_numpy_integers():
    plan = build_plan([UNIFORM, UNIFORM], CorrelationMatrix.from_lower_triangle([0.5], 2))
    batch = sample_batch(plan, np.int64(5), seed=np.uint32(2), stream_id=np.int8(1))
    assert (batch.count, batch.seed, batch.stream_id) == (5, 2, 1)
    assert type(batch.count) is type(batch.seed) is type(batch.stream_id) is int
    assert batch.values.tobytes() == sample_batch(plan, 5, seed=2, stream_id=1).values.tobytes()


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
    monkeypatch.setattr(sampler, "PIECE_ROWS", 7)
    assert sample_batch(plan, 1000, seed=3).values.tobytes() == whole.tobytes()


@pytest.mark.parametrize("count", [3, 17])  # one piece of 7 rows, and three
def test_batches_are_column_major_and_vectors_contiguous(monkeypatch, count):
    # every column of a batch is contiguous, whether one piece or several
    # wrote it; a vector is one contiguous row
    plan = build_plan(MIXED, CorrelationMatrix.filled(5, 0.1))
    monkeypatch.setattr(sampler, "PIECE_ROWS", 7)
    values = sample_batch(plan, count, seed=5).values
    assert values.flags.f_contiguous and not values.flags.writeable
    assert not values.flags.c_contiguous
    row = sample_vector(plan, np.random.default_rng(5))
    assert row.shape == (5,) and row.flags.c_contiguous


def test_one_row_past_a_piece_is_drawn_in_pieces(monkeypatch):
    # one piece size decides the layout: PIECE_ROWS + 1 rows are two pieces
    # on the worker threads, with the bytes of the two batches in turn
    plan = build_plan(MIXED, CorrelationMatrix.filled(5, 0.1))
    rows = sampler.PIECE_ROWS
    rng = _generator(6, 1)
    parts = np.concatenate([_batch_values(plan, rows, rng), _batch_values(plan, 1, rng)])
    draw_piece = sampler._draw_piece
    sizes = []

    def record(marginals, levels, scratch, out):
        sizes.append(len(out))
        draw_piece(marginals, levels, scratch, out)

    monkeypatch.setattr(sampler, "_draw_piece", record)
    whole = sample_batch(plan, rows + 1, seed=6, stream_id=1).values
    assert sorted(sizes) == [1, rows]
    assert whole.tobytes() == parts.tobytes()


def test_threaded_pieces_keep_the_bytes(monkeypatch):
    # pieces of 5 rows on more workers than cores, switching threads every
    # microsecond: each count's bytes equal its one-piece evaluation
    plan = build_plan(MIXED, CorrelationMatrix.filled(5, 0.1))
    counts = [4, 5, 6, 9, 10, 11, 64, 401]
    whole = {c: sample_batch(plan, c, seed=8, stream_id=2).values.tobytes() for c in counts}
    cores = sampler._cpus()
    monkeypatch.setattr(sampler, "PIECE_ROWS", 5)
    monkeypatch.setattr(sampler, "_cpus", lambda: cores + 3)
    pieces = {}

    def draw():
        for _ in range(3):
            for c in counts:
                pieces.setdefault(c, []).append(
                    sample_batch(plan, c, seed=8, stream_id=2).values.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=draw, daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert pieces == {c: [whole[c]] * 3 for c in counts}


def test_a_failing_piece_raises_once_the_others_finish(monkeypatch):
    # waiting on the failed piece's future does not raise, so the pieces
    # after it reuse its scratch set and are drawn, and then the error
    # reaches the caller
    plan = build_plan([UNIFORM] * 3, CorrelationMatrix.filled(3, 0.1))
    draw_piece = sampler._draw_piece
    pieces = []

    def fail_third(marginals, levels, scratch, out):
        pieces.append(out)
        if len(pieces) == 3:
            raise ValueError("piece failed")
        draw_piece(marginals, levels, scratch, out)

    monkeypatch.setattr(sampler, "_draw_piece", fail_third)
    monkeypatch.setattr(sampler, "PIECE_ROWS", 5)
    monkeypatch.setattr(sampler, "_cpus", lambda: 1)
    raised = []

    def draw():
        with pytest.raises(ValueError, match="piece failed"):
            sample_batch(plan, 50, seed=1)
        raised.append(True)

    worker = threading.Thread(target=draw, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert raised == [True] and len(pieces) == 10


@pytest.mark.parametrize("cpus", [2, 3])
def test_pieces_in_flight_are_bounded_by_the_workers(monkeypatch, cpus):
    # a scratch set is loaded again only after the piece using it finishes:
    # at most one piece per worker runs, each on a set no other running
    # piece holds, and the pieces use exactly one set per worker
    plan = build_plan(MIXED, CorrelationMatrix.filled(5, 0.1))
    whole = sample_batch(plan, 64, seed=4).values.tobytes()
    draw_piece = sampler._draw_piece
    lock = threading.Lock()
    running, peak, used = set(), [0], set()

    def record(marginals, levels, scratch, out):
        with lock:
            assert id(scratch) not in running
            running.add(id(scratch))
            peak[0] = max(peak[0], len(running))
            used.add(id(scratch))
        u = scratch.u[:len(out)].copy()
        time.sleep(0.005)  # room for a wrongly reloaded set to show
        assert scratch.u[:len(out)].tobytes() == u.tobytes()
        draw_piece(marginals, levels, scratch, out)
        with lock:
            running.remove(id(scratch))

    monkeypatch.setattr(sampler, "_draw_piece", record)
    monkeypatch.setattr(sampler, "PIECE_ROWS", 5)
    monkeypatch.setattr(sampler, "_cpus", lambda: cpus)
    assert sample_batch(plan, 64, seed=4).values.tobytes() == whole
    assert 1 <= peak[0] <= cpus and len(used) == cpus


def test_a_slow_piece_holds_back_no_other(monkeypatch):
    # the first piece finishes only after the other three: with two
    # scratch sets, pieces 2 and 3 must take the set piece 1 gives back
    plan = build_plan(MIXED, CorrelationMatrix.filled(5, 0.1))
    whole = sample_batch(plan, 20, seed=4).values.tobytes()
    first_u = _generator(4, 0).random((5, 2))[:, 0]
    draw_piece = sampler._draw_piece
    lock, others_done, finished = threading.Lock(), threading.Event(), []

    def record(marginals, levels, scratch, out):
        if np.array_equal(scratch.u[:len(out)], first_u):
            assert others_done.wait(timeout=30), "a piece waited for the first one"
        draw_piece(marginals, levels, scratch, out)
        with lock:
            finished.append(scratch)
            if len(finished) == 3:
                others_done.set()

    monkeypatch.setattr(sampler, "_draw_piece", record)
    monkeypatch.setattr(sampler, "PIECE_ROWS", 5)
    monkeypatch.setattr(sampler, "_cpus", lambda: 2)
    assert sample_batch(plan, 20, seed=4).values.tobytes() == whole
    assert len(finished) == 4 and len({id(s) for s in finished}) == 2


def test_draw_scratch_does_not_grow_with_count(monkeypatch):
    # at a fixed worker count, the peak memory of a threaded batch beyond its
    # output does not grow with the batch
    monkeypatch.setattr(sampler, "_cpus", lambda: 2)
    plan = build_plan([UNIFORM, MIXED[4]], CorrelationMatrix.filled(2, 0.1))
    sample_batch(plan, 2 * sampler.PIECE_ROWS, seed=1)
    scratch = {}
    tracemalloc.start()
    try:
        for count in (2 * sampler.PIECE_ROWS, 8 * sampler.PIECE_ROWS):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            batch = sample_batch(plan, count, seed=1)
            scratch[count] = tracemalloc.get_traced_memory()[1] - before - batch.values.nbytes
            del batch
    finally:
        tracemalloc.stop()
    assert scratch[8 * sampler.PIECE_ROWS] <= 1.25 * scratch[2 * sampler.PIECE_ROWS]


def test_a_piece_allocates_no_column(monkeypatch):
    # the empirical quantile searches in the scratch set's idle arrays, so a
    # worker thread leaves no column-sized block in its malloc arena; the
    # peak left is numpy's fixed cast buffer
    plan = build_plan(MIXED, CorrelationMatrix.filled(5, 0.1))
    rows = sampler.PIECE_ROWS
    tables = plan.recipe.pmf._support_tables
    _batch_values(plan, 1, _generator(1, 0))  # cache the search tables
    scratch = sampler._Scratch(rows).load(_generator(1, 0), rows)
    out = np.empty((rows, plan.n), order="F")
    tracemalloc.start()
    try:
        sampler._draw_piece(plan.marginals, tables, scratch, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows // 4
    assert out.tobytes() == _batch_values(plan, rows, _generator(1, 0)).tobytes()


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


def _edge_spec(make, accepted: float, rejected: float) -> MarginalSpec:
    """``make(x)`` at the last x from ``accepted`` towards ``rejected`` (both
    positive) whose spec passes the overflow check: the next float fails it."""
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (accepted, rejected))
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        try:
            make(float(np.int64(mid).view(np.float64)))
            lo = mid
        except InvalidMarginalError:
            hi = mid
    return make(float(np.int64(lo).view(np.float64)))


@pytest.mark.parametrize("seed", range(6))
def test_draws_are_finite_at_the_edge_of_the_overflow_check(seed):
    # csv_bytes writes finite values only: each quantile is monotone, so a draw
    # at U or 1 - U in [2^-53, 1 - 2^-53] is finite when the spec's quantiles
    # at both ends are, and the spec checks them
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(0.0, 1.0))
    w = rng.dirichlet(np.ones(3)).tolist()
    edges = [
        _edge_spec(lambda x: MarginalSpec.uniform(-c * x, x), 1.0, math.inf),
        _edge_spec(MarginalSpec.exponential, 1.0, 5e-324),
        _edge_spec(lambda x: MarginalSpec.normal(c * x, x), 1.0, math.inf),
        _edge_spec(lambda x: MarginalSpec.empirical([-x, c * x, x], w), 1.0, math.inf),
    ]
    marginals = [edges[k] for k in rng.permutation(4)]
    plan = build_plan_from_concurrence(
        marginals, ConcurrenceMatrix.filled(4, float(rng.uniform(0.5, 1.0))))
    assert np.isfinite(sample_batch(plan, 5000, seed=seed).values).all()
    for u in (2.0 ** -53, 1.0 - 2.0 ** -53):  # the ends, where a quantile is largest
        rows = _batch_values(plan, 5000, _ScriptedGenerator(u, rng.random(5000).tolist()))
        assert np.isfinite(rows).all()


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
    # the compiled recipes (closed form for n <= 4, an LP witness above) of a
    # spread and a sparse law, and the sparse law used as its own recipe,
    # whose float sums need not reach 1
    rng = np.random.default_rng(seed)
    sparse = fair_coin_law(rng, n, spread=False)
    recipes = [BernoulliRecipe("oracle_pmf", sparse)]
    for law in (fair_coin_law(rng, n, spread=True), sparse):
        plan = build_plan_from_concurrence([UNIFORM] * n, law.concurrence_matrix())
        assert plan.feasible
        recipes.append(plan.recipe)
    for recipe in recipes:
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
                                BernoulliRecipe("oracle_pmf", pmf), "feasible")


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


NORMALS = [MarginalSpec.normal(-0.0, 2.0), MarginalSpec.normal(1.5, 0.25),
           MarginalSpec.normal(-3.0, 7.0)]
NORMAL_MIX = [NORMALS[0], UNIFORM, NORMALS[1], MIXED[4], NORMALS[2]]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def test_normal_columns_share_one_quantile_bit_for_bit():
    # a piece evaluates the normal kernel once, at U, and every normal
    # column is still the quantile of its row's U or 1 - U, bit for bit;
    # 3 * 2^16 + 5 rows are drawn in four pieces on the worker threads
    plan = build_plan_from_concurrence(NORMAL_MIX, ConcurrenceMatrix.filled(5, 0.5))
    count = 3 * sampler.PIECE_ROWS + 5
    values = sample_batch(plan, count, seed=12).values
    u = _generator(12, 0).random((count, 2))[:, 0]
    for i, m in enumerate(NORMAL_MIX):
        forwards, backwards = _bits(quantile(m, u)), _bits(quantile(m, 1.0 - u))
        got = _bits(values[:, i])
        assert ((got == forwards) | (got == backwards)).all()
        assert (got == forwards).any() and (got == backwards).any()
    # at U = 1/2 both sides read quantile(m, 0.5), +0.0 + mean, whichever
    # way each coin falls: +0.0 for normal(-0.0, 2.0), where -(+0.0) + mean
    # would be -0.0
    atom_uniforms = np.arange(64) / 64
    coins = _drawn_atoms(_recipe_plan(plan.recipe.pmf), atom_uniforms)[:, None] >> np.arange(5)
    assert ((coins & 1).min(axis=0) == 0).all() and ((coins & 1).max(axis=0) == 1).all()
    rows = _batch_values(plan, 64, _ScriptedGenerator(0.5, atom_uniforms))
    assert (_bits(rows) == _bits([quantile(m, 0.5) for m in NORMAL_MIX])).all()


def test_zero_uniform_draws_the_median_of_every_normal():
    # U = 0 is drawn as U = 1/2; the first atom of positive mass, all coins
    # 0, rides 1 - U in every column
    plan = build_plan_from_concurrence(NORMAL_MIX, ConcurrenceMatrix.filled(5, 0.5))
    assert plan.recipe.pmf.probs[0] > 0.0
    rows = _batch_values(plan, 3, _ZeroGenerator())
    assert (_bits(rows) == _bits([quantile(m, 0.5) for m in NORMAL_MIX])).all()
    assert math.copysign(1.0, rows[0, 0]) == 1.0


def test_a_draw_builds_only_the_recipe_table(monkeypatch):
    # an empirical marginal's guide table comes with its spec; the first
    # draw builds the recipe's, over its atoms of positive mass, and no other
    ms = [MarginalSpec.empirical(np.arange(8.0)), UNIFORM, EXP,
          MarginalSpec.empirical([0.0, 1.0, 5.0], [0.25, 0.5, 0.25])]
    plan = build_plan(ms, CorrelationMatrix.from_lower_triangle([0.2, 0.1, -0.1, 0.3, 0.0, 0.1], 4))
    calls = spy_on_levels(monkeypatch)
    sample_batch(plan, 100, seed=3)
    assert calls == [np.count_nonzero(plan.recipe.pmf.probs)]
    sample_batch(plan, 100, seed=4)
    assert len(calls) == 1


def test_closed_form_sample_bytes_are_pinned():
    # a closed-form n = 4 plan, which runs through no LP or BLAS kernel: two
    # normal columns, a uniform and an empirical, whose bits do not follow
    # numpy's SIMD dispatch (an exponential's log1p would); 3 * 2^16 + 5 rows
    # are drawn in four pieces on the worker threads
    ms = [MarginalSpec.normal(0.5, 2.0), MarginalSpec.uniform(-1.0, 2.0),
          MarginalSpec.normal(-0.0, 0.75),
          MarginalSpec.empirical([-1.0, 4.0, 6.0, 7.0, 8.0], [0.125, 0.375, 0.025, 0.275, 0.2])]
    plan = build_plan(ms, CorrelationMatrix.from_lower_triangle([0.3, -0.2, 0.1, 0.4, 0.0, -0.1], 4))
    assert plan.recipe.kind == "quadrivariate"
    values = sample_batch(plan, 3 * sampler.PIECE_ROWS + 5, seed=17, stream_id=2).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "2d2d672090e90286c39d62a710e9e3a8a8d885ccf22a731140e7bca881a912ac")
