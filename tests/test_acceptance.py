"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion (test name + printed summary).  Every tolerance is pinned here;
nothing is deferred to later calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import linregress

from fhmix import (
    ConcurrenceMatrix,
    CorrelationMatrix,
    InfeasibleError,
    MarginalSpec,
    asymmetric_pair_feasible,
    bivariate_pmf,
    build_plan,
    corr_extremes,
    lp_feasible,
    moments,
    pushforward,
    quadrivariate_alpha_interval,
    quadrivariate_lifted_pmf,
    quantile,
    sample_batch,
    symmetrize,
    trivariate_alpha_interval,
    trivariate_feasible,
    trivariate_pmf,
    trivariate_sample_direct,
)
from helpers import (
    KS_ALPHA,
    asym_pair_pmf,
    corr_z,
    ks_pvalue,
    pmf_residual,
    random_concurrence4,
    random_feasible_quad,
    random_feasible_triple,
)


def _report(k: int, message: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {k} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {k} PASS: {message} [{elapsed:.2f}s]")


def test_criterion_01_infeasible_fair_coin_triple():
    t0 = time.perf_counter()
    marginals = [MarginalSpec.bernoulli(0.5)] * 3
    plan = build_plan(marginals, CorrelationMatrix.filled(3, -0.4))
    assert not plan.feasible
    for i in range(3):
        for j in range(i + 1, 3):
            assert plan.lam.entry(i, j) == pytest.approx(0.3, abs=1e-12)
    witness = lp_feasible([0.5] * 3, ConcurrenceMatrix.filled(3, 0.3))
    assert not witness.feasible
    with pytest.raises(InfeasibleError):
        sample_batch(plan, 1, seed=0)
    _report(1, "rho = -0.4 fair-coin triple rejected by plan and LP oracle", t0, 1.0)


def test_criterion_02_trivariate_grid_matches_oracle():
    t0 = time.perf_counter()
    grid = np.round(np.arange(0.0, 1.0000001, 0.05), 10)
    assert len(grid) == 21
    checked = 0
    for l12, l13, l23 in itertools.product(grid, repeat=3):
        closed = trivariate_feasible(l12, l13, l23)
        conc = ConcurrenceMatrix.from_lower_triangle([l12, l13, l23], 3)
        lp = lp_feasible([0.5] * 3, conc, mode="float").feasible
        assert closed == lp, (l12, l13, l23, closed, lp)
        checked += 1
    assert checked == 9261
    _report(2, f"closed-form triple test equals LP oracle on all {checked} grid points", t0, 60.0)


def test_criterion_03_quadrivariate_random_matches_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240814)
    agree_feasible = 0
    for _ in range(10_000):
        conc = random_concurrence4(rng)
        closed = quadrivariate_alpha_interval(conc).feasible
        lp = lp_feasible([0.5] * 4, conc, mode="float").feasible
        assert closed == lp, (conc.entries, closed, lp)
        agree_feasible += closed
    _report(3, f"alpha-interval test equals LP oracle on 10000 random matrices "
               f"({agree_feasible} feasible)", t0, 300.0)


def test_criterion_04_exponential_minimum_correlation():
    t0 = time.perf_counter()
    target = 1.0 - math.pi ** 2 / 6.0
    ext = corr_extremes(MarginalSpec.exponential(1.0), MarginalSpec.exponential(1.0))
    assert ext.rho_minus == pytest.approx(target, abs=1e-6)

    rng = np.random.default_rng(271828)
    u = rng.uniform(1e-12, 1.0 - 1e-12, size=1_000_000)
    m = MarginalSpec.exponential(1.0)
    empirical = float(np.corrcoef(quantile(m, u), quantile(m, 1.0 - u))[0, 1])
    assert abs(empirical - target) < 0.005
    _report(4, f"antithetic exponential pair: closed form {ext.rho_minus:.8f}, "
               f"Monte Carlo {empirical:.5f}, target {target:.8f}", t0, 30.0)


def test_criterion_05_mixture_correlation_identity():
    t0 = time.perf_counter()
    marginals = [
        MarginalSpec.uniform(0.0, 1.0),
        MarginalSpec.exponential(1.0),
        MarginalSpec.normal(0.0, 1.0),
        MarginalSpec.bernoulli(0.5),
    ]
    # place every target mid-interval: rho_ij = (rho+ + rho-)/2, lambda = 1/2
    probe = build_plan(marginals, CorrelationMatrix.filled(4, 0.0))
    targets = np.eye(4)
    for i in range(4):
        for j in range(i + 1, 4):
            ext = probe.pair_extremes(i, j)
            targets[i, j] = targets[j, i] = 0.5 * (ext.rho_plus + ext.rho_minus)
    plan = build_plan(marginals, CorrelationMatrix(targets))
    assert plan.feasible

    batch = sample_batch(plan, 1_000_000, seed=31337)
    worst = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            ext = plan.pair_extremes(i, j)
            lam = plan.lam.entry(i, j)
            mix = lam * ext.rho_plus + (1.0 - lam) * ext.rho_minus
            (mi, si), (mj, sj) = moments(marginals[i]), moments(marginals[j])
            z = corr_z(batch.values[:, i], batch.values[:, j], mi, si, mj, sj, mix)
            worst = max(worst, abs(z))
            assert abs(z) <= 4.0, (i, j, z)
    for i, m in enumerate(marginals):
        assert ks_pvalue(batch.values[:, i], m) >= KS_ALPHA, f"KS failed for {m}"
    _report(5, f"n=4 mixed marginals: all pairwise correlations within 4 SE "
               f"(worst |z| = {worst:.2f}) and all KS p >= 1e-3", t0, 120.0)


def test_criterion_06_exact_pmf_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(100):
        lam = float(rng.random())
        pair = bivariate_pmf(lam)
        # agreement atoms carry exactly lambda/2, disagreement (1 - lambda)/2
        assert pair.probs[0] == lam / 2.0 and pair.probs[3] == lam / 2.0
        assert pair.probs[1] == (1.0 - lam) / 2.0 and pair.probs[2] == (1.0 - lam) / 2.0
        conc2 = np.array([[1.0, lam], [lam, 1.0]])
        assert pmf_residual(pair, (0.5, 0.5), conc2) <= 1e-12

        l12, l13, l23 = random_feasible_triple(rng)
        iv = trivariate_alpha_interval(l12, l13, l23)
        alpha = float(rng.uniform(iv.lo, iv.hi))
        conc3 = ConcurrenceMatrix.from_lower_triangle([l12, l13, l23], 3)
        assert pmf_residual(trivariate_pmf(l12, l13, l23, alpha),
                            (0.5,) * 3, conc3.entries) <= 1e-12

        conc4 = random_feasible_quad(rng)
        iv4 = quadrivariate_alpha_interval(conc4)
        alpha4 = float(rng.uniform(iv4.lo, iv4.hi))
        assert pmf_residual(quadrivariate_lifted_pmf(conc4, alpha4),
                            (0.5,) * 4, conc4.entries) <= 1e-12
    _report(6, "100 random constructions per dimension satisfy all constraints "
               "to 1e-12 and reproduce the pair table exactly", t0, 10.0)


def test_criterion_07_direct_triple_sampler():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    draws_per_triple = 1_000_000
    worst = 0.0
    for _ in range(20):
        l12, l13, l23 = random_feasible_triple(rng)
        draws = trivariate_sample_direct(l12, l13, l23, rng, size=draws_per_triple)
        se_half = 0.5 / math.sqrt(draws_per_triple)
        for i in range(3):
            assert abs(float(draws[:, i].mean()) - 0.5) <= 4.0 * se_half
        for (i, j), lam in (((0, 1), l12), ((0, 2), l13), ((1, 2), l23)):
            p_hat = float((draws[:, i] == draws[:, j]).mean())
            se = math.sqrt(max(lam * (1.0 - lam), 1e-12) / draws_per_triple)
            z = abs(p_hat - lam) / se
            worst = max(worst, z)
            assert z <= 4.0, (lam, p_hat)
    _report(7, f"20 random triples x 1e6 draws: concurrences and marginals within "
               f"4 sigma (worst z = {worst:.2f})", t0, 120.0)


def test_criterion_08_reduction_round_trip():
    t0 = time.perf_counter()
    grid = np.round(np.arange(0.0, 1.0000001, 0.1), 10)
    reduce_map = lambda bits: tuple(1 if b == bits[-1] else 0 for b in bits[:-1])

    round_trips = 0
    for p, q, r in itertools.product(grid, repeat=3):
        feasible = asymmetric_pair_feasible(p, q, r)
        conc = ConcurrenceMatrix.from_lower_triangle([r], 2)
        assert feasible == lp_feasible([p, q], conc, mode="float").feasible, (p, q, r)
        if not feasible:
            continue
        bordered = symmetrize([p, q], conc)
        e = bordered.entries
        iv = trivariate_alpha_interval(e[0, 1], e[0, 2], e[1, 2])
        assert iv.feasible
        target = asym_pair_pmf(p, q, r)
        for alpha in (iv.lo, iv.midpoint, iv.hi):
            pmf3 = trivariate_pmf(e[0, 1], e[0, 2], e[1, 2], alpha)
            reduced = pushforward(pmf3, reduce_map)
            assert np.max(np.abs(reduced.probs - target)) <= 1e-12, (p, q, r, alpha)
        round_trips += 1
    assert round_trips > 300
    _report(8, f"pair condition equals LP on all 1331 grid points; {round_trips} "
               f"feasible specs round-trip exactly through the bordered triple", t0, 60.0)


def test_criterion_09_determinism_and_linear_time():
    t0 = time.perf_counter()
    ns = list(range(2, 13))
    plans = {
        n: build_plan([MarginalSpec.uniform(0.0, 1.0)] * n, CorrelationMatrix.filled(n, 0.0))
        for n in ns
    }
    for n in ns:
        assert plans[n].feasible

    a = sample_batch(plans[5], 50_000, seed=2024, stream_id=3)
    b = sample_batch(plans[5], 50_000, seed=2024, stream_id=3)
    assert a.values.tobytes() == b.values.tobytes()

    count = 200_000
    best = {n: math.inf for n in ns}
    for n in ns:
        sample_batch(plans[n], 20_000, seed=0)  # warm caches and allocator
    for _ in range(7):
        for n in ns:
            start = time.perf_counter()
            sample_batch(plans[n], count, seed=1)
            best[n] = min(best[n], time.perf_counter() - start)
    per_sample = [best[n] / count for n in ns]
    fit = linregress(ns, per_sample)
    r2 = fit.rvalue ** 2
    assert r2 >= 0.95, (r2, per_sample)
    _report(9, f"bit-identical batches; per-sample cost linear in n "
               f"(R^2 = {r2:.3f}, slope {fit.slope * 1e9:.1f} ns/coordinate)", t0, 120.0)
