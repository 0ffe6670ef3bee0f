import json
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fhmix import (
    CapacityError,
    ConcurrenceMatrix,
    DomainError,
    InvalidMatrixError,
    JointPMF,
    MarginalSpec,
    NumericalError,
    build_plan_from_concurrence,
    lp_feasible,
    pushforward,
)
from fhmix import oracle
from fhmix.cli import main
from fhmix.oracle import FLOAT_TOL
from helpers import pmf_residual, random_feasible_quad, random_pmf


def test_pair_always_feasible():
    for lam in np.linspace(0.0, 1.0, 21):
        conc = ConcurrenceMatrix.from_lower_triangle([lam], 2)
        w = lp_feasible([0.5, 0.5], conc, mode="float")
        assert w.feasible
        assert pmf_residual(w.pmf, (0.5, 0.5), conc.entries) <= 1e-9


def test_third_coordinate_blocks_pairwise_disagreement():
    w = lp_feasible([0.5] * 3, ConcurrenceMatrix.filled(3, 0.3))
    assert not w.feasible
    assert bool(w) is False
    assert w.pmf is None
    assert "violation" in w.certificate
    assert w.max_residual > 0.05


def test_comonotone_five_dimensional_witness():
    w = lp_feasible([0.5] * 5, ConcurrenceMatrix.filled(5, 1.0))
    assert w.feasible
    assert bool(w) is True
    assert w.pmf.probs[0] == pytest.approx(0.5, abs=1e-9)
    assert w.pmf.probs[-1] == pytest.approx(0.5, abs=1e-9)
    assert float(w.pmf.probs[1:-1].max()) <= 1e-9


def test_witnesses_reproduce_inputs():
    rng = np.random.default_rng(1001)
    for n in (2, 3, 4, 5, 6):
        for _ in range(8):
            law = random_pmf(rng, n)
            margs = [law.marginal_prob(i) for i in range(n)]
            conc = law.concurrence_matrix()
            w = lp_feasible(margs, conc)
            assert w.feasible, (n, margs)
            assert w.max_residual <= 1e-9
            assert pmf_residual(w.pmf, margs, conc.entries) <= 1e-9


def test_exact_mode_verdicts():
    half = Fraction(1, 2)
    conc = ConcurrenceMatrix.filled(3, 0.5)
    w = lp_feasible([half] * 3, conc, mode="exact")
    assert w.mode == "exact" and w.feasible and w.max_residual == 0.0

    bad = ConcurrenceMatrix.filled(3, float(Fraction(3, 10)))
    wb = lp_feasible([half] * 3, bad, mode="exact")
    assert wb.mode == "exact" and not wb.feasible
    assert wb.max_residual == pytest.approx(0.1, abs=1e-12)


def test_auto_mode_picks_exact_for_small_denominators():
    assert lp_feasible([0.5] * 2, ConcurrenceMatrix.filled(2, 0.25)).mode == "exact"
    assert lp_feasible([0.5] * 2, ConcurrenceMatrix.filled(2, 0.31)).mode == "float"


def test_exact_mode_eight_fair_coins():
    conc = ConcurrenceMatrix.filled(8, 0.75)
    w = lp_feasible([0.5] * 8, conc)
    assert w.mode == "exact" and w.feasible and w.max_residual == 0.0
    assert pmf_residual(w.pmf, [0.5] * 8, conc.entries) <= 1e-12


@st.composite
def dyadic_fair_coin_laws(draw, dims=st.integers(5, 7)):
    """Sixteen masses of 1/16, each split evenly between an atom and its complement."""
    n = draw(dims)
    probs = np.zeros(2 ** n)
    for atom in draw(st.lists(st.integers(0, 2 ** n - 1), min_size=16, max_size=16)):
        probs[atom] += 1 / 32
        probs[2 ** n - 1 - atom] += 1 / 32
    return JointPMF(n, probs)


@settings(max_examples=150, deadline=None)
@given(law=dyadic_fair_coin_laws(), data=st.data())
def test_exact_verdicts_are_certified(law, data):
    n = law.n
    half = [0.5] * n
    conc = law.concurrence_matrix()
    w = lp_feasible(half, conc, mode="exact")
    assert w.feasible and w.mode == "exact" and w.max_residual == 0.0
    assert pmf_residual(w.pmf, half, conc.entries) <= 1e-12

    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    k = data.draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
    e = conc.entries.copy()
    e[i, j] = e[j, i] = min(1.0, max(0.0, e[i, j] + k / 32))
    moved = ConcurrenceMatrix(e)
    exact = lp_feasible(half, moved, mode="exact")
    assert exact.feasible == lp_feasible(half, moved, mode="float").feasible
    if not exact.feasible:
        assert exact.max_residual > 0


def test_exact_and_float_agree_on_a_dyadic_grid():
    # dyadic grid values are exactly representable, so the zero-tolerance
    # exact mode and the 1e-9-tolerance float mode must give one verdict
    grid = np.linspace(0.0, 1.0, 9)
    for l12 in grid:
        for l13 in grid:
            for l23 in grid:
                conc = ConcurrenceMatrix.from_lower_triangle([l12, l13, l23], 3)
                f = lp_feasible([0.5] * 3, conc, mode="float").feasible
                e = lp_feasible([Fraction(1, 2)] * 3, conc, mode="exact").feasible
                assert f == e


def test_feasible_set_is_convex():
    rng = np.random.default_rng(55)
    for _ in range(10):
        a = random_feasible_quad(rng)
        b = random_feasible_quad(rng)
        theta = float(rng.random())
        mix = ConcurrenceMatrix(theta * a.entries + (1.0 - theta) * b.entries)
        assert lp_feasible([0.5] * 4, mix).feasible


def test_capacity_and_shape_errors():
    with pytest.raises(CapacityError):
        lp_feasible([0.5] * 13, ConcurrenceMatrix.filled(13, 0.5))
    with pytest.raises(InvalidMatrixError):
        lp_feasible([0.5] * 3, ConcurrenceMatrix.filled(4, 0.5))
    with pytest.raises(DomainError):
        lp_feasible([0.5, 1.5], ConcurrenceMatrix.filled(2, 0.5))


def test_no_marginals_for_a_one_coordinate_matrix_is_a_shape_error():
    # a concurrence matrix is at least 1x1, so n = 0 is always a mismatch
    with pytest.raises(InvalidMatrixError, match="0 marginal probabilities for a 1x1"):
        lp_feasible([], ConcurrenceMatrix.filled(1, 1.0))


def test_asymmetric_marginals_supported():
    # X == Y with X ~ Bern(0.3): concurrence 1 needs equal marginals
    conc = ConcurrenceMatrix.from_lower_triangle([1.0], 2)
    assert lp_feasible([0.3, 0.3], conc).feasible
    assert not lp_feasible([0.3, 0.6], conc).feasible


def test_pushforward_identity_and_constant():
    rng = np.random.default_rng(31)
    law = random_pmf(rng, 3)
    same = pushforward(law, lambda bits: bits)
    assert np.array_equal(same.probs, law.probs)
    point = pushforward(law, lambda bits: (1, 0))
    assert point.probs[2] == pytest.approx(1.0, abs=1e-15)


def test_pushforward_preserves_mass():
    rng = np.random.default_rng(32)
    law = random_pmf(rng, 4)
    folded = pushforward(law, lambda bits: bits[:2])
    assert folded.n == 2
    assert folded.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_pushforward_rejects_ragged_maps():
    law = JointPMF(2, np.array([0.25, 0.25, 0.25, 0.25]))
    with pytest.raises(DomainError):
        pushforward(law, lambda bits: bits[:1] if bits[0] else bits)


# a feasible fair-coin input (lower triangle x32) whose phase-1 simplex reaches
# a zero objective on a degenerate vertex and then used to pivot without end
DEGENERATE_N11 = [18, 18, 8, 10, 16, 8, 20, 18, 14, 10, 16, 22, 18, 14, 16, 12, 22, 10, 18,
                  12, 20, 12, 14, 10, 18, 12, 8, 16, 14, 16, 12, 16, 22, 10, 10, 22, 18, 16,
                  12, 16, 14, 10, 14, 26, 20, 16, 18, 14, 14, 16, 12, 20, 20, 18, 26]


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_zero_phase1_objective_stops_the_simplex(mode):
    conc = ConcurrenceMatrix.from_lower_triangle([v / 32 for v in DEGENERATE_N11], 11)
    w = lp_feasible([0.5] * 11, conc, mode=mode)
    assert w.feasible and w.mode == mode
    assert pmf_residual(w.pmf, [0.5] * 11, conc.entries) <= 1e-12
    if mode == "exact":
        assert w.max_residual == 0.0


def _reduced(conc: ConcurrenceMatrix):
    """The marginals and matrix of X_i = 1(B_i = B_n), i < n."""
    return conc.entries[:-1, -1].tolist(), conc.submatrix(range(conc.n - 1))


# a feasible fair-coin input (lower triangle x32) on which a full-tableau
# simplex ended on a basis that certified nothing, in both modes
WRONG_BASIS_N12 = [22, 16, 14, 16, 10, 16, 12, 10, 12, 16, 18, 12, 22, 18, 10, 22, 20, 18,
                   14, 14, 16, 16, 10, 12, 16, 20, 18, 10, 16, 14, 16, 16, 12, 22, 18, 16,
                   18, 16, 26, 10, 18, 16, 16, 14, 18, 18, 12, 14, 18, 14, 20, 12, 22, 18,
                   12, 12, 18, 24, 16, 12, 18, 10, 12, 16, 18, 18]


def test_reduced_system_certifies_the_full_system_wrong_basis_input():
    conc = ConcurrenceMatrix.from_lower_triangle([v / 32 for v in WRONG_BASIS_N12], 12)
    plan = build_plan_from_concurrence([MarginalSpec.uniform(0.0, 1.0)] * 12, conc)
    assert plan.feasible and plan.recipe.kind == "oracle_pmf"
    assert pmf_residual(plan.recipe.pmf, [0.5] * 12, conc.entries) <= 1e-12
    for probs, sub in (_reduced(conc), ([0.5] * 12, conc)):
        for mode in ("float", "exact"):
            w = lp_feasible(probs, sub, mode=mode)
            assert w.feasible and w.mode == mode
            assert pmf_residual(w.pmf, probs, sub.entries) <= 1e-12


# a feasible fair-coin input (lower triangle x64), a dyadic law of 16 draws:
# law 24 of the offline sweep from np.random.default_rng(777) that CHANGES.md
# describes.  A full-tableau simplex ended its reduced system on a basis that
# certified neither verdict, so building its plan raised NumericalError
UNCERTIFIED_BASIS_N12 = [24, 20, 36, 36, 44, 24, 24, 40, 52, 28, 24, 32, 36, 20, 48, 36, 36,
                         32, 24, 36, 36, 32, 16, 44, 36, 32, 32, 20, 40, 24, 20, 36, 24, 32,
                         20, 32, 32, 32, 36, 20, 24, 24, 28, 32, 24, 24, 40, 52, 28, 48, 40,
                         28, 40, 24, 32, 20, 28, 40, 24, 36, 28, 40, 28, 20, 28, 36]


def test_a_dyadic_n12_plan_is_certified():
    conc = ConcurrenceMatrix.from_lower_triangle([v / 64 for v in UNCERTIFIED_BASIS_N12], 12)
    plan = build_plan_from_concurrence([MarginalSpec.uniform(0.0, 1.0)] * 12, conc)
    assert plan.feasible and plan.recipe.kind == "oracle_pmf"
    assert pmf_residual(plan.recipe.pmf, [0.5] * 12, conc.entries) <= 1e-12


# a feasible fair-coin input (lower triangle x16), the concurrences of a dyadic
# complement-symmetric law.  The float simplex ends its reduced system on a
# basis that is singular in exact arithmetic: exact mode cannot certify it, and
# float mode's witness misses its marginal 11 row by 0.85
SINGULAR_BASIS_N12 = [8, 9, 7, 9, 5, 8, 11, 11, 6, 10, 8, 10, 13, 7, 7, 8, 4, 7, 7, 9, 6, 3,
                      7, 8, 10, 4, 9, 5, 10, 8, 9, 7, 9, 6, 10, 5, 8, 8, 9, 9, 11, 8, 8, 5,
                      8, 7, 9, 6, 10, 10, 7, 7, 10, 5, 7, 7, 9, 10, 8, 8, 9, 7, 8, 11, 9, 2]


@pytest.mark.xfail(strict=True, raises=NumericalError,
                   reason="exact mode takes no exact pivots past a singular float basis")
def test_a_dyadic_n12_law_on_a_singular_float_basis_gets_a_plan():
    conc = ConcurrenceMatrix.from_lower_triangle([v / 16 for v in SINGULAR_BASIS_N12], 12)
    plan = build_plan_from_concurrence([MarginalSpec.uniform(0.0, 1.0)] * 12, conc)
    assert plan.feasible and plan.recipe.kind == "oracle_pmf"
    assert pmf_residual(plan.recipe.pmf, [0.5] * 12, conc.entries) <= 1e-12


@st.composite
def dyadic_concurrences(draw):
    """Concurrences of a dyadic fair-coin law at n = 5..8, as they are or
    with up to three entries moved by +-1/64 (kept in [0, 1])."""
    law = draw(dyadic_fair_coin_laws(st.integers(5, 8)))
    e = law.concurrence_matrix().entries.copy()
    pairs = draw(st.lists(st.tuples(st.integers(0, law.n - 1), st.integers(0, law.n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=3))
    for i, j in pairs:
        step = draw(st.sampled_from([-1, 1])) / 64
        e[i, j] = e[j, i] = min(1.0, max(0.0, e[i, j] + step))
    return ConcurrenceMatrix(e)


@settings(max_examples=80, deadline=timedelta(seconds=10))
@given(conc=dyadic_concurrences())
def test_reduced_and_full_exact_verdicts_agree(conc):
    full = lp_feasible([0.5] * conc.n, conc, mode="exact")
    reduced = lp_feasible(*_reduced(conc), mode="exact")
    assert reduced.feasible == full.feasible


def test_marginal_names_relabel_the_certificate():
    # P(X1 = 1) = P(X2 = 1) = 0.9 forces agreement at least 0.8
    conc = ConcurrenceMatrix.from_lower_triangle([0.5], 2)
    plain = lp_feasible([0.9, 0.9], conc, mode="float")
    named = lp_feasible([0.9, 0.9], conc, mode="float", marginal_names=["m-one", "m-two"])
    assert not plain.feasible and "[marginal 1]" in plain.certificate
    assert named.certificate == (plain.certificate.replace("[marginal 1]", "[m-one]")
                                 .replace("[marginal 2]", "[m-two]"))


def test_a_float_witness_that_misses_a_row_raises_naming_it(monkeypatch):
    real = oracle._phase1_float

    def shifted(A, b):
        # the witness of the comonotone pair, 00 and 11, moved to 01 and 00
        value, x, y, basis = real(A, b)
        return value, np.roll(x, 1), y, basis

    monkeypatch.setattr(oracle, "_phase1_float", shifted)
    conc = ConcurrenceMatrix.from_lower_triangle([1.0], 2)
    with pytest.raises(NumericalError, match=r"marginal 1 row"):
        lp_feasible([0.5, 0.5], conc, mode="float")


def test_a_witness_just_past_the_tolerance_is_an_infeasible_verdict():
    # three fair coins, a triangle moved 1e-9 past its upper face: the
    # phase-1 optimum is just below 1e-9 and the clipped witness misses a row
    # by just above it, which rounding explains, so the verdict is infeasible
    conc = ConcurrenceMatrix.from_lower_triangle(
        [0.7609217367866092, 0.10619339465753586, 0.3452716588709266], 3)
    w = lp_feasible([0.5] * 3, conc)
    assert w.mode == "float" and not w.feasible
    assert FLOAT_TOL < w.max_residual <= 1.01 * FLOAT_TOL
    assert f"misses a row by {w.max_residual!r} > 1e-09" in w.certificate


@pytest.mark.parametrize("probs, lower", [
    ([0.5] * 5, [0.5] * 10),                      # fair coins, feasible
    ([0.5] * 5, [0.25] * 10),                     # below the n = 5 bound 3/8
    ([0.3, 0.6, 0.5, 0.8], [0.55, 0.6, 0.45, 0.45, 0.3, 0.55]),
    ([0.9, 0.9, 0.2], [0.85, 0.3, 0.25]),
])
def test_the_bland_restart_gives_the_verdicts_of_dantzig(monkeypatch, probs, lower):
    conc = ConcurrenceMatrix.from_lower_triangle(lower, len(probs))
    plain = {mode: lp_feasible(probs, conc, mode=mode) for mode in ("float", "exact")}
    real = oracle._simplex_iterate
    passes = []

    def dantzig_gives_up(T, basis, bland, max_iter):
        # Dantzig's pass stops after one pivot, as on a stall
        done = real(T, basis, bland, max_iter if bland else 1)
        passes.append((bland, done))
        return done

    monkeypatch.setattr(oracle, "_simplex_iterate", dantzig_gives_up)
    for mode, want in plain.items():
        passes.clear()
        got = lp_feasible(probs, conc, mode=mode)
        assert passes == [(False, False), (True, True)]
        assert got.feasible == want.feasible and got.mode == want.mode == mode
        if got.feasible:
            assert pmf_residual(got.pmf, probs, conc.entries) <= 1e-12
        else:
            assert got.certificate.startswith("no distribution satisfies the constraints")


def _symmetrized(mu: np.ndarray) -> np.ndarray:
    # atom 2^n - 1 - k is the complement of atom k
    return 0.5 * (mu + mu[::-1]) / mu.sum()


@st.composite
def fair_coin_concurrences(draw):
    """Concurrences of a fair-coin law at n = 5..12: clustered (half the mass
    on 8 atoms), dyadic (16 or 32 draws), dyadic with one entry moved by
    +-1/64 (kept in [0, 1]), or sparse complement-symmetric (1..2n atoms with
    masses in multiples of 1/64).

    Every input but the interior clustered laws is a dyadic rational, so the
    exact mode decides the problem the float mode approximates."""
    n = draw(st.integers(5, 12))
    kind = draw(st.sampled_from(["clustered", "dyadic", "moved", "sparse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "clustered":
        mu = 0.5 * rng.dirichlet(np.full(2 ** n, 0.5))
        mu[rng.choice(2 ** n, 8, replace=False)] += 0.5 * rng.dirichlet(np.ones(8))
    elif kind == "sparse":
        atoms = rng.integers(1, 2 * n + 1)
        mu = np.zeros(2 ** n)
        np.add.at(mu, rng.integers(0, 2 ** n, atoms),
                  1 + rng.multinomial(64 - atoms, np.ones(atoms) / atoms))
    else:
        draws = 32 if kind == "dyadic" and rng.random() < 0.5 else 16
        mu = np.bincount(rng.integers(0, 2 ** n, draws), minlength=2 ** n) / draws
    e = JointPMF(n, _symmetrized(mu)).concurrence_matrix().entries.copy()
    if kind == "moved":
        i, j = rng.choice(n, 2, replace=False)
        e[i, j] = e[j, i] = min(1.0, max(0.0, e[i, j] + rng.choice([-1, 1]) / 64))
    return ConcurrenceMatrix(e)


@seed(13)
@settings(max_examples=40, deadline=timedelta(seconds=10))
@given(conc=fair_coin_concurrences())
def test_float_and_exact_verdicts_agree_on_reduced_and_full_systems(conc):
    verdicts = set()
    for probs, sub in (_reduced(conc), ([0.5] * conc.n, conc)):
        for mode in ("float", "exact"):
            w = lp_feasible(probs, sub, mode=mode)
            assert w.mode == mode
            if w.feasible:
                assert pmf_residual(w.pmf, probs, sub.entries) <= FLOAT_TOL
            verdicts.add(w.feasible)
    assert len(verdicts) == 1


def _singular_solves(monkeypatch, failures):
    """Make the first ``failures`` basis factorizations raise LinAlgError;
    returns the list of factorizations tried."""
    real = np.linalg.solve
    calls = []

    def solve(B, rhs):
        calls.append(B.shape)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(B, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return calls


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_a_singular_basis_in_dantzigs_pass_restarts_with_bland(monkeypatch, mode):
    conc = ConcurrenceMatrix.filled(5, 0.5)
    want = lp_feasible([0.5] * 5, conc, mode=mode)
    calls = _singular_solves(monkeypatch, 1)
    got = lp_feasible([0.5] * 5, conc, mode=mode)
    assert len(calls) > 1
    assert got.feasible and want.feasible and got.mode == mode
    assert pmf_residual(got.pmf, [0.5] * 5, conc.entries) <= 1e-12


def test_a_singular_basis_is_a_numerical_error_the_cli_reports(monkeypatch, tmp_path, capsys):
    _singular_solves(monkeypatch, 10 ** 9)
    conc = ConcurrenceMatrix.filled(5, 0.5)
    with pytest.raises(NumericalError, match="singular"):
        lp_feasible([0.5] * 5, conc, mode="float")
    path = tmp_path / "coins.json"
    path.write_text(json.dumps({"marginals": [{"family": "bernoulli", "p": 0.5}] * 5,
                                "concurrence": [0.5] * 10}), encoding="utf-8")
    assert main(["plan", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: phase-1 simplex basis is singular")
