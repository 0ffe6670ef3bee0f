"""End-to-end pipeline: correlation targets -> convexity matrix -> samples.

A :class:`SamplingPlan` is compiled once per job:

1. every pair's correlation extremes (rho_minus, rho_plus) are computed and
   memoized;
2. each target rho_ij is converted to its convexity weight
   lambda_ij = (rho_ij - rho-) / (rho+ - rho-), the position of the target
   inside its achievable interval;
3. a fair-coin Bernoulli recipe realizing (lambda_ij) as a concurrence
   matrix is selected: closed-form pmfs for n in {2, 3, 4}, an exact
   LP witness pmf for 5 <= n <= 12.

Drawing one vector then costs one uniform U, one recipe draw B, and n
quantile evaluations:

    X_i = F_i^{-1}(U B_i + (1 - U)(1 - B_i)),

i.e. coordinate i uses U when B_i = 1 and the antithetic 1 - U otherwise.
Each X_i is an even mixture of F_i^{-1}(U) and F_i^{-1}(1 - U), so marginals
are preserved exactly, and Corr(X_i, X_j) = lambda_ij rho+ + (1-lambda_ij) rho-.

One U is shared by the whole vector; only the agreement pattern of B decides
which coordinates ride it forwards or backwards.  Each row draws its own U and
then the uniform that picks B, so a batch of k rows is the first k rows of any
longer batch, and ``fhmix sample`` streams chunks through the same code.

A batch is evaluated in chunks of at most ``CHUNK_ROWS`` rows, which bounds
the memory its temporaries take.  B is found by inversion of the recipe
uniform over the recipe's cdf, as a branchless binary search
(:mod:`fhmix.inversion`) whose depth i decides coordinate i's bit, so each
coordinate costs one search step whatever n is.  That bit then picks U or
1 - U by an exact bit select, and the column is mapped through its quantile
by the same kernel :func:`fhmix.marginals.quantile` uses.  The cdf equals
1.0 from the last atom of positive mass on, so an atom of zero mass is
never drawn.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import bernoulli_joint as bj
from . import inversion
from .bernoulli_joint import (
    AlphaInterval,
    ConcurrenceMatrix,
    JointPMF,
    _UnitDiagonalMatrix,
)
from .bounds import CorrelationExtremes, _sort_key, corr_extremes
from .errors import (
    CapacityError,
    DomainError,
    InfeasibleError,
    UnachievableCorrelationError,
)
# ``quantile`` stays importable from here: bench/tracing.py wraps it by name
from .marginals import MarginalSpec, _quantile_into, quantile  # noqa: F401
from .oracle import lp_feasible

#: slack when checking a target correlation against its extremes
RHO_SLACK = 1e-9
#: rows drawn per chunk: the chunk's temporaries take ~20 MiB.  Chunks
#: that fit a 2 MiB L2 drew faster, but their timings swung with the
#: machine's speed far more, enough to fail the linear-time acceptance test
CHUNK_ROWS = 2 ** 18

# For fair-coin marginals the probability that two coordinates agree equals
# the convexity weight of their correlation, so the two matrix types coincide.
ConvexityMatrix = ConcurrenceMatrix


class CorrelationMatrix(_UnitDiagonalMatrix):
    """Symmetric unit-diagonal matrix of target correlations in [-1, 1]."""

    _lo, _hi, _what = -1.0, 1.0, "correlation matrix"


@dataclass(frozen=True)
class BernoulliRecipe:
    """Compiled fair-coin vector source: a pmf over {0,1}^n.

    The search tables of the draw (:attr:`_levels`) are built on the first
    draw and cached, so compiling a plan that is never drawn from costs
    nothing here.
    """

    kind: str  # "bivariate" | "trivariate" | "quadrivariate" | "oracle_pmf"
    pmf: JointPMF
    alpha: float | None = None
    alpha_interval: AlphaInterval | None = None

    @functools.cached_property
    def _levels(self) -> tuple[np.ndarray, ...]:
        """Search tables over the pmf's cdf (:func:`fhmix.inversion.levels`):
        table i decides coordinate i's bit."""
        return inversion.levels(self.pmf._cdf)


@dataclass(frozen=True)
class SamplingPlan:
    """Everything needed to draw vectors: marginals, extremes, lambdas, recipe."""

    marginals: tuple[MarginalSpec, ...]
    target_corr: CorrelationMatrix
    extremes: tuple[tuple[CorrelationExtremes | None, ...], ...]
    lam: ConvexityMatrix
    recipe: BernoulliRecipe | None
    feasible: bool
    diagnostics: str

    @property
    def n(self) -> int:
        return len(self.marginals)

    def pair_extremes(self, i: int, j: int) -> CorrelationExtremes:
        ext = self.extremes[min(i, j)][max(i, j)]
        assert ext is not None
        return ext


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible block of samples: values plus the stream that made them."""

    count: int
    n: int
    values: np.ndarray
    seed: int
    stream_id: int


def convexity_from_correlation(rho: float, ext: CorrelationExtremes) -> float:
    """Position of a target correlation inside its achievable interval.

    Returns lambda in [0, 1] with lambda*rho_plus + (1-lambda)*rho_minus =
    rho.  Raises :class:`UnachievableCorrelationError` when rho lies outside
    [rho_minus, rho_plus] (with 1e-9 slack).  A degenerate interval accepts
    only the common value and maps it to lambda = 1/2.
    """
    rho = float(rho)
    if ext.degenerate:
        if abs(rho - ext.rho_plus) > RHO_SLACK:
            raise UnachievableCorrelationError(
                f"extremes are degenerate at {ext.rho_plus:.9f}; target {rho:.9f} differs",
                rho, ext.rho_minus, ext.rho_plus,
            )
        return 0.5
    if not ext.contains(rho, RHO_SLACK):
        raise UnachievableCorrelationError(
            f"target correlation {rho:.9f} is outside the achievable interval "
            f"[{ext.rho_minus:.9f}, {ext.rho_plus:.9f}]",
            rho, ext.rho_minus, ext.rho_plus,
        )
    lam = (rho - ext.rho_minus) / (ext.rho_plus - ext.rho_minus)
    return min(1.0, max(0.0, lam))


def pairwise_extremes(
    marginals,
) -> tuple[tuple[CorrelationExtremes | None, ...], ...]:
    """Upper-triangular table of correlation extremes, memoized per pair."""
    ms = tuple(marginals)
    n = len(ms)
    cache: dict[tuple, CorrelationExtremes] = {}
    table: list[list[CorrelationExtremes | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            key = tuple(sorted((_sort_key(ms[i]), _sort_key(ms[j]))))
            if key not in cache:
                cache[key] = corr_extremes(ms[i], ms[j])
            table[i][j] = cache[key]
    return tuple(tuple(row) for row in table)


def build_plan(
    marginals,
    target_corr: CorrelationMatrix,
    alpha: float | None = None,
) -> SamplingPlan:
    """Compile a plan for the given marginals and target correlation matrix.

    Raises :class:`UnachievableCorrelationError` if any pairwise target falls
    outside its extremes.  A concurrence-infeasible lambda matrix does not
    raise: the returned plan has ``feasible=False`` and ``diagnostics``
    naming the violated inequality.
    """
    ms = tuple(marginals)
    _check_dimension(len(ms), target_corr.n)
    ext = pairwise_extremes(ms)
    lam = np.eye(len(ms))
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            lam[i, j] = lam[j, i] = convexity_from_correlation(
                target_corr.entry(i, j), ext[i][j]
            )
    return _finish_plan(ms, target_corr, ext, ConvexityMatrix(lam), alpha)


def build_plan_from_concurrence(
    marginals,
    concurrence: ConcurrenceMatrix,
    alpha: float | None = None,
) -> SamplingPlan:
    """Compile a plan from a convexity/concurrence matrix given directly.

    The implied target correlations lambda*rho+ + (1-lambda)*rho- are filled
    in for reporting and verification.
    """
    ms = tuple(marginals)
    _check_dimension(len(ms), concurrence.n)
    ext = pairwise_extremes(ms)
    corr = np.eye(len(ms))
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            lam = concurrence.entry(i, j)
            e = ext[i][j]
            corr[i, j] = corr[j, i] = lam * e.rho_plus + (1.0 - lam) * e.rho_minus
    return _finish_plan(ms, CorrelationMatrix(corr), ext, concurrence, alpha)


def _check_dimension(n_marginals: int, n_matrix: int) -> None:
    if n_marginals != n_matrix:
        raise DomainError(
            f"{n_marginals} marginals but a {n_matrix}x{n_matrix} target matrix"
        )
    if n_marginals < 2:
        raise DomainError("need at least 2 marginals")
    if n_marginals > 12:
        raise CapacityError(
            "n > 12 is not supported: closed-form recipes cover n <= 4 and the "
            "exact feasibility oracle scales to 4096 atoms (n = 12); split the "
            "problem or reduce the dimension"
        )


def _finish_plan(ms, target, ext, lam: ConvexityMatrix, alpha: float | None) -> SamplingPlan:
    n = len(ms)
    e = lam.entries
    recipe = None
    feasible = True
    diagnostics = "feasible"

    if n == 2:
        recipe = BernoulliRecipe("bivariate", bj.bivariate_pmf(e[0, 1]))
    elif n == 3:
        s = e[0, 1] + e[0, 2] + e[1, 2]
        m = min(e[0, 1], e[0, 2], e[1, 2])
        if not bj.trivariate_feasible(e[0, 1], e[0, 2], e[1, 2]):
            feasible = False
            if s < 1.0:
                diagnostics = (
                    f"infeasible concurrence matrix: lambda12 + lambda13 + lambda23 "
                    f"= {s:.6f} < 1"
                )
            else:
                diagnostics = (
                    f"infeasible concurrence matrix: lambda12 + lambda13 + lambda23 "
                    f"= {s:.6f} > 1 + 2*min(lambda) = {1.0 + 2.0 * m:.6f}"
                )
        else:
            interval = bj.trivariate_alpha_interval(e[0, 1], e[0, 2], e[1, 2])
            a = interval.midpoint if alpha is None else _checked_alpha(alpha, interval)
            pmf = bj.trivariate_pmf(e[0, 1], e[0, 2], e[1, 2], a)
            recipe = BernoulliRecipe("trivariate", pmf, a, interval)
    elif n == 4:
        interval = bj.quadrivariate_alpha_interval(lam)
        if not interval.feasible:
            feasible = False
            diagnostics = (
                f"infeasible concurrence matrix: alpha lower bound {interval.lo:.6f} "
                f"(from 4-cycle sums) exceeds upper bound {interval.hi:.6f} "
                f"(from the minimum triangle sum)"
            )
        else:
            a = interval.midpoint if alpha is None else _checked_alpha(alpha, interval)
            pmf = bj.quadrivariate_lifted_pmf(lam, a)
            recipe = BernoulliRecipe("quadrivariate", pmf, a, interval)
    else:
        bad = bj.violated_principal_submatrix(lam)
        if bad is not None:
            feasible = False
            coords = ", ".join(str(i + 1) for i in bad)
            diagnostics = (
                f"infeasible concurrence matrix: principal submatrix on coordinates "
                f"({coords}) fails its closed-form existence test"
            )
        else:
            witness = lp_feasible([0.5] * n, lam)
            if witness.feasible:
                recipe = BernoulliRecipe("oracle_pmf", witness.pmf)
            else:
                feasible = False
                diagnostics = f"infeasible concurrence matrix: {witness.certificate}"

    return SamplingPlan(
        marginals=ms,
        target_corr=target,
        extremes=ext,
        lam=lam,
        recipe=recipe,
        feasible=feasible,
        diagnostics=diagnostics,
    )


def _checked_alpha(alpha: float, interval: AlphaInterval) -> float:
    a = float(alpha)
    if not interval.contains(a):
        raise InfeasibleError(
            f"alpha={a} is outside the feasible interval "
            f"[{interval.lo:.9f}, {interval.hi:.9f}]"
        )
    return a


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_vector(plan: SamplingPlan, rng: np.random.Generator) -> np.ndarray:
    """Draw one vector from a feasible plan: a batch of one.

    Draw order is fixed (U, then the recipe uniform), so a given generator
    state always yields the same vector.
    """
    _require_feasible(plan)
    return _batch_values(plan, 1, rng)[0]


def sample_batch(plan: SamplingPlan, count: int, seed: int, stream_id: int = 0) -> SampleBatch:
    """Draw ``count`` vectors reproducibly.

    The generator is PCG64 keyed by hashing (seed, stream_id) through
    numpy's SeedSequence, so equal keys reproduce the batch bit-exactly and
    distinct stream ids give independent streams safe to generate in
    parallel.  Each row consumes two uniforms of its own, so a batch of k
    rows is the first k rows of any longer batch with the same key.
    """
    _require_feasible(plan)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    values = _batch_values(plan, int(count), _generator(seed, stream_id))
    values.flags.writeable = False
    return SampleBatch(int(count), plan.n, values, int(seed), int(stream_id))


def _generator(seed: int, stream_id: int) -> np.random.Generator:
    seed, stream_id = int(seed), int(stream_id)
    if seed < 0 or stream_id < 0:
        raise DomainError("seed and stream_id must be nonnegative integers")
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, stream_id]))


def _batch_values(plan: SamplingPlan, count: int, rng: np.random.Generator) -> np.ndarray:
    levels = plan.recipe._levels
    out = np.empty((count, plan.n))
    rows = min(count, CHUNK_ROWS)
    prefix = np.empty(rows, np.intp)
    edge = np.empty(rows)
    bit = np.empty(rows, bool)
    w = np.empty(rows, np.uint64)
    column = np.empty(rows)
    for start in range(0, count, CHUNK_ROWS):
        k = min(CHUNK_ROWS, count - start)
        # each row is (U, recipe uniform): chunks, and calls in turn,
        # concatenate to one call
        u, atom_u = rng.random((k, 2)).T.copy()
        if not u.all():
            u[u == 0.0] = 0.5  # P(U = 0) = 2^-53; U, 1 - U stay equal in law
        v = (1.0 - u).view(np.uint64)
        diff = u.view(np.uint64) ^ v
        p, e, b, wk, ck = prefix[:k], edge[:k], bit[:k], w[:k], column[:k]
        p.fill(0)
        for i, (m, table) in enumerate(zip(plan.marginals, levels)):
            # one step of inversion.index(levels, atom_u, "right"): p holds
            # each row's first i atom bits and gains bit i
            table.take(p, out=e, mode="clip")
            np.less_equal(e, atom_u, out=b)
            p += p
            p += b
            # w = u where bit i is 1, else 1 - u: the mask is all ones or
            # all zeros, so w's bits are exactly u's or 1 - u's
            np.negative(b, out=wk, dtype=np.uint64)
            wk &= diff
            wk ^= v
            out[start:start + k, i] = _quantile_into(m, wk.view(np.float64), ck)
    return out


def _require_feasible(plan: SamplingPlan) -> None:
    if not plan.feasible or plan.recipe is None:
        raise InfeasibleError(f"plan is not feasible: {plan.diagnostics}")
