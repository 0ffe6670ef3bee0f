"""End-to-end pipeline: correlation targets -> convexity matrix -> samples.

A :class:`SamplingPlan` is compiled once per job:

1. every pair's correlation extremes (rho_minus, rho_plus) are computed and
   memoized;
2. each target rho_ij is converted to its convexity weight
   lambda_ij = (rho_ij - rho-) / (rho+ - rho-), the position of the target
   inside its achievable interval;
3. a fair-coin Bernoulli recipe realizing (lambda_ij) as a concurrence
   matrix is selected: closed-form pmfs for n in {2, 3, 4}; for
   5 <= n <= 12, after a screen of every 3-subset, the lift of an LP
   witness of the reduced (n-1)-dimensional asymmetric system.  That is the
   paper's n = 4 method: X_i = 1(B_i = B_n), i < n, has marginals
   lambda_in and concurrences lambda_ij, and any law of X, lifted by a fair
   coin B_n (:func:`fhmix.bernoulli_joint.lift`), is a complement-symmetric
   fair-coin law with concurrences lambda.  The LP has half the atoms of
   the full system, and the lifted recipe is re-verified against it.

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

A batch of at most ``CHUNK_ROWS`` rows is evaluated as one piece on the
calling thread.  A larger batch is cut into pieces of ``PIECE_ROWS`` rows
and evaluated on a pool of worker threads, one per CPU this process may run
on (at most one per piece); the pool lives for one call, so importing
starts no thread.  Rows are independent once their uniforms are drawn, and
the numpy and scipy kernels of a piece release the GIL.  The calling
thread draws each piece's uniforms in row order and copies them into a
scratch set before it hands the piece to a worker, and each worker writes
only its piece's rows, so the bytes are the same for any piece size or
worker count.  The scratch sets, one per worker, are allocated on the
calling thread and passed between workers through a queue, because memory
that a worker thread allocates and frees stays in that thread's malloc
arena: with scratch allocated per piece on the workers, the peak RSS of a
process drawing 10^6 rows at n = 12 grew by 4-16%.  For the same reason an
empirical quantile searches in its scratch set's idle arrays.  So a batch's
temporaries take a fixed amount of memory whatever its size.

B is found by inversion of the recipe
uniform over the recipe's cdf, as a branchless binary search
(:mod:`fhmix.inversion`) whose depth i decides coordinate i's bit, so each
coordinate costs one search step whatever n is.  That bit then picks U or
1 - U by an exact bit select, and the column is mapped through its quantile
by the same kernel :func:`fhmix.marginals.quantile` uses.  The cdf equals
1.0 from the last atom of positive mass on, so an atom of zero mass is
never drawn.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bernoulli_joint as bj
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
from .oracle import FLOAT_TOL, MAX_DIMENSION, lp_feasible

#: slack when checking a target correlation against its extremes
RHO_SLACK = 1e-9
#: largest batch drawn as one piece on the calling thread; its temporaries
#: take ~20 MiB.  Single-threaded pieces that fit a 2 MiB L2 drew faster,
#: but their timings swung with the machine's speed far more, enough to fail
#: the linear-time acceptance test, so batches up to this size (every
#: ``fhmix sample`` block among them) keep the one-piece path
CHUNK_ROWS = 2 ** 18
#: rows per piece of a larger batch, drawn on the worker threads; a worker's
#: scratch set takes ~4 MiB.  On 2 cores, 10^6 rows at n = 12 drew 1.9x as
#: fast as on one thread in pieces of 2^16 rows, 1.6-1.85x in pieces of
#: 2^14, 2^15 or 2^18 rows
PIECE_ROWS = 2 ** 16

# For fair-coin marginals the probability that two coordinates agree equals
# the convexity weight of their correlation, so the two matrix types coincide.
ConvexityMatrix = ConcurrenceMatrix


class CorrelationMatrix(_UnitDiagonalMatrix):
    """Symmetric unit-diagonal matrix of target correlations in [-1, 1]."""

    _lo, _hi, _what = -1.0, 1.0, "correlation matrix"


@dataclass(frozen=True)
class BernoulliRecipe:
    """Compiled fair-coin vector source: a pmf over {0,1}^n.

    The search tables of the draw (the pmf's ``_levels``) are built on the
    first draw and cached, so compiling a plan that is never drawn from
    costs nothing here.
    """

    kind: str  # "bivariate" | "trivariate" | "quadrivariate" | "oracle_pmf"
    pmf: JointPMF
    alpha: float | None = None
    alpha_interval: AlphaInterval | None = None


@dataclass(frozen=True)
class SamplingPlan:
    """Everything needed to draw vectors: marginals, extremes, lambdas, recipe."""

    marginals: tuple[MarginalSpec, ...]
    target_corr: CorrelationMatrix
    extremes: tuple[tuple[CorrelationExtremes | None, ...], ...]
    lam: ConvexityMatrix
    recipe: BernoulliRecipe | None  # None exactly when no fair-coin law exists
    diagnostics: str

    @property
    def feasible(self) -> bool:
        return self.recipe is not None

    @property
    def n(self) -> int:
        return len(self.marginals)

    def pair_extremes(self, i: int, j: int) -> CorrelationExtremes:
        """Extremes of the pair of 0-based coordinates (i, j), in either order."""
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise DomainError(
                f"pair ({i}, {j}) is not two distinct coordinates in 0..{self.n - 1}"
            )
        return self.extremes[min(i, j)][max(i, j)]


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
    raise: the returned plan has no recipe (``feasible`` is False) and
    ``diagnostics`` names the violated inequality.  ``alpha`` picks the
    free parameter of the n = 3 and n = 4 recipes (default: the midpoint of
    its interval); for any other n it raises :class:`DomainError`.
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
    if n_marginals > MAX_DIMENSION:
        raise CapacityError(
            f"n > {MAX_DIMENSION} is not supported: closed-form recipes cover n <= 4 and "
            f"the exact feasibility oracle scales to {2 ** MAX_DIMENSION} atoms "
            f"(n = {MAX_DIMENSION}); split the problem or reduce the dimension"
        )


def _finish_plan(ms, target, ext, lam: ConvexityMatrix, alpha: float | None) -> SamplingPlan:
    found = _recipe(lam, alpha)
    if isinstance(found, str):
        return SamplingPlan(ms, target, ext, lam, None, f"infeasible concurrence matrix: {found}")
    return SamplingPlan(ms, target, ext, lam, found, "feasible")


def _recipe(lam: ConvexityMatrix, alpha: float | None) -> BernoulliRecipe | str:
    """The fair-coin recipe with concurrences ``lam``, or the constraint it fails."""
    n = lam.n
    e = lam.entries
    if alpha is not None and n not in (3, 4):
        raise DomainError(f"alpha applies to n = 3 and 4 only, not to n = {n}")
    if n == 2:
        return BernoulliRecipe("bivariate", bj.bivariate_pmf(e[0, 1]))
    if n == 3:
        l12, l13, l23 = e[0, 1], e[0, 2], e[1, 2]
        if not bj.trivariate_feasible(l12, l13, l23):
            s = l12 + l13 + l23
            if s < 1.0:
                return f"lambda12 + lambda13 + lambda23 = {s:.6f} < 1"
            return (f"lambda12 + lambda13 + lambda23 = {s:.6f} > 1 + 2*min(lambda) = "
                    f"{1.0 + 2.0 * min(l12, l13, l23):.6f}")
        interval = bj.trivariate_alpha_interval(l12, l13, l23)
        a = _alpha(alpha, interval)
        return BernoulliRecipe("trivariate", bj.trivariate_pmf(l12, l13, l23, a), a, interval)
    if n == 4:
        interval = bj.quadrivariate_alpha_interval(lam)
        if not interval.feasible:
            return (f"alpha lower bound {interval.lo:.6f} (from 4-cycle sums) exceeds upper "
                    f"bound {interval.hi:.6f} (from the minimum triangle sum)")
        a = _alpha(alpha, interval)
        return BernoulliRecipe("quadrivariate", bj.quadrivariate_lifted_pmf(lam, a), a, interval)
    bad = bj.violated_principal_submatrix(lam)
    if bad is not None:
        coords = ", ".join(str(i + 1) for i in bad)
        return (f"principal submatrix on coordinates ({coords}) fails its closed-form "
                f"existence test")
    # the paper's reduction: X_i = 1(B_i = B_n) has marginals lambda_in and
    # concurrences lambda_ij, so its marginal rows are concurrences (i, n) of
    # the fair-coin system
    witness = lp_feasible(
        e[:-1, -1].tolist(), lam.submatrix(range(n - 1)),
        marginal_names=[f"concurrence ({i},{n})" for i in range(1, n)],
    )
    if not witness.feasible:
        return witness.certificate
    pmf = bj.lift(witness.pmf)
    bj._check_constraints(pmf, [0.5] * n, e[np.triu_indices(n, 1)], FLOAT_TOL)
    return BernoulliRecipe("oracle_pmf", pmf)


def _alpha(alpha: float | None, interval: AlphaInterval) -> float:
    """The interval's midpoint, or the caller's alpha if it lies inside."""
    if alpha is None:
        return interval.midpoint
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
    # build the lazily cached search tables here, so no worker builds them
    levels = plan.recipe.pmf._levels
    for m in plan.marginals:
        if m.family == "empirical":
            m._levels
    out = np.empty((count, plan.n))
    if count <= CHUNK_ROWS:
        _draw_piece(plan.marginals, levels, _Scratch(count).load(rng, count), out)
        return out
    starts = range(0, count, PIECE_ROWS)
    workers = min(len(starts), _cpus())
    free: queue.SimpleQueue[_Scratch] = queue.SimpleQueue()
    for _ in range(workers):
        free.put(_Scratch(PIECE_ROWS))

    def draw(scratch: _Scratch, rows: np.ndarray) -> None:
        try:
            _draw_piece(plan.marginals, levels, scratch, rows)
        finally:
            free.put(scratch)

    with ThreadPoolExecutor(workers) as pool:
        futures = []
        for start in starts:
            rows = out[start:start + PIECE_ROWS]
            # waits for a worker to hand a scratch set back; uniforms are
            # drawn here, in row order, whichever worker evaluates the piece
            scratch = free.get().load(rng, len(rows))
            futures.append(pool.submit(draw, scratch, rows))
    for future in futures:
        future.result()
    return out


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Scratch:
    """Work arrays of one piece of at most ``rows`` rows."""

    def __init__(self, rows: int) -> None:
        self.u = np.empty(rows)
        self.atom_u = np.empty(rows)
        self.v = np.empty(rows, np.uint64)
        self.diff = np.empty(rows, np.uint64)
        self.prefix = np.empty(rows, np.intp)
        self.index = np.empty(rows, np.intp)
        self.edge = np.empty(rows)
        self.bit = np.empty(rows, bool)
        self.w = np.empty(rows, np.uint64)
        self.column = np.empty(rows)

    def load(self, rng: np.random.Generator, k: int) -> "_Scratch":
        """Draw the next k rows' uniforms: each row is (U, recipe uniform),
        so pieces, and calls in turn, concatenate to one call."""
        pairs = rng.random((k, 2))
        self.u[:k] = pairs[:, 0]
        self.atom_u[:k] = pairs[:, 1]
        return self


def _draw_piece(marginals, levels, s: _Scratch, out: np.ndarray) -> None:
    """Evaluate the rows of ``out`` from the uniforms loaded into ``s``."""
    k = len(out)
    u, atom_u = s.u[:k], s.atom_u[:k]
    if not u.all():
        u[u == 0.0] = 0.5  # P(U = 0) = 2^-53; U, 1 - U stay equal in law
    v = s.v[:k]
    np.subtract(1.0, u, out=v.view(np.float64))
    diff = np.bitwise_xor(u.view(np.uint64), v, out=s.diff[:k])
    p, e, b, w, c = s.prefix[:k], s.edge[:k], s.bit[:k], s.w[:k], s.column[:k]
    p.fill(0)
    for i, (m, table) in enumerate(zip(marginals, levels)):
        # one step of inversion.index(levels, atom_u, "right"): p holds
        # each row's first i atom bits and gains bit i
        table.take(p, out=e, mode="clip")
        np.less_equal(e, atom_u, out=b)
        p += p
        p += b
        # w = u where bit i is 1, else 1 - u: the mask is all ones or
        # all zeros, so w's bits are exactly u's or 1 - u's
        np.negative(b, out=w, dtype=np.uint64)
        w &= diff
        w ^= v
        # e and b are idle until the next step: lend them to an empirical
        # quantile's search, so a worker thread allocates no column
        out[:, i] = _quantile_into(m, w.view(np.float64), c, (s.index[:k], e, b))


def _require_feasible(plan: SamplingPlan) -> None:
    if plan.recipe is None:
        raise InfeasibleError(f"plan is not feasible: {plan.diagnostics}")
