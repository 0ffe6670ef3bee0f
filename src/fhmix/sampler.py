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

A batch of at most ``PIECE_ROWS`` rows is evaluated as one piece on the
calling thread.  A longer batch is cut into pieces of ``PIECE_ROWS`` rows
and evaluated on a pool of worker threads, one per CPU this process may run
on (at most one per piece); the pool lives for one call, so importing
starts no thread.  Rows are independent once their uniforms are drawn, and
the numpy kernels of a piece release the GIL.  The calling thread draws
each piece's uniforms in row order and copies them into a scratch set
before it hands the piece to a worker, and each worker writes only its
piece's rows, so the bytes are the same for any piece size or worker count.
The scratch sets, one per worker, are allocated on the calling thread, and
so are the recipe's search tables, built lazily on its first draw; an
empirical marginal's guide table is built with its spec.
Once every set is in flight, the next piece waits for the first of them to
finish, in whatever order, and loads its set, so at most one piece per
worker is in flight and no core idles behind a slower piece.
Memory a worker thread allocates and frees stays in its malloc arena: with
scratch allocated per piece on the workers, the peak RSS of a process
drawing 10^6 rows at n = 12 grew by 4-16%.  For the same reason the atom
search, the empirical search and the normal kernel work in their scratch
set's arrays, each quantile writes straight into its column of the output,
and the normal kernel allocates only the index of its tails, about 15% of a
column.  So a batch's temporaries take a fixed amount of memory whatever
its size.

B is found by inversion of the recipe uniform over the running sums of the
recipe's k atoms of positive mass alone, with a guide table
(:mod:`fhmix.inversion`): one gather finds the atom's cell, and one
comparison with the cdf the atom, for the 134 atoms of an n = 12 recipe,
where a binary search takes 8 steps.  The sums are those over all 2^n atoms,
and an atom of zero mass is never drawn, so skipping those atoms changes no
draw.  Coordinate i's coin is then a gather from a word per atom that is
all ones where the atom's bit i is 1, which picks U or 1 - U by an exact bit
select, and the column is mapped through its quantile by the same kernel
:func:`fhmix.marginals.quantile` uses, straight into its column of the
output.  The normal columns share one quantile z = q(U) of the kernel per
piece: U is a multiple of 2^-53, so 1 - U is exact and the kernel's
q(1 - U) is -q(U) bit for bit, and the same bit select picks z or 0.0 - z
before ``mean + sd z``.  The output is column-major (Fortran order), so
every column is contiguous; ``np.ascontiguousarray`` gives the row-major
copy, with the same values.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import bernoulli_joint as bj
from . import inversion, kernels
from .bernoulli_joint import (
    AlphaInterval,
    ConcurrenceMatrix,
    JointPMF,
    _UnitDiagonalMatrix,
)
from .bounds import CorrelationExtremes, corr_extremes
from .errors import (
    CapacityError,
    DomainError,
    InfeasibleError,
    UnachievableCorrelationError,
)
# ``quantile`` stays importable from here: bench/tracing.py wraps it by name
from .marginals import MarginalSpec, _normal_from_z, _quantile_into, quantile  # noqa: F401
from .oracle import FLOAT_TOL, MAX_DIMENSION, lp_feasible

#: slack when checking a target correlation against its extremes
RHO_SLACK = 1e-9
#: rows per piece: a batch of at most this many rows is one piece on the
#: calling thread, a longer one is drawn in pieces on the worker threads; a
#: scratch set takes ~4 MiB.  On 2 shared cores, 10^6 rows of the draw-n12
#: plans of seeds 7 and 11 drew 1.14-1.85x as fast as on one thread in
#: pieces of 2^16 rows, and 1.12-1.69x in pieces of 2^15 or 2^17 rows
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

    ``alpha`` is its law's P(X = 111) (at n = 4, all coins agree).  The draw's
    tables over the law's atoms of positive mass (the pmf's
    ``_support_tables``: a guide table of their running sums and their coin
    masks) are built on the first draw and cached, so compiling a plan that
    is never drawn from costs nothing here.  They are the only tables a draw
    builds: an empirical marginal's guide table is built with its spec.
    """

    kind: str  # "bivariate" | "trivariate" | "quadrivariate" | "oracle_pmf"
    pmf: JointPMF
    alpha_interval: AlphaInterval | None = None

    @property
    def alpha(self) -> float | None:
        p, n = self.pmf.probs, self.pmf.n
        return float(p[7]) if n == 3 else float(p[0] + p[15]) if n == 4 else None


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
    """Upper-triangular table of correlation extremes, memoized per unordered
    pair of specs (``corr_extremes`` is symmetric in its arguments)."""
    ms = tuple(marginals)
    n = len(ms)
    cache: dict[frozenset, CorrelationExtremes] = {}
    table: list[list[CorrelationExtremes | None]] = [[None] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        key = frozenset((ms[i], ms[j]))
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
    for i, j in combinations(range(len(ms)), 2):
        lam[i, j] = lam[j, i] = convexity_from_correlation(target_corr.entry(i, j), ext[i][j])
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
    for i, j in combinations(range(len(ms)), 2):
        lam, e = concurrence.entry(i, j), ext[i][j]
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
        interval = bj.trivariate_alpha_interval(l12, l13, l23)
        if not interval.feasible:
            return bj._sum_bound_failure(l12, l13, l23)
        a = interval.midpoint if alpha is None else float(alpha)
        return BernoulliRecipe("trivariate", bj.trivariate_pmf(l12, l13, l23, a), interval)
    if n == 4:
        interval = bj.quadrivariate_alpha_interval(lam)
        if not interval.feasible:
            return bj._empty_interval_failure(interval)
        a = interval.midpoint if alpha is None else float(alpha)
        return BernoulliRecipe("quadrivariate", bj.quadrivariate_lifted_pmf(lam, a), interval)
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
    count = _integer(count, "count", 1)
    values = _batch_values(plan, count, _generator(seed, stream_id))
    values.flags.writeable = False
    return SampleBatch(count, plan.n, values, operator.index(seed), operator.index(stream_id))


def _generator(seed: int, stream_id: int) -> np.random.Generator:
    seed, stream_id = _integer(seed, "seed", 0), _integer(stream_id, "stream_id", 0)
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, stream_id]))


def _integer(v, name: str, low: int) -> int:
    """``v`` as a Python or numpy integer >= ``low``; floats, strings and bools raise."""
    try:
        if not isinstance(v, bool) and operator.index(v) >= low:
            return operator.index(v)
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer >= {low}, got {v!r}")


def _batch_values(plan: SamplingPlan, count: int, rng: np.random.Generator) -> np.ndarray:
    # build the recipe's lazily cached tables here, so no worker builds them;
    # an empirical marginal built its own with its spec
    tables = plan.recipe.pmf._support_tables
    out = np.empty((count, plan.n), order="F")  # each column contiguous
    if count <= PIECE_ROWS:
        _draw_piece(plan.marginals, tables, _Scratch(count).load(rng, count), out)
        return out
    starts = range(0, count, PIECE_ROWS)
    workers = min(len(starts), _cpus())
    idle = [_Scratch(PIECE_ROWS) for _ in range(workers)]
    with ThreadPoolExecutor(workers) as pool:
        futures, busy = [], {}
        for start in starts:
            if not idle:  # every set is in flight: take back those of the first to finish
                done, _ = wait(busy, return_when=FIRST_COMPLETED)  # errors are raised below
                idle += [busy.pop(future) for future in done]
            rows = out[start:start + PIECE_ROWS]
            # uniforms are drawn here, in row order, whichever set and worker draw the piece
            scratch = idle.pop().load(rng, len(rows))
            futures.append(pool.submit(_draw_piece, plan.marginals, tables, scratch, rows))
            busy[futures[-1]] = scratch
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
    """Work arrays of one piece of at most ``rows`` rows.

    Each array has one job per stage of :func:`_draw_piece`: once the atom
    is found, ``edge`` and ``bit`` serve an empirical quantile's search and
    the normal kernel, and once the other columns are drawn, ``v`` and
    ``diff`` hold the normal quantile's mirror.
    """

    def __init__(self, rows: int) -> None:
        self.u = np.empty(rows)
        self.atom_u = np.empty(rows)
        self.v = np.empty(rows, np.uint64)
        self.diff = np.empty(rows, np.uint64)
        self.atom = np.empty(rows, np.intp)
        self.index = np.empty(rows, np.intp)
        self.edge = np.empty(rows)
        self.bit = np.empty(rows, bool)
        self.w = np.empty(rows, np.uint64)
        # the normal kernel's tails: a draw writes the first ~15% of each
        # row, and pages never written take no memory
        self.tails = np.empty((kernels.TAIL_ROWS, rows))

    def load(self, rng: np.random.Generator, k: int) -> "_Scratch":
        """Draw the next k rows' uniforms: each row is (U, recipe uniform),
        so pieces, and calls in turn, concatenate to one call."""
        pairs = rng.random((k, 2))
        self.u[:k] = pairs[:, 0]
        self.atom_u[:k] = pairs[:, 1]
        return self


def _draw_piece(marginals, tables, s: _Scratch, out: np.ndarray) -> None:
    """Evaluate the rows of the column-major ``out`` from the uniforms loaded
    into ``s``, with the recipe's ``JointPMF._support_tables``."""
    k = len(out)
    u, atom_u = s.u[:k], s.atom_u[:k]
    if not u.all():
        u[u == 0.0] = 0.5  # P(U = 0) = 2^-53; U, 1 - U stay equal in law
    v = s.v[:k]
    np.subtract(1.0, u, out=v.view(np.float64))
    diff = np.bitwise_xor(u.view(np.uint64), v, out=s.diff[:k])
    guide, _, masks = tables
    e, b, w = s.edge[:k], s.bit[:k], s.w[:k]
    # each row's position among the recipe's atoms of positive mass
    p = inversion.index(guide, atom_u, "right", (s.atom[:k], e, b))
    # e and b are idle once p is found: lend them to an empirical quantile's
    # search and to the normal kernel, so a worker thread allocates no column
    work = s.index[:k], e, b
    normals = [i for i, m in enumerate(marginals) if m.family == "normal"]
    for i, m in enumerate(marginals):
        if m.family != "normal":
            _select(masks[i], p, diff, v, w)  # U or 1 - U
            _quantile_into(m, w.view(np.float64), out[:, i], work)
    if not normals:
        return
    # one normal quantile z = q(U) serves every normal column: U is a multiple
    # of 2^-53, so 1 - U is exact and the kernel gives q(1 - U) = -q(U) bit for
    # bit; the mirror is 0.0 - z, which is +0.0 where U = 1/2 = 1 - U, as
    # q(1/2) is.  u, v and diff are idle now, so v and diff hold the mirror
    z = kernels.ndtri_into(u, out[:, normals[0]], (s.index[:k].view(np.float64), e, s.tails))
    np.subtract(0.0, z, out=v.view(np.float64))
    np.bitwise_xor(z.view(np.uint64), v, out=diff)
    for i in normals[1:] + normals[:1]:  # z's own column last
        _select(masks[i], p, diff, v, w)  # z or its mirror
        _normal_from_z(marginals[i], w.view(np.float64), out[:, i])


def _select(mask: np.ndarray, p: np.ndarray, diff: np.ndarray, v: np.ndarray,
            w: np.ndarray) -> None:
    """Into ``w``, the bits of the first of two columns where the drawn atom's
    coin is 1, else of the second ``v``; ``diff`` is the two XORed.

    The mask is all ones or all zeros, so the select is exact; p is below the
    number of atoms, so "clip" is only the mode of take that writes into w
    unbuffered."""
    mask.take(p, out=w, mode="clip")
    w &= diff
    w ^= v


def _require_feasible(plan: SamplingPlan) -> None:
    if plan.recipe is None:
        raise InfeasibleError(f"plan is not feasible: {plan.diagnostics}")
