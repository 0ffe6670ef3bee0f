"""Multivariate symmetric Bernoulli laws with a prescribed concurrence matrix.

The concurrence matrix of a random vector collects the pairwise agreement
probabilities lambda_ij = P(B_i = B_j).  For fair-coin marginals
(Bern(1/2)) this matrix carries exactly the same information as the pair's
position inside its correlation interval, which is why it is the natural
target object here.

This module constructs exact joint pmfs on {0,1}^n realizing a requested
concurrence matrix for n = 2, 3, 4:

* n = 2 - unique solution: p00 = p11 = lambda/2, p01 = p10 = (1-lambda)/2.
* n = 3 - a one-parameter family indexed by alpha = P(B = 111); a law exists
  iff 1 <= l12 + l13 + l23 <= 1 + 2*min(l12, l13, l23).
* n = 4 - reduced to a three-dimensional *asymmetric* Bernoulli system via
  the bordering equivalence below; again a one-parameter family in
  alpha = P(X = 111).

The bordering equivalence: an n-dimensional Bernoulli law with marginals
Bern(p_i) and concurrence matrix L exists iff an (n+1)-dimensional
symmetric-Bernoulli law exists whose concurrence matrix is L bordered by the
column p (``symmetrize``).  The maps between draws are
``reduce_symmetric_draw`` (X_i = 1(B_i = B_{n+1})) and
``lift_asymmetric_draw`` (B_i = B_{n+1} X_i + (1 - B_{n+1})(1 - X_i)), and
``lift`` maps a law of X to the law of B.  ``lift`` builds the n = 4 recipe
from the closed-form reduced pmf, and every n >= 5 recipe from an LP
witness of the reduced system (:mod:`fhmix.sampler`).

For n >= 5, ``violated_principal_submatrix`` screens every 3-subset with
the n = 3 test, as array arithmetic over all subsets at once.  The n = 4
test adds nothing to it: each bound of ``quadrivariate_alpha_interval``
restates a triangle inequality of the 4-subset, so its interval is empty
only if one of the subset's triangles fails.

Every pmf here answers one linear system, ``_constraint_system``, which the
LP of :mod:`fhmix.oracle` solves too: total mass, marginals P(B_i = 1) and
concurrences P(B_i = B_j).  A pmf sums its rows once; the accessors and
``_check_constraints``, which re-verifies every constructed pmf, read them.

All constructions are linear in the inputs, so constraint residuals of the
produced pmfs are at rounding level; feasibility comparisons use an absolute
slack of 1e-12.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import inversion
from .errors import (
    DomainError,
    InfeasibleError,
    InvalidDistributionError,
    InvalidMatrixError,
    NumericalError,
)

#: absolute slack for feasibility comparisons and atom nonnegativity
FEAS_TOL = 1e-12


# ---------------------------------------------------------------------------
# atom indexing: atom k encodes bits (b1 ... bn) with b1 the MOST significant
# ---------------------------------------------------------------------------

def atom_bits(index: int, n: int) -> tuple[int, ...]:
    """Bits (b1, ..., bn) of an atom index, b1 most significant."""
    return tuple((index >> (n - 1 - i)) & 1 for i in range(n))


def atom_index(bits) -> int:
    """Inverse of :func:`atom_bits`."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


@functools.cache
def _bit_table(n: int) -> np.ndarray:
    """Read-only (2^n, n) 0/1 matrix of bytes; row k holds atom_bits(k, n)."""
    ks = np.arange(2 ** n)
    shifts = n - 1 - np.arange(n)
    out = ((ks[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    out.flags.writeable = False
    return out


@functools.cache
def _constraint_system(n: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """Rows total mass, marginal i (bit i = 1) and concurrence (i, j) (bit
    i = bit j, pairs in combinations order) as a read-only boolean matrix
    over the 2^n atoms, and their names."""
    bits = _bit_table(n).astype(bool)
    i, j = np.triu_indices(n, 1)
    rows = np.vstack([np.ones((1, 2 ** n), bool), bits.T, (bits[:, i] == bits[:, j]).T])
    rows.flags.writeable = False
    names = ("total mass", *(f"marginal {k + 1}" for k in range(n)),
             *(f"concurrence ({a + 1},{b + 1})" for a, b in zip(i, j)))
    return rows, names


# ---------------------------------------------------------------------------
# matrices and pmfs
# ---------------------------------------------------------------------------

def _check_unit_interval(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v) or v < -FEAS_TOL or v > 1.0 + FEAS_TOL:
        raise InvalidMatrixError(f"{name}={value!r} must lie in [0, 1]")
    return min(1.0, max(0.0, v))


@dataclass(frozen=True)
class _UnitDiagonalMatrix:
    """Symmetric unit-diagonal matrix with entries in [_lo, _hi].

    Subclasses set the bounds and ``_what``, the name used in error messages.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        what, lo, hi = self._what, self._lo, self._hi
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidMatrixError(f"{what} must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidMatrixError(f"{what} must be at least 1x1")
        if not np.all(np.isfinite(arr)):
            raise InvalidMatrixError(f"{what} has non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise InvalidMatrixError(f"{what} must be symmetric")
        if not np.all(np.diag(arr) == 1.0):
            raise InvalidMatrixError(f"{what} must have unit diagonal")
        if np.any(arr < lo - FEAS_TOL) or np.any(arr > hi + FEAS_TOL):
            raise InvalidMatrixError(f"{what} entries must lie in [{lo}, {hi}]")
        out = np.clip(arr, lo, hi)
        np.fill_diagonal(out, 1.0)
        out.flags.writeable = False
        object.__setattr__(self, "entries", out)

    @classmethod
    def from_lower_triangle(cls, values, n: int):
        """Build from the strict lower triangle in row-major order.

        ``values`` lists m_ij for i = 2..n, j = 1..i-1 (1-based), i.e.
        [m21, m31, m32, m41, ...].
        """
        vals = [float(v) for v in values]
        if len(vals) != n * (n - 1) // 2:
            raise InvalidMatrixError(
                f"need {n * (n - 1) // 2} lower-triangle entries for n={n}, got {len(vals)}"
            )
        m = np.eye(n)
        k = 0
        for i in range(1, n):
            for j in range(i):
                m[i, j] = m[j, i] = vals[k]
                k += 1
        return cls(m)

    @classmethod
    def filled(cls, n: int, value: float):
        """All off-diagonal entries equal to ``value``."""
        m = np.full((n, n), float(value))
        np.fill_diagonal(m, 1.0)
        return cls(m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def entry(self, i: int, j: int) -> float:
        return float(self.entries[i, j])


class ConcurrenceMatrix(_UnitDiagonalMatrix):
    """Symmetric unit-diagonal matrix of agreement probabilities in [0, 1]."""

    _lo, _hi, _what = 0.0, 1.0, "concurrence matrix"

    def submatrix(self, indices) -> "ConcurrenceMatrix":
        idx = list(indices)
        return ConcurrenceMatrix(self.entries[np.ix_(idx, idx)])


@dataclass(frozen=True)
class JointPMF:
    """Exact pmf over the 2^n atoms of {0,1}^n (b1 = most significant bit).

    Entries in [-1e-12, 0) are clamped to 0; anything more negative, or a
    total mass off 1 by more than 1e-12, is rejected.
    """

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float).copy()
        if arr.shape != (2 ** self.n,):
            raise InvalidDistributionError(
                f"expected {2 ** self.n} atom probabilities, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidDistributionError("pmf has non-finite entries")
        low = arr.min()
        if low < -FEAS_TOL:
            k = int(arr.argmin())
            raise InvalidDistributionError(
                f"atom p{_bits_str(k, self.n)} = {low!r} is negative beyond tolerance"
            )
        arr[arr < 0.0] = 0.0
        total = float(arr.sum())
        if abs(total - 1.0) > FEAS_TOL:
            raise InvalidDistributionError(f"pmf sums to {total!r}, expected 1")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @functools.cached_property
    def _row_values(self) -> np.ndarray:
        """Each row of :func:`_constraint_system` summed over ``probs``, as
        ``probs[mask].sum()`` bit for bit (a matrix product rounds otherwise);
        every row after the first selects half the atoms."""
        rows = _constraint_system(self.n)[0][1:]
        half = np.broadcast_to(self.probs, rows.shape)[rows].reshape(len(rows), 2 ** self.n // 2)
        return np.concatenate(([self.probs.sum()], half.sum(axis=1)))

    def _coordinate(self, i: int) -> int:
        if not (isinstance(i, (int, np.integer)) and 0 <= i < self.n):
            raise DomainError(f"coordinate {i!r} is not in 0..{self.n - 1}")
        return i

    def marginal_prob(self, i: int) -> float:
        """P(bit i = 1), for a 0-based coordinate i."""
        return float(self._row_values[1 + self._coordinate(i)])

    def concurrence(self, i: int, j: int) -> float:
        """P(bit i = bit j), for 0-based coordinates i and j."""
        i, j = sorted((self._coordinate(i), self._coordinate(j)))
        if i == j:
            return float(self._row_values[0])
        return float(self._row_values[self.n + i * self.n - i * (i + 1) // 2 + j - i])

    def concurrence_matrix(self) -> ConcurrenceMatrix:
        m = np.eye(self.n)
        i, j = np.triu_indices(self.n, 1)
        m[i, j] = m[j, i] = self._row_values[1 + self.n:]
        return ConcurrenceMatrix(m)

    @functools.cached_property
    def _levels(self) -> tuple[np.ndarray, ...]:
        """Search tables (:func:`fhmix.inversion.levels`), built on first
        use, over the running sums of ``probs`` set to 1.0 from the last atom
        of positive mass on; table i decides coordinate i's bit.  Inversion
        of x in [0, 1), the first atom whose entry exceeds x, then never
        lands on a zero-mass atom: not inside (its entry equals the one
        before), and not past a float sum just short of 1."""
        cdf = np.cumsum(self.probs)
        cdf[np.flatnonzero(self.probs)[-1]:] = 1.0
        return inversion.levels(cdf)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw atoms by inversion; returns bits, shape (n,) or (size, n)."""
        count = 1 if size is None else int(size)
        idx = inversion.index(self._levels, rng.random(count), "right")
        bits = _bit_table(self.n)[idx].astype(np.int64)
        if size is None:
            return bits[0]
        return bits


def _bits_str(index: int, n: int) -> str:
    return "".join(str(b) for b in atom_bits(index, n))


def _check_constraints(pmf: JointPMF, marginal_probs, concurrences,
                       tol: float = 16 * FEAS_TOL) -> float:
    """Largest miss of ``pmf`` on mass 1, ``marginal_probs`` and pairwise
    ``concurrences`` (combinations order); beyond ``tol`` it is a bug, not bad
    input, and raises :class:`NumericalError` naming the worst row."""
    target = np.array([1.0, *marginal_probs, *concurrences], dtype=float)
    miss = np.abs(pmf._row_values - target)
    k = int(miss.argmax())
    if miss[k] > tol:
        name = _constraint_system(pmf.n)[1][k]
        raise NumericalError(
            f"constructed pmf misses its {name} row: {pmf._row_values[k]!r}, "
            f"wanted {target[k]!r} (off by {miss[k]:.3g} > {tol:g})"
        )
    return float(miss[k])


# ---------------------------------------------------------------------------
# alpha intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaInterval:
    """Feasible range of the free atom probability alpha = P(all ones)."""

    lo: float
    hi: float

    @property
    def feasible(self) -> bool:
        return self.lo <= self.hi + FEAS_TOL

    @property
    def midpoint(self) -> float:
        if not self.feasible:
            raise InfeasibleError(
                f"alpha interval [{self.lo}, {self.hi}] is empty"
            )
        return 0.5 * (self.lo + self.hi)

    def contains(self, alpha: float) -> bool:
        return self.lo - FEAS_TOL <= alpha <= self.hi + FEAS_TOL


# ---------------------------------------------------------------------------
# n = 2
# ---------------------------------------------------------------------------

def bivariate_pmf(lam12: float) -> JointPMF:
    """The unique fair-coin pair law with P(B1 = B2) = lam12.

    Atom order (00, 01, 10, 11): (lam/2, (1-lam)/2, (1-lam)/2, lam/2).
    """
    lam = _check_unit_interval(lam12, "lambda12")
    agree = lam / 2.0
    differ = (1.0 - lam) / 2.0
    pmf = JointPMF(2, np.array([agree, differ, differ, agree]))
    _check_constraints(pmf, (0.5, 0.5), (lam,))
    return pmf


def asymmetric_pair_feasible(p: float, q: float, r: float) -> bool:
    """Does a pair (X, Y) with X ~ Bern(p), Y ~ Bern(q), P(X = Y) = r exist?

    Holds iff |1 - (p + q)| <= r <= 2*min(p, q) + 1 - (p + q), with 1e-12
    slack at both boundaries.
    """
    p = _check_unit_interval(p, "p")
    q = _check_unit_interval(q, "q")
    r = _check_unit_interval(r, "r")
    lo = abs(1.0 - (p + q))
    hi = 2.0 * min(p, q) + 1.0 - (p + q)
    return lo - FEAS_TOL <= r <= hi + FEAS_TOL


# ---------------------------------------------------------------------------
# n = 3, symmetric
# ---------------------------------------------------------------------------

def trivariate_feasible(lam12: float, lam13: float, lam23: float) -> bool:
    """Existence test for a fair-coin triple with the given concurrences.

    True iff 1 <= lam12 + lam13 + lam23 <= 1 + 2*min(lam12, lam13, lam23),
    with 1e-12 slack at both boundaries.
    """
    l12 = _check_unit_interval(lam12, "lambda12")
    l13 = _check_unit_interval(lam13, "lambda13")
    l23 = _check_unit_interval(lam23, "lambda23")
    s = l12 + l13 + l23
    return 1.0 - FEAS_TOL <= s <= 1.0 + 2.0 * min(l12, l13, l23) + FEAS_TOL


def trivariate_alpha_interval(lam12: float, lam13: float, lam23: float) -> AlphaInterval:
    """Feasible alpha = P(B = 111) range for the fair-coin triple system.

    lo = max(0, (s - m - 1)/2) and hi = min(m/2, (s - 1)/2), where s is the
    concurrence sum and m its minimum.  The triple is feasible iff lo <= hi.
    """
    l12 = _check_unit_interval(lam12, "lambda12")
    l13 = _check_unit_interval(lam13, "lambda13")
    l23 = _check_unit_interval(lam23, "lambda23")
    s = l12 + l13 + l23
    m = min(l12, l13, l23)
    lo = max(0.0, 0.5 * (s - m - 1.0))
    hi = min(0.5 * m, 0.5 * (s - 1.0))
    return AlphaInterval(float(lo), float(hi))


def trivariate_pmf(lam12: float, lam13: float, lam23: float, alpha: float) -> JointPMF:
    """Fair-coin triple law with the given concurrences and P(111) = alpha.

    Atom order (000, ..., 111):

        p000 = (l12 + l13 + l23 - 1)/2 - alpha     p100 = (1 - l12 - l13)/2 + alpha
        p001 = (1 - l13 - l23)/2 + alpha           p101 = l13/2 - alpha
        p010 = (1 - l12 - l23)/2 + alpha           p110 = l12/2 - alpha
        p011 = l23/2 - alpha                       p111 = alpha

    Raises :class:`InfeasibleError` naming the first negative atom when
    alpha lies outside :func:`trivariate_alpha_interval`.
    """
    l12 = _check_unit_interval(lam12, "lambda12")
    l13 = _check_unit_interval(lam13, "lambda13")
    l23 = _check_unit_interval(lam23, "lambda23")
    a = float(alpha)
    probs = np.array([
        0.5 * (l12 + l13 + l23 - 1.0) - a,
        0.5 * (1.0 - (l13 + l23)) + a,
        0.5 * (1.0 - (l12 + l23)) + a,
        0.5 * l23 - a,
        0.5 * (1.0 - (l12 + l13)) + a,
        0.5 * l13 - a,
        0.5 * l12 - a,
        a,
    ])
    _raise_on_negative_atom(probs, 3, (l12, l13, l23), a)
    pmf = JointPMF(3, probs)
    _check_constraints(pmf, (0.5,) * 3, (l12, l13, l23))
    return pmf


def trivariate_sample_direct(
    lam12: float,
    lam13: float,
    lam23: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw a fair-coin triple with the given concurrences, no pmf table.

    One fair coin B3 and one uniform U drive all three coordinates:
    X1 indicates U in [0, l13], X2 indicates U in
    [(1 + l13 - l23 - l12)/2, (1 + l13 + l23 - l12)/2], and B1, B2 copy
    X1, X2 when B3 = 1 and their complements when B3 = 0.

    Returns a bit triple, or a (size, 3) array when ``size`` is given.
    """
    l12 = _check_unit_interval(lam12, "lambda12")
    l13 = _check_unit_interval(lam13, "lambda13")
    l23 = _check_unit_interval(lam23, "lambda23")
    if not trivariate_feasible(l12, l13, l23):
        s = l12 + l13 + l23
        raise InfeasibleError(
            f"no fair-coin triple has concurrences ({l12}, {l13}, {l23}): "
            f"sum {s:.6f} violates 1 <= sum <= {1.0 + 2.0 * min(l12, l13, l23):.6f}"
        )
    lo2 = 0.5 * (1.0 + l13 - l23 - l12)
    hi2 = 0.5 * (1.0 + l13 + l23 - l12)

    count = 1 if size is None else int(size)
    b3 = rng.integers(0, 2, size=count)
    u = rng.random(count)
    x1 = (u <= l13).astype(np.int64)
    x2 = ((u >= lo2) & (u <= hi2)).astype(np.int64)
    b1 = b3 * x1 + (1 - b3) * (1 - x1)
    b2 = b3 * x2 + (1 - b3) * (1 - x2)
    out = np.stack([b1, b2, b3], axis=1)
    if size is None:
        return tuple(int(v) for v in out[0])
    return out


# ---------------------------------------------------------------------------
# asymmetric <-> symmetric reduction
# ---------------------------------------------------------------------------

def symmetrize(p, conc: ConcurrenceMatrix) -> ConcurrenceMatrix:
    """Border a concurrence matrix with marginal probabilities.

    The target asymmetric law (marginals Bern(p_i), concurrences ``conc``)
    exists iff a fair-coin law exists for the returned (n+1) x (n+1) matrix,
    whose last row/column carries the p_i.
    """
    ps = [_check_unit_interval(v, f"p{i + 1}") for i, v in enumerate(p)]
    if len(ps) != conc.n:
        raise InvalidMatrixError(
            f"{len(ps)} marginal probabilities for a {conc.n}x{conc.n} matrix"
        )
    n = conc.n
    m = np.eye(n + 1)
    m[:n, :n] = conc.entries
    m[:n, n] = ps
    m[n, :n] = ps
    return ConcurrenceMatrix(m)


def lift(q: JointPMF) -> JointPMF:
    """Law of :func:`lift_asymmetric_draw` applied to a draw from ``q``.

    Reduced atom x puts mass q(x)/2 on (x, 1) and q(x)/2 on (1 - x, 0).  The
    result is complement-symmetric, so every coin is fair; bit i agrees with
    the last bit with probability P(X_i = 1), and bits i, j agree with
    probability P(X_i = X_j).  Each target atom gets exactly one
    contribution, so the masses are q's halved, bit for bit.
    """
    half = 0.5 * q.probs
    probs = np.empty(2 * half.size)
    probs[1::2] = half         # (x, 1) has index 2x + 1
    probs[0::2] = half[::-1]   # (1 - x, 0) has index 2(2^m - 1 - x)
    return JointPMF(q.n + 1, probs)


def reduce_symmetric_draw(b) -> np.ndarray:
    """Map a fair-coin draw of length n+1 to X_i = 1(B_i = B_{n+1})."""
    arr = np.asarray(b, dtype=np.int64)
    return (arr[:-1] == arr[-1]).astype(np.int64)


def lift_asymmetric_draw(x, rng: np.random.Generator) -> np.ndarray:
    """Inverse of :func:`reduce_symmetric_draw` given a fresh fair coin.

    Draws B_{n+1} ~ Bern(1/2) independent of x and returns
    (B_1, ..., B_{n+1}) with B_i = B_{n+1} x_i + (1 - B_{n+1})(1 - x_i).
    """
    arr = np.asarray(x, dtype=np.int64)
    last = int(rng.integers(0, 2))
    bits = last * arr + (1 - last) * (1 - arr)
    return np.concatenate([bits, [last]])


# ---------------------------------------------------------------------------
# n = 4, symmetric (via the 3-dimensional asymmetric system)
# ---------------------------------------------------------------------------

def _quad_lambdas(conc: ConcurrenceMatrix) -> tuple[float, ...]:
    if conc.n != 4:
        raise InvalidMatrixError(f"expected a 4x4 concurrence matrix, got n={conc.n}")
    e = conc.entries
    # l12, l13, l14, l23, l24, l34
    return (e[0, 1], e[0, 2], e[0, 3], e[1, 2], e[1, 3], e[2, 3])


def quadrivariate_alpha_interval(conc: ConcurrenceMatrix) -> AlphaInterval:
    """Feasible alpha = P(X = 111) range for the reduced 4-dimensional system.

    Bounds come directly from nonnegativity of the eight atoms of
    :func:`quadrivariate_pmf`:

        alpha <= (s_T - 1)/2   for each triangle sum s_T over {i,j,k}
        alpha >= s_C/2 - 1     for each 4-cycle sum s_C (the four entries
                               left after deleting a perfect matching)
        alpha >= 0

    Feasible iff the interval is nonempty; a fair-coin quadruple with
    concurrence matrix ``conc`` exists iff that holds.
    """
    l12, l13, l14, l23, l24, l34 = _quad_lambdas(conc)
    triangles = (
        l12 + l13 + l23,  # atoms of {1,2,3}: binds q000
        l23 + l24 + l34,  # q011
        l13 + l14 + l34,  # q101
        l12 + l14 + l24,  # q110
    )
    cycles = (
        l13 + l23 + l14 + l24,  # matching {12, 34} removed: binds q001
        l12 + l23 + l14 + l34,  # matching {13, 24} removed: q010
        l12 + l13 + l24 + l34,  # matching {14, 23} removed: q100
    )
    hi = 0.5 * (min(triangles) - 1.0)
    lo = max(0.0, max(0.5 * c - 1.0 for c in cycles))
    return AlphaInterval(float(lo), float(hi))


def quadrivariate_pmf(conc: ConcurrenceMatrix, alpha: float) -> JointPMF:
    """Reduced pmf over (X1, X2, X3) for a 4-dimensional fair-coin target.

    X_i = 1(B_i = B_4) has marginal Bern(l_{i4}) and pairwise concurrences
    l_{ij} (i, j <= 3); those constraints plus total mass and
    P(X = 111) = alpha pin the eight atoms uniquely:

        q111 = alpha
        q110 = (l12 + l14 + l24 - 1)/2 - alpha    (and cyclic versions)
        q100 = 1 - (l12 + l13 + l24 + l34)/2 + alpha   (and cyclic versions)
        q000 = (l12 + l13 + l23 - 1)/2 - alpha

    Raises :class:`InfeasibleError` naming the first negative atom when
    alpha lies outside :func:`quadrivariate_alpha_interval`.
    """
    l12, l13, l14, l23, l24, l34 = _quad_lambdas(conc)
    a = float(alpha)
    probs = np.array([
        0.5 * (l12 + l13 + l23 - 1.0) - a,
        1.0 - 0.5 * (l13 + l23 + l14 + l24) + a,
        1.0 - 0.5 * (l12 + l23 + l14 + l34) + a,
        0.5 * (l23 + l24 + l34 - 1.0) - a,
        1.0 - 0.5 * (l12 + l13 + l24 + l34) + a,
        0.5 * (l13 + l14 + l34 - 1.0) - a,
        0.5 * (l12 + l14 + l24 - 1.0) - a,
        a,
    ])
    _raise_on_negative_atom(probs, 3, (l12, l13, l14, l23, l24, l34), a, prefix="q")
    pmf = JointPMF(3, probs)
    _check_constraints(pmf, (l14, l24, l34), (l12, l13, l23))
    return pmf


def quadrivariate_sample(
    conc: ConcurrenceMatrix,
    rng: np.random.Generator,
    alpha: float | None = None,
    size: int | None = None,
):
    """Draw a fair-coin quadruple with concurrence matrix ``conc``.

    Samples (X1, X2, X3) from :func:`quadrivariate_pmf` (midpoint alpha by
    default), draws B4 ~ Bern(1/2), and lifts: B_i = B4 X_i + (1-B4)(1-X_i).

    Returns a bit 4-tuple, or a (size, 4) array when ``size`` is given.
    """
    interval = quadrivariate_alpha_interval(conc)
    if not interval.feasible:
        raise InfeasibleError(
            f"no fair-coin quadruple has this concurrence matrix: alpha interval "
            f"[{interval.lo:.6f}, {interval.hi:.6f}] is empty"
        )
    a = interval.midpoint if alpha is None else float(alpha)
    q = quadrivariate_pmf(conc, a)

    count = 1 if size is None else int(size)
    x = q.sample(rng, count)
    b4 = rng.integers(0, 2, size=count)
    b123 = b4[:, None] * x + (1 - b4[:, None]) * (1 - x)
    out = np.concatenate([b123, b4[:, None]], axis=1)
    if size is None:
        return tuple(int(v) for v in out[0])
    return out


def quadrivariate_lifted_pmf(conc: ConcurrenceMatrix, alpha: float) -> JointPMF:
    """Full 16-atom law of (B1, ..., B4) induced by the reduced system.

    The :func:`lift` of :func:`quadrivariate_pmf`, which is exactly the law
    :func:`quadrivariate_sample` draws from.  Useful when a single atom-pmf
    sampling path is wanted for n = 4.
    """
    pmf = lift(quadrivariate_pmf(conc, alpha))
    _check_constraints(pmf, (0.5,) * 4, _quad_lambdas(conc))
    return pmf


def _raise_on_negative_atom(probs: np.ndarray, n: int, lams, alpha: float,
                            prefix: str = "p") -> None:
    if probs.min() < -FEAS_TOL:
        k = int(probs.argmin())
        raise InfeasibleError(
            f"alpha={alpha!r} is outside the feasible interval for concurrences "
            f"{tuple(round(v, 12) for v in lams)}: atom {prefix}{_bits_str(k, n)} "
            f"= {probs[k]!r} < 0"
        )


# ---------------------------------------------------------------------------
# necessity screening for higher dimensions
# ---------------------------------------------------------------------------

def violated_principal_submatrix(conc: ConcurrenceMatrix) -> tuple[int, ...] | None:
    """First 3-subset whose principal submatrix fails its closed-form test.

    The n = 3 characterization is a necessary condition in any dimension, so
    a hit proves the full matrix infeasible.  Returns 0-based indices, or
    None when every subset passes.  Every 3-subset is tested at once, in
    ``itertools.combinations`` order, with the float expressions of
    :func:`trivariate_feasible` in the same order, so each verdict is its
    verdict bit for bit.

    4-subsets need no pass of their own.  With lo = 0 the interval of
    :func:`quadrivariate_alpha_interval` is empty iff a triangle sum s_T < 1,
    the lower triangle inequality.  A 4-cycle bound s_C/2 - 1 exceeds a
    triangle bound (s_T - 1)/2 iff s_C - s_T > 1, and s_C - s_T is
    l_xw + l_yw - l_xy, where xy is the edge T shares with the matching the
    cycle leaves out and w the vertex outside T: the upper inequality of
    triangle {x, y, w} at its edge xy.  The 12 (cycle, triangle) pairs are
    the 12 (triangle, edge) pairs, so the n = 4 test is the n = 3 test of
    the four triangles, and with twice its slack.
    """
    e = conc.entries
    i, j, k = _subsets(conc.n, 3).T
    l12, l13, l23 = e[i, j], e[i, k], e[j, k]
    s = l12 + l13 + l23
    ok = (1.0 - FEAS_TOL <= s) & (s <= 1.0 + 2.0 * np.minimum(np.minimum(l12, l13), l23)
                                  + FEAS_TOL)
    if not ok.all():
        return tuple(int(v) for v in _subsets(conc.n, 3)[ok.argmin()])
    return None


@functools.cache
def _subsets(n: int, k: int) -> np.ndarray:
    """``itertools.combinations(range(n), k)`` as a read-only (count, k)
    index array."""
    out = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    out.flags.writeable = False
    return out
