"""Multivariate symmetric Bernoulli laws with a prescribed concurrence matrix.

The concurrence matrix of a random vector collects the pairwise agreement
probabilities lambda_ij = P(B_i = B_j).  For fair-coin marginals
(Bern(1/2)) this matrix carries exactly the same information as the pair's
position inside its correlation interval, which is why it is the natural
target object here.

This module constructs exact joint pmfs on {0,1}^n realizing a requested
concurrence matrix for n = 2, 3, 4:

* n = 2 - unique solution: p00 = p11 = lambda/2, p01 = p10 = (1-lambda)/2.
* n = 4 - reduced to a three-dimensional *asymmetric* Bernoulli system via
  the bordering equivalence below: X_i = 1(B_i = B_4) has marginals
  Bern(l_i4) and concurrences l_ij, and its eight atoms form a
  one-parameter family in alpha = P(X = 111).
* n = 3 - the same three-coordinate system with every marginal 1/2; a law
  exists iff 1 <= l12 + l13 + l23 <= 1 + 2*min(l12, l13, l23).  This
  triangle test also decides an asymmetric pair: Bern(p) and Bern(q) with
  P(X = Y) = r exist together iff the bordered triple (r, p, q) passes it.

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
the n = 3 test, one subset at a time; the n = 4 test would add nothing to it.

Every pmf here answers one linear system, ``_constraint_system``, which the
LP of :mod:`fhmix.oracle` solves too: total mass, marginals P(B_i = 1) and
concurrences P(B_i = B_j).  A pmf sums its rows once; the accessors and
``_check_constraints``, which re-verifies every constructed pmf, read them.

One rule decides feasibility, 1 - 1e-12 <= a + b + c <= 1 + 2*min + 1e-12
(``_triangle_holds``), on n = 3's triangle, n = 4's four and the screen's; an alpha
with no atom below -1e-12 builds a pmf, clipped by ``JointPMF``'s one face rule.
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
        raise InvalidMatrixError(f"{name}={v!r} must lie in [0, 1]")
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
        i, j = np.tril_indices(n, -1)
        m[i, j] = m[j, i] = vals
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

    The one face rule: an atom below -1e-12, or a signed mass off 1 by more than
    1e-12, is rejected; an atom in [-1e-12, 0) is set to 0 and the rest rescaled to 1.
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
        low = float(arr.min())
        if low < -FEAS_TOL:
            k = int(arr.argmin())
            raise InvalidDistributionError(
                f"atom p{_bits_str(k, self.n)} = {low!r} is negative beyond tolerance"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > FEAS_TOL:
            raise InvalidDistributionError(f"pmf sums to {total!r}, expected 1")
        if low < 0.0:
            arr[arr < 0.0] = 0.0
            arr /= arr.sum()
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
            raise DomainError(f"coordinate {i} is not in 0..{self.n - 1}")
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
    def _support_tables(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
        """Inversion tables over the k atoms of positive mass, built on first
        use: the guide table (:func:`fhmix.inversion.levels`) of the running
        sums of ``probs`` taken at those atoms, the last taken as 1.0; the
        atoms' indices; and an (n, k) ``uint64`` array whose row i is all
        ones where an atom's bit i is 1, else 0.

        Each entry is, bit for bit, the running sum over all 2^n atoms up to
        its atom (``np.cumsum`` adds in order, and x + 0.0 == x).  So for x in
        [0, 1), the first entry above x is at the atom that a search of all
        2^n running sums, set to 1.0 from the last atom of positive mass on,
        finds.  That search never lands on an atom of zero mass, whose sum
        equals the one before it, nor past a float sum just short of 1.  A
        search takes one gather into the guide and at most ceil(log2(k + 1))
        steps; the 134 atoms of an n = 12 recipe fall one to a cell, so one
        step finds the atom."""
        support = np.flatnonzero(self.probs)
        cdf = np.cumsum(self.probs)[support]
        shifts = np.arange(self.n - 1, -1, -1, dtype=np.uint64)[:, None]
        masks = -((support.astype(np.uint64) >> shifts) & np.uint64(1))
        return inversion.levels(cdf), support, masks

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw atoms by inversion; returns bits, shape (n,) or (size, n)."""
        count = 1 if size is None else int(size)
        tables, support, _ = self._support_tables
        idx = support[inversion.index(tables, rng.random(count), "right")]
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
            f"constructed pmf misses its {name} row: {float(pmf._row_values[k])!r}, "
            f"wanted {float(target[k])!r} (off by {miss[k]:.3g} > {tol:g})"
        )
    return float(miss[k])


# ---------------------------------------------------------------------------
# alpha intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaInterval:
    """Range of alpha = P(all ones); ``feasible`` is the triangle verdict of its
    system (module docstring), which admits lo - hi up to about 5e-13."""

    lo: float
    hi: float
    feasible: bool

    @property
    def midpoint(self) -> float:
        if not self.feasible:
            raise InfeasibleError(
                f"alpha interval [{self.lo}, {self.hi}] is empty"
            )
        return 0.5 * (self.lo + self.hi)

    def contains(self, alpha: float) -> bool:
        """True iff no atom at ``alpha`` is below -1e-12: alpha - lo and hi - alpha
        are the binding atoms, rounded as :func:`_three_coordinate_pmf` rounds them."""
        return alpha - self.lo >= -FEAS_TOL and self.hi - alpha >= -FEAS_TOL


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

    Iff its bordered triple (r, p, q) passes :func:`trivariate_feasible`:
    |1 - (p + q)| <= r <= 2*min(p, q) + 1 - (p + q).
    """
    p = _check_unit_interval(p, "p")
    q = _check_unit_interval(q, "q")
    r = _check_unit_interval(r, "r")
    return _triangle_holds(r, p, q)


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
    return _coin_lift(np.asarray(x, dtype=np.int64), rng.integers(0, 2))


def _coin_lift(x: np.ndarray, coin) -> np.ndarray:
    """(B_1, ..., B_{n+1}) with B_i = c x_i + (1 - c)(1 - x_i) and B_{n+1} = c,
    for 0/1 integer arrays x of shape (..., n) and fair coins c of shape (...)."""
    c = np.asarray(coin)[..., None]
    return np.concatenate([c * x + (1 - c) * (1 - x), c], axis=-1)


# ---------------------------------------------------------------------------
# three coordinates: n = 3 with fair marginals, and the n = 4 reduced system
# ---------------------------------------------------------------------------

#: how each atom of (X1, X2, X3) moves with alpha = P(X = 111)
_ALPHA_SIGNS = (-1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0)


def _three_coordinate_atoms(p, lams) -> list[float]:
    """The atoms at alpha = 0 for P(X_i = 1) = p_i and concurrences ``lams``
    = (l12, l13, l23): the table of :func:`quadrivariate_pmf`, p_i for l_i4."""
    p1, p2, p3 = p
    l12, l13, l23 = lams
    return [0.5 * (l12 + l13 + l23 - 1.0), 1.0 - 0.5 * (l13 + l23 + p1 + p2),
            1.0 - 0.5 * (l12 + l23 + p1 + p3), 0.5 * (l23 + p2 + p3 - 1.0),
            1.0 - 0.5 * (l12 + l13 + p2 + p3), 0.5 * (l13 + p1 + p3 - 1.0),
            0.5 * (l12 + p1 + p2 - 1.0), 0.0]


def _three_coordinate_interval(p, lams, feasible: bool) -> AlphaInterval:
    """The alphas at which no atom is negative, and the caller's verdict:
    falling atoms (triangle sums) cap alpha, rising ones (4-cycle sums) and 0 floor it."""
    q = _three_coordinate_atoms(p, lams)
    return AlphaInterval(float(max(0.0, -q[1], -q[2], -q[4])),
                         float(min(q[0], q[3], q[5], q[6])), feasible)


def _three_coordinate_pmf(p, lams, alpha: float, prefix: str) -> JointPMF:
    """The law of (X1, X2, X3) with P(X = 111) = alpha, under :class:`JointPMF`'s face
    rule; an atom below -1e-12 or a NaN raises :class:`InfeasibleError` naming it."""
    a = float(alpha)
    probs = np.array([q + s * a for q, s in zip(_three_coordinate_atoms(p, lams), _ALPHA_SIGNS)])
    low = float(probs.min())
    if not low >= -FEAS_TOL:
        k = int(probs.argmin())
        raise InfeasibleError(
            f"alpha={a!r} is outside the feasible interval for marginals "
            f"{tuple(round(v, 12) for v in p)} and concurrences "
            f"{tuple(round(v, 12) for v in lams)}: atom {prefix}{_bits_str(k, 3)} "
            f"= {float(probs[k])!r} < 0"
        )
    pmf = JointPMF(3, probs)
    _check_constraints(pmf, p, lams)
    return pmf


def _triangle_holds(a: float, b: float, c: float) -> bool:
    """1 - 1e-12 <= a + b + c <= 1 + 2*min(a, b, c) + 1e-12: the n = 3 test on
    concurrences a, b, c."""
    s = a + b + c
    return 1.0 - FEAS_TOL <= s <= 1.0 + 2.0 * min(a, b, c) + FEAS_TOL


def _sum_bound_failure(l12: float, l13: float, l23: float) -> str:
    """The n = 3 sum bound that concurrences failing the triangle test break, and by how much."""
    s = l12 + l13 + l23
    if s < 1.0:
        return f"lambda12 + lambda13 + lambda23 = {s:.6f} < 1 (short by {1.0 - s:.3g})"
    cap = 1.0 + 2.0 * min(l12, l13, l23)
    return (f"lambda12 + lambda13 + lambda23 = {s:.6f} > 1 + 2*min(lambda) = "
            f"{cap:.6f} (over by {s - cap:.3g})")


def _fair_lambdas(lam12: float, lam13: float, lam23: float) -> tuple[float, float, float]:
    return (_check_unit_interval(lam12, "lambda12"), _check_unit_interval(lam13, "lambda13"),
            _check_unit_interval(lam23, "lambda23"))


def trivariate_feasible(lam12: float, lam13: float, lam23: float) -> bool:
    """Existence test for a fair-coin triple with the given concurrences:
    1 <= lam12 + lam13 + lam23 <= 1 + 2*min(lam12, lam13, lam23)."""
    return _triangle_holds(*_fair_lambdas(lam12, lam13, lam23))


def trivariate_alpha_interval(lam12: float, lam13: float, lam23: float) -> AlphaInterval:
    """Feasible alpha = P(B = 111) range for the fair-coin triple system.

    lo = max(0, (s - m - 1)/2) and hi = min(m/2, (s - 1)/2), where s is the
    concurrence sum and m its minimum (:func:`quadrivariate_alpha_interval`
    with every l_i4 = 1/2).  ``feasible`` is the triangle test of the triple.
    """
    lams = _fair_lambdas(lam12, lam13, lam23)
    return _three_coordinate_interval((0.5,) * 3, lams, _triangle_holds(*lams))


def trivariate_pmf(lam12: float, lam13: float, lam23: float, alpha: float) -> JointPMF:
    """Fair-coin triple law with the given concurrences and P(111) = alpha.

    :func:`quadrivariate_pmf` with every l_i4 = 1/2; atoms (000, ..., 111):

        p000 = (l12 + l13 + l23 - 1)/2 - alpha     p100 = (1 - l12 - l13)/2 + alpha
        p001 = (1 - l13 - l23)/2 + alpha           p101 = l13/2 - alpha
        p010 = (1 - l12 - l23)/2 + alpha           p110 = l12/2 - alpha
        p011 = l23/2 - alpha                       p111 = alpha

    Raises :class:`InfeasibleError` naming the first negative atom when
    alpha lies outside :func:`trivariate_alpha_interval`.
    """
    return _three_coordinate_pmf((0.5,) * 3, _fair_lambdas(lam12, lam13, lam23), alpha, "p")


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
    l12, l13, l23 = _fair_lambdas(lam12, lam13, lam23)
    if not _triangle_holds(l12, l13, l23):
        raise InfeasibleError(
            f"infeasible concurrence matrix: {_sum_bound_failure(l12, l13, l23)}")
    lo2 = 0.5 * (1.0 + l13 - l23 - l12)
    hi2 = 0.5 * (1.0 + l13 + l23 - l12)

    count = 1 if size is None else int(size)
    b3 = rng.integers(0, 2, size=count)
    u = rng.random(count)
    x = np.stack([u <= l13, (u >= lo2) & (u <= hi2)], axis=1).astype(np.int64)
    out = _coin_lift(x, b3)
    if size is None:
        return tuple(int(v) for v in out[0])
    return out


def _quad_system(conc: ConcurrenceMatrix) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Marginals (l14, l24, l34) and concurrences (l12, l13, l23) of X_i = 1(B_i = B_4)."""
    if conc.n != 4:
        raise InvalidMatrixError(f"expected a 4x4 concurrence matrix, got n={conc.n}")
    e = conc.entries.tolist()
    return (e[0][3], e[1][3], e[2][3]), (e[0][1], e[0][2], e[1][2])


def _empty_interval_failure(interval: AlphaInterval) -> str:
    """An empty :func:`quadrivariate_alpha_interval`, in words."""
    return (f"alpha lower bound {interval.lo:.6f} (from 4-cycle sums) exceeds upper "
            f"bound {interval.hi:.6f} (from the minimum triangle sum) "
            f"(over by {interval.lo - interval.hi:.3g})")


def quadrivariate_alpha_interval(conc: ConcurrenceMatrix) -> AlphaInterval:
    """Feasible alpha = P(X = 111) range for the reduced 4-dimensional system.

    Bounds come directly from nonnegativity of the eight atoms of
    :func:`quadrivariate_pmf`:

        alpha <= (s_T - 1)/2   for each triangle sum s_T over {i,j,k}
        alpha >= s_C/2 - 1     for each 4-cycle sum s_C (the four entries
                               left after deleting a perfect matching)
        alpha >= 0

    It is nonempty iff the four triangles pass the n = 3 test
    (:func:`violated_principal_submatrix`), and ``feasible`` is that test.
    """
    p, lams = _quad_system(conc)
    return _three_coordinate_interval(p, lams, violated_principal_submatrix(conc) is None)


def quadrivariate_pmf(conc: ConcurrenceMatrix, alpha: float) -> JointPMF:
    """Reduced pmf over (X1, X2, X3) for a 4-dimensional fair-coin target.

    X_i = 1(B_i = B_4) has marginal Bern(l_{i4}) and concurrences l_{ij};
    with total mass and P(X = 111) = alpha these pin the eight atoms:

        q111 = alpha
        q110 = (l12 + l14 + l24 - 1)/2 - alpha    (and cyclic versions)
        q100 = 1 - (l12 + l13 + l24 + l34)/2 + alpha   (and cyclic versions)
        q000 = (l12 + l13 + l23 - 1)/2 - alpha

    Raises :class:`InfeasibleError` naming the first negative atom when
    alpha lies outside :func:`quadrivariate_alpha_interval`.
    """
    return _three_coordinate_pmf(*_quad_system(conc), alpha, "q")


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
            f"infeasible concurrence matrix: {_empty_interval_failure(interval)}")
    a = interval.midpoint if alpha is None else float(alpha)
    q = quadrivariate_pmf(conc, a)

    count = 1 if size is None else int(size)
    out = _coin_lift(q.sample(rng, count), rng.integers(0, 2, size=count))
    if size is None:
        return tuple(int(v) for v in out[0])
    return out


def quadrivariate_lifted_pmf(conc: ConcurrenceMatrix, alpha: float) -> JointPMF:
    """Full 16-atom law of (B1, ..., B4) induced by the reduced system.

    The :func:`lift` of :func:`quadrivariate_pmf`, which is exactly the law
    :func:`quadrivariate_sample` draws from, and the recipe that
    :func:`fhmix.sampler.build_plan` compiles and draws at n = 4.
    """
    pmf = lift(quadrivariate_pmf(conc, alpha))
    (l14, l24, l34), (l12, l13, l23) = _quad_system(conc)
    _check_constraints(pmf, (0.5,) * 4, (l12, l13, l14, l23, l24, l34))
    return pmf


# ---------------------------------------------------------------------------
# necessity screening for higher dimensions
# ---------------------------------------------------------------------------

def violated_principal_submatrix(conc: ConcurrenceMatrix) -> tuple[int, ...] | None:
    """First 3-subset whose principal submatrix fails its closed-form test.

    The n = 3 characterization is a necessary condition in any dimension, so
    a hit proves the full matrix infeasible.  Returns 0-based indices, or
    None when every subset passes.  The 3-subsets are tested in turn, in
    ``itertools.combinations`` order, by :func:`trivariate_feasible`'s test,
    ``_triangle_holds``.

    4-subsets need no pass of their own.  With lo = 0 the interval of
    :func:`quadrivariate_alpha_interval` is empty iff a triangle sum s_T < 1,
    the lower triangle inequality.  A 4-cycle bound s_C/2 - 1 exceeds a
    triangle bound (s_T - 1)/2 iff s_C - s_T > 1, and s_C - s_T is
    l_xw + l_yw - l_xy, where xy is the edge T shares with the matching the
    cycle leaves out and w the vertex outside T: the upper inequality of
    triangle {x, y, w} at its edge xy.  The 12 (cycle, triangle) pairs are
    the 12 (triangle, edge) pairs, so the n = 4 test is the n = 3 test of
    the four triangles.
    """
    e = conc.entries.tolist()
    for i, j, k in itertools.combinations(range(conc.n), 3):
        if not _triangle_holds(e[i][j], e[i][k], e[j][k]):
            return i, j, k
    return None
