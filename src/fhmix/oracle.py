"""Brute-force feasibility oracle over the 2^n-atom probability simplex.

``lp_feasible`` decides whether any joint law on {0,1}^n has the requested
marginal probabilities and concurrence matrix, by phase-1 simplex on the
equality system

    sum(pi) = 1,   sum_{atoms with bit i} pi = p_i,
    sum_{atoms with bit i == bit j} pi = lambda_ij,   pi >= 0.

One engine solves every call: a revised simplex that keeps A and an
explicit inverse of the m x m basis.  Each pivot prices every column with
one pass y @ [A | I] (y = c_B B^-1, the duals), forms the entering column
B^-1 a_j and updates B^-1 by a rank-1 step, which costs m^2 instead of the
m (N + m) of a full tableau.  B^-1 is refactored from the original columns
every 32 pivots (``_REFACTOR_EVERY``), and the returned solution and duals
come from a fresh factorization, so rounding does not accumulate into a
wrong verdict.  Dantzig's rule prices, and the ratio test takes the largest
pivot among the rows whose ratio is within a slack of the smallest: first
Harris's 1e-9 against b, which keeps tiny pivots out of the basis.  On a
stall, a singular basis or an end below zero (which that slack allows) the
loop runs once more from the start, with slack 0 on b plus a distinct shift
of at most 1e-11 per row, which leaves no degenerate ties (Charnes 1952,
"Optimality and degeneracy in linear programming"); its final basis is
refactored with b itself.  The mode decides how the answer is trusted:

* float   - verdicts accept a total violation up to 1e-9: the phase-1
            optimum must be within it, and the witness (as the sampler's
            lifted recipe) must meet every row within it as ``JointPMF``
            sums rows, masked in atom order; a sum in another order can
            read a few ulps past 1e-9 at the band's edge.  A plan at n >= 5
            thus follows the closed forms' 1e-12 on triangle faces, and this
            1e-9 on faces no triple sees.
* exact   - the final basis is re-solved in integer arithmetic from the
            exact inputs (Applegate, Cook, Dash & Espinoza 2007, "Exact
            solutions to linear programming problems"): either its basic
            solution is a nonnegative witness, or its dual vector is a
            Farkas certificate checked against all 2^n columns.  A basis that
            is neither raises NumericalError.  Chosen automatically when every
            input is a rational with small denominator (or any non-float
            rational).

The oracle shares only the constraint rows, and their check of a pmf, with
the closed forms it is used to check (``bernoulli_joint._constraint_system``);
``tests/helpers.pmf_residual`` stays the independent check of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bernoulli_joint import (FEAS_TOL, ConcurrenceMatrix, JointPMF, _check_constraints,
                              _constraint_system, atom_bits, atom_index)
from .errors import CapacityError, DomainError, InvalidMatrixError, NumericalError

MAX_DIMENSION = 12

#: total violation that float verdicts accept, and the Harris ratio test's relaxation
FLOAT_TOL = 1e-9
_PIVOT_TOL = 1e-11
#: the largest right-hand-side shift of the second simplex pass, on its last row
_SHIFT = 1e-11
#: auto mode uses exact arithmetic when all denominators stay below this
_EXACT_DENOM_LIMIT = 10 ** 6


@dataclass(frozen=True)
class FeasibilityWitness:
    """Verdict of :func:`lp_feasible`: a witness pmf, or none and a violation
    description.  ``max_residual`` is the witness's largest row miss (0.0 in
    exact mode); without one, the exact minimum total violation, the float
    phase-1 optimum, or, where that optimum is within 1e-9, the row miss
    above 1e-9 that rejected its witness."""

    pmf: JointPMF | None
    certificate: str | None
    max_residual: float
    mode: str

    @property
    def feasible(self) -> bool:
        return self.pmf is not None

    def __bool__(self) -> bool:
        return self.feasible


def lp_feasible(marginal_probs, conc: ConcurrenceMatrix, mode: str = "auto", *,
                marginal_names=None) -> FeasibilityWitness:
    """Decide existence of a joint law with the given marginals and concurrences.

    ``marginal_probs`` holds P(bit i = 1) for each coordinate; entries of
    ``conc`` are the pairwise agreement probabilities.  Dimensions above 12
    (4096 atoms) raise :class:`CapacityError`.  ``marginal_names`` relabels
    the marginal rows in a certificate (default "marginal i"), for a caller
    whose marginals stand for other constraints.
    """
    probs = list(marginal_probs)
    n = len(probs)
    if n != conc.n:
        raise InvalidMatrixError(
            f"{n} marginal probabilities for a {conc.n}x{conc.n} concurrence matrix"
        )
    if n > MAX_DIMENSION:
        raise CapacityError(
            f"n={n} exceeds the oracle bound {MAX_DIMENSION} (2^n atoms get too large)"
        )
    for i, p in enumerate(probs):
        if not 0 <= p <= 1:
            raise DomainError(f"marginal probability {i + 1} = {p} not in [0, 1]")

    rhs_values = [1] + probs + [conc.entry(i, j) for i in range(n) for j in range(i + 1, n)]
    if mode not in ("auto", "exact", "float"):
        raise DomainError(f"unknown mode {mode!r}")
    use_exact = mode == "exact" or (mode == "auto" and _all_small_rationals(rhs_values))

    A, names = _constraint_system(n)
    if marginal_names is not None:
        names = (names[0], *marginal_names, *names[n + 1:])
    b = np.array([float(v) for v in rhs_values])
    value, x, y, basis = _phase1_float(A, b)
    if use_exact:
        return _certify(A, [_to_fraction(v) for v in rhs_values], basis, names, n)
    why = f"minimum total violation {value:.6g}"
    if value <= FLOAT_TOL:
        probs = np.clip(x, 0.0, None)
        probs /= probs.sum()
        pmf = JointPMF(n, probs)
        # rounding may put a row just past FLOAT_TOL; a larger miss is a fault
        residual = _check_constraints(pmf, b[1:n + 1], b[n + 1:], FLOAT_TOL + 16 * FEAS_TOL)
        if residual <= FLOAT_TOL:
            return FeasibilityWitness(pmf, None, residual, "float")
        value, why = residual, f"the witness misses a row by {residual!r} > {FLOAT_TOL:g}"
    return FeasibilityWitness(None, _certificate(why, y, names), value, "float")


def pushforward(pmf: JointPMF, atom_map) -> JointPMF:
    """Exact image of ``pmf`` under a total map on atoms.

    ``atom_map`` takes a bit tuple and returns a bit tuple (all outputs must
    share one length, which fixes the result dimension).
    """
    images = [tuple(int(b) for b in atom_map(atom_bits(k, pmf.n))) for k in range(2 ** pmf.n)]
    m = len(images[0])
    if any(len(img) != m for img in images):
        raise DomainError("atom map must produce bit tuples of one common length")
    bad = [b for img in images for b in img if b not in (0, 1)]
    if bad:
        raise DomainError(f"atom map produced non-bit value {bad[0]!r}")
    out = np.zeros(2 ** m)
    for k, img in enumerate(images):
        out[atom_index(img)] += pmf.probs[k]
    return JointPMF(m, out)


def _all_small_rationals(values) -> bool:
    for v in values:
        if isinstance(v, float) and Fraction(v).denominator > _EXACT_DENOM_LIMIT:
            return False
    return True


# ---------------------------------------------------------------------------
# float simplex
# ---------------------------------------------------------------------------

#: pivots between refactorizations of the basis inverse from the original columns
_REFACTOR_EVERY = 32


@dataclass
class _Phase1:
    """Revised-simplex state over the columns [A | I] with costs c (0 on
    atoms, 1 on artificials).  T is [B^-1 | x_B] for the basis B, with
    x_B = B^-1 b; cb holds the costs of the basic columns."""

    AI: np.ndarray
    c: np.ndarray
    Ib: np.ndarray  # [I | b], b perhaps shifted
    T: np.ndarray
    cb: np.ndarray
    since: int = 0  # pivots since T was refactored


def _phase1_float(A: np.ndarray,
                  b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, list[int]]:
    """Minimize total artificial slack; returns (optimum, atom vector, duals, basis).

    Basis entries index the columns of [A | I]: k < N is atom k, k >= N is
    the artificial of row k - N.  The returned values come from a basis
    inverse refactored from the original columns.
    """
    m, N = A.shape
    AI = np.hstack((A, np.eye(m)))
    c = np.concatenate((np.zeros(N), np.ones(m)))
    Ib = np.column_stack((np.eye(m), b))
    shifted = np.column_stack((np.eye(m), b + _SHIFT * np.arange(1, m + 1) / m))
    for slack, rhs in ((FLOAT_TOL, Ib), (0.0, shifted)):
        # the periodic refactorizations keep [I | rhs]; the final one reads b
        state = _Phase1(AI, c, rhs, rhs.copy(), np.ones(m))
        basis = list(range(N, N + m))
        try:
            if _simplex_iterate(state, basis, slack, 60 * (m + 2)):
                state.Ib = Ib
                _refactor(state, basis)
                # a Harris end with x_B < 0 is a numerical failure
                if slack == 0.0 or state.T[:, m].min() >= -_PIVOT_TOL:
                    break
        except NumericalError:
            if slack == 0.0:
                raise
    else:
        raise NumericalError("phase-1 simplex failed to terminate")

    x = np.zeros(N)
    for row, col in enumerate(basis):
        if col < N:
            x[col] = state.T[row, m]
    yv = state.cb @ state.T
    return float(yv[m]), x, yv[:m], basis


def _simplex_iterate(state: _Phase1, basis: list[int], slack: float, max_iter: int) -> bool:
    m = len(basis)
    for _ in range(max_iter):
        if state.since == _REFACTOR_EVERY:
            _refactor(state, basis)
        yv = state.cb @ state.T  # duals, then the objective
        if yv[m] <= _PIVOT_TOL:  # a zero objective is optimal; later pivots are degenerate
            return True
        red = state.c - yv[:m] @ state.AI
        j = int(red.argmin())
        if red[j] >= -_PIVOT_TOL:
            return True
        alpha = state.T[:, :m] @ state.AI[:, j]
        pos = np.nonzero(alpha > _PIVOT_TOL)[0]
        if pos.size == 0:
            raise NumericalError("phase-1 simplex reports an unbounded column")
        col, xb = alpha[pos], state.T[pos, m]
        # the largest pivot among the rows within the slack of the least ratio
        within = xb / col <= ((xb + slack) / col).min()
        r = int(pos[within][col[within].argmax()])
        # rank-1 update of [B^-1 | x_B] for column j entering at row r
        row = state.T[r] / alpha[r]
        state.T -= alpha[:, None] * row
        state.T[r] = row
        state.cb[r] = state.c[j]
        state.since += 1
        basis[r] = j
    return False


def _refactor(state: _Phase1, basis: list[int]) -> None:
    """Recompute [B^-1 | x_B] from the original basis columns."""
    try:
        state.T = np.linalg.solve(state.AI[:, basis], state.Ib)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"phase-1 simplex basis is singular: {exc}") from exc
    state.since = 0


# ---------------------------------------------------------------------------
# rational certification of the final basis
# ---------------------------------------------------------------------------

def _certify(A: np.ndarray, b: list[Fraction], basis: list[int], names,
             n: int) -> FeasibilityWitness:
    """Exact verdict from the basis the float simplex stopped at.

    With B the basis columns of [A | I] and c the phase-1 costs (0 on atoms,
    1 on artificials): if B x_B = b is nonnegative with every artificial at
    zero, x is an exact witness.  Otherwise y solving B^T y = c_B proves
    infeasibility when y <= 1, A^T y <= 0 on every atom and b^T y > 0 (any
    witness pi would give b^T y = pi^T A^T y <= 0).  b^T y is then a lower
    bound on the minimum total violation, and equal to it when x_B >= 0.
    """
    m, N = A.shape
    scale = math.lcm(*(v.denominator for v in b))
    b_int = [v.numerator * (scale // v.denominator) for v in b]
    # cols[r] is basis column r; as rows they form B^T
    cols = [A[:, k].astype(np.int64).tolist() if k < N else [int(i == k - N) for i in range(m)]
            for k in basis]

    solved = _integer_solve([list(row) for row in zip(*cols)], b_int)
    if solved is None:
        raise NumericalError("final simplex basis is singular in exact arithmetic")
    num, det = solved
    if all(v * det >= 0 for v in num) and not any(v for v, k in zip(num, basis) if k >= N):
        x = np.zeros(N)
        for v, k in zip(num, basis):
            if k < N:
                x[k] = float(Fraction(v, det * scale))
        return FeasibilityWitness(JointPMF(n, x), None, 0.0, "exact")

    # y = num / det, with det > 0 after the sign flip
    num, det = _integer_solve(cols, [int(k >= N) for k in basis])
    if det < 0:
        num, det = [-v for v in num], -det
    violation = Fraction(sum(bi * yi for bi, yi in zip(b_int, num)), det * scale)
    if (violation > 0 and max(num) <= det
            and (A.T.astype(np.int64) @ np.array(num, dtype=object) <= 0).all()):
        y = np.array([float(Fraction(v, det)) for v in num])
        why = f"minimum total violation {float(violation):.6g}"
        return FeasibilityWitness(None, _certificate(why, y, names), float(violation), "exact")
    raise NumericalError(
        "final simplex basis certifies neither a witness nor infeasibility in exact arithmetic"
    )


def _integer_solve(M: list[list[int]], rhs: list[int]) -> tuple[list[int], int] | None:
    """Solve M z = rhs over the rationals; returns (num, det) with z = num / det.

    Fraction-free Gauss-Jordan elimination (Bareiss): every division is
    exact, so entries stay integers, and at the end each diagonal entry is
    det, the determinant of M up to sign.  Returns None when M is singular.
    """
    rows = [row + [v] for row, v in zip(M, rhs)]
    m = len(rows)
    prev = 1
    for k in range(m):
        p = next((i for i in range(k, m) if rows[i][k]), None)
        if p is None:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        piv = rows[k]
        d = piv[k]
        for i in range(m):
            if i != k:
                f = rows[i][k]
                rows[i] = [(d * a - f * c) // prev for a, c in zip(rows[i], piv)]
        prev = d
    return [row[m] for row in rows], prev


def _to_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    return Fraction(float(v))


def _certificate(why: str, y: np.ndarray, names) -> str:
    """Human-readable Farkas-style description of an infeasible system;
    ``why`` states the number that decided the verdict."""
    weights = sorted(
        ((abs(w), name, w) for w, name in zip(y, names) if abs(w) > 1e-9),
        reverse=True,
    )
    combo = ", ".join(f"{w:+.4g} x [{name}]" for _, name, w in weights[:6])
    return (
        f"no distribution satisfies the constraints; {why}. Certificate combination: {combo}"
    )
