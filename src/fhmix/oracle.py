"""Brute-force feasibility oracle over the 2^n-atom probability simplex.

``lp_feasible`` decides whether any joint law on {0,1}^n has the requested
marginal probabilities and concurrence matrix, by phase-1 simplex on the
equality system

    sum(pi) = 1,   sum_{atoms with bit i} pi = p_i,
    sum_{atoms with bit i == bit j} pi = lambda_ij,   pi >= 0.

One engine solves every call: a numpy tableau with Dantzig's rule and a
Bland's-rule restart.  The mode decides how its answer is trusted:

* float   - the phase-1 optimum is compared against 1e-9 and any witness is
            re-verified against the constraints at that tolerance.
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

from .bernoulli_joint import (ConcurrenceMatrix, JointPMF, _check_constraints,
                              _constraint_system, atom_bits)
from .errors import CapacityError, DomainError, InvalidMatrixError, NumericalError

MAX_DIMENSION = 12

#: residual tolerance for float verdicts and witness re-verification
FLOAT_TOL = 1e-9
_PIVOT_TOL = 1e-11
#: auto mode uses exact arithmetic when all denominators stay below this
_EXACT_DENOM_LIMIT = 10 ** 6


@dataclass(frozen=True)
class FeasibilityWitness:
    """Verdict of :func:`lp_feasible`: a witness pmf, or none and a violation
    description."""

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
    if n < 1:
        raise DomainError("need at least one coordinate")
    if n > MAX_DIMENSION:
        raise CapacityError(
            f"n={n} exceeds the oracle bound {MAX_DIMENSION} (2^n atoms get too large)"
        )
    for i, p in enumerate(probs):
        if not 0 <= p <= 1:
            raise DomainError(f"marginal probability {i + 1} = {p!r} not in [0, 1]")

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
    if value <= FLOAT_TOL:
        probs = np.clip(x, 0.0, None)
        probs /= probs.sum()
        pmf = JointPMF(n, probs)
        residual = _check_constraints(pmf, b[1:n + 1], b[n + 1:], FLOAT_TOL)
        return FeasibilityWitness(pmf, None, residual, "float")
    return FeasibilityWitness(None, _certificate(value, y, names), value, "float")


def pushforward(pmf: JointPMF, atom_map) -> JointPMF:
    """Exact image of ``pmf`` under a total map on atoms.

    ``atom_map`` takes a bit tuple and returns a bit tuple (all outputs must
    share one length, which fixes the result dimension).
    """
    images = [tuple(int(b) for b in atom_map(atom_bits(k, pmf.n))) for k in range(2 ** pmf.n)]
    m = len(images[0])
    if any(len(img) != m for img in images):
        raise DomainError("atom map must produce bit tuples of one common length")
    out = np.zeros(2 ** m)
    for k, img in enumerate(images):
        idx = 0
        for b in img:
            if b not in (0, 1):
                raise DomainError(f"atom map produced non-bit value {b!r}")
            idx = (idx << 1) | b
        out[idx] += pmf.probs[k]
    return JointPMF(m, out)


def _all_small_rationals(values) -> bool:
    for v in values:
        if isinstance(v, float) and Fraction(v).denominator > _EXACT_DENOM_LIMIT:
            return False
    return True


# ---------------------------------------------------------------------------
# float simplex
# ---------------------------------------------------------------------------

def _phase1_float(A: np.ndarray,
                  b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, list[int]]:
    """Minimize total artificial slack; returns (optimum, atom vector, duals, basis).

    Basis entries index the columns of [A | I]: k < N is atom k, k >= N is
    the artificial of row k - N.
    """
    m, N = A.shape
    T = np.zeros((m + 1, N + m + 1))
    # Dantzig's rule first; on a rare stall or cycle, restart with Bland's
    # rule, which terminates
    for bland, max_iter in ((False, 60 * (m + 2)), (True, 500 * (N + m))):
        T[:m, :N] = A
        T[:m, N:N + m] = np.eye(m)
        T[:m, -1] = b
        # reduced-cost row under the artificial basis (price vector all ones)
        T[m, :] = 0.0
        T[m, :N] = -A.sum(axis=0)
        T[m, -1] = -b.sum()
        basis = list(range(N, N + m))
        if _simplex_iterate(T, basis, bland, max_iter):
            break
    else:
        raise NumericalError("phase-1 simplex failed to terminate")

    value = -T[m, -1]
    x = np.zeros(N)
    for row, col in enumerate(basis):
        if col < N:
            x[col] = T[row, -1]
    y = 1.0 - T[m, N:N + m]
    return value, x, y, basis


def _simplex_iterate(T: np.ndarray, basis: list[int], bland: bool, max_iter: int) -> bool:
    m = T.shape[0] - 1
    for _ in range(max_iter):
        if T[m, -1] >= -_PIVOT_TOL:  # a zero objective is optimal; later pivots are degenerate
            return True
        red = T[m, :-1]
        if bland:
            neg = np.nonzero(red < -_PIVOT_TOL)[0]
            if neg.size == 0:
                return True
            j = int(neg[0])
        else:
            j = int(red.argmin())
            if red[j] >= -_PIVOT_TOL:
                return True
        col = T[:m, j]
        pos = np.nonzero(col > _PIVOT_TOL)[0]
        if pos.size == 0:
            raise NumericalError("phase-1 simplex reports an unbounded column")
        ratios = T[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(min(ties, key=lambda k: basis[k]))
        _pivot(T, r, j)
        basis[r] = j
    return False


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    pr = T[r] / T[r, j]
    factor = T[:, j].copy()
    T -= np.outer(factor, pr)
    T[r] = pr


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
        return FeasibilityWitness(None, _certificate(float(violation), y, names),
                                  float(violation), "exact")
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


def _certificate(violation: float, y: np.ndarray, names) -> str:
    """Human-readable Farkas-style description of an infeasible system."""
    weights = sorted(
        ((abs(w), name, w) for w, name in zip(y, names) if abs(w) > 1e-9),
        reverse=True,
    )
    combo = ", ".join(f"{w:+.4g} x [{name}]" for _, name, w in weights[:6])
    return (
        f"no distribution satisfies the constraints; minimum total violation "
        f"{violation:.6g}. Certificate combination: {combo}"
    )
