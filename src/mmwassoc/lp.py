"""Dense bounded-variable simplex for small assignment-style LPs.

Solves   max c^T x   s.t.  A x <= b,  0 <= x <= u
with b >= 0 componentwise, so the all-slack basis is feasible and a
single phase suffices.  Nonbasic variables sit at one of their bounds.
Entering variables are priced by steepest reduced cost (Dantzig) while
the iteration makes progress; after a run of degenerate pivots the rule
switches to Bland's smallest index, whose anti-cycling guarantee makes
termination certain on the highly degenerate assignment polytopes this
package produces.  The returned point is a basic feasible solution,
i.e. a vertex of the feasible polytope.

The tableau is stored dense, but a pivot works only on the entering
column's support, the rows where that column is nonzero (a handful on a
cell LP, dozens at 9 BSs x 100 UEs).  The ratio test and the update of
the basic values loop over those rows alone.  Any other row has a zero
entry, so its ratio is infinite and its value would move by t * (+-0.0),
which leaves a nonzero value as it is; a -0.0 value can come only from
b and sit only on a slack, and neither max(0.0, v) nor x shows its
sign.  The pivot row is divided in place, and each support row and the
reduced-cost row subtract its multiple as one in-place
``row -= row[j] * pivot_row`` on a contiguous row.  Every entry, reduced
cost and basic value therefore gets the same float operations in the
same order as a full rank-one update, and the iterates are the same bit
for bit.  Where the pivot row is zero an entry becomes x - (+-0.0) == x:
at most the sign of a zero changes, and no comparison reads it.  A basic
column's reduced cost is exactly 0.0 (the divided pivot entry is exactly
1.0, so c - c * 1.0 == 0.0, and later pivots subtract exact zeros from
it), so pricing needs no basis mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Reduced-cost / pivot-element significance thresholds.
_RC_TOL = 1e-9
_PIV_TOL = 1e-11
# Ratios within this of the minimum tie; Bland's smallest basic index
# breaks the tie, so rounding noise in a ratio cannot pick the row.
_RATIO_TIE = 1e-12
# A step no longer than this is degenerate; _STALL_LIMIT of them in a row
# switch pricing to Bland's rule.
_DEGENERATE_STEP = 1e-12
# Largest bound violation tolerated in the final point before clipping.
_FEAS_TOL = 1e-7
# Degenerate pivots in a row before falling back to Bland's rule.
_STALL_LIMIT = 40
_MAX_PIVOTS = 200_000  # pivot cap; beyond it the solve raises SimplexError


class SimplexError(RuntimeError):
    pass


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    objective: float
    iterations: int


def solve_lp_max(objective, a_ub, b_ub, upper) -> LpSolution:
    """Maximize objective @ x subject to a_ub @ x <= b_ub, 0 <= x <= upper."""
    c = np.asarray(objective, dtype=float)
    a = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    ub_struct = np.asarray(upper, dtype=float)
    n = c.size
    m = b.size

    if n == 0:
        return LpSolution(x=np.zeros(0), objective=0.0, iterations=0)
    if a.shape != (m, n):
        raise ValueError(f"constraint matrix shape {a.shape} != ({m}, {n})")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("objective, a_ub and b_ub must be finite")
    if np.any(b < 0):
        raise ValueError("b_ub must be >= 0 (all-zeros must be feasible)")
    if np.any(ub_struct <= 0) or not np.all(np.isfinite(ub_struct)):
        raise ValueError("upper bounds must be finite and > 0")
    if m == 0:
        x = np.where(c > 0, ub_struct, 0.0)
        return LpSolution(x=x, objective=float(c @ x), iterations=0)

    total = n + m
    tableau = np.zeros((m, total))
    tableau[:, :n] = a
    np.fill_diagonal(tableau[:, n:], 1.0)
    values = b.tolist()  # current basic-variable values
    obj_row = np.concatenate([c, np.zeros(m)])  # reduced costs
    ub = ub_struct.tolist() + [math.inf] * m
    basis = list(range(n, total))
    ub_basic = [math.inf] * m  # ub[basis]
    at_upper = np.zeros(total, dtype=bool)

    iterations = 0
    stall = 0
    while True:
        # Improvement per unit step; exactly 0.0 for basic columns.
        gain = np.where(at_upper, -obj_row, obj_row)
        j = int(gain.argmax())  # Dantzig
        if gain[j] <= _RC_TOL:
            break
        if iterations >= _MAX_PIVOTS:
            raise SimplexError(f"simplex did not converge within {_MAX_PIVOTS} pivots")
        iterations += 1
        if stall >= _STALL_LIMIT:
            j = int((gain > _RC_TOL).argmax())  # Bland: smallest index enters
        sign = -1.0 if at_upper[j] else 1.0
        support = np.flatnonzero(tableau[:, j])
        col = (sign * tableau[support, j]).tolist()
        support = support.tolist()

        # Ratio test: basic value i moves as values[i] - t * col[i], down
        # toward 0 or up toward its bound (an infinite bound gives inf).
        # Rows off the support, or inside the _PIV_TOL band, never block.
        # max(0.0, v) is +0.0 for v == -0.0, as np.maximum(v, 0.0) is.
        ratios = [
            max(0.0, values[i]) / ci if ci > _PIV_TOL
            else (ub_basic[i] - values[i]) / -ci if ci < -_PIV_TOL
            else math.inf
            for i, ci in zip(support, col)
        ]
        r_min = min(ratios, default=math.inf)
        t_flip = ub[j]  # entering variable flips to its other bound
        t_star = min(t_flip, r_min)
        if not math.isfinite(t_star):
            raise SimplexError("LP is unbounded")
        stall = stall + 1 if t_star <= _DEGENERATE_STEP else 0

        for i, ci in zip(support, col):
            values[i] -= t_star * ci
        if t_flip <= r_min:
            # Bound flip: entering variable jumps to its other bound.
            at_upper[j] = ~at_upper[j]
            continue

        # Bland: among rows achieving the min ratio, smallest basic index leaves.
        window = t_star + _RATIO_TIE
        r = min((i for i, ratio in zip(support, ratios) if ratio <= window), key=basis.__getitem__)
        leaving = basis[r]
        values[r] = (ub[j] if at_upper[j] else 0.0) + sign * t_star

        piv = tableau[r, j]
        if abs(piv) < _PIV_TOL:
            raise SimplexError("numerically singular pivot")
        leaves_at_upper = sign * piv < 0
        pivot_row = tableau[r]
        pivot_row /= piv
        for i in support:
            if i != r:
                row = tableau[i]
                row -= row[j] * pivot_row
        obj_row -= obj_row[j] * pivot_row

        basis[r] = j
        ub_basic[r] = ub[j]
        at_upper[j] = False
        at_upper[leaving] = leaves_at_upper

    x_full = np.where(at_upper, ub, 0.0)
    x_full[~np.isfinite(x_full)] = 0.0
    x_full[basis] = values
    x_struct = x_full[:n]
    if np.any(x_struct < -_FEAS_TOL) or np.any(x_struct > ub_struct + _FEAS_TOL):
        raise SimplexError("final point violates its bounds beyond tolerance")
    x_struct = np.clip(x_struct, 0.0, ub_struct)
    return LpSolution(x=x_struct, objective=float(c @ x_struct), iterations=iterations)
