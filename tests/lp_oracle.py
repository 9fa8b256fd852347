"""Eager dense bounded-variable simplex, the test oracle for lp.solve_lp_max.

`mmwassoc.lp.solve_lp_max` defers each pivot's row updates to the rows
that pivot later and rebuilds an entering column from the recorded
pivots.  This is the simplex it replaced, kept verbatim: after each
pivot it subtracts the pivot row from every row of the entering
column's support at once.  Both do the same float operations on every
entry either one reads, so the tests require equal pivot counts,
objectives and x bytes from the two.

The oracle takes its constraint matrix dense, as the reference;
`lp.solve_lp_max` takes only SparseRows, and `sparse_rows` turns a
densely written test LP into them.
"""

from __future__ import annotations

import math

import numpy as np

from mmwassoc.lp import _MAX_PIVOTS, _STALL_LIMIT, LpSolution, SimplexError, SparseRows
from mmwassoc.tolerances import DEGENERATE_STEP, FEAS_TOL, PIV_TOL, RATIO_TIE, RC_TOL


def sparse_rows(a) -> SparseRows:
    """The triplets of the entries of a that are not +0.0: -0.0, NaN and inf are kept."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = ((a != 0.0) | np.signbit(a)).nonzero()
    return SparseRows(rows, cols, a[rows, cols], a.shape)


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
        if gain[j] <= RC_TOL:
            break
        if iterations >= _MAX_PIVOTS:
            raise SimplexError(f"simplex did not converge within {_MAX_PIVOTS} pivots")
        iterations += 1
        if stall >= _STALL_LIMIT:
            j = int((gain > RC_TOL).argmax())  # Bland: smallest index enters
        sign = -1.0 if at_upper[j] else 1.0
        support = np.flatnonzero(tableau[:, j])
        col = (sign * tableau[support, j]).tolist()
        support = support.tolist()

        # Ratio test: basic value i moves as values[i] - t * col[i], down
        # toward 0 or up toward its bound (an infinite bound gives inf).
        # Rows off the support, or inside the PIV_TOL band, never block.
        # max(0.0, v) is +0.0 for v == -0.0, as np.maximum(v, 0.0) is.
        ratios = [
            max(0.0, values[i]) / ci if ci > PIV_TOL
            else (ub_basic[i] - values[i]) / -ci if ci < -PIV_TOL
            else math.inf
            for i, ci in zip(support, col)
        ]
        r_min = min(ratios, default=math.inf)
        t_flip = ub[j]  # entering variable flips to its other bound
        t_star = min(t_flip, r_min)
        if not math.isfinite(t_star):
            raise SimplexError("LP is unbounded")
        stall = stall + 1 if t_star <= DEGENERATE_STEP else 0

        for i, ci in zip(support, col):
            values[i] -= t_star * ci
        if t_flip <= r_min:
            # Bound flip: entering variable jumps to its other bound.
            at_upper[j] = ~at_upper[j]
            continue

        # Bland: among rows achieving the min ratio, smallest basic index leaves.
        window = t_star + RATIO_TIE
        r = min((i for i, ratio in zip(support, ratios) if ratio <= window), key=basis.__getitem__)
        leaving = basis[r]
        values[r] = (ub[j] if at_upper[j] else 0.0) + sign * t_star

        piv = tableau[r, j]
        if abs(piv) < PIV_TOL:
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
    if np.any(x_struct < -FEAS_TOL) or np.any(x_struct > ub_struct + FEAS_TOL):
        raise SimplexError("final point violates its bounds beyond tolerance")
    x_struct = np.clip(x_struct, 0.0, ub_struct)
    return LpSolution(x=x_struct, objective=float(c @ x_struct), iterations=iterations)
