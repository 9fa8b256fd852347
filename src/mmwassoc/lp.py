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

Input form.  A comes as SparseRows, the (row, column, value) triplets
of its listed entries; any other a_ub raises TypeError before any other
work.  The tableau is zero-filled once and the triplets are scattered
into it, and only their values are checked for finiteness: no dense A
is built, scanned or copied (the step-1 rows are 2.7 % nonzero on a
full.cfg cell, 0.9 % at 9 BSs x 100 UEs).  An entry left out is +0.0,
and a listed -0.0 (5f's -c / r_u where c == 0) is scattered as -0.0,
so the tableau is np.asarray(A) bit for bit.

Empty inputs take the general path, and every input is checked
whatever its size: the shapes, the finiteness of c, A and b, b >= 0 and
0 < upper < inf.  With no columns the loop prices none and returns an
empty x, objective 0.0 and 0 iterations.  Only a problem without rows
returns early, at the box optimum with 0 iterations: with no columns
either, the loop would have nothing to price.

Row updates are deferred to the rows that pivot, in the manner of the
product form of the inverse (Dantzig & Orchard-Hays, 1954).  Pivot p is
recorded as its divided pivot row and as row p of the multiplier matrix
mults, the entering column with the pivot row's entry zeroed.  Tableau
row i holds row i as it stood after it last pivoted (at first, the input
row); its pending records are the nonzeros of column i of mults, each
zeroed once applied.  Only two kinds of tableau entries are read:
  * the entering column, rebuilt at each pivot from the rows' stored
    entries by replaying, in pivot order, the records whose pivot row is
    nonzero in that column; the ratio test and the update of the basic
    values then loop over its support, the rows where it is nonzero;
  * a whole row when it becomes the pivot row: it first applies its
    pending records in pivot order, each as an in-place
    ``row -= multiplier * record_row`` through one scratch row, and is
    then divided by the pivot and recorded.
The reduced-cost row is updated eagerly at every pivot.  On a full.cfg
cell only about one row update in six lands on a row that pivots again,
so most updates are never made.

Why the iterates are those of an eager simplex bit for bit.  An eager
pivot subtracts multiplier * pivot_row from every row of the entering
column's support (tests/lp_oracle.py keeps that simplex).  Every entry
read here gets the same subtractions with the same operands in the same
order.  The only operations skipped subtract a product with a zero
factor: a record whose pivot row is zero in the entering column, or
whose multiplier is zero at the row (the row was off that pivot's
support, or has applied the record already).  x - (+-0.0) == x for any
nonzero x, so skipping one changes at most the sign of a zero entry,
and no comparison reads that sign: supports, ratios and pivots use
nonzero entries only, a product with a zero is a zero of either sign,
and argmax and the tolerance tests compare -0.0 equal to 0.0.  A basic
value off the support would move by t * (+-0.0), which leaves a nonzero
value as it is; a -0.0 value can come only from b and sit only on a
slack, and neither max(0.0, v) nor x shows its sign.  A basic column's
reduced cost is exactly 0.0 (the divided pivot entry is exactly 1.0, so
c - c * 1.0 == 0.0, and later pivots subtract exact zeros from it), so
pricing needs no basis mask.

Storage.  Record rows are written once and never moved or copied.  The
first m share one allocation with the tableau (rows m..2m-1 of it);
records past them go to blocks of doubling size, and only the m-column
mults doubles by copy.  Unwritten record rows stay uninitialised and
cost no memory, so a solve with at most m pivots makes one large
allocation, as the eager simplex did, and touches only the rows it writes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .tolerances import DEGENERATE_STEP, FEAS_TOL, PIV_TOL, RATIO_TIE, RC_TOL

# Degenerate pivots in a row before falling back to Bland's rule.
_STALL_LIMIT = 40
_MAX_PIVOTS = 200_000  # pivot cap; beyond it the solve raises SimplexError


class SimplexError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class SparseRows:
    """An m x n constraint matrix as (row, column, value) triplets.

    Unlisted entries are +0.0.  No position may be listed twice: not
    checked; the producers in this package are tested for it.  The row
    and column indices are integer arrays: a float or boolean one is
    rejected, since it cannot index, or would index as a mask.
    np.asarray densifies it, so readers of dense rows take it as they are.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        m, n = (operator.index(k) for k in self.shape)
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        values = np.asarray(self.values, dtype=float)
        if not (rows.ndim == 1 and rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols and values must be 1-D and of one length")
        if rows.size and not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
            raise ValueError("rows and cols must be integer arrays")
        inside = 0 <= rows.min(initial=0) and rows.max(initial=-1) < m
        if not (inside and 0 <= cols.min(initial=0) and cols.max(initial=-1) < n):
            raise ValueError(f"a triplet index lies outside shape ({m}, {n})")
        for name, value in (("rows", rows), ("cols", cols), ("values", values), ("shape", (m, n))):
            object.__setattr__(self, name, value)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("densifying SparseRows always makes a new array")
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.values
        return a if dtype is None else a.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class LpSolution:
    x: np.ndarray
    objective: float
    iterations: int


def store_bytes(m: int, n: int) -> int:
    """Bytes of solve_lp_max's store for m rows and n columns: the tableau
    and the first m pivot records, 2m x (n + m) float64."""
    return 8 * 2 * m * (n + m)


def solve_lp_max(objective, a_ub, b_ub, upper) -> LpSolution:
    """Maximize objective @ x subject to a_ub @ x <= b_ub, 0 <= x <= upper.

    a_ub is a SparseRows: the triplets of A's listed entries.
    """
    if not isinstance(a_ub, SparseRows):
        raise TypeError(f"a_ub must be a SparseRows, not {type(a_ub).__name__}")
    c = np.asarray(objective, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    ub_struct = np.asarray(upper, dtype=float)
    n = c.size
    m = b.size

    if ub_struct.shape != (n,):
        raise ValueError(f"upper bounds shape {ub_struct.shape} != ({n},)")
    if a_ub.shape != (m, n):
        raise ValueError(f"constraint matrix shape {a_ub.shape} != ({m}, {n})")
    if not (np.isfinite(c).all() and np.isfinite(a_ub.values).all() and np.isfinite(b).all()):
        raise ValueError("objective, a_ub and b_ub must be finite")
    if not (b >= 0).all():
        raise ValueError("b_ub must be >= 0 (all-zeros must be feasible)")
    if not ((ub_struct > 0) & np.isfinite(ub_struct)).all():
        raise ValueError("upper bounds must be finite and > 0")
    if m == 0:
        x = np.where(c > 0, ub_struct, 0.0)
        return LpSolution(x=x, objective=float(c @ x), iterations=0)

    total = n + m
    # Rows 0..m-1 hold the tableau; rows m..2m-1 the first m pivot records,
    # in the same allocation (see the module docstring), store_bytes(m, n).
    store = np.empty((2 * m, total))
    tableau = store[:m]
    # One zero fill, then the triplets and the slack identity by flat index.
    flat = tableau.reshape(-1)
    flat.fill(0.0)
    flat[a_ub.rows * total + a_ub.cols] = a_ub.values
    flat[n :: total + 1] = 1.0
    blocks = [store[m:]]  # record rows, in blocks of doubling size
    pivot_rows = []  # record p: the divided pivot row
    mults = np.empty((m, m))  # row p: record p's entering column, zero where applied
    values = b.tolist()  # current basic-variable values
    obj_row = np.concatenate([c, np.zeros(m)])  # reduced costs
    ub = ub_struct.tolist() + [math.inf] * m
    basis = list(range(n, total))
    sign_of = np.ones(total)  # -1.0 where a nonbasic variable sits at its upper bound
    gain = np.empty(total)
    scratch = np.empty(total)
    col_scratch = np.empty(m)

    iterations = 0
    stall = 0
    while True:
        # Improvement per unit step; exactly 0.0 for basic columns.
        np.multiply(obj_row, sign_of, out=gain)
        j = int(gain.argmax())  # Dantzig
        if gain[j] <= RC_TOL:
            break
        if iterations >= _MAX_PIVOTS:
            raise SimplexError(f"simplex did not converge within {_MAX_PIVOTS} pivots")
        iterations += 1
        if stall >= _STALL_LIMIT:
            j = int((gain > RC_TOL).argmax())  # Bland: smallest index enters
        sign = -1.0 if sign_of[j] < 0 else 1.0

        # Entering column: the stored entries, then, in pivot order, each
        # record whose pivot row is nonzero at j.
        records = len(pivot_rows)
        column = tableau[:, j].copy()
        start = 0
        for block in blocks:
            part = block[: records - start, j]
            for p in part.nonzero()[0].tolist():
                np.multiply(mults[start + p], part[p], out=col_scratch)
                column -= col_scratch
            start += len(block)
        support = column.nonzero()[0]
        col = column[support].tolist()
        if sign < 0:
            col = [-ci for ci in col]
        support = support.tolist()

        # Ratio test: basic value i moves as values[i] - t * col[i], down
        # toward 0 or up toward its bound (an infinite bound gives inf).
        # Rows off the support, or inside the PIV_TOL band, never block.
        # max(0.0, v) is +0.0 for v == -0.0, as np.maximum(v, 0.0) is.
        ratios = [
            max(0.0, values[i]) / ci if ci > PIV_TOL
            else (ub[basis[i]] - values[i]) / -ci if ci < -PIV_TOL
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
            sign_of[j] = -sign
            continue

        # Bland: among rows achieving the min ratio, smallest basic index leaves.
        window = t_star + RATIO_TIE
        r = min((i for i, ratio in zip(support, ratios) if ratio <= window), key=basis.__getitem__)
        leaving = basis[r]
        values[r] = (ub[j] if sign < 0 else 0.0) + sign * t_star

        piv = column[r]
        if abs(piv) < PIV_TOL:
            raise SimplexError("numerically singular pivot")
        leaves_at_upper = sign * piv < 0

        # Row r catches up on its pending records, the nonzeros of its
        # column of mults, in pivot order, and becomes record `records`.
        pivot_row = tableau[r]
        due = mults[:records, r]
        for p in due.nonzero()[0].tolist():
            np.multiply(pivot_rows[p], due[p], out=scratch)
            pivot_row -= scratch
            due[p] = 0.0
        pivot_row /= piv
        if records == len(mults):  # full: double the capacity
            blocks.append(np.empty((records, total)))
            mults = np.concatenate([mults, np.empty_like(mults)])
        slot = blocks[-1][records - len(mults)]  # the last block ends at len(mults)
        slot[:] = pivot_row
        pivot_rows.append(slot)
        column[r] = 0.0
        mults[records] = column
        np.multiply(pivot_row, obj_row[j], out=scratch)
        obj_row -= scratch

        basis[r] = j
        sign_of[j] = 1.0
        sign_of[leaving] = -1.0 if leaves_at_upper else 1.0

    # Nonbasic variables sit at a bound; a slack only ever at 0, since its
    # upper bound is infinite: it can neither flip nor leave at it.
    x_full = np.zeros(total)
    x_full[:n] = np.where(sign_of[:n] < 0, ub_struct, 0.0)
    x_full[basis] = values
    x_struct = x_full[:n]
    if not ((x_struct >= -FEAS_TOL) & (x_struct <= ub_struct + FEAS_TOL)).all():
        raise SimplexError("final point violates its bounds beyond tolerance")
    x_struct = x_struct.clip(0.0, ub_struct)
    return LpSolution(x=x_struct, objective=float(c @ x_struct), iterations=iterations)
