"""Each tolerance of mmwassoc.tolerances, tested on either side of its bound.

Every test states the claim of one bound, as its comment in
tolerances.py does, and runs one case just inside the bound and one just
outside it.  The last test keeps tolerance literals out of every other
module of the package.
"""

import inspect
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import mmwassoc as m
from mmwassoc import lp, step1
from mmwassoc.instance import link_weights, solution_from_x
from mmwassoc.tolerances import (
    DEGENERATE_STEP,
    FEAS_TOL,
    FRACTION_TOL,
    INTEGRALITY_TOL,
    PIV_TOL,
    RATE_TOL_BPS,
    RATIO_TIE,
    RC_TOL,
    SUPPORT_EPS,
    TIE_EPS,
)

from lp_oracle import sparse_rows

PACKAGE = Path(m.__file__).resolve().parent


# ---------------------------------------------------------------------------
# The simplex
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gain, pivots, x", [(RC_TOL, 0, 0.0), (2 * RC_TOL, 1, 1.0)])
def test_a_column_enters_only_above_rc_tol(gain, pivots, x):
    got = lp.solve_lp_max([gain], sparse_rows([[1.0]]), [1.0], [1.0])
    assert (got.iterations, got.x.tolist()) == (pivots, [x])


@pytest.mark.parametrize("entry, x", [(PIV_TOL / 2, 1.0), (2 * PIV_TOL, 0.0)])
def test_only_an_entry_outside_the_pivot_band_blocks_the_ratio_test(entry, x):
    # Row 0 holds x at 0 if its entry blocks; inside the band only row 1
    # stops it, at 1.
    got = lp.solve_lp_max([1.0], sparse_rows([[entry], [1.0]]), [0.0, 1.0], [2.0])
    assert got.x.tolist() == [x]


@pytest.mark.parametrize("gap, pivots", [(RATIO_TIE / 2, 2), (2 * RATIO_TIE, 1)])
def test_ratios_within_ratio_tie_of_the_minimum_tie(gap, pivots):
    # x0 enters; row 1's ratio 1 is the minimum and row 0's is 1 + gap.
    # In a tie row 0, whose slack has the smaller index, leaves, and x1
    # then enters on a degenerate pivot; otherwise row 1 leaves and the
    # solve stops.
    a = sparse_rows([[1.0, 0.0], [1.0, 1.0]])
    got = lp.solve_lp_max([1.0, 0.5], a, [1.0 + gap, 1.0], [10.0, 10.0])
    assert got.iterations == pivots
    assert got.x.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("step, pivots", [(DEGENERATE_STEP / 2, 42), (2 * DEGENERATE_STEP, 41)])
def test_a_run_of_steps_within_degenerate_step_switches_to_blands_rule(step, pivots):
    # x_k <= step for the first _STALL_LIMIT columns, which enter first in
    # index order, each for a step of that length.  Then x_a + x_b <= 1:
    # Dantzig's rule takes x_b (gain 2) and stops; Bland's rule takes x_a
    # (the smaller index), and x_b replaces it on one more pivot.
    k = lp._STALL_LIMIT
    a = np.zeros((k + 1, k + 2))
    a[np.arange(k), np.arange(k)] = 1.0
    a[k, k:] = 1.0
    c = np.concatenate([100.0 - np.arange(k), [1.0, 2.0]])
    b = np.append(np.full(k, step), 1.0)
    got = lp.solve_lp_max(c, sparse_rows(a), b, np.full(k + 2, 10.0))
    assert got.iterations == pivots
    assert got.x.tolist() == [step] * k + [0.0, 1.0]


def test_feas_tol_bounds_the_final_point_of_the_simplex():
    # x1's entry lies inside the pivot band, so x1 flips to its upper
    # bound u without blocking, and x0, basic at 0, moves to -entry * u.
    entry = PIV_TOL / 10
    a = sparse_rows([[1.0, entry]])
    got = lp.solve_lp_max([1.0, 1.0], a, [0.0], [1.0, FEAS_TOL / 2 / entry])
    assert got.x[0] == 0.0  # clipped from -FEAS_TOL / 2
    with pytest.raises(lp.SimplexError, match="beyond tolerance"):
        lp.solve_lp_max([1.0, 1.0], a, [0.0], [1.0, 2 * FEAS_TOL / entry])


@pytest.mark.parametrize("excess, ok", [(FEAS_TOL / 2, True), (2 * FEAS_TOL, False)])
def test_feas_tol_bounds_the_relaxed_rows_of_step1(monkeypatch, excess, ok):
    # x = 1 and z = 1 - excess break the 5e row x - z <= 0 by excess.
    def point(objective, a_ub, b_ub, upper):
        return lp.LpSolution(x=np.array([1.0, 1.0 - excess]), objective=0.0, iterations=0)

    monkeypatch.setattr(lp, "solve_lp_max", point)
    inst = m.make_instance([[2e9]], [1e9], 1, 1)
    if ok:
        assert m.solve_step1_lp(inst).z_frac.tolist() == [1.0 - excess]
    else:
        with pytest.raises(lp.SimplexError, match="relaxed constraints"):
            m.solve_step1_lp(inst)


# ---------------------------------------------------------------------------
# Step 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value, links", [(SUPPORT_EPS, 0), (2 * SUPPORT_EPS, 1)])
def test_an_lp_entry_is_support_only_above_support_eps(value, links):
    inst = m.make_instance([[2e9]], [1e9], 1, 1)
    frac = step1.FractionalSolution(np.array([[value]]), np.array([value]), 0.0)
    assert int(m.round_solution(frac, inst).x.sum()) == links


@pytest.mark.parametrize("gap, chain", [(TIE_EPS / 2, 1), (2 * TIE_EPS, 0)])
def test_exact_scores_within_tie_eps_tie(gap, chain):
    # One UE, two BS chains.  Chain 0 scores higher by about gap; in a tie
    # the lexicographically smaller x, the one link at chain 1, wins.
    # dw/dc = -1/8 at c = 1 with r = 0.5 and one UE chain.
    inst = m.make_instance([[1.0, 1.0 - 8 * gap]], [0.5], 1, 2)
    w = link_weights(inst)[0]
    assert w[1] - w[0] == pytest.approx(gap, rel=0.01)
    assert m.solve_step1_exact(inst).x.tolist() == [[int(chain == 0), int(chain == 1)]]


@pytest.mark.parametrize(
    "value, ok",
    [(-FRACTION_TOL / 2, True), (1 + FRACTION_TOL / 2, True),
     (-2 * FRACTION_TOL, False), (1 + 2 * FRACTION_TOL, False)],
)
def test_fractional_values_may_leave_the_unit_interval_by_fraction_tol(value, ok):
    for x, z in (([[value]], [0.5]), ([[0.5]], [value])):
        if ok:
            step1.FractionalSolution(np.array(x), np.array(z), 0.0)
        else:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                step1.FractionalSolution(np.array(x), np.array(z), 0.0)


# ---------------------------------------------------------------------------
# Constraint 5f and the satisfied count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shortfall, met", [(RATE_TOL_BPS / 2, True), (2 * RATE_TOL_BPS, False)])
def test_a_rate_short_of_r_u_by_rate_tol_still_meets_it(shortfall, met):
    r_u = 1e3
    inst = m.make_instance([[r_u - shortfall]], [r_u], 1, 1)
    sol = solution_from_x(inst, np.ones((1, 1), dtype=int))
    assert m.check_feasibility(inst, sol).feasible == met
    assert m.metrics(inst, sol).n_satisfied == int(met)


# ---------------------------------------------------------------------------
# Criterion 3
# ---------------------------------------------------------------------------


def test_verify_integrality_defaults_to_integrality_tol():
    default = inspect.signature(m.verify_integrality).parameters["tol"].default
    assert default == INTEGRALITY_TOL
    assert m.verify_integrality(np.array([INTEGRALITY_TOL / 2, 1 - INTEGRALITY_TOL / 2]))
    assert not m.verify_integrality(np.array([2 * INTEGRALITY_TOL]))
    assert not m.verify_integrality(np.array([1 - 2 * INTEGRALITY_TOL]))


# ---------------------------------------------------------------------------
# One home
# ---------------------------------------------------------------------------


def test_no_module_but_tolerances_writes_a_tolerance_literal():
    # A number with a negative exponent is a tolerance in this package;
    # it belongs in tolerances.py, under its name.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, found
