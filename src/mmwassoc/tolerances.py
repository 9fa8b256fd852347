"""Every numerical tolerance of the package, each named once.

The paper's step 1 rests on threshold comparisons: a UE's links reach
r_u, an LP entry counts as support, two scores tie.  Each bound below is
the one place its value is written; the modules that compare against it
import the name into their own globals, so a hot loop reads it without
an attribute lookup.  Each comment states the claim the bound guards,
and tests/test_tolerances.py tests each claim with a case on either side
of it.
"""

# The simplex, lp.solve_lp_max.
RC_TOL = 1e-9  # a column enters only if its reduced cost gains more than this per unit step
PIV_TOL = 1e-11  # an entering-column entry within this of zero never blocks the ratio test
RATIO_TIE = 1e-12  # ratios within this of the minimum tie, so rounding noise cannot pick the row
DEGENERATE_STEP = 1e-12  # a step no longer than this is degenerate (a run of them: Bland's rule)
FEAS_TOL = 1e-7  # the LP's point may break a bound or a step-1 relaxed row by this, not more

# Step 1, step1.py.
SUPPORT_EPS = 1e-9  # an LP entry above this is support: a link the rounding may pick
TIE_EPS = 1e-12  # exact-search scores within this tie, and the lexicographically smaller x wins
FRACTION_TOL = 1e-9  # a FractionalSolution value may lie outside [0, 1] by this

# Constraint 5f and the satisfied count, instance.py.
RATE_TOL_BPS = 1e-6  # links that fall short of r_u by at most this (bit/s) still meet it

# Criterion 3, step2flow.verify_integrality.
INTEGRALITY_TOL = 1e-6  # an entry within this of 0 or 1 counts as integral
