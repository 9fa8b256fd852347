import hashlib
import inspect
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import lp_oracle
from lp_oracle import sparse_rows
import mmwassoc as m
from mmwassoc import harness, lp, step1

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_unconstrained_box():
    no_rows = sparse_rows(np.zeros((0, 3)))
    got = lp.solve_lp_max(np.array([1.0, -2.0, 0.0]), no_rows, np.zeros(0), np.ones(3))
    np.testing.assert_allclose(got.x, [1.0, 0.0, 0.0])
    assert got.objective == pytest.approx(1.0)


def test_single_budget_row():
    # max 3a + 2b s.t. a + b <= 1, box [0, 1]: optimum a=1, b=0
    got = lp.solve_lp_max([3.0, 2.0], sparse_rows([[1.0, 1.0]]), [1.0], [1.0, 1.0])
    np.testing.assert_allclose(got.x, [1.0, 0.0], atol=1e-12)
    assert got.objective == pytest.approx(3.0)


def test_upper_bounds_bind():
    # max a + b s.t. a + 2b <= 2, box [0, 0.8]: a=0.8, b=0.6
    got = lp.solve_lp_max([1.0, 1.0], sparse_rows([[1.0, 2.0]]), [2.0], [0.8, 0.8])
    np.testing.assert_allclose(got.x, [0.8, 0.6], atol=1e-10)


def test_degenerate_assignment_polytope():
    # Fully tied assignment LP: verify termination and a valid vertex.
    n = 4
    rows = []
    for i in range(n):  # row sums <= 1
        r = np.zeros(n * n)
        r[i * n : (i + 1) * n] = 1.0
        rows.append(r)
    for j in range(n):  # column sums <= 1
        r = np.zeros(n * n)
        r[j::n] = 1.0
        rows.append(r)
    got = lp.solve_lp_max(np.ones(n * n), sparse_rows(rows), np.ones(2 * n), np.ones(n * n))
    assert got.objective == pytest.approx(n, abs=1e-9)


def test_entry_inside_pivot_band_never_blocks_the_ratio_test():
    # Row 0's entry 1e-13 lies within PIV_TOL of zero, so its ratio
    # 0 / 1e-13 must not limit the step (a pivot on it would be singular):
    # row 1 stops x at 1 before the bound flip at 2.
    got = lp.solve_lp_max([1.0], sparse_rows([[1e-13], [1.0]]), [0.0, 1.0], [2.0])
    np.testing.assert_array_equal(got.x, [1.0])
    assert got.iterations == 1


def test_rejects_negative_rhs():
    with pytest.raises(ValueError):
        lp.solve_lp_max([1.0], sparse_rows([[1.0]]), [-1.0], [1.0])


def test_rejects_bad_bounds():
    with pytest.raises(ValueError):
        lp.solve_lp_max([1.0], sparse_rows([[1.0]]), [1.0], [0.0])


@pytest.mark.parametrize(
    "a_ub, b_ub, match",
    [
        (sparse_rows([[np.nan]]), [-1.0], "shape"),  # a NaN in a column the LP does not have
        (sparse_rows([[np.nan]]), [1.0], "shape"),
        (sparse_rows(np.zeros((1, 0))), [np.nan], "finite"),
        (sparse_rows(np.zeros((1, 0))), [-1.0], ">= 0"),
        (sparse_rows(np.zeros((2, 0))), [1.0], "shape"),  # two rows, one right-hand side
    ],
)
def test_no_columns_still_checks_every_input(a_ub, b_ub, match):
    with pytest.raises(ValueError, match=match):
        lp.solve_lp_max([], a_ub, b_ub, [])


@pytest.mark.parametrize("n_rows", [0, 1, 3])
def test_no_columns_give_the_empty_answer(n_rows):
    empty = np.zeros(0, dtype=int)
    a_ub = lp.SparseRows(empty, empty, np.zeros(0), (n_rows, 0))
    got = lp.solve_lp_max([], a_ub, np.ones(n_rows), [])
    assert got.x.shape == (0,) and got.x.dtype == np.float64
    assert type(got.objective) is float and got.objective == 0.0
    assert got.iterations == 0


@pytest.mark.parametrize(
    "objective, a_ub, upper",
    [
        ([1.0, 2.0], sparse_rows([[1.0, 0.0]]), [1.0]),  # was "LP is unbounded"
        ([1.0, 2.0, 3.0], sparse_rows([[1.0, 0.0, 0.0]]), [1.0]),  # was an IndexError
        ([1.0, 2.0], sparse_rows([[1.0, 0.0]]), [1.0, 1.0, 1.0]),  # was a broadcast error
    ],
)
def test_rejects_upper_bounds_of_the_wrong_shape(objective, a_ub, upper):
    with pytest.raises(ValueError, match="upper bounds shape"):
        lp.solve_lp_max(objective, a_ub, [5.0], upper)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["objective", "b_ub", "triplets"])
def test_rejects_non_finite_inputs(where, bad):
    args = {"objective": [1.0, 2.0], "triplets": [1.0, 1.0], "b_ub": [1.0]}
    args[where] = np.array(args[where])
    args[where][0] = bad
    a_ub = lp.SparseRows(np.array([0, 0]), np.array([0, 1]), args["triplets"], (1, 2))
    with pytest.raises(ValueError, match="finite"):
        lp.solve_lp_max(args["objective"], a_ub, args["b_ub"], [1.0, 1.0])


@pytest.mark.parametrize("a_ub", [[[1.0, 0.0], [0.0, 1.0]], np.eye(2)], ids=["nested-list", "eye"])
def test_rejects_a_dense_constraint_matrix(a_ub):
    with pytest.raises(TypeError, match="SparseRows"):
        lp.solve_lp_max([1.0, 1.0], a_ub, [1.0, 1.0], [1.0, 1.0])
    # before any other work: the form is checked ahead of bad values and shapes
    with pytest.raises(TypeError, match="SparseRows"):
        lp.solve_lp_max([np.nan], a_ub, [-1.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "rows, cols, values, match",
    [
        ([0, 2], [0, 1], [1.0, 1.0], "outside"),  # row past m
        ([-1, 1], [0, 1], [1.0, 1.0], "outside"),  # negative row
        ([0, 1], [0, 3], [1.0, 1.0], "outside"),  # column past n
        ([0, 1], [-1, 1], [1.0, 1.0], "outside"),  # negative column
        ([0, 1], [0, 1], [1.0], "one length"),
        ([0, 1, 1], [0, 1], [1.0, 1.0], "one length"),
        ([[0, 1]], [[0, 1]], [[1.0, 1.0]], "1-D"),
        ([0.5, 1.0], [0, 1], [1.0, 1.0], "integer"),  # float rows
        ([0, 1], [0.0, 1.0], [1.0, 1.0], "integer"),  # float cols, integral values
        ([True, False], [0, 1], [1.0, 1.0], "integer"),  # bool rows index as a mask
        ([0, 1], [False, True], [1.0, 1.0], "integer"),
    ],
)
def test_sparse_rows_reject_bad_triplets(rows, cols, values, match):
    with pytest.raises(ValueError, match=match):
        lp.SparseRows(np.array(rows), np.array(cols), np.array(values), (2, 3))


def test_sparse_rows_of_the_wrong_shape_are_rejected():
    a = lp.SparseRows(np.array([0]), np.array([2]), np.array([1.0]), (1, 3))
    with pytest.raises(ValueError, match="shape"):
        lp.solve_lp_max([1.0, 1.0], a, [1.0], [1.0, 1.0])


def test_sparse_rows_densify_without_a_warning():
    a = lp.SparseRows(np.array([1, 0]), np.array([0, 2]), np.array([-0.0, 3.0]), (2, 3))
    want = np.array([[0.0, 0.0, 3.0], [-0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy 2 warns on an __array__ without copy=
        assert np.asarray(a).tobytes() == want.tobytes()
        assert np.array(a, copy=True).tobytes() == want.tobytes()
        assert np.asarray(a, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):  # a dense form is always a new array
        np.array(a, copy=False)
    back = sparse_rows(want)  # -0.0 is kept, +0.0 is not
    assert back.rows.tolist() == [0, 1] and back.cols.tolist() == [2, 0]
    assert np.asarray(back).tobytes() == want.tobytes()


# Beale (1955): Dantzig pricing with a smallest-index ratio tie-break
# cycles on this LP (objective, rows, right-hand side).
_BEALE = (
    [0.75, -20.0, 0.5, -6.0],
    [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_beale_cycling_example_ends_under_blands_rule():
    # The solve stalls for 40 degenerate pivots, switches to Bland's rule
    # and reaches the optimum in two more.
    c, a, b = _BEALE
    got = lp.solve_lp_max(c, sparse_rows(a), b, np.full(4, 10.0))
    assert got.iterations == 42
    np.testing.assert_allclose(got.x, [1.0, 0.0, 1.0, 0.0], rtol=0.0, atol=1e-12)
    assert got.objective == pytest.approx(1.25)


def _random_lp(rng):
    n = int(rng.integers(2, 8))
    mrows = int(rng.integers(1, 7))
    c = rng.uniform(-1.0, 1.0, n)
    a = rng.uniform(-0.5, 1.0, (mrows, n))
    b = rng.uniform(0.0, 2.0, mrows)
    u = rng.uniform(0.5, 2.0, n)
    return c, a, b, u


def _assignment_polytope(n):
    # max sum(x) over n x n doubly substochastic matrices: every vertex
    # ties, so the ratio test meets ties at each pivot.
    rows = np.zeros((2 * n, n * n))
    for i in range(n):
        rows[i, i * n : (i + 1) * n] = 1.0  # row sums <= 1
        rows[n + i, i::n] = 1.0  # column sums <= 1
    return np.ones(n * n), rows, np.ones(2 * n), np.ones(n * n)


# sha256 over (pivots, x bytes) of 300 random LPs, which take bound flips
# and entries from the upper bound, and of the tied assignment polytopes
# for n = 4..12, which take ratio-test ties.  Recorded with the dense
# tableau simplex; any change to pricing, the ratio test or its tie-break
# moves the digest.
BRANCH_PIN = "e92b7325faed9d6d300d0b4f9a71bfb350b887d3c0457f0ac841cef462aa6460"


def test_simplex_branches_reproduce_pinned_digest():
    lps = [_random_lp(np.random.default_rng(seed)) for seed in range(300)]
    lps += [_assignment_polytope(n) for n in range(4, 13)]
    digest = hashlib.sha256()
    for c, a, b, u in lps:
        got = lp.solve_lp_max(c, sparse_rows(a), b, u)
        digest.update(got.iterations.to_bytes(8, "little"))
        digest.update(got.x.tobytes())
    assert digest.hexdigest() == BRANCH_PIN


@settings(max_examples=150)
@given(st.integers(0, 10**6))
def test_matches_scipy_on_random_lps(seed):
    c, a, b, u = _random_lp(np.random.default_rng(seed))
    got = lp.solve_lp_max(c, sparse_rows(a), b, u)
    ref = linprog(-c, A_ub=a, b_ub=b, bounds=list(zip(np.zeros_like(u), u)), method="highs")
    assert ref.status == 0
    assert got.objective == pytest.approx(-ref.fun, abs=1e-7)
    # and the returned point is feasible
    assert np.all(a @ got.x <= b + 1e-8)
    assert np.all(got.x >= -1e-10) and np.all(got.x <= u + 1e-10)


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_vertex_has_enough_tight_constraints(seed):
    # A basic feasible solution has at least n tight constraints among
    # rows and bounds (vertex property, needed by the integrality check).
    c, a, b, u = _random_lp(np.random.default_rng(seed))
    got = lp.solve_lp_max(c, sparse_rows(a), b, u)
    tight = int(np.sum(np.abs(a @ got.x - b) <= 1e-8))
    tight += int(np.sum(np.abs(got.x) <= 1e-8))
    tight += int(np.sum(np.abs(got.x - u) <= 1e-8))
    assert tight >= len(c)


# (config, run, r_max, pivots, sha256 of the LP's x) of step-1 relaxations,
# recorded with the full rank-one pivot update.  The update over the rows
# where the entering column is nonzero must reproduce them bit for bit.
# The digests pin the exact bits of the capacity matrix too, so they hold
# for this platform's numpy and libm.
STEP1_PINS = [
    ("desk.cfg", 0, 1e9, 20, "cba548da96bb1446cfdd49e8213244c84de43f731fffdb14b34d7fd5a0589430"),
    ("desk.cfg", 3, 4e9, 35, "aa98eeca87d58aa5c9091fc58a2017bd461d2703bc91586343b2b80dfe055374"),
    ("full.cfg", 0, 2e9, 74, "c0bc99a1ad2485d9c9991ad42df394fd8aa9b0814a1b9f754f5221d9e2b9ec74"),
    ("full.cfg", 1, 8e9, 71, "ed5d43be439bdfd751cbdf4d43b18b7d0f0fded85025c2d46b7ce20d2b1a4b23"),
]


# The same pin for the 9 BSs x 100 UEs stress shape of full.cfg (run 0,
# r_max 2e9): a 445 x 9100 LP whose entering columns reach dozens of rows
# per pivot, where the cell pins above touch only a few.
STRESS_9X100_PIN = (2e9, 347, "c7ef3b55dcc443113a5938b459db6dc063641bb8823c2c9a2dac2a57f0973664")


def _solve_step1_lp_recorded(monkeypatch, cfg, run_id, r_max):
    solved = []
    solve = lp.solve_lp_max

    def recording(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(lp, "solve_lp_max", recording)
    m.solve_step1_lp(harness.build_cell_instance(cfg, run_id, r_max))
    (sol,) = solved
    return sol


@pytest.mark.parametrize("config, run_id, r_max, pivots, x_sha256", STEP1_PINS)
def test_step1_lp_reproduces_pinned_vertices(monkeypatch, config, run_id, r_max, pivots, x_sha256):
    cfg = m.ScenarioConfig.from_config_file(CONFIGS / config)
    sol = _solve_step1_lp_recorded(monkeypatch, cfg, run_id, r_max)
    assert sol.iterations == pivots
    assert hashlib.sha256(sol.x.tobytes()).hexdigest() == x_sha256


def test_step1_lp_9x100_reproduces_pinned_vertex(monkeypatch):
    r_max, pivots, x_sha256 = STRESS_9X100_PIN
    cfg = replace(m.ScenarioConfig.from_config_file(CONFIGS / "full.cfg"), n_bs=9, n_ue=100)
    sol = _solve_step1_lp_recorded(monkeypatch, cfg, 0, r_max)
    assert sol.iterations == pivots
    assert hashlib.sha256(sol.x.tobytes()).hexdigest() == x_sha256


def test_step1_lp_record_growth_never_copies_the_written_records(monkeypatch):
    # The benchmark LP that pivots past m (full.cfg seed 5, run 1, 4 Gbit/s:
    # 166 pivots on 145 rows), so its records outgrow the store's m record
    # rows into a second block.  The tracemalloc peak stays below twice the
    # 2m x (n + m) store; a store that copied its records on growth would
    # hold the old and new records at once (about 5.25 m(n + m) float64).
    cfg = replace(m.ScenarioConfig.from_config_file(CONFIGS / "full.cfg"), seed=5)
    rows, cols = step1._relaxation_rows(harness.build_cell_instance(cfg, 1, 4e9))[0].shape
    tracemalloc.start()
    try:
        sol = _solve_step1_lp_recorded(monkeypatch, cfg, 1, 4e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.iterations > rows
    assert peak < 4 * rows * (rows + cols) * 8


# LP families for the differential test against the eager simplex of
# tests/lp_oracle.py.  Each aims at one branch of the deferred updates:
# "flips": upper bounds below the row limits, so entering variables flip
#   to their other bound;
# "ties": integer objectives on the assignment polytope, whose degenerate
#   vertices tie in the ratio test;
# "bland": Beale's cycling LP beside an independent random block, so the
#   solve stalls and switches to Bland's rule;
# "long": one to three rows under many columns, so the solve makes more
#   pivots than rows and grows its record storage;
# "dense": random LPs with some zero right-hand sides.
FAMILIES = ("flips", "ties", "bland", "long", "dense")

def _family_lp(family, rng):
    if family == "flips":
        n, rows = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        return (rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 1.0, (rows, n)),
                rng.uniform(0.5, 3.0, rows), rng.uniform(0.05, 0.5, n))
    if family == "ties":
        k = int(rng.integers(2, 7))
        _, a, b, u = _assignment_polytope(k)
        return rng.integers(1, 4, k * k).astype(float), a, b, u
    if family == "bland":
        n, rows = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        c0, a0, b0 = _BEALE
        a = np.zeros((3 + rows, 4 + n))
        a[:3, :4] = a0
        a[3:, 4:] = rng.uniform(0.1, 1.0, (rows, n))
        return (np.concatenate([c0, rng.uniform(-1.0, 1.0, n)]), a,
                np.concatenate([b0, rng.uniform(0.5, 2.0, rows)]),
                np.concatenate([np.full(4, 10.0), rng.uniform(0.5, 2.0, n)]))
    if family == "long":
        n, rows = int(rng.integers(20, 60)), int(rng.integers(1, 4))
        return (rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, (rows, n)),
                rng.uniform(1.0, 3.0, rows), rng.uniform(0.5, 5.0, n))
    n, rows = int(rng.integers(2, 12)), int(rng.integers(1, 10))
    b = rng.uniform(0.0, 2.0, rows)
    b[rng.random(rows) < 0.4] = 0.0
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 1.0, (rows, n)), b, rng.uniform(0.5, 2.0, n)


@settings(max_examples=200)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
def test_triplet_order_does_not_change_the_solve(family, seed):
    # The same triplets in a shuffled order against row-major order.
    rng = np.random.default_rng(seed)
    c, a, b, u = _family_lp(family, rng)
    row_major = sparse_rows(a)
    order = rng.permutation(row_major.values.size)
    shuffled = lp.SparseRows(row_major.rows[order], row_major.cols[order],
                             row_major.values[order], row_major.shape)
    got = lp.solve_lp_max(c, shuffled, b, u)
    ref = lp.solve_lp_max(c, row_major, b, u)
    assert got.iterations == ref.iterations
    assert got.x.tobytes() == ref.x.tobytes()


@settings(max_examples=400)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
def test_deferred_updates_match_the_eager_oracle(family, seed):
    c, a, b, u = _family_lp(family, np.random.default_rng(seed))
    got = lp.solve_lp_max(c, sparse_rows(a), b, u)
    ref = lp_oracle.solve_lp_max(c, a, b, u)
    assert got.iterations == ref.iterations
    assert got.objective == ref.objective
    assert got.x.tobytes() == ref.x.tobytes()


def _read_only(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("family", FAMILIES + ("step1",))
def test_solve_reads_its_inputs_and_accepts_them_read_only(family):
    # A relaxation layout's indices, rhs and bounds are shared by every cell
    # of a shape, so a solve must take them read-only and leave every input
    # byte for byte as it was.
    for seed in range(10):
        if family == "step1":
            cfg = m.ScenarioConfig.from_config_file(CONFIGS / "desk.cfg")
            inst = harness.build_cell_instance(cfg, seed, 2e9)
            a_ub, b = step1._relaxation_rows(inst)
            u = step1._relaxation_layout(*inst.c.shape, inst.n_ue_rf).upper
            c = np.concatenate([-step1.link_weights(inst).ravel(), np.ones(inst.n_ue)])
        else:
            c, a, b, u = _family_lp(family, np.random.default_rng(seed))
            a_ub = sparse_rows(a)
        c, b, u = _read_only(c), _read_only(b), _read_only(u)
        a_ub = a_ub.layout.with_values(_read_only(a_ub.values))
        inputs = (c, a_ub.rows, a_ub.cols, a_ub.values, a_ub.layout.scatter, b, u)
        assert not any(x.flags.writeable for x in inputs)
        before = [x.tobytes() for x in inputs]
        got = lp.solve_lp_max(c, a_ub, b, u)
        assert [x.tobytes() for x in inputs] == before
        fresh = lp.SparseRows(a_ub.rows, a_ub.cols, a_ub.values.copy(), a_ub.shape)
        writable = lp.solve_lp_max(c.copy(), fresh, b.copy(), u.copy())
        assert (got.iterations, got.x.tobytes()) == (writable.iterations, writable.x.tobytes())


def test_a_layout_checks_its_indices_once_and_each_matrix_its_values():
    layout = lp.TripletLayout(np.array([0, 1]), np.array([2, 0]), (2, 3))
    assert layout.scatter.tolist() == [0 * 5 + 2, 1 * 5 + 0]  # rows * (n + m) + cols
    first, second = layout.with_values([1.0, 2.0]), layout.with_values([3.0, -0.0])
    assert first.layout is second.layout is layout and first.rows is second.rows is layout.rows
    assert np.asarray(second).tobytes() == np.array([[0.0, 0.0, 3.0], [-0.0, 0.0, 0.0]]).tobytes()
    with pytest.raises(ValueError, match="one length"):
        layout.with_values([1.0])
    with pytest.raises(ValueError, match="of the layout"):
        lp.SparseRows(np.array([0, 1]), layout.cols, [1.0, 1.0], (2, 3), layout=layout)
    rows = np.array([0, 1])
    copied = lp.SparseRows(rows, np.array([2, 0]), [1.0, 1.0], (2, 3))
    rows[0] = 5  # the caller's array: the checked copy does not follow it
    assert copied.rows.tolist() == [0, 1] and not copied.rows.flags.writeable


def _branches_taken(lps):
    """Which branches of lp.solve_lp_max the LPs run, seen by a line tracer."""
    lines, first = inspect.getsourcelines(lp.solve_lp_max)
    at = {}
    for key, text in [
        ("flip", "sign_of[j] = -sign"),
        ("bland", "(gain > RC_TOL).argmax()"),
        ("growth", "blocks.append("),
        ("tie", "leaving = basis[r]"),
    ]:
        found = [k for k, line in enumerate(lines) if text in line]
        assert found, f"the {key!r} marker {text!r} is not in lp.solve_lp_max's source"
        at[key] = first + found[0]
    seen = set()

    def local_trace(frame, event, arg):
        if event == "line":
            for key, line in at.items():
                if frame.f_lineno == line:
                    if key != "tie":
                        seen.add(key)
                    elif sum(ratio <= frame.f_locals["window"] for ratio in frame.f_locals["ratios"]) > 1:
                        seen.add(key)
        return local_trace

    def global_trace(frame, event, arg):
        return local_trace if frame.f_code is lp.solve_lp_max.__code__ else None

    sys.settrace(global_trace)
    try:
        for c, a, b, u in lps:
            lp.solve_lp_max(c, sparse_rows(a), b, u)
    finally:
        sys.settrace(None)
    return seen


@pytest.mark.parametrize(
    "family, branch",
    [("flips", "flip"), ("ties", "tie"), ("bland", "bland"), ("bland", "growth"), ("long", "growth")],
)
def test_each_family_reaches_its_branch(family, branch):
    lps = [_family_lp(family, np.random.default_rng(seed)) for seed in range(20)]
    assert branch in _branches_taken(lps)
