import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mmwassoc as m
from mmwassoc.instance import (
    ALL_CONSTRAINTS,
    RATE_TOL_BPS,
    STRUCTURAL_CONSTRAINTS,
    _check_shape,
    _per_ue,
    empty_solution,
    instance_from_dict,
    instance_to_dict,
    solution_from_x,
    solution_to_dict,
)

from conftest import random_instance


def small_instance():
    c = np.array(
        [
            [1.0e9, 2.0e9, 0.5e9],
            [0.8e9, 1.5e9, 0.2e9],
            [2.5e9, 0.1e9, 1.0e9],
            [0.3e9, 0.9e9, 1.9e9],
        ]
    )
    return m.make_instance(c, np.array([1.2e9, 0.8e9]), n_ue_rf=2, n_bs_rf=3)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_instance_ownership_maps():
    inst = small_instance()
    np.testing.assert_array_equal(inst.ue_of_chain, [0, 0, 1, 1])
    np.testing.assert_array_equal(inst.bs_of_chain, [0, 0, 0])
    assert inst.n_ue == 2 and inst.n_bs == 1


def test_instance_rejects_uneven_partition():
    with pytest.raises(ValueError, match="must own"):
        m.AssociationInstance(
            c=np.zeros((3, 2)), rate_req=np.array([1.0, 1.0]), n_ue_rf=2, n_bs_rf=1
        )
    with pytest.raises(ValueError, match="must own"):
        m.AssociationInstance(c=np.zeros((2, 3)), rate_req=np.ones(1), n_ue_rf=2, n_bs_rf=2)


@pytest.mark.parametrize("c", [[], [1e9, 2e9], [[[1e9]]]], ids=["empty", "1-D", "3-D"])
def test_instance_rejects_a_capacity_matrix_that_is_not_2d(c):
    with pytest.raises(ValueError, match="must be 2-D"):
        m.make_instance(c, np.ones(1), 1, 1)


def test_instance_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        m.make_instance(np.ones((2, 2)), np.array([1.0, 0.0]), 1, 1)


def test_instance_rejects_nonfinite_rates():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            m.make_instance(np.ones((2, 2)), np.array([1.0, bad]), 1, 1)
        data = instance_to_dict(small_instance())
        data["rate_req_bps"][1] = bad
        with pytest.raises(ValueError, match="finite"):
            instance_from_dict(data)


@pytest.mark.parametrize(
    "c, r",
    [([[1e308]], [1e-300]), ([[1e308, 0.0], [0.0, 1e308]], [1.0, 1.0])],
    ids=["ratio-overflows", "total-overflows"],
)
def test_instance_rejects_capacities_whose_ratio_or_total_overflows(c, r):
    # Each value is finite, but c_ij / r_u or the total capacity is not;
    # the check says so without an overflow warning of its own.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="capacities out of range"):
            m.make_instance(c, r, 1, 1)


def test_instance_rejects_rf_counts_below_one():
    with pytest.raises(ValueError, match="n_ue_rf"):
        m.make_instance(np.ones((2, 2)), np.ones(2), 0, 1)
    with pytest.raises(ValueError, match="n_bs_rf"):
        m.make_instance(np.ones((2, 2)), np.ones(2), 1, 0)
    with pytest.raises(TypeError):  # a fractional count would derive float ownership maps
        m.make_instance(np.ones((2, 2)), np.ones(1), 2.0, 1)
    for key in ("n_ue_rf", "n_bs_rf"):
        data = instance_to_dict(small_instance())
        data[key] = 0
        with pytest.raises(ValueError, match=key):
            instance_from_dict(data)


def test_json_round_trip():
    inst = small_instance()
    again = instance_from_dict(instance_to_dict(inst))
    np.testing.assert_array_equal(again.c, inst.c)
    np.testing.assert_array_equal(again.rate_req, inst.rate_req)
    np.testing.assert_array_equal(again.ue_of_chain, inst.ue_of_chain)
    assert (again.n_ue_rf, again.n_bs_rf) == (inst.n_ue_rf, inst.n_bs_rf)


def test_solution_dict_carries_metrics():
    inst = small_instance()
    x = np.zeros(inst.c.shape, dtype=int)
    x[0, 1] = 1
    data = solution_to_dict(inst, solution_from_x(inst, x))
    assert data["metrics"]["n_associated"] == 1
    assert data["metrics"]["sum_rate_bps"] == pytest.approx(2.0e9)
    assert data["x"][0][1] == 1


# ---------------------------------------------------------------------------
# check_feasibility
# ---------------------------------------------------------------------------


def test_empty_solution_is_feasible():
    inst = small_instance()
    report = m.check_feasibility(inst, empty_solution(inst))
    assert report.feasible and report.violations == ()


def test_doubly_used_bs_chain_violates_5b():
    inst = small_instance()
    x = np.zeros(inst.c.shape, dtype=int)
    x[0, 0] = x[2, 0] = 1
    sol = solution_from_x(inst, x)
    report = m.check_feasibility(inst, sol)
    assert not report.feasible
    assert ("5b", 0) in report.violations


def test_rate_shortfall_violates_5f():
    inst = small_instance()
    x = np.zeros(inst.c.shape, dtype=int)
    x[1, 2] = 1  # 0.2 Gb/s toward a 1.2 Gb/s requirement
    sol = solution_from_x(inst, x)  # z flags UE 0 by its link
    report = m.check_feasibility(inst, sol)
    assert ("5f", 0) in report.violations
    structural = m.check_feasibility(inst, sol, constraints=STRUCTURAL_CONSTRAINTS)
    assert structural.feasible


def test_links_without_flag_violate_5e():
    inst = small_instance()
    x = np.zeros(inst.c.shape, dtype=int)
    x[0, 0] = 1
    sol = m.AssociationSolution(x=x, z=np.zeros(2, dtype=int), per_ue_rate=np.zeros(2))
    assert ("5e", 0) in m.check_feasibility(inst, sol).violations


def test_check_feasibility_rejects_bad_shapes():
    inst = small_instance()
    with pytest.raises(ValueError):
        m.check_feasibility(
            inst,
            m.AssociationSolution(
                x=np.zeros((2, 2), dtype=int), z=np.zeros(2, dtype=int), per_ue_rate=np.zeros(2)
            ),
        )
    with pytest.raises(ValueError):
        bad = m.AssociationSolution(
            x=np.full(inst.c.shape, 2), z=np.zeros(2, dtype=int), per_ue_rate=np.zeros(2)
        )
        m.check_feasibility(inst, bad)
    # One entry of x or z that is not 0 or 1, NaN included.
    for value in (np.nan, 0.5, -1.0):
        x, z = np.zeros(inst.c.shape), np.zeros(2)
        for entries in (x, z):
            entries.flat[-1] = value
            with pytest.raises(ValueError, match="binary"):
                m.check_feasibility(inst, m.AssociationSolution(x, z, np.zeros(2)))
            entries.flat[-1] = 0.0


def test_check_feasibility_rejects_unknown_constraint_ids():
    # UE chain 0 uses two BS chains (5c) and its UE is not flagged (5e).
    # A misspelt id would audit nothing, and a bare string is matched by
    # substring, so both must raise instead of reporting feasible.
    inst = small_instance()
    x = np.zeros(inst.c.shape, dtype=int)
    x[0, 0] = x[0, 1] = 1
    sol = m.AssociationSolution(x=x, z=np.zeros(2, dtype=int), per_ue_rate=np.zeros(2))
    assert {v[0] for v in m.check_feasibility(inst, sol).violations} == {"5c", "5e"}
    for constraints in (("5B",), ["5b", "5g"], "5b5c", "5c"):
        with pytest.raises(ValueError, match="constraints"):
            m.check_feasibility(inst, sol, constraints)
    assert not m.check_feasibility(inst, sol, ["5c"]).feasible
    # An iterator is read once, and every id it names is audited.
    assert m.check_feasibility(inst, sol, iter(["5c"])).violations == (("5c", 0),)


def _oracle_verdict(inst, x, z):
    """Re-evaluate every constraint with plain loops."""
    n_uc, n_bc = inst.c.shape
    for j in range(n_bc):
        if sum(x[i][j] for i in range(n_uc)) > 1:
            return False
    for i in range(n_uc):
        if sum(x[i]) > 1:
            return False
    for b in range(inst.n_bs):
        used = sum(
            x[i][j]
            for i in range(n_uc)
            for j in range(n_bc)
            if inst.bs_of_chain[j] == b
        )
        if used > inst.n_bs_rf:
            return False
    for u in range(inst.n_ue):
        rows = [i for i in range(n_uc) if inst.ue_of_chain[i] == u]
        links = sum(x[i][j] for i in rows for j in range(n_bc))
        if links > z[u] * inst.n_ue_rf:
            return False
        rate = sum(x[i][j] * inst.c[i][j] for i in rows for j in range(n_bc))
        if rate < z[u] * inst.rate_req[u] - 1e-6:
            return False
    return True


def _branch_check_feasibility(inst, sol, constraints=ALL_CONSTRAINTS):
    """Reference: check_feasibility as one branch per constraint id."""
    if isinstance(constraints, str) or not set(constraints) <= set(ALL_CONSTRAINTS):
        raise ValueError(f"constraints must be ids from {ALL_CONSTRAINTS}, got {constraints!r}")
    _check_shape(inst, sol)
    x, z = sol.x, sol.z
    if not np.isin(x, (0, 1)).all() or not np.isin(z, (0, 1)).all():
        raise ValueError("x and z must be binary")

    violations: list[tuple[str, int]] = []
    chains_per_ue = _per_ue(inst, x.sum(axis=1))
    if "5b" in constraints:
        for j in (x.sum(axis=0) > 1).nonzero()[0]:
            violations.append(("5b", int(j)))
    if "5c" in constraints:
        for i in (x.sum(axis=1) > 1).nonzero()[0]:
            violations.append(("5c", int(i)))
    if "5d" in constraints:
        per_bs = np.bincount(inst.bs_of_chain, weights=x.sum(axis=0), minlength=inst.n_bs)
        for b in (per_bs > inst.n_bs_rf).nonzero()[0]:
            violations.append(("5d", int(b)))
    if "5e" in constraints:
        for u in (chains_per_ue > z * inst.n_ue_rf).nonzero()[0]:
            violations.append(("5e", int(u)))
    if "5f" in constraints:
        per_ue = _per_ue(inst, (x * inst.c).sum(axis=1))
        for u in (per_ue < z * inst.rate_req - RATE_TOL_BPS).nonzero()[0]:
            violations.append(("5f", int(u)))
    return m.FeasibilityReport(feasible=not violations, violations=tuple(violations))


ID_SUBSETS = [ids for k in range(6) for ids in combinations(ALL_CONSTRAINTS, k)]


def test_check_feasibility_equals_the_branch_reference_on_every_id_subset():
    # Sparse and dense x, z drawn or flagged from x, and x and z as int,
    # float or bool: the reports must be equal, violations and their
    # order included, for each of the 32 subsets of ids, in either order.
    assert len(ID_SUBSETS) == 32
    rng = np.random.default_rng(25)
    seen = set()
    for trial in range(150):
        inst = random_instance(rng, *rng.integers(1, [5, 4, 3, 4]).tolist())
        x = rng.random(inst.c.shape) < rng.choice([0.1, 0.3, 0.6])
        z = rng.integers(0, 2, inst.n_ue) if trial % 2 else solution_from_x(inst, x).z
        dtype = (int, float, bool)[trial % 3]
        sol = m.AssociationSolution(
            x=x.astype(dtype), z=z.astype(dtype), per_ue_rate=np.zeros(inst.n_ue)
        )
        for ids in ID_SUBSETS:
            for constraints in (ids, ids[::-1]):
                got = m.check_feasibility(inst, sol, constraints)
                assert got == _branch_check_feasibility(inst, sol, constraints)
                assert all(type(k) is int for _, k in got.violations)
                seen.update(cid for cid, _ in got.violations)
    assert seen == set(ALL_CONSTRAINTS)  # every mask fired somewhere


def test_check_feasibility_agrees_with_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n_ue = int(rng.integers(1, 5))
        n_bs = int(rng.integers(1, 5))
        nur = int(rng.integers(1, 3))
        nbr = int(rng.integers(1, 3))
        if n_ue * nur > 8 or n_bs * nbr > 8:
            continue
        inst = random_instance(rng, n_ue, n_bs, nur, nbr)
        x = rng.integers(0, 2, inst.c.shape)
        z = rng.integers(0, 2, inst.n_ue)
        sol = m.AssociationSolution(x=x, z=z, per_ue_rate=np.zeros(inst.n_ue))
        got = m.check_feasibility(inst, sol).feasible
        assert got == _oracle_verdict(inst, x, z)


# ---------------------------------------------------------------------------
# objective_step1
# ---------------------------------------------------------------------------


def test_objective_empty_solution_is_zero():
    inst = small_instance()
    assert m.objective_step1(inst, empty_solution(inst)) == 0.0


def test_objective_single_matched_link():
    # c == r and two chains per UE: 1 - 1/(2+1+1) = 0.75
    inst = m.make_instance(np.array([[1.0e9], [0.0]]), np.array([1.0e9]), 2, 1)
    x = np.array([[1], [0]])
    sol = solution_from_x(inst, x)
    assert m.objective_step1(inst, sol) == pytest.approx(0.75, abs=1e-12)


def test_objective_two_links():
    # c1/r = 1 and c2/r = 3 with two chains: 1 - 1/4 - 1/6 = 7/12
    inst = m.make_instance(
        np.array([[1.0e9, 0.0], [0.0, 3.0e9]]), np.array([1.0e9]), 2, 2
    )
    x = np.array([[1, 0], [0, 1]])
    sol = solution_from_x(inst, x)
    assert m.objective_step1(inst, sol) == pytest.approx(7.0 / 12.0, abs=1e-12)


@given(st.integers(0, 10_000))
def test_objective_strictly_decreases_on_extra_link(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, 2, 2, 2, 2)
    x = np.zeros(inst.c.shape, dtype=int)
    z = np.ones(inst.n_ue, dtype=int)
    base = m.objective_step1(inst, m.AssociationSolution(x=x, z=z, per_ue_rate=np.zeros(2)))
    i = int(rng.integers(0, inst.c.shape[0]))
    j = int(rng.integers(0, inst.c.shape[1]))
    x[i, j] = 1
    flipped = m.objective_step1(
        inst, m.AssociationSolution(x=x, z=z, per_ue_rate=np.zeros(2))
    )
    assert flipped < base


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_zero_solution():
    inst = small_instance()
    got = m.metrics(inst, empty_solution(inst))
    assert (got.n_associated, got.n_satisfied, got.sum_rate_bps) == (0, 0, 0.0)


def test_metrics_satisfied_and_unsatisfied():
    inst = small_instance()
    x = np.zeros(inst.c.shape, dtype=int)
    x[0, 1] = 1  # 2.0 Gb/s >= 1.2 Gb/s requirement
    got = m.metrics(inst, solution_from_x(inst, x))
    assert (got.n_associated, got.n_satisfied) == (1, 1)
    assert got.sum_rate_bps == pytest.approx(2.0e9)

    x = np.zeros(inst.c.shape, dtype=int)
    x[1, 2] = 1  # 0.2 Gb/s < 1.2 Gb/s: associated but unsatisfied
    got = m.metrics(inst, solution_from_x(inst, x))
    assert (got.n_associated, got.n_satisfied) == (1, 0)
    assert got.sum_rate_bps == pytest.approx(0.2e9)


def test_metrics_and_objective_reject_a_solution_of_another_shape():
    # numpy would broadcast a one-column x over every BS chain and count
    # links that do not exist, and would sum a z of the wrong length.
    inst = small_instance()
    sol = empty_solution(inst)
    one_column = m.AssociationSolution(
        x=np.ones((4, 1), dtype=int), z=sol.z, per_ue_rate=sol.per_ue_rate
    )
    long_z = m.AssociationSolution(x=sol.x, z=np.ones(3, dtype=int), per_ue_rate=sol.per_ue_rate)
    for bad in (one_column, long_z):
        for fn in (m.metrics, m.objective_step1):
            with pytest.raises(ValueError, match="shape"):
                fn(inst, bad)
    assert m.metrics(inst, sol).n_associated == 0 and m.objective_step1(inst, sol) == 0.0


@given(st.integers(0, 10_000))
def test_flagged_ues_are_satisfied_in_feasible_solutions(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, 3, 2, 2, 2)
    x = rng.integers(0, 2, inst.c.shape)
    sol = solution_from_x(inst, x)
    if m.check_feasibility(inst, sol).feasible:
        assert m.metrics(inst, sol).n_satisfied >= int(sol.z.sum())
