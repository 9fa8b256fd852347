from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmwassoc as m
from mmwassoc import step1

from conftest import (
    literal_step1_best,
    random_instance,
    random_small_instance,
    step1_oracle,
    value_objective,
    value_satisfied,
    value_satisfied_then_links,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# weight_term
# ---------------------------------------------------------------------------


def test_weight_term_reference_values():
    assert m.weight_term(0.0, 1e9, 2) == pytest.approx(1 / 3)
    assert m.weight_term(1e9, 1e9, 2) == pytest.approx(1 / 4)
    assert m.weight_term(2e9, 1e9, 2) == pytest.approx(1 / 5)


def test_weight_term_rejects_zero_requirement():
    with pytest.raises(ValueError):
        m.weight_term(1e9, 0.0, 2)


@given(st.floats(0, 1e12), st.floats(1e3, 1e12), st.integers(1, 8))
def test_weight_term_range(c, r, n):
    w = m.weight_term(c, r, n)
    assert 0.0 < w <= 1.0 / (n + 1)


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------


def test_exact_single_feasible_link():
    inst = m.make_instance(np.array([[2e9]]), np.array([1e9]), 1, 1)
    sol = m.solve_step1_exact(inst)
    assert sol.z.tolist() == [1] and sol.x.tolist() == [[1]]


def test_exact_unreachable_requirement_associates_nobody():
    inst = m.make_instance(np.array([[0.5e9]]), np.array([1e9]), 1, 1)
    sol = m.solve_step1_exact(inst)
    assert sol.z.tolist() == [0] and sol.x.sum() == 0


def test_exact_matches_dp_oracle_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(60):
        inst = random_small_instance(rng)
        sol = m.solve_step1_exact(inst)
        assert m.check_feasibility(inst, sol).feasible
        (want,), _ = step1_oracle(inst, value_objective)
        assert m.objective_step1(inst, sol) == pytest.approx(want, abs=1e-9)


def test_dp_oracle_matches_literal_enumeration():
    # Ground the structured oracle in the definition-level one on
    # micro instances (every binary x, filtered by the auditor).
    rng = np.random.default_rng(5)
    for _ in range(6):
        inst = random_instance(rng, 2, 1, 1, 2)
        (want,), _ = step1_oracle(inst, value_objective)
        assert literal_step1_best(inst) == pytest.approx(want, abs=1e-9)


def test_exact_three_ue_contention():
    # Two UEs compete for the single top chain; enumeration decides.
    rng = np.random.default_rng(77)
    inst = random_instance(rng, 3, 2, 2, 2)
    sol = m.solve_step1_exact(inst)
    (want,), _ = step1_oracle(inst, value_objective)
    assert m.objective_step1(inst, sol) == pytest.approx(want, abs=1e-9)


def test_exact_node_budget_guard():
    rng = np.random.default_rng(8)
    inst = random_instance(rng, 4, 3, 2, 2)
    with pytest.raises(step1.NodeBudgetExceeded) as excinfo:
        m.solve_step1_exact(inst, node_budget=3)
    incumbent = excinfo.value.incumbent
    assert m.check_feasibility(inst, incumbent).feasible


def test_exact_lexicographic_tie_break():
    # Two identical columns: both assignments score the same; the
    # lexicographically smaller x uses the later column... column 0
    # first in flat order means x[(0,0)] = 1 is larger; smallest keeps
    # the first one at the latest position.
    inst = m.make_instance(np.array([[1e9, 1e9]]), np.array([0.5e9]), 1, 2)
    sol = m.solve_step1_exact(inst)
    # candidates: (0,0) or (0,1), equal score; flat patterns [1,0] vs [0,1];
    # lexicographically smaller is [0,1].
    assert sol.x.tolist() == [[0, 1]]


# ---------------------------------------------------------------------------
# LP relaxation
# ---------------------------------------------------------------------------


def test_lp_zero_when_nothing_reachable():
    # A requirement no aggregate can reach even fractionally.
    inst = m.make_instance(np.array([[0.1e9], [0.1e9]]), np.array([5e9]), 2, 1)
    frac = m.solve_step1_lp(inst)
    assert frac.lp_objective == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(frac.x_frac, 0.0, atol=1e-9)
    assert np.allclose(frac.z_frac, 0.0, atol=1e-9)


def test_lp_integral_at_tight_instance():
    # With c == r the rate row forces x == z, so the optimum is integral.
    inst = m.make_instance(np.array([[1e9]]), np.array([1e9]), 1, 1)
    frac = m.solve_step1_lp(inst)
    assert frac.x_frac[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert frac.z_frac[0] == pytest.approx(1.0, abs=1e-9)
    want = 1.0 - m.weight_term(1e9, 1e9, 1)
    assert frac.lp_objective == pytest.approx(want, abs=1e-9)


def test_lp_exploits_fractional_link_when_capacity_exceeds_requirement():
    # With c = 2r the relaxation supports z = 1 at x = r/c = 0.5 and
    # pays only half the link penalty: objective 1 - w/2.
    inst = m.make_instance(np.array([[2e9]]), np.array([1e9]), 1, 1)
    frac = m.solve_step1_lp(inst)
    assert frac.x_frac[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert frac.z_frac[0] == pytest.approx(1.0, abs=1e-9)
    want = 1.0 - 0.5 * m.weight_term(2e9, 1e9, 1)
    assert frac.lp_objective == pytest.approx(want, abs=1e-9)


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_lp_upper_bounds_exact(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), 2, 2)
    frac = m.solve_step1_lp(inst)
    exact = m.solve_step1_exact(inst)
    assert frac.lp_objective >= m.objective_step1(inst, exact) - 1e-6


def test_fractional_solution_validation():
    with pytest.raises(ValueError):
        step1.FractionalSolution(
            x_frac=np.array([[1.5]]), z_frac=np.array([1.0]), lp_objective=0.0
        )


def _scipy_relaxation_objective(inst, with_5d=False):
    linprog = pytest.importorskip("scipy.optimize").linprog
    a_ub, b_ub = step1._relaxation_rows(inst)
    if with_5d:  # the per-BS budget rows, built from bs_of_chain alone
        owns = inst.bs_of_chain == np.arange(inst.n_bs)[:, None]
        a_5d = np.hstack([np.tile(owns, inst.c.shape[0]), np.zeros((inst.n_bs, inst.n_ue))])
        a_ub = np.vstack([a_ub, a_5d])
        b_ub = np.concatenate([b_ub, np.full(inst.n_bs, float(inst.n_bs_rf))])
    w = m.weight_term(inst.c, inst.rate_req[inst.ue_of_chain][:, None], inst.n_ue_rf)
    c_vec = np.concatenate([-w.ravel(), np.ones(inst.n_ue)])
    ref = linprog(-c_vec, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
    assert ref.status == 0
    return -ref.fun


def test_lp_relaxation_matches_scipy_reference():
    # Cross-check the production relaxation (rows, scaling, simplex)
    # against an independent LP solver on realistic instances.
    rng = np.random.default_rng(404)
    for trial in range(15):
        inst = random_instance(
            rng,
            n_ue=int(rng.integers(2, 8)),
            n_bs=int(rng.integers(1, 4)),
            n_ue_rf=2,
            n_bs_rf=int(rng.integers(1, 4)),
        )
        frac = m.solve_step1_lp(inst)
        want = _scipy_relaxation_objective(inst)
        assert frac.lp_objective == pytest.approx(want, abs=1e-7), f"trial {trial}"


def test_lp_relaxation_matches_scipy_at_dense_scale():
    # The 30-UE/5-BS relaxation: 145 rows, 1530 variables.
    cfg = m.ScenarioConfig(seed=0)
    real = m.sample_scenario(cfg)
    inst = m.instance_from_capacity(m.build_capacity_matrix(real, cfg), real.rate_req, cfg)
    frac = m.solve_step1_lp(inst)
    want = _scipy_relaxation_objective(inst)
    assert frac.lp_objective == pytest.approx(want, abs=1e-6)


def test_lp_without_5d_rows_matches_lp_with_them():
    # 5d is implied by 5b, so the relaxation leaves its rows out.  HiGHS
    # on the rows plus explicit 5d rows must reach the same optimum, and
    # the in-package optimum must satisfy 5d.
    rng = np.random.default_rng(505)
    insts = [
        random_instance(
            rng,
            n_ue=int(rng.integers(2, 8)),
            n_bs=int(rng.integers(1, 4)),
            n_ue_rf=int(rng.integers(1, 4)),
            n_bs_rf=int(rng.integers(1, 4)),
        )
        for _ in range(20)
    ]
    cfg = m.ScenarioConfig.from_config_file(CONFIGS / "full.cfg")
    real = m.sample_scenario(cfg)
    insts.append(m.instance_from_capacity(m.build_capacity_matrix(real, cfg), real.rate_req, cfg))
    for trial, inst in enumerate(insts):
        frac = m.solve_step1_lp(inst)
        want = _scipy_relaxation_objective(inst, with_5d=True)
        assert frac.lp_objective == pytest.approx(want, abs=1e-7), f"trial {trial}"
        per_bs = np.bincount(inst.bs_of_chain, weights=frac.x_frac.sum(axis=0), minlength=inst.n_bs)
        assert np.all(per_bs <= inst.n_bs_rf + 1e-9), f"trial {trial}"


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def _full_support(inst):
    return step1.FractionalSolution(
        x_frac=np.ones(inst.c.shape),
        z_frac=np.ones(inst.n_ue),
        lp_objective=float(inst.n_ue),
    )


def test_round_empty_support_returns_zero():
    inst = m.make_instance(np.array([[2e9]]), np.array([1e9]), 1, 1)
    frac = step1.FractionalSolution(
        x_frac=np.zeros((1, 1)), z_frac=np.zeros(1), lp_objective=0.0
    )
    sol = m.round_solution(frac, inst)
    assert sol.x.sum() == 0 and sol.z.sum() == 0


def test_round_single_link_support():
    inst = m.make_instance(np.array([[2e9, 1e9]]), np.array([1e9]), 1, 2)
    frac = step1.FractionalSolution(
        x_frac=np.array([[0.9, 0.0]]), z_frac=np.ones(1), lp_objective=1.0
    )
    sol = m.round_solution(frac, inst)
    assert sol.x.tolist() == [[1, 0]] and sol.z.tolist() == [1]


def test_round_golden_demand_level_trace():
    # Three UEs, one BS with three chains, two UE chains each.
    # A (rows 0-1) meets 1.0 Gb/s with one link; B (rows 2-3) needs two
    # links for 1.5 Gb/s; C (rows 4-5) can never reach 10 Gb/s.
    # Hand-executed schedule: level 1 associates A via (0, j0); links of
    # j0 vanish; level 2 associates B via (2, j1) + (3, j2).
    c = np.array(
        [
            [1.5e9, 0.6e9, 0.1e9],
            [1.2e9, 0.5e9, 0.1e9],
            [1.4e9, 1.3e9, 0.2e9],
            [1.3e9, 1.2e9, 0.3e9],
            [0.2e9, 0.1e9, 0.1e9],
            [0.1e9, 0.2e9, 0.1e9],
        ]
    )
    inst = m.make_instance(c, np.array([1.0e9, 1.5e9, 10.0e9]), n_ue_rf=2, n_bs_rf=3)
    sol = m.round_solution(_full_support(inst), inst)
    assert sol.z.tolist() == [1, 1, 0]
    want_x = np.zeros((6, 3), dtype=int)
    want_x[0, 0] = 1  # A: best single link
    want_x[2, 1] = 1  # B: top two conflict-free links after j0 is gone
    want_x[3, 2] = 1
    np.testing.assert_array_equal(sol.x, want_x)
    np.testing.assert_allclose(sol.per_ue_rate, [1.5e9, 1.6e9, 0.0])
    assert m.check_feasibility(inst, sol).feasible


def test_round_respects_support_mask():
    # The best link is outside the support, so rounding may not use it.
    inst = m.make_instance(np.array([[2e9, 1e9]]), np.array([0.8e9]), 1, 2)
    frac = step1.FractionalSolution(
        x_frac=np.array([[0.0, 1.0]]), z_frac=np.ones(1), lp_objective=1.0
    )
    sol = m.round_solution(frac, inst)
    assert sol.x.tolist() == [[0, 1]]


def test_round_skips_intra_ue_conflicts():
    # Both chains of the UE point at the same BS chain; only one may be
    # used, so the demand of two cannot be met and nothing is assigned.
    c = np.array([[1.0e9, 0.0], [0.9e9, 0.0]])
    inst = m.make_instance(c, np.array([1.5e9]), n_ue_rf=2, n_bs_rf=1)
    sol = m.round_solution(_full_support(inst), inst)
    assert sol.x.sum() == 0 and sol.z.sum() == 0


@settings(max_examples=80)
@given(st.integers(0, 10**6))
def test_round_always_feasible_and_satisfying(seed):
    rng = np.random.default_rng(seed)
    inst = random_small_instance(rng)
    sol = m.round_solution(m.solve_step1_lp(inst), inst)
    assert m.check_feasibility(inst, sol).feasible
    for u in np.flatnonzero(sol.z):
        assert sol.per_ue_rate[u] >= inst.rate_req[u] - 1e-6


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_round_never_beats_exact_on_satisfied_count(seed):
    rng = np.random.default_rng(seed)
    inst = random_small_instance(rng)
    rounded = m.round_solution(m.solve_step1_lp(inst), inst)
    exact = m.solve_step1_exact(inst)
    assert int(rounded.z.sum()) <= int(exact.z.sum())


# ---------------------------------------------------------------------------
# scalarization claim at the solution level
# ---------------------------------------------------------------------------


def test_exact_maximizes_satisfied_count_with_minimal_links():
    rng = np.random.default_rng(202)
    for _ in range(40):
        inst = random_small_instance(rng)
        sol = m.solve_step1_exact(inst)
        (best_f1,), _ = step1_oracle(inst, value_satisfied)
        (f1, neg_links), _ = step1_oracle(inst, value_satisfied_then_links)
        assert int(sol.z.sum()) == int(best_f1)
        assert int(sol.x.sum()) == int(-neg_links)


def test_sum_rate_maximality_hypothesis_report(capsys):
    """Measure (never assert) whether the capacity-over-requirement
    weighting also maximizes sum rate among minimum-chain optima."""
    rng = np.random.default_rng(303)
    checked = counterexamples = 0
    for _ in range(40):
        inst = random_small_instance(rng)
        sol = m.solve_step1_exact(inst)
        (f1, neg_links), _ = step1_oracle(inst, value_satisfied_then_links)

        def value_rate(inst_, u, pairs, _target=(f1, neg_links)):
            rate = sum(inst_.c[i, j] for i, j in pairs)
            return (1.0 if pairs else 0.0, -float(len(pairs)), rate)

        (of1, olinks, best_rate), _ = step1_oracle(inst, value_rate)
        if (of1, olinks) != (f1, neg_links):
            continue  # rate-first tie-break strayed off the optimal face
        checked += 1
        got_rate = float((sol.x * inst.c).sum())
        if got_rate < best_rate - 1e-3:
            counterexamples += 1
    print(
        f"\nsum-rate-maximality hypothesis: {checked - counterexamples}/{checked} "
        f"instances agree ({counterexamples} counterexamples)"
    )
    assert checked > 0
