import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmwassoc as m
from mmwassoc.instance import STRUCTURAL_CONSTRAINTS

from conftest import canonical_value, pairs_of, random_instance, step2_oracle
from mmwassoc.step2flow import full_residual


# ---------------------------------------------------------------------------
# max_sum_rate
# ---------------------------------------------------------------------------


def test_max_sum_rate_single_positive_link():
    inst = m.make_instance(np.array([[1e9]]), np.array([2e9]), 1, 1)
    sol = m.max_sum_rate(inst)
    assert sol.x.tolist() == [[1]] and sol.z.tolist() == [1]


def test_max_sum_rate_contention_picks_higher_capacity():
    inst = m.make_instance(np.array([[1e9], [2e9]]), np.array([1e9, 1e9]), 1, 1)
    sol = m.max_sum_rate(inst)
    assert sol.x.tolist() == [[0], [1]]


def test_max_sum_rate_matches_brute_force():
    rng = np.random.default_rng(61)
    for _ in range(30):
        inst = random_instance(rng, 3, 2, 2, int(rng.integers(1, 4)))
        sol = m.max_sum_rate(inst)
        got = canonical_value(inst.c, pairs_of(sol.x))
        want, _ = step2_oracle(full_residual(inst))
        assert got == want


# ---------------------------------------------------------------------------
# max_snr
# ---------------------------------------------------------------------------


def test_max_snr_picks_best_ue_chain():
    inst = m.make_instance(np.array([[1e9], [2e9]]), np.array([1e9, 1e9]), 1, 1)
    sol = m.max_snr(inst)
    assert sol.x.tolist() == [[0], [1]]


def test_max_snr_skips_zero_capacity():
    inst = m.make_instance(np.zeros((2, 2)), np.array([1e9, 1e9]), 1, 2)
    sol = m.max_snr(inst)
    assert sol.x.sum() == 0 and sol.z.sum() == 0


def test_sequential_greed_strictly_worse_than_joint():
    # Hand-built 2x2: greedy gives BS0 -> UE0 (1.0) then BS1 -> UE1 (0.1),
    # sum 1.1 Gb/s; the joint optimum swaps to 0.9 + 0.8 = 1.7 Gb/s.
    # Verified by enumeration below.
    c = np.array([[10e8, 9e8], [8e8, 1e8]])
    inst = m.make_instance(c, np.array([1e9, 1e9]), 1, 1)
    greedy = m.max_snr(inst)
    joint = m.max_sum_rate(inst)
    assert m.metrics(inst, greedy).sum_rate_bps == pytest.approx(1.1e9)
    assert m.metrics(inst, joint).sum_rate_bps == pytest.approx(1.7e9)
    want, _ = step2_oracle(full_residual(inst))
    assert canonical_value(inst.c, pairs_of(joint.x)) == want


# ---------------------------------------------------------------------------
# shared properties
# ---------------------------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_baselines_structurally_feasible(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(
        rng,
        int(rng.integers(1, 5)),
        int(rng.integers(1, 4)),
        int(rng.integers(1, 3)),
        int(rng.integers(1, 3)),
    )
    for sol in (m.max_sum_rate(inst), m.max_snr(inst)):
        report = m.check_feasibility(inst, sol, constraints=STRUCTURAL_CONSTRAINTS)
        assert report.feasible
        # z is derived from x: flagged iff linked
        links = np.bincount(inst.ue_of_chain, weights=sol.x.sum(axis=1), minlength=inst.n_ue)
        np.testing.assert_array_equal(sol.z, (links > 0).astype(int))


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_joint_dominates_greedy(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, 3, 2, 2, 2)
    joint = m.metrics(inst, m.max_sum_rate(inst)).sum_rate_bps
    greedy = m.metrics(inst, m.max_snr(inst)).sum_rate_bps
    assert joint >= greedy - 1e-3


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_joint_dominates_two_step(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, 3, 2, 2, 2)
    joint = m.metrics(inst, m.max_sum_rate(inst)).sum_rate_bps
    two_step = m.metrics(inst, m.run_two_step(inst, "lp-round").combined).sum_rate_bps
    assert joint >= two_step - 1e-3
