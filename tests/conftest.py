"""Shared instance builders and independent brute-force oracles.

The oracles deliberately avoid the library's solver code paths: step-1
optima come from a memoized dynamic program over (UE, free-chain set)
that enumerates every satisfying candidate (no dominance trimming), and
step-2 optima from plain recursion over BS chains.  Selected link sets
are valued through `canonical_value` (math.fsum in sorted pair order)
so equal sets compare exactly regardless of summation order.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, settings

import mmwassoc as m
from mmwassoc import step2flow

settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,  # reproducible example streams, run to run and machine to machine
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def random_instance(
    rng: np.random.Generator,
    n_ue: int,
    n_bs: int,
    n_ue_rf: int,
    n_bs_rf: int,
    c_high: float = 2e9,
    r_low: float = 0.2e9,
    r_high: float = 3e9,
) -> m.AssociationInstance:
    c = rng.uniform(0.0, c_high, (n_ue * n_ue_rf, n_bs * n_bs_rf))
    r = rng.uniform(r_low, r_high, n_ue)
    return m.make_instance(c, r, n_ue_rf, n_bs_rf)


def random_small_instance(rng: np.random.Generator) -> m.AssociationInstance:
    """Enumerable sizes: <= 4 UEs, <= 3 BSs, <= 2 chains each."""
    return random_instance(
        rng,
        n_ue=int(rng.integers(1, 5)),
        n_bs=int(rng.integers(1, 4)),
        n_ue_rf=int(rng.integers(1, 3)),
        n_bs_rf=int(rng.integers(1, 3)),
    )


def random_residual(
    rng: np.random.Generator,
    n_ues: int = 3,
    n_ue_rf: int = 2,
    n_bs: int = 2,
    max_free_per_bs: int = 3,
) -> step2flow.ResidualInstance:
    """Whole-UE residual with random per-BS free-chain counts."""
    rows = n_ues * n_ue_rf
    cols = sum(int(rng.integers(1, max_free_per_bs + 1)) for _ in range(n_bs))
    return step2flow.ResidualInstance(
        c=rng.uniform(0.0, 3e9, (rows, cols)),
        ue_chain_ids=np.arange(rows),
        bs_chain_ids=np.arange(cols),
        ue_ids=np.arange(n_ues),
        ue_of_chain=np.arange(rows) // n_ue_rf,
    )


# ---------------------------------------------------------------------------
# Canonical valuation
# ---------------------------------------------------------------------------


def canonical_value(c: np.ndarray, pairs) -> float:
    """Order-independent (exactly rounded) sum of the selected capacities."""
    return math.fsum(float(c[i, j]) for i, j in sorted(pairs))


def pairs_of(x: np.ndarray):
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(x))]


# ---------------------------------------------------------------------------
# Step-1 oracle: memoized DP over (UE index, free-chain frozenset)
# ---------------------------------------------------------------------------


def _all_satisfying_options(inst: m.AssociationInstance, u: int):
    """Every (pairs) whose capacities reach r_u, with no trimming at all."""
    chains = np.flatnonzero(inst.ue_of_chain == u)
    n_bc = inst.c.shape[1]
    options = [()]
    for k in range(1, inst.n_ue_rf + 1):
        for bs in itertools.combinations(range(n_bc), k):
            for perm in itertools.permutations(chains, k):
                pairs = tuple(zip(map(int, perm), bs))
                if sum(inst.c[i, j] for i, j in pairs) >= inst.rate_req[u]:
                    options.append(pairs)
    return options


def step1_oracle(inst: m.AssociationInstance, value_of_option):
    """Max of an additive per-UE tuple value over all feasible assignments.

    value_of_option(inst, u, pairs) -> tuple; tuples add componentwise
    and compare lexicographically.  Returns (best value tuple, argmax pairs).
    """
    options = [_all_satisfying_options(inst, u) for u in range(inst.n_ue)]
    zero = tuple(0.0 for _ in value_of_option(inst, 0, ()))

    @lru_cache(maxsize=None)
    def rec(u: int, free: frozenset):
        if u == inst.n_ue:
            return zero, ()
        best_val, best_pairs = None, None
        for pairs in options[u]:
            js = [j for _, j in pairs]
            if any(j not in free for j in js):
                continue
            sub_val, sub_pairs = rec(u + 1, free - frozenset(js))
            val = tuple(
                a + b for a, b in zip(value_of_option(inst, u, pairs), sub_val)
            )
            if best_val is None or val > best_val:
                best_val, best_pairs = val, pairs + sub_pairs
        return best_val, best_pairs

    value, pairs = rec(0, frozenset(range(inst.c.shape[1])))
    rec.cache_clear()
    return value, pairs


def value_objective(inst, u, pairs):
    if not pairs:
        return (0.0,)
    w = sum(
        1.0 / (inst.n_ue_rf + 1 + inst.c[i, j] / inst.rate_req[u]) for i, j in pairs
    )
    return (1.0 - w,)


def value_satisfied(inst, u, pairs):
    return (1.0 if pairs else 0.0,)


def value_satisfied_then_links(inst, u, pairs):
    return (1.0 if pairs else 0.0, -float(len(pairs)))


def literal_step1_best(inst: m.AssociationInstance) -> float:
    """Definition-level oracle: every binary x, z from links, audit, maximize."""
    n_uc, n_bc = inst.c.shape
    best = 0.0
    for bits in range(1 << (n_uc * n_bc)):
        x = np.array([(bits >> k) & 1 for k in range(n_uc * n_bc)]).reshape(n_uc, n_bc)
        links = np.bincount(inst.ue_of_chain, weights=x.sum(axis=1), minlength=inst.n_ue)
        z = (links > 0).astype(int)
        sol = m.AssociationSolution(x=x, z=z, per_ue_rate=np.zeros(inst.n_ue))
        if m.check_feasibility(inst, sol).feasible:
            best = max(best, m.objective_step1(inst, sol))
    return best


# ---------------------------------------------------------------------------
# Step-2 oracle: recursion over BS chains
# ---------------------------------------------------------------------------


def step2_oracle(res: step2flow.ResidualInstance):
    """(max sum rate via canonical_value, argmax pair set) by brute force."""
    rows, cols = res.c.shape
    best_val, best_pairs = 0.0, []

    def rec(col: int, used_rows: int, chosen: list):
        nonlocal best_val, best_pairs
        if col == cols:
            val = canonical_value(res.c, chosen)
            if val > best_val:
                best_val, best_pairs = val, list(chosen)
            return
        rec(col + 1, used_rows, chosen)  # leave this BS chain idle
        for row in range(rows):
            if used_rows & (1 << row):
                continue
            chosen.append((row, col))
            rec(col + 1, used_rows | (1 << row), chosen)
            chosen.pop()

    rec(0, 0, [])
    return best_val, best_pairs
