"""Requirement-satisfaction association (step 1), three ways.

Maximize the number of UEs whose rate requirement is met, spending as
few BS RF chains as possible and preferring high-capacity links.  The
score of a solution (instance.objective_step1) is

    sum_u z_u  -  sum over active links (i, j) of
                  weight_term(c_ij, r_u, n_ue_rf) = 1 / (n_ue_rf + 1 + c_ij / r_u).

Every link penalty lies in (0, 1/(n_ue_rf + 1)], so with n_ue_rf links a
UE still nets a positive gain, and the per-chain penalty keeps the chain
count minimal; dividing c_ij by r_u stops high-requirement UEs with good
links from crowding out cheap-to-serve ones.

Solvers:
  * solve_step1_exact: depth-first branch and bound over per-UE chain
    subsets, globally optimal, guarded by a node budget.
  * solve_step1_lp: box relaxation of constraints 5b, 5c, 5e and 5f,
    solved by the in-package bounded-variable simplex; an upper bound on
    the exact optimum.  The per-BS budget 5d needs no rows: 5b implies
    it, since every BS owns exactly n_bs_rf chains.
  * round_solution: greedy demand-level rounding of the fractional
    point, always feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import lp
from .instance import AssociationInstance, AssociationSolution, solution_from_x, weight_term

DEFAULT_NODE_BUDGET = 2_000_000
SUPPORT_EPS = 1e-9
_TIE_EPS = 1e-12


class NodeBudgetExceeded(RuntimeError):
    """Search exceeded its node budget; carries the best incumbent found."""

    def __init__(self, budget: int, incumbent: AssociationSolution):
        super().__init__(f"exact search exceeded node budget of {budget}")
        self.incumbent = incumbent


@dataclass(frozen=True)
class FractionalSolution:
    """Box-relaxation optimum: x*, z* in [0, 1], and the relaxed objective."""

    x_frac: np.ndarray
    z_frac: np.ndarray
    lp_objective: float

    def __post_init__(self) -> None:
        for arr in (self.x_frac, self.z_frac):
            if not ((arr >= -1e-9) & (arr <= 1 + 1e-9)).all():  # NaN fails too
                raise ValueError("fractional values must lie in [0, 1]")


# ---------------------------------------------------------------------------
# LP relaxation
# ---------------------------------------------------------------------------


def _relaxation_rows(inst: AssociationInstance) -> tuple[lp.SparseRows, np.ndarray]:
    """Constraint rows 5b, 5c, 5e, 5f over variables [x (row-major), z].

    Rows come in that order: one 5b row per BS chain, one 5c row per UE
    chain, then one 5e and one 5f row per UE.  The per-BS budget 5d gets
    no rows: every BS owns exactly n_bs_rf chains, so summing its 5b rows
    already bounds its active links by n_bs_rf.  The 5f rows are scaled
    by 1/r_u so coefficients stay O(1) alongside the unit rows.

    The rows are returned as lp.SparseRows triplets, since only 4 of each
    x column's and 2 of each z column's entries are nonzero (2.7 % of a
    full.cfg cell's 145 x 1530 matrix).  Every x column lists its 5f
    entry, so -c / r_u is kept as -0.0 where c == 0 and np.asarray of the
    triplets equals the dense rows bit for bit.
    """
    n_uc, n_bc = inst.c.shape
    n_ue = inst.n_ue
    nx = n_uc * n_bc
    row_5e = n_bc + n_uc
    row_5f = row_5e + n_ue
    # Each x column has one entry in each of the blocks 5b, 5c, 5e and 5f
    # (the first 4 * nx triplets, block by block), each z column one 5e and
    # one 5f entry (the last 2 * n_ue).
    nnz = 4 * nx + 2 * n_ue
    rows = np.empty(nnz, dtype=np.intp)
    x_rows = rows[: 4 * nx].reshape(4, n_uc, n_bc)
    x_rows[0] = np.arange(n_bc)  # 5b: BS chain serves <= 1 UE chain
    x_rows[1] = np.arange(n_bc, row_5e)[:, None]  # 5c: UE chain uses <= 1 BS chain
    x_rows[2] = (row_5e + inst.ue_of_chain)[:, None]  # 5e: links only when flagged, <= n_ue_rf
    x_rows[3] = x_rows[2] + n_ue  # 5f: flagged UEs meet r_u
    rows[4 * nx :] = np.arange(row_5e, row_5f + n_ue)
    cols = np.empty(nnz, dtype=np.intp)
    cols[: 4 * nx].reshape(4, nx)[:] = np.arange(nx)
    cols[4 * nx :].reshape(2, n_ue)[:] = np.arange(nx, nx + n_ue)
    values = np.ones(nnz)
    x_5f = values[3 * nx : 4 * nx].reshape(n_uc, n_bc)
    np.divide(-inst.c, inst.rate_req[inst.ue_of_chain][:, None], out=x_5f)
    values[4 * nx : 4 * nx + n_ue] = -float(inst.n_ue_rf)
    rhs = np.concatenate([np.ones(n_bc + n_uc), np.zeros(2 * n_ue)])
    return lp.SparseRows(rows, cols, values, (row_5f + n_ue, nx + n_ue)), rhs


def solve_step1_lp(inst: AssociationInstance) -> FractionalSolution:
    """Optimum of the box relaxation; an upper bound on any binary solution."""
    n_uc, n_bc = inst.c.shape
    nx = n_uc * n_bc
    weights = weight_term(inst.c, inst.rate_req[inst.ue_of_chain][:, None], inst.n_ue_rf)
    objective = np.concatenate([-weights.ravel(), np.ones(inst.n_ue)])
    a_ub, b_ub = _relaxation_rows(inst)
    res = lp.solve_lp_max(objective, a_ub, b_ub, np.ones(nx + inst.n_ue))
    lhs = np.bincount(a_ub.rows, weights=a_ub.values * res.x[a_ub.cols], minlength=b_ub.size)
    residual = lhs - b_ub
    if not residual.max(initial=0.0) <= 1e-7:  # a NaN residual fails too
        raise lp.SimplexError("relaxed constraints violated beyond tolerance")
    return FractionalSolution(
        x_frac=res.x[:nx].reshape(n_uc, n_bc),
        z_frac=res.x[nx:],
        lp_objective=res.objective,
    )


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------


def _best_first_demand(cells: list, free_bs: list, r_u: float):
    """Fewest conflict-free links of one UE whose capacities reach r_u.

    Walks the UE's sorted (capacity, i, j) cells, skipping retired BS
    chains and links that reuse an already-picked UE or BS chain, until
    the running sum meets the requirement.  Returns (demand, picked (i, j)
    pairs, total) or (None, (), 0.0) when all links together fall short.
    """
    picked: list[tuple[int, int]] = []
    used_i: set[int] = set()
    used_j: set[int] = set()
    total = 0.0
    for cap, i, j in cells:
        if not free_bs[j] or i in used_i or j in used_j:
            continue
        picked.append((i, j))
        used_i.add(i)
        used_j.add(j)
        total += cap
        if total >= r_u:
            return len(picked), tuple(picked), total
    return None, (), 0.0


def round_solution(frac: FractionalSolution, inst: AssociationInstance) -> AssociationSolution:
    """Greedy demand-level rounding of a fractional association.

    Candidate links are the support of x* (entries > SUPPORT_EPS) with
    positive capacity, sorted once per UE: largest capacity first, ties
    to the lower UE chain, then the lower BS chain.  For each demand
    level n = 1..n_ue_rf: repeatedly find every UE whose requirement
    needs exactly n free links (best-first), associate the one with the
    largest n-link aggregate (ties to the lowest UE index), then retire
    its links' BS chains.  One sort suffices: retiring chains only
    removes links, and what remains of a sorted list is still sorted.
    A UE's best-first result depends only on which of its cells' BS
    chains are free, so it is kept until one of them is retired.
    UEs whose free links cannot reach their requirement are skipped.
    The result always satisfies the full constraint set.

    The picks read Python lists, since indexing a numpy array boxes a new
    scalar on every read; x is filled once from the picked links.
    """
    if frac.x_frac.shape != inst.c.shape:
        raise ValueError("fractional solution does not match instance shape")
    rows, cols = ((frac.x_frac > SUPPORT_EPS) & (inst.c > 0)).nonzero()
    caps = inst.c[rows, cols]
    order = np.lexsort((cols, rows, -caps))
    n_ue, n_bc = inst.n_ue, inst.c.shape[1]
    ue_of_chain, rate_req = inst.ue_of_chain.tolist(), inst.rate_req.tolist()
    cells_of_ue: list[list] = [[] for _ in range(n_ue)]
    for cell in zip(caps[order].tolist(), rows[order].tolist(), cols[order].tolist()):
        cells_of_ue[ue_of_chain[cell[1]]].append(cell)

    ues_of_bs: list[list] = [[] for _ in range(n_bc)]
    for u, cells in enumerate(cells_of_ue):
        for j in {j for _, _, j in cells}:
            ues_of_bs[j].append(u)

    free_bs = [True] * n_bc
    best_of: list = [None] * n_ue  # _best_first_demand per UE, None when stale
    open_ues = list(range(n_ue))  # UEs not associated yet, ascending
    links: list[tuple[int, int]] = []
    for level in range(1, inst.n_ue_rf + 1):
        while True:
            best_u, best_total, best_pairs = -1, -math.inf, ()
            for u in open_ues:
                if best_of[u] is None:
                    best_of[u] = _best_first_demand(cells_of_ue[u], free_bs, rate_req[u])
                demand, pairs, total = best_of[u]
                if demand == level and total > best_total:
                    best_u, best_total, best_pairs = u, total, pairs
            if best_u < 0:
                break
            open_ues.remove(best_u)
            links.extend(best_pairs)
            for _, j in best_pairs:
                free_bs[j] = False  # BS chain consumed
                for v in ues_of_bs[j]:
                    best_of[v] = None
    x = np.zeros(inst.c.shape, dtype=int)
    x[[i for i, _ in links], [j for _, j in links]] = 1
    return solution_from_x(inst, x)


# ---------------------------------------------------------------------------
# Exact branch and bound
# ---------------------------------------------------------------------------


def _ue_candidates(inst: AssociationInstance, weights: np.ndarray, u: int):
    """Minimal satisfying link sets for UE u, best score first.

    A candidate pairs k distinct chains of u with k distinct BS chains
    (k <= n_ue_rf) so the capacities sum to at least r_u.  Two
    exactness-preserving filters shrink the list: sets with a satisfying
    strict subset are dropped (every link carries a positive penalty, so
    the subset always scores higher), and for each BS-chain set only the
    top-scoring pairings survive (equal-score ties are all kept so the
    lexicographic tie-break stays exact).  Returns (score, bs_mask,
    pairs) tuples.
    """
    chains = np.flatnonzero(inst.ue_of_chain == u)
    r_u = float(inst.rate_req[u])
    n_bc = inst.c.shape[1]
    out = []
    for k in range(1, inst.n_ue_rf + 1):
        for bs_subset in combinations(range(n_bc), k):
            best: list[tuple[float, int, tuple]] = []
            for ue_perm in permutations(chains, k):
                pairs = tuple(zip(ue_perm, bs_subset))
                caps = [inst.c[i, j] for i, j in pairs]
                if sum(caps) < r_u:
                    continue
                if k > 1 and any(sum(caps) - caps[d] >= r_u for d in range(k)):
                    continue  # dominated: a strict subset already satisfies
                score = 1.0 - sum(weights[i, j] for i, j in pairs)
                if not best or score > best[0][0]:
                    mask = 0
                    for j in bs_subset:
                        mask |= 1 << j
                    best = [(score, mask, pairs)]
                elif score == best[0][0]:
                    best.append((score, best[0][1], pairs))
            out.extend(best)
    out.sort(key=lambda t: -t[0])
    return out


def _lex_less(pairs_a, pairs_b, n_bc: int) -> bool:
    """True if the binary matrix of pairs_a is lexicographically smaller."""
    ones_a = sorted(i * n_bc + j for i, j in pairs_a)
    ones_b = sorted(i * n_bc + j for i, j in pairs_b)
    for a, b in zip(ones_a, ones_b):
        if a != b:
            return a > b  # later first one == zero earlier == lex smaller
    return len(ones_a) < len(ones_b)


def _solution_pairs(sol: AssociationSolution) -> tuple:
    return tuple((int(i), int(j)) for i, j in zip(*np.nonzero(sol.x)))


def _score_of_pairs(inst: AssociationInstance, weights: np.ndarray, pairs) -> float:
    z = len({int(inst.ue_of_chain[i]) for i, _ in pairs})
    return z - sum(weights[i, j] for i, j in pairs)


def solve_step1_exact(
    inst: AssociationInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> AssociationSolution:
    """Globally optimal association by depth-first branch and bound.

    Branches per UE over its minimal satisfying chain sets (or none).
    Pruning uses an admissible fractional-knapsack bound (each remaining
    UE offers at best its top standalone gain at the cost of its
    smallest chain demand, packed into the free-chain count) plus state
    dominance: two prefixes reaching the same (UE, used-chain mask)
    state admit identical completions, so an arrival scoring strictly
    below an earlier one is dead.  The bound depends only on the UE and
    the free-chain count, so it is tabulated once per solve.  The
    incumbent is seeded from the rounded relaxation.  Score ties resolve
    to the lexicographically smallest assignment matrix (tied state
    arrivals are re-explored for that reason).  Raises
    NodeBudgetExceeded (carrying the incumbent) if the tree outgrows
    node_budget.
    """
    weights = weight_term(inst.c, inst.rate_req[inst.ue_of_chain][:, None], inst.n_ue_rf)
    n_ue, n_bc = inst.n_ue, inst.c.shape[1]

    seed = round_solution(solve_step1_lp(inst), inst)
    seed_pairs = _solution_pairs(seed)
    seed_score = _score_of_pairs(inst, weights, seed_pairs)

    # Guard before enumerating: candidate generation itself must fit.
    per_ue_candidates = sum(
        math.comb(n_bc, k) * math.perm(inst.n_ue_rf, k)
        for k in range(1, inst.n_ue_rf + 1)
    )
    if per_ue_candidates * n_ue > node_budget:
        raise NodeBudgetExceeded(node_budget, seed)

    candidates = [_ue_candidates(inst, weights, u) for u in range(n_ue)]

    # Per-UE best gain and cheapest chain demand, then suffix lists sorted
    # by gain density for the knapsack bound.
    gain = [c[0][0] if c else 0.0 for c in candidates]
    demand = [min(len(t[2]) for t in c) if c else 0 for c in candidates]
    density_suffix: list[list[tuple[float, int]]] = [[] for _ in range(n_ue + 1)]
    for u in range(n_ue - 1, -1, -1):
        items = density_suffix[u + 1] + ([(gain[u], demand[u])] if candidates[u] else [])
        density_suffix[u] = sorted(items, key=lambda t: -t[0] / t[1])

    def knapsack_bound(u: int, free_count: int) -> float:
        total, cap = 0.0, free_count
        for g, d in density_suffix[u]:
            if cap <= 0:
                break
            if d <= cap:
                total += g
                cap -= d
            else:
                total += g * (cap / d)
                break
        return total

    bound = [[knapsack_bound(u, f) for f in range(n_bc + 1)] for u in range(n_ue + 1)]

    best_score = 0.0
    best_pairs: tuple = ()
    if seed_score > best_score + _TIE_EPS:
        best_score, best_pairs = seed_score, seed_pairs

    nodes = 0
    stack_pairs: list = []
    state_best: dict[int, float] = {}

    def best_solution() -> AssociationSolution:
        x = np.zeros(inst.c.shape, dtype=int)
        for i, j in best_pairs:
            x[i, j] = 1
        return solution_from_x(inst, x)

    def dfs(u: int, used_mask: int, free_count: int, score: float) -> None:
        nonlocal best_score, best_pairs, nodes
        nodes += 1
        if nodes > node_budget:
            raise NodeBudgetExceeded(node_budget, best_solution())
        if u == n_ue:
            if score > best_score + _TIE_EPS:
                best_score, best_pairs = score, tuple(stack_pairs)
            elif score > best_score - _TIE_EPS and _lex_less(
                stack_pairs, best_pairs, n_bc
            ):
                best_pairs = tuple(stack_pairs)
            return
        if score + bound[u][free_count] < best_score - _TIE_EPS:
            return
        key = (u << n_bc) | used_mask
        if score < state_best.get(key, -np.inf) - _TIE_EPS:
            return  # a better prefix already reached this state
        if score > state_best.get(key, -np.inf):
            state_best[key] = score
        for cand_score, mask, pairs in candidates[u]:
            if mask & used_mask:
                continue
            stack_pairs.extend(pairs)
            dfs(u + 1, used_mask | mask, free_count - len(pairs), score + cand_score)
            del stack_pairs[-len(pairs) :]
        dfs(u + 1, used_mask, free_count, score)  # leave u unassociated

    dfs(0, 0, n_bc, 0.0)
    return best_solution()
