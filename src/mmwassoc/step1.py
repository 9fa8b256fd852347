"""Requirement-satisfaction association (step 1), three ways.

Maximize the number of UEs whose rate requirement is met, spending as
few BS RF chains as possible and preferring high-capacity links.  The
score of a solution (instance.objective_step1) is

    sum_u z_u  -  sum over active links (i, j) of
                  w_ij = 1 / (n_ue_rf + 1 + c_ij / r_u),  r_u the owning UE's requirement.

Every link penalty lies in (0, 1/(n_ue_rf + 1)], so with n_ue_rf links a
UE still nets a positive gain, and the per-chain penalty keeps the chain
count minimal; dividing c_ij by r_u stops high-requirement UEs with good
links from crowding out cheap-to-serve ones.  The penalties come from
one table, instance.link_weights, which the LP's objective and the exact
search's candidate scores read and which objective_step1 scores with,
so every solver here prices a link the same way, bit for bit.

Solvers:
  * solve_step1_exact: depth-first branch and bound over per-UE chain
    subsets, pruned by one table over each BS's used-chain count,
    globally optimal, guarded by a node budget, and started from the
    rounded relaxation scored by objective_step1.  Each subset is one
    record that carries its own step in the table's index, read off the
    instance's chain layout, and the search path is one slot per UE.
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
from functools import reduce
from itertools import chain, combinations, permutations
from operator import add, index

import numpy as np

from . import lp
from .instance import AssociationInstance, AssociationSolution, link_weights, objective_step1
from .instance import solution_from_x
from .tolerances import FEAS_TOL, FRACTION_TOL, SUPPORT_EPS, TIE_EPS

DEFAULT_NODE_BUDGET = 2_000_000


class NodeBudgetExceeded(RuntimeError):
    """Search exceeded its node budget; carries the best incumbent found."""

    def __init__(self, budget: int, incumbent: AssociationSolution):
        super().__init__(f"exact search exceeded node budget of {budget}")
        self.incumbent = incumbent


@dataclass(frozen=True, eq=False)
class FractionalSolution:
    """Box-relaxation optimum: x*, z* in [0, 1], and the relaxed objective."""

    x_frac: np.ndarray
    z_frac: np.ndarray
    lp_objective: float

    def __post_init__(self) -> None:
        for arr in (self.x_frac, self.z_frac):
            if not ((arr >= -FRACTION_TOL) & (arr <= 1 + FRACTION_TOL)).all():  # NaN fails too
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
    objective = np.concatenate([-link_weights(inst).ravel(), np.ones(inst.n_ue)])
    a_ub, b_ub = _relaxation_rows(inst)
    res = lp.solve_lp_max(objective, a_ub, b_ub, np.ones(nx + inst.n_ue))
    lhs = np.bincount(a_ub.rows, weights=a_ub.values * res.x[a_ub.cols], minlength=b_ub.size)
    residual = lhs - b_ub
    if not residual.max(initial=0.0) <= FEAS_TOL:  # a NaN residual fails too
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


def _ue_candidates(c: list, weights: list, r_u: float, rows: list, places: list):
    """Minimal satisfying link sets of one UE, best score first.

    A candidate pairs k distinct chains of the UE with k distinct BS
    chains (k <= the UE's chain count) so the capacities sum to at least
    r_u.  Two exactness-preserving filters shrink the list: sets with a
    satisfying strict subset are dropped (every link carries a positive
    penalty, so the subset always scores higher), and for each BS-chain
    set only the top-scoring pairings survive (equal-score ties are all
    kept so the lexicographic tie-break stays exact).  Returns one
    (score, bs_mask, links, step) record per candidate: each link (i, j)
    is its flat index i * n_bc + j in x, and step is the sum of the
    candidate's BS chains' places, its per-BS chain counts flattened as
    _count_table indexes them.

    rows holds the flat offsets i * n_bc of the UE's chains i, and
    places[j] the place value of BS chain j; with no BS chains there is
    no BS subset, so no candidate.  c and weights are the capacities and
    link weights as flat row-major Python lists, since indexing a numpy
    array boxes a new scalar on every read.  Dropping link d leaves
    total - caps[d], and IEEE subtraction is monotone, so testing the
    weakest link tests every d.  The float sums fold left to right with
    reduce, since the builtin sum compensates them on CPython 3.12 and
    later; the builtin sum adds only the ints of masks and steps.
    """
    out = []
    for k in range(1, len(rows) + 1):
        for bs_subset in combinations(range(len(places)), k):
            mask = sum(1 << j for j in bs_subset)
            step = sum(places[j] for j in bs_subset)
            best: list[tuple[float, int, tuple, int]] = []
            for row_perm in permutations(rows, k):
                links = tuple(map(add, row_perm, bs_subset))
                caps = [c[f] for f in links]
                total = reduce(add, caps)
                if total < r_u or total - min(caps) >= r_u:
                    continue  # short, or dominated: a strict subset already satisfies
                score = 1.0 - reduce(add, map(weights.__getitem__, links))
                if not best or score > best[0][0]:
                    best = [(score, mask, links, step)]
                elif score == best[0][0]:
                    best.append((score, mask, links, step))
            out.extend(best)
    out.sort(key=lambda t: -t[0])
    return out


def _count_table(candidates: list, n_bs: int, n_bs_rf: int) -> list:
    """Completion bounds over per-BS used-chain counts.

    table[u][k] is the best score UEs u.. can add when k holds the number
    of used chains at each BS, flattened in base n_bs_rf + 1 (BS 0 most
    significant):

        table[u][k] = max(table[u+1][k], s + table[u+1][k + d] for k + d <= n_bs_rf),

    over UE u's candidates, d being a candidate's per-BS chain counts
    (its step, unflattened) and s the best score among u's candidates
    with that step.
    """
    base = n_bs_rf + 1
    table = [np.zeros((base,) * n_bs)]
    for cands in reversed(candidates):
        rest, row = table[-1], table[-1].copy()
        # cands run best first, so reversed the best of each step is written last.
        best_of_step = {step: score for score, _, _, step in reversed(cands)}
        for step, score in best_of_step.items():
            d = np.unravel_index(step, row.shape)
            room = row[tuple(slice(base - k) for k in d)]  # entries k with k + d <= n_bs_rf
            np.maximum(room, score + rest[tuple(slice(k, None) for k in d)], out=room)
        table.append(row)
    return [t.ravel().tolist() for t in reversed(table)]


def _lex_less(links_a, links_b) -> bool:
    """True if the binary matrix with ones at flat indices links_a is
    lexicographically smaller than that of links_b.

    At the first sorted index where the two differ, the later one marks
    the smaller matrix: the other has a one where it has a zero.  A
    strict prefix is smaller, since the longer set adds ones after it.
    """
    return [-f for f in sorted(links_a)] < [-f for f in sorted(links_b)]


def solve_step1_exact(
    inst: AssociationInstance, node_budget: int = DEFAULT_NODE_BUDGET
) -> AssociationSolution:
    """Globally optimal association by depth-first branch and bound.

    Branches per UE over its minimal satisfying chain sets (or none).
    One table, filled once per solve by _count_table, prunes.  It is a
    state-space relaxation (Christofides, Mingozzi & Toth, Networks
    11(2), 1981): of a node's state, the next UE and the used-chain mask,
    it keeps the UE and the number of used chains at each BS.  It is
    admissible, since a real completion takes chains disjoint from the
    used ones, so its per-BS counts add up within n_bs_rf and it scores
    the same in the table.  A node is cut when its score plus its entry
    falls below the incumbent by more than TIE_EPS, which covers the
    round-off: the table and the search add the same n_ue or fewer
    scores below 1 in different orders, so they differ by about 1e-13 at
    n_ue = 30.  A cut subtree then holds only leaves that the search
    would take neither as an improvement nor as a tie, since the
    incumbent's score never falls.  No state dominance is kept: it would
    cut only arrivals at a (UE, used-chain mask) state scoring strictly
    below an earlier arrival, whose leaves all lose to that arrival's
    best, so it changes no result, and behind the table it saves few
    nodes for a dictionary and a tie rule of its own.  The first
    incumbent is the rounded relaxation as it stands, scored by
    objective_step1: a rounded solution scores more than
    1/(n_ue_rf + 1) for each UE it associates, so it beats the empty
    association unless it has no links, and then it is the empty one.
    Score ties resolve to the lexicographically smallest assignment
    matrix.  A UE with no candidates (none of its link sets reaches
    r_u, or the instance has no BS chains) stays unassociated.  Raises
    NodeBudgetExceeded (carrying the incumbent) if the tree outgrows
    node_budget, or before anything is enumerated if every UE's possible
    candidates, or the table's entries, would.  node_budget must be an
    integer of at least 1: a float raises TypeError and a smaller one
    ValueError, before any LP is solved.

    The capacities and link weights (instance.link_weights) are read
    once per solve as flat row-major Python lists, so every candidate
    score, table entry and search sum is a plain float.  So is the chain
    layout: each UE's flat row offsets come from inst.ue_of_chain, and
    each BS chain's place value in the table index, (n_bs_rf + 1) **
    (n_bs - 1 - b) for its BS b, from inst.bs_of_chain.  Throughout the
    search a link (i, j) is its flat index i * n_bc + j in x, and each
    candidate is one (score, bs_mask, links, step) record.  A node's
    index into the table, cell, is its per-BS used-chain counts
    flattened as in _count_table, and each candidate adds its step to
    it.  The path holds one slot per UE, chosen[u] being the links of
    u's candidate or empty when u is left out; it is flattened only at a
    leaf that improves on the incumbent or ties it, and the incumbent's
    x is written in one assignment.
    """
    if index(node_budget) < 1:  # as ExperimentSpec rejects exact_node_budget
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    n_ue, n_bc, n_ue_rf = inst.n_ue, inst.c.shape[1], inst.n_ue_rf
    weights = link_weights(inst).ravel().tolist()
    c, rate_req = inst.c.ravel().tolist(), inst.rate_req.tolist()

    seed = round_solution(solve_step1_lp(inst), inst)

    # Guard before enumerating: the candidates and the count table, of
    # (n_bs_rf + 1) ** n_bs entries per UE, must fit too.
    per_ue_candidates = sum(
        math.comb(n_bc, k) * math.perm(n_ue_rf, k) for k in range(1, n_ue_rf + 1)
    )
    if max(per_ue_candidates, (inst.n_bs_rf + 1) ** inst.n_bs) * n_ue > node_budget:
        raise NodeBudgetExceeded(node_budget, seed)

    rows = [(np.flatnonzero(inst.ue_of_chain == u) * n_bc).tolist() for u in range(n_ue)]
    places = [(inst.n_bs_rf + 1) ** (inst.n_bs - 1 - b) for b in inst.bs_of_chain.tolist()]
    candidates = [_ue_candidates(c, weights, r, rows[u], places) for u, r in enumerate(rate_req)]

    table = _count_table(candidates, inst.n_bs, inst.n_bs_rf)

    best_score = objective_step1(inst, seed)
    best_links = tuple(np.flatnonzero(seed.x).tolist())
    nodes = 0
    chosen: list[tuple] = [()] * n_ue

    def best_solution() -> AssociationSolution:
        x = np.zeros(inst.c.size, dtype=int)
        x[list(best_links)] = 1
        return solution_from_x(inst, x.reshape(inst.c.shape))

    def dfs(u: int, used_mask: int, cell: int, score: float) -> None:
        nonlocal best_score, best_links, nodes
        nodes += 1
        if nodes > node_budget:
            raise NodeBudgetExceeded(node_budget, best_solution())
        if u == n_ue:
            if score > best_score - TIE_EPS:  # an improvement or a tie
                links = tuple(chain.from_iterable(chosen))
                if score > best_score + TIE_EPS:
                    best_score, best_links = score, links
                elif _lex_less(links, best_links):
                    best_links = links
            return
        if score + table[u][cell] < best_score - TIE_EPS:
            return
        for cand_score, mask, links, step in candidates[u]:
            if not mask & used_mask:
                chosen[u] = links
                dfs(u + 1, used_mask | mask, cell + step, score + cand_score)
        chosen[u] = ()
        dfs(u + 1, used_mask, cell, score)  # leave u unassociated

    try:
        dfs(0, 0, 0, 0.0)
    finally:
        del dfs  # dfs refers to itself: break the cycle so its tables are freed on return
    return best_solution()
