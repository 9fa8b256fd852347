"""Leftover-resource allocation (step 2) as a max-sum-rate assignment.

BS RF chains not consumed by the requirement-satisfaction step are
handed to the still-unassociated UEs so the network sum rate is
maximized.  The paper states this as a min-cost flow on the
unit-capacity network

    source -> free BS chain -> free UE chain -> sink

plus a zero-cost overflow edge source -> sink.  Link edges carry cost
-c_ij, so a min-cost flow is exactly a max-sum-rate assignment; the
overflow absorbs the supply of BS chains that no UE chain can use,
keeping the full supply routable.  All capacities and supplies are
integers, hence an integral optimum always exists.  Every edge but the
overflow has capacity one, so an integral flow is a bipartite matching
between free BS chains and free UE chains, and solve_min_cost_flow
finds it with solve_assignment, a rectangular assignment on the
capacity block.  A FlowNetwork therefore stores only that block; its
edges, one record array of dtype EDGE_DTYPE (int64 tail, head and
capacity, float64 cost), are derived from it on first read, which only
the tests, the flow oracle and the benchmark's edge counter do.

The network path serves step 2 only: baselines.max_sum_rate calls
solve_assignment on the whole capacity matrix.  solve_step2 keeps
building the network and calling solve_min_cost_flow although only the
block is needed, because the benchmark's sweep tracing reports both as
spans and counts the network's edges.  It takes that path for every
residual, an empty one too, and completes its solution with
instance.complete_solution, as solution_from_x does for a whole
instance.

The network has no per-BS budget or per-UE cap layer because neither
can bind: a BS's leftover budget equals its number of free chains, and
every unassociated UE keeps all of its chains, so at most one link per
chain already respects both.

Capacities of sampled scenarios are continuous, so there the optimum is
unique; solve_assignment states how it breaks ties elsewhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .instance import AssociationInstance, AssociationSolution, _check_shape, complete_solution
from .instance import empty_solution
from .tolerances import INTEGRALITY_TOL


@dataclass(frozen=True, eq=False)
class ResidualInstance:
    """Free resources after step 1, restricted to unassociated UEs.

    ``c`` has one row per free UE chain and one column per free BS
    chain; the *_ids arrays give their indices in the parent instance
    and ``ue_of_chain`` the owning UE of every row.
    """

    c: np.ndarray
    ue_chain_ids: np.ndarray
    bs_chain_ids: np.ndarray
    ue_of_chain: np.ndarray  # global UE index per row of c

    def __post_init__(self) -> None:
        if self.c.shape != (len(self.ue_chain_ids), len(self.bs_chain_ids)):
            raise ValueError("capacity block does not match chain id lists")


EDGE_DTYPE = np.dtype([("tail", "i8"), ("head", "i8"), ("capacity", "i8"), ("cost", "f8")])


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """The step-2 network of one capacity block c (see build_flow_network).

    Only c is stored, as a read-only float64 copy, so the network cannot
    change after it is built.  The vertex count, supply, source and sink
    follow from its shape, and the EDGE_DTYPE edges (tail, head,
    capacity, cost), edge k being flow entry k, are built from it on
    first read and kept read-only.  A c that is not 2-D or holds a NaN
    raises ValueError.
    """

    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.c, dtype=float)
        if c.ndim != 2 or np.isnan(c.max(initial=0.0)):  # max propagates a NaN
            raise ValueError("a step-2 network needs a 2-D capacity block without NaN")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def n_vertices(self) -> int:
        return self.sink + 1

    @property
    def supply(self) -> int:
        return self.c.shape[1]

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return 1 + self.c.shape[0] + self.c.shape[1]

    @functools.cached_property
    def edges(self) -> np.recarray:
        edges = _edges(self.c).view(np.recarray)
        edges.flags.writeable = False
        return edges


def make_residual(inst: AssociationInstance, sol: AssociationSolution) -> ResidualInstance:
    """Strip the chains consumed and UEs associated by a step-1 solution."""
    _check_shape(inst, sol)
    free_bs = (sol.x.sum(axis=0) == 0).nonzero()[0]
    na_rows = (sol.z[inst.ue_of_chain] == 0).nonzero()[0]
    return ResidualInstance(
        c=inst.c[na_rows[:, None], free_bs],
        ue_chain_ids=na_rows,
        bs_chain_ids=free_bs,
        ue_of_chain=inst.ue_of_chain[na_rows],
    )


def full_residual(inst: AssociationInstance) -> ResidualInstance:
    """The whole instance treated as leftover (no UE associated yet)."""
    return make_residual(inst, empty_solution(inst))


def _edges(c: np.ndarray) -> np.ndarray:
    """The EDGE_DTYPE edges of the step-2 network of c (see build_flow_network)."""
    n_rows, n_cols = c.shape
    links = slice(n_cols, n_cols * (1 + n_rows))
    bs = np.arange(1, 1 + n_cols)
    ue = np.arange(1 + n_cols, 1 + n_cols + n_rows)
    edges = np.zeros((n_rows + 1) * (n_cols + 1), EDGE_DTYPE)
    tail, head = edges["tail"], edges["head"]
    # Source edges 0 -> k, then the link block k -> m with k outer, then
    # the sink edges m -> t and the overflow 0 -> t; tails of 0 and costs
    # of 0.0 are already in place.
    head[:n_cols] = bs
    tail[links].reshape(n_cols, n_rows)[...] = bs[:, None]
    head[links].reshape(n_cols, n_rows)[...] = ue
    tail[links.stop : -1] = ue
    head[links.stop :] = 1 + n_cols + n_rows
    edges["capacity"] = 1
    edges["capacity"][-1] = n_cols
    np.negative(c.T, out=edges["cost"][links].reshape(n_cols, n_rows))
    return edges


def build_flow_network(res: ResidualInstance) -> FlowNetwork:
    """Assignment graph: s -> BS chain -> UE chain -> t (+ overflow s -> t).

    Vertices are s = 0, BS chain k = 1 + k, UE chain m = 1 + n_cols + m
    and t last.  Edges come in that order too: the n_cols source edges,
    then the link edges k -> m (k outer, m inner) with cost -c[m, k], then
    the n_rows sink edges, then the overflow.  Every edge but the
    overflow has capacity one; the overflow takes the whole supply.  The
    network holds a copy of res.c, and its edges are derived from it on
    first read.
    """
    return FlowNetwork(res.c)


def solve_min_cost_flow(net: FlowNetwork) -> np.ndarray:
    """Integral min-cost flow of a step-2 network, one unit count per edge.

    Only a FlowNetwork, which build_flow_network makes, is accepted;
    anything else raises ValueError.  Its edges follow from its read-only
    capacity block c, so they cannot be foreign or tampered with.  A
    flow on it is a matching of BS chains to UE chains (each link edge
    carries 0 or 1) plus overflow, so the min-cost flow is the
    maximum-weight matching solve_assignment finds on c, and the edges
    are never built here.  Pairs with c <= 0 never carry flow: a link
    that gains nothing costs as much as the overflow.

    Only step 2 comes here: solve_step2 still goes through
    build_flow_network and this function although only c is needed,
    because the benchmark's sweep tracing (bench/trace_sweep.py) reports
    both calls as spans of their own and counts the network's edges.
    max_sum_rate calls solve_assignment directly.
    """
    if not isinstance(net, FlowNetwork):
        raise ValueError("not a step-2 network made by build_flow_network")
    x = solve_assignment(net.c)
    return np.concatenate([x.sum(axis=0), x.T.ravel(), x.sum(axis=1), [net.supply - x.sum()]])


def solve_assignment(c: np.ndarray) -> np.ndarray:
    """Maximum-weight matching of the rows of c to its columns, as 0/1 x.

    x is an int64 array of the shape of c with at most one 1 per row and
    per column.  The weights are w = max(c, 0): pairs with c <= 0 gain
    nothing and are never matched, so x has a 1 only where c > 0.

    The matching is a rectangular assignment solved by shortest
    augmenting paths (Jonker & Volgenant, *Computing* 38, 1987; Crouse,
    "On implementing 2D rectangular assignment algorithms", *IEEE TAES*
    52(4), 2016), with rows the smaller side of c.  Reduced costs are
    -w[i][j] - u[i] - v[j] with duals u, v.

    A c that is not 2-D, or holds a NaN or +inf, raises ValueError: the
    search below would never end on such a weight.  An empty c gives an
    empty x.

    Row-reduction start: each row's best column is the one of largest
    weight, the lowest index among equal weights (numpy's argmax), and
    u[i] starts at -max_j w[i][j]; one max and one argmax over the rows
    give both.  In index order, each row takes its best column if no
    earlier row holds it.  Every reduced cost then starts at
    max_k w[i][k] - w[i][j] >= 0, it is zero on every taken pair, and
    every v is 0.

    Search: each row left over by the start, in index order, is added
    by one dense Dijkstra search over the columns; it scans the list
    row of each row it reaches, stops at the first free column it
    settles, then updates the duals u, v and augments along the path.
    The reduced costs stay non-negative and zero on the matched pairs,
    v stays 0 on free columns and <= 0 on the others, so after each row
    the matching has the largest weight of all that match the rows
    matched so far.  After the last row it matches every row, and since
    w >= 0 and there are no more rows than columns, any matching can be
    extended to match every row without losing weight: the result is
    the exact optimum.

    Ties: the start gives a row its lowest-index best column unless an
    earlier row holds it.  Among the unsettled columns of least label,
    the search settles a free column first, then the one of lowest
    index.  Sampled capacities are continuous, so there the optimum,
    hence x, is unique whatever the tie rule.

    The loops run over Python lists: they read one entry at a time, and
    indexing a numpy array boxes a new scalar on every read.
    """
    if np.ndim(c) != 2:
        raise ValueError("an assignment needs a 2-D capacity block")
    flip = c.shape[0] > c.shape[1]
    wa = np.maximum(c.T if flip else c, 0.0)
    rows, cols = wa.shape
    x = np.zeros((rows, cols), dtype=np.int64)
    if not x.size:
        return x.T if flip else x
    top = wa.max(axis=1)  # propagates a NaN
    if not np.isfinite(top).all():
        raise ValueError("an assignment needs capacities without NaN or +inf")
    w = wa.tolist()
    v, row_of, col_of = [0.0] * cols, [-1] * cols, [-1] * rows
    u, left = (-top).tolist(), []
    for i, j in enumerate(wa.argmax(axis=1).tolist()):
        if row_of[j] < 0:
            row_of[j], col_of[i] = i, j
        else:
            left.append(i)
    for start in left:
        dist, via = [math.inf] * cols, [-1] * cols
        todo, done = list(range(cols)), []
        i, d = start, 0.0
        while True:
            wi, base = w[i], d - u[i]
            pick, best = 0, math.inf
            for k, j in enumerate(todo):
                r = base - wi[j] - v[j]
                if r < dist[j]:
                    dist[j], via[j] = r, i
                else:
                    r = dist[j]
                if r < best or (r == best and row_of[j] < 0 <= row_of[todo[pick]]):
                    pick, best = k, r
            j, d = todo.pop(pick), best
            if row_of[j] < 0:
                break
            done.append(j)
            i = row_of[j]
        u[start] += d
        for k in done:
            u[row_of[k]] += d - dist[k]
            v[k] -= d - dist[k]
        while True:  # augment: shift each row on the path to its new column
            i = via[j]
            row_of[j] = i
            j, col_of[i] = col_of[i], j
            if i == start:
                break

    matched = np.arange(rows)
    x[matched, col_of] = wa[matched, col_of] > 0.0
    return x.T if flip else x


def solve_step2(res: ResidualInstance) -> AssociationSolution:
    """Max-sum-rate assignment of the residual, indexed in residual space.

    Every residual, an empty one too, goes through build_flow_network and
    solve_min_cost_flow, the network path that only step 2 uses, because
    the benchmark's sweep tracing reports both as spans;
    solve_assignment(res.c) gives the same x.  The solution is completed
    by instance.complete_solution, its z and per_ue_rate indexed by the
    residual's UEs in ascending order.
    """
    n_rows, n_cols = res.c.shape
    flow = solve_min_cost_flow(build_flow_network(res))
    # The link edges follow the n_cols source edges, BS chain outer.
    x = flow[n_cols : n_cols * (1 + n_rows)].reshape(n_cols, n_rows).T.astype(int)
    # The residual's UEs, ascending.  Not np.unique: its first call imports
    # numpy.ma, which the first cell of every process would pay for.
    ues = sorted(set(res.ue_of_chain.tolist()))
    return complete_solution(x, res.c, np.searchsorted(ues, res.ue_of_chain), len(ues))


def relaxed_step2_lp(res: ResidualInstance) -> tuple[np.ndarray, float]:
    """Vertex optimum of the box-relaxed residual assignment problem.

    Only the 5b rows (each free BS chain serves <= 1 UE chain) and 5c
    rows (each free UE chain uses <= 1 BS chain) are needed; the budget
    and cap rows are implied, as for the flow network.  Solved with the
    in-package simplex; by total unimodularity of the bipartite
    structure the returned vertex is integral (see verify_integrality).
    """
    n_rows, n_cols = res.c.shape
    nx = n_rows * n_cols
    # Variable i * n_cols + j is the link (UE chain i, BS chain j): row j
    # (5b) and row n_cols + i (5c) hold a 1 in its column.
    rows = np.concatenate(
        [np.tile(np.arange(n_cols), n_rows), n_cols + np.repeat(np.arange(n_rows), n_cols)]
    )
    cols = np.tile(np.arange(nx), 2)
    a = lp.SparseRows(rows, cols, np.ones(2 * nx), (n_cols + n_rows, nx))
    sol = lp.solve_lp_max(res.c.ravel(), a, np.ones(n_cols + n_rows), np.ones(nx))
    return sol.x.reshape(n_rows, n_cols), sol.objective


def verify_integrality(x_frac: np.ndarray, tol: float = INTEGRALITY_TOL) -> bool:
    """True when every entry is within tol of 0 or 1 (an empty x is integral)."""
    x = np.asarray(x_frac, dtype=float)
    return bool(np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= tol))
