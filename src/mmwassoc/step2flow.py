"""Leftover-resource allocation (step 2) as a min-cost network flow.

BS RF chains not consumed by the requirement-satisfaction step are
handed to the still-unassociated UEs so the network sum rate is
maximized.  This is a rectangular assignment between free BS chains and
free UE chains, solved on the unit-capacity network

    source -> free BS chain -> free UE chain -> sink

plus a zero-cost overflow edge source -> sink.  Link edges carry cost
-c_ij, so a min-cost flow is exactly a max-sum-rate assignment; the
overflow absorbs the supply of BS chains that no UE chain can use,
keeping the full supply routable.  All capacities and supplies are
integers, hence an integral optimum always exists and the successive
shortest-path solver returns one: it first moves the supply onto the
free BS chains, then routes each chain's unit by a shortest-path search
that starts at that chain.  The edges are one record array of dtype
EDGE_DTYPE: int64 tail, head and capacity, float64 cost.

The network has no per-BS budget or per-UE cap layer because neither
can bind: a BS's leftover budget equals its number of free chains, and
every unassociated UE keeps all of its chains, so at most one link per
chain already respects both.

Ties between equal-value optima are not pinned: which of them comes
back depends on the solver's path order.  Capacities of sampled
scenarios are continuous, so there the optimum is unique.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import lp
from .instance import AssociationInstance, AssociationSolution, empty_solution


@dataclass(frozen=True)
class ResidualInstance:
    """Free resources after step 1, restricted to unassociated UEs.

    ``c`` has one row per free UE chain and one column per free BS
    chain; the *_ids arrays give their indices in the parent instance,
    ``ue_ids`` the unassociated UEs in ascending order and
    ``ue_of_chain`` the owning UE of every row.
    """

    c: np.ndarray
    ue_chain_ids: np.ndarray
    bs_chain_ids: np.ndarray
    ue_ids: np.ndarray
    ue_of_chain: np.ndarray  # global UE index per row of c

    def __post_init__(self) -> None:
        if self.c.shape != (len(self.ue_chain_ids), len(self.bs_chain_ids)):
            raise ValueError("capacity block does not match chain id lists")


# A Bellman-Ford relaxation must lower a label by more than this.  Costs
# whose decimal values cancel around a cycle, such as -0.1, -1.1 and 1.2,
# can sum in float64 to a few 1e-16 below zero; without the margin such a
# cycle keeps lowering labels for all n passes and is reported as a
# negative-cost cycle.
_RELAX_MARGIN = 1e-12

EDGE_DTYPE = np.dtype([("tail", "i8"), ("head", "i8"), ("capacity", "i8"), ("cost", "f8")])


@dataclass(frozen=True)
class FlowNetwork:
    """Directed graph whose edges are EDGE_DTYPE records (tail, head,
    capacity, cost), edge k being flow entry k; supply enters at source."""

    n_vertices: int
    edges: np.recarray
    supply: int
    source: int
    sink: int


def make_residual(inst: AssociationInstance, sol: AssociationSolution) -> ResidualInstance:
    """Strip the chains consumed and UEs associated by a step-1 solution."""
    free_bs = np.flatnonzero(sol.x.sum(axis=0) == 0)
    na_ues = np.flatnonzero(sol.z == 0)
    na_rows = np.flatnonzero(np.isin(inst.ue_of_chain, na_ues))
    return ResidualInstance(
        c=inst.c[np.ix_(na_rows, free_bs)],
        ue_chain_ids=na_rows,
        bs_chain_ids=free_bs,
        ue_ids=na_ues,
        ue_of_chain=inst.ue_of_chain[na_rows],
    )


def full_residual(inst: AssociationInstance) -> ResidualInstance:
    """The whole instance treated as leftover (no UE associated yet)."""
    return make_residual(inst, empty_solution(inst))


def build_flow_network(res: ResidualInstance) -> FlowNetwork:
    """Assignment graph: s -> BS chain -> UE chain -> t (+ overflow s -> t).

    Vertices are s = 0, BS chain k = 1 + k, UE chain m = 1 + n_cols + m
    and t last.  Edges come in that order too: the n_cols source edges,
    then the link edges k -> m (k outer, m inner) with cost -c[m, k], then
    the n_rows sink edges, then the overflow.  Every edge but the
    overflow has capacity one; the overflow takes the whole supply.
    """
    n_rows, n_cols = res.c.shape
    bs = 1 + np.arange(n_cols)
    ue = 1 + n_cols + np.arange(n_rows)
    sink = 1 + n_cols + n_rows
    edges = np.rec.fromarrays(
        [
            np.concatenate([np.zeros(n_cols, int), np.repeat(bs, n_rows), ue, [0]]),
            np.concatenate([bs, np.tile(ue, n_cols), np.full(n_rows + 1, sink)]),
            np.concatenate([np.ones(n_cols * (1 + n_rows) + n_rows, int), [n_cols]]),
            np.concatenate([np.zeros(n_cols), -res.c.T.ravel(), np.zeros(n_rows + 1)]),
        ],
        dtype=EDGE_DTYPE,
    )
    return FlowNetwork(
        n_vertices=sink + 1,
        edges=edges,
        supply=n_cols,
        source=0,
        sink=sink,
    )


def solve_min_cost_flow(net: FlowNetwork) -> np.ndarray:
    """Integral min-cost flow of the full supply, one unit count per edge.

    Successive shortest paths between excess and deficit vertices on
    reduced costs (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
    section 9.7): one Bellman-Ford pass seeds the node potentials
    (absorbing the negative link costs), then each Dijkstra search finds
    a shortest path from one vertex with excess to a vertex with a
    deficit.  Integer capacities make every augmentation integral.

    The source first pushes its supply, in arc order, along its out-arcs
    whose clamped reduced cost is 0; each head then holds the units it
    got as its own excess, and what no such arc takes stays at the
    source.  Every reduced cost stays non-negative, since the reverse of
    a zero-cost arc costs 0 too.  The searches then start from the
    lowest-index vertex with excess (no vertex gains excess, so the
    index only grows) and stop at the first vertex with a deficit they
    settle, which is the sink.  In the step-2 network each free BS chain
    gets its unit this way, and a search from one chain settles only the
    UE chains within its reach before the sink.  A search from the
    source would first settle every free chain at its equal label and
    scan all of their links.  Supply is unroutable when a search runs
    out of vertices without settling a deficit.

    After each search every potential grows by min(dist[v], dist[end]),
    end being the deficit vertex settled and a vertex left unlabelled
    counting as dist[end].  This keeps every residual reduced cost
    non-negative whatever vertex the search started from: an arc out of
    a settled vertex was relaxed, so its head's label exceeds its tail's
    by at most the arc's reduced cost, and every vertex not settled
    grows by dist[end], at least as much as any vertex.  Arcs of the
    path have reduced cost 0 after the update, so their reverses do too.

    Dijkstra scans only live arcs: adj[u] holds u's arcs of positive
    capacity in increasing arc order, the order in which a scan of all
    of u's arcs would meet them, so ties fall the same way.  An arc
    leaves its list when a push saturates it and rejoins it (by
    bisect.insort) when its reverse carries flow again.  Arcs into
    vertices Bellman-Ford cannot reach are never listed: pushes add
    reverse arcs only between vertices the source reaches, so no arc
    into those vertices ever appears.  A head already settled is
    skipped, since with non-negative reduced costs relaxing it cannot
    lower its label.

    Both loops read one arc at a time, so the arc data live in Python
    lists (arc 2k is edge k, arc 2k + 1 its reverse): indexing a list
    returns a stored object, while indexing a numpy array boxes a new
    scalar on every read, which costs several times the loop body.  The
    arithmetic is the same float64 either way.
    """
    n = net.n_vertices
    edges = net.edges
    if edges.dtype != EDGE_DTYPE:  # its int64 capacity makes flows integral
        raise ValueError(f"edges must have dtype EDGE_DTYPE, got {edges.dtype}")
    if np.any((edges.tail < 0) | (edges.tail >= n) | (edges.head < 0) | (edges.head >= n)):
        raise ValueError("an edge references an unknown vertex")
    if np.any(edges.capacity < 0):
        raise ValueError("edge capacities must be non-negative integers")
    if net.supply < 0:
        raise ValueError("supply must be >= 0")
    if not (0 <= net.source < n and 0 <= net.sink < n):
        raise ValueError("source and sink must be vertices of the network")

    to = np.column_stack([edges.head, edges.tail]).ravel().tolist()
    tail = np.column_stack([edges.tail, edges.head]).ravel().tolist()
    cap = np.column_stack([edges.capacity, np.zeros_like(edges.capacity)]).ravel().tolist()
    cost = np.column_stack([edges.cost, -edges.cost]).ravel().tolist()

    # Bellman-Ford potentials from the source over positive-capacity arcs;
    # before any augmentation those are the forward arcs of capacity > 0.
    live = [(tail[a], to[a], cost[a]) for a in range(0, len(to), 2) if cap[a] > 0]
    pot = [math.inf] * n
    pot[net.source] = 0.0
    changed = True
    for _ in range(n):
        changed = False
        for u, v, w in live:
            if pot[u] + w < pot[v] - _RELAX_MARGIN:
                pot[v] = pot[u] + w
                changed = True
        if not changed:
            break
    if changed:
        raise ValueError("graph contains a negative-cost cycle")

    adj: list[list[int]] = [[] for _ in range(n)]
    for a, u in enumerate(tail):
        if cap[a] > 0 and pot[to[a]] < math.inf:
            adj[u].append(a)
    reached = [v for v in range(n) if pot[v] < math.inf]
    flow = [0] * len(edges)

    def push(e: int, units: int) -> None:
        excess[tail[e]] -= units
        excess[to[e]] += units
        cap[e] -= units
        if cap[e] == 0:
            arcs = adj[tail[e]]
            del arcs[bisect.bisect_left(arcs, e)]
        if cap[e ^ 1] == 0:
            bisect.insort(adj[to[e]], e ^ 1)
        cap[e ^ 1] += units
        flow[e // 2] += units if e % 2 == 0 else -units

    source = net.source
    excess = [0] * n
    excess[source] += int(net.supply)
    excess[net.sink] -= int(net.supply)
    for e in list(adj[source]):  # a copy: push edits the list
        if excess[source] == 0:
            break
        if cost[e] + pot[source] - pot[to[e]] <= 0.0:  # clamped reduced cost 0
            push(e, min(excess[source], cap[e]))

    for start in range(n):
        while excess[start] > 0:
            dist = [math.inf] * n
            parent = [-1] * n
            done = [False] * n
            dist[start] = 0.0
            heap = [(0.0, start)]
            while heap:
                d, u = heapq.heappop(heap)
                if done[u]:
                    continue
                done[u] = True
                if excess[u] < 0:
                    break
                pot_u = pot[u]
                for e in adj[u]:
                    v = to[e]
                    if done[v]:
                        continue
                    reduced = cost[e] + pot_u - pot[v]
                    if reduced < 0.0:  # max(reduced, 0.0): round-off below zero
                        reduced = 0.0
                    nd = d + reduced
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = e
                        heapq.heappush(heap, (nd, v))
            else:
                raise ValueError("supply cannot be routed to the sink")

            end = u
            units = min(excess[start], -excess[end])
            v = end
            while v != start:
                e = parent[v]
                units = min(units, cap[e])
                v = tail[e]
            v = end
            while v != start:
                e = parent[v]
                v = tail[e]
                push(e, units)
            d_end = dist[end]
            for v in reached:
                pot[v] += dist[v] if dist[v] < d_end else d_end

    return np.array(flow, dtype=np.int64)


def solve_step2(res: ResidualInstance) -> AssociationSolution:
    """Max-sum-rate assignment of the residual, indexed in residual space."""
    n_rows, n_cols = res.c.shape
    x = np.zeros((n_rows, n_cols), dtype=int)
    if res.c.size:
        flow = solve_min_cost_flow(build_flow_network(res))
        # The link edges follow the n_cols source edges, BS chain outer.
        x = flow[n_cols : n_cols * (1 + n_rows)].reshape(n_cols, n_rows).T.astype(int)
    ue_pos = np.searchsorted(res.ue_ids, res.ue_of_chain)
    n_ues = len(res.ue_ids)
    per_ue = np.bincount(ue_pos, weights=(x * res.c).sum(axis=1), minlength=n_ues)
    links = np.bincount(ue_pos, weights=x.sum(axis=1), minlength=n_ues)
    return AssociationSolution(x=x, z=(links > 0).astype(int), per_ue_rate=per_ue)


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
    if nx == 0:
        return np.zeros((n_rows, n_cols)), 0.0
    # Variable i * n_cols + j is the link (UE chain i, BS chain j).
    a = np.vstack([np.tile(np.eye(n_cols), n_rows), np.repeat(np.eye(n_rows), n_cols, axis=1)])
    sol = lp.solve_lp_max(res.c.ravel(), a, np.ones(n_cols + n_rows), np.ones(nx))
    return sol.x.reshape(n_rows, n_cols), sol.objective


def verify_integrality(x_frac: np.ndarray, tol: float = 1e-6) -> bool:
    """True when every entry is within tol of 0 or 1 (vacuously for empty)."""
    x = np.asarray(x_frac, dtype=float)
    if x.size == 0:
        return True
    return bool(np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= tol))
