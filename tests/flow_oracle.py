"""General min-cost flow solver, the test oracle for step 2.

`mmwassoc.step2flow.solve_min_cost_flow` accepts only a step-2
`FlowNetwork`, which holds its capacity block, and solves it as an
assignment.  This successive shortest-path solver takes any network of
EDGE_DTYPE edges: a hand-built `Network` of any source and sink,
capacities above one, costs of either sign, supply that cannot be
routed, or a `FlowNetwork`, whose edges it reads the same way.  The
tests check the assignment against it, and it against scipy's HiGHS on
the node-arc LP.

`dense_scan_assignment` is the package's assignment search with every
search scanning all unsettled columns of every row it reaches, where
the package's stops once no label can still settle.  The tests require
solve_assignment to return its x byte for byte.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

import numpy as np

from mmwassoc.step2flow import EDGE_DTYPE

# A Bellman-Ford relaxation must lower a label by more than this.  Costs
# whose decimal values cancel around a cycle, such as -0.1, -1.1 and 1.2,
# can sum in float64 to a few 1e-16 below zero; without the margin such a
# cycle keeps lowering labels for all n passes and is reported as a
# negative-cost cycle.
_RELAX_MARGIN = 1e-12


@dataclass(frozen=True)
class Network:
    """Directed graph whose edges are EDGE_DTYPE records (tail, head,
    capacity, cost), edge k being flow entry k; supply enters at source."""

    n_vertices: int
    edges: np.recarray
    supply: int
    source: int
    sink: int


def solve_min_cost_flow(net) -> np.ndarray:
    """Integral min-cost flow of the full supply, one unit count per edge.

    net is a Network or a step-2 FlowNetwork: anything with n_vertices,
    edges, supply, source and sink.

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


def dense_scan_assignment(c: np.ndarray) -> np.ndarray:
    """Maximum-weight matching of the rows of c to its columns, as 0/1 x.

    The same row-reduction start, duals, tie rule and result as
    mmwassoc.step2flow.solve_assignment, whose docstring states them, but
    each Dijkstra search scans the list row of every row it reaches over
    all unsettled columns and picks the least label by a linear pass.
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
