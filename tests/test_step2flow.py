import hashlib
import signal
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment, linprog

import mmwassoc as m
from mmwassoc import harness, step2flow
from mmwassoc.instance import (
    STRUCTURAL_CONSTRAINTS,
    AssociationSolution,
    empty_solution,
    solution_from_x,
)
from mmwassoc.step2flow import EDGE_DTYPE, relaxed_step2_lp

import flow_oracle
from conftest import (
    canonical_value,
    pairs_of,
    random_instance,
    random_residual,
    step2_oracle,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def edge_array(*edges):
    """Edge records (tail, head, capacity, cost) of a hand-built network."""
    return np.rec.array(list(edges), dtype=EDGE_DTYPE)


def residual_of(c):
    """Residual with capacity block c, one UE per UE chain."""
    rows, cols = c.shape
    return step2flow.ResidualInstance(c, np.arange(rows), np.arange(cols), np.arange(rows))


def single_link_residual(cap=2e9):
    return step2flow.ResidualInstance(
        c=np.array([[cap]]),
        ue_chain_ids=np.array([0]),
        bs_chain_ids=np.array([0]),
        ue_of_chain=np.array([0]),
    )


# ---------------------------------------------------------------------------
# residual construction
# ---------------------------------------------------------------------------


def test_make_residual_strips_used_resources():
    c = np.arange(12, dtype=float).reshape(4, 3) * 1e8 + 1e8
    inst = m.make_instance(c, np.array([1e9, 1e9]), n_ue_rf=2, n_bs_rf=3)
    x = np.zeros((4, 3), dtype=int)
    x[0, 1] = 1  # UE 0 satisfied on BS chain 1
    sol = solution_from_x(inst, x)
    res = step2flow.make_residual(inst, sol)
    np.testing.assert_array_equal(res.bs_chain_ids, [0, 2])
    np.testing.assert_array_equal(res.ue_chain_ids, [2, 3])  # UE 1's chains
    np.testing.assert_array_equal(np.unique(res.ue_of_chain), [1])
    np.testing.assert_array_equal(res.ue_of_chain, [1, 1])
    np.testing.assert_array_equal(res.c, c[np.ix_([2, 3], [0, 2])])


def test_make_residual_rejects_a_solution_of_another_shape():
    # One BS chain too few would silently keep the last chain out of the
    # residual, and a z of the wrong length would be read without complaint.
    c = np.arange(12, dtype=float).reshape(4, 3) * 1e8 + 1e8
    inst = m.make_instance(c, np.array([1e9, 1e9]), n_ue_rf=2, n_bs_rf=3)
    x = np.zeros((4, 3), dtype=int)
    x[0, 0] = 1
    sol = solution_from_x(inst, x)
    narrow = m.AssociationSolution(x=x[:, :2], z=sol.z, per_ue_rate=sol.per_ue_rate)
    long_z = m.AssociationSolution(x=x, z=np.append(sol.z, 0), per_ue_rate=sol.per_ue_rate)
    for bad in (narrow, long_z):
        with pytest.raises(ValueError, match="shape"):
            step2flow.make_residual(inst, bad)
    np.testing.assert_array_equal(step2flow.make_residual(inst, sol).bs_chain_ids, [1, 2])


def test_full_residual_covers_everything():
    c = np.ones((4, 6))
    inst = m.make_instance(c, np.array([1.0, 1.0]), n_ue_rf=2, n_bs_rf=3)
    res = step2flow.full_residual(inst)
    assert res.c.shape == (4, 6)
    np.testing.assert_array_equal(res.bs_chain_ids, np.arange(6))


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def small_instances(draw):
    """Instances of 1-5 UEs and 1-3 BSs, 1-3 chains each.

    Capacities come from 0, 1e9, 2e9 and 3.5e9, so ties and zero rows
    are common, and UE chains often outnumber BS chains, so some UEs
    get no link.
    """
    n_ue, n_bs = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n_ue_rf, n_bs_rf = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = (n_ue * n_ue_rf, n_bs * n_bs_rf)
    c = draw(arrays(float, shape, elements=st.sampled_from([0.0, 1e9, 2e9, 3.5e9])))
    return m.make_instance(c, np.full(n_ue, 1e9), n_ue_rf, n_bs_rf)


def sampled_cells():
    """Desk and full.cfg cells of runs 0-1 at r_max 0.5, 1, 2, 4 and 8e9."""
    for name in ("desk", "full"):
        cfg = m.ScenarioConfig.from_config_file(CONFIGS / f"{name}.cfg")
        for run_id in range(2):
            for r_max in (0.5e9, 1e9, 2e9, 4e9, 8e9):
                yield harness.build_cell_instance(cfg, run_id, r_max)


def with_sampled_cells(test):
    """Run a hypothesis test of inst on every sampled cell as well."""
    for inst in sampled_cells():
        test = example(inst=inst)(test)
    return test


@with_sampled_cells
@settings(max_examples=200)
@given(small_instances())
def test_full_residual_and_max_sum_rate_skip_the_copies_but_not_a_byte(inst):
    # full_residual is the residual of the empty solution, and
    # max_sum_rate, which solves the assignment on the whole capacity
    # matrix without the step-2 network, returns what solve_step2 gives
    # for the full residual, completed by solution_from_x.  The sampled
    # cells pin continuous capacities, the drawn instances tied and zero
    # ones.
    res = step2flow.full_residual(inst)
    want = step2flow.make_residual(inst, empty_solution(inst))
    for name in ("c", "ue_chain_ids", "bs_chain_ids", "ue_of_chain"):
        assert_same_bytes(getattr(res, name), getattr(want, name))
    got = m.max_sum_rate(inst)
    completed = solution_from_x(inst, step2flow.solve_step2(res).x)
    for name in ("x", "z", "per_ue_rate"):
        assert_same_bytes(getattr(got, name), getattr(completed, name))


def residual_with_ix(inst, sol):
    """Reference: make_residual as it indexed with np.flatnonzero and np.ix_."""
    free_bs = np.flatnonzero(sol.x.sum(axis=0) == 0)
    na_rows = np.flatnonzero(sol.z[inst.ue_of_chain] == 0)
    return step2flow.ResidualInstance(
        c=inst.c[np.ix_(na_rows, free_bs)],
        ue_chain_ids=na_rows,
        bs_chain_ids=free_bs,
        ue_of_chain=inst.ue_of_chain[na_rows],
    )


def step2_with_unique(res):
    """Reference: solve_step2 as it found the residual's UEs with np.unique."""
    n_rows, n_cols = res.c.shape
    x = np.zeros((n_rows, n_cols), dtype=int)
    if res.c.size:
        flow = step2flow.solve_min_cost_flow(step2flow.build_flow_network(res))
        x = flow[n_cols : n_cols * (1 + n_rows)].reshape(n_cols, n_rows).T.astype(int)
    ues, ue_pos = np.unique(res.ue_of_chain, return_inverse=True)
    per_ue = np.bincount(ue_pos, weights=(x * res.c).sum(axis=1), minlength=len(ues))
    links = np.bincount(ue_pos, weights=x.sum(axis=1), minlength=len(ues))
    return AssociationSolution(x=x, z=(links > 0).astype(int), per_ue_rate=per_ue)


def merge_with_ix(inst, first, res, second_local):
    """Reference: merge_solutions as it indexed with np.ix_."""
    x = first.x.copy()
    if second_local.x.size:
        block = np.ix_(res.ue_chain_ids, res.bs_chain_ids)
        x[block] = x[block] | second_local.x
    return solution_from_x(inst, x)


def assert_residual_indexing_matches_the_references(inst, first):
    res, want = step2flow.make_residual(inst, first), residual_with_ix(inst, first)
    for name in ("c", "ue_chain_ids", "bs_chain_ids", "ue_of_chain"):
        assert_same_bytes(getattr(res, name), getattr(want, name))
    sol, want_sol = step2flow.solve_step2(res), step2_with_unique(want)
    merged = harness.merge_solutions(inst, first, res, sol)
    want_merged = merge_with_ix(inst, first, want, want_sol)
    for name in ("x", "z", "per_ue_rate"):
        assert_same_bytes(getattr(sol, name), getattr(want_sol, name))
        assert_same_bytes(getattr(merged, name), getattr(want_merged, name))


@st.composite
def step1_outcomes(draw):
    """An instance with the step-1 solution its relaxation rounds to, or
    with a drawn one that associates any set of UEs and takes any set of
    BS chains, all or none of either included."""
    inst = draw(small_instances())
    if draw(st.booleans()):
        return inst, m.round_solution(m.solve_step1_lp(inst), inst)
    n_uc, n_bc = inst.c.shape
    x = np.zeros((n_uc, n_bc), dtype=int)
    for j in np.flatnonzero(draw(arrays(bool, n_bc))):
        x[draw(st.integers(0, n_uc - 1)), j] = 1
    z = draw(arrays(int, inst.n_ue, elements=st.integers(0, 1)))
    return inst, AssociationSolution(x=x, z=z, per_ue_rate=np.zeros(inst.n_ue))


@settings(max_examples=300)
@given(step1_outcomes())
def test_residual_indexing_matches_ix_and_unique(outcome):
    assert_residual_indexing_matches_the_references(*outcome)


def test_residual_indexing_matches_ix_and_unique_on_gaps_and_empty_residuals():
    # Three UEs of two chains, two BSs of two chains, all links 1e9.
    inst = m.make_instance(np.full((6, 4), 1e9), np.full(3, 1e9), 2, 2)
    one = np.zeros((6, 4), dtype=int)
    one[2, 1] = 1  # UE 1 takes BS chain 1
    every_bs_chain = np.eye(6, 4, dtype=int)
    cases = {
        "UE ids with a gap": (one, [0, 1, 0]),
        "every UE associated": (one, [1, 1, 1]),
        "no free BS chain": (every_bs_chain, [1, 1, 0]),
        "nothing left at all": (every_bs_chain, [1, 1, 1]),
    }
    for name, (x, z) in cases.items():
        first = AssociationSolution(x=x, z=np.array(z), per_ue_rate=np.zeros(3))
        res = step2flow.make_residual(inst, first)
        if name == "UE ids with a gap":
            assert res.ue_of_chain.tolist() == [0, 0, 2, 2]
        else:
            assert res.c.size == 0, name
        assert_residual_indexing_matches_the_references(inst, first)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


def test_empty_residual_graph_has_zero_supply():
    inst = m.make_instance(np.array([[5e9]]), np.array([1e9]), 1, 1)
    sol = solution_from_x(inst, np.array([[1]]))
    res = step2flow.make_residual(inst, sol)
    net = step2flow.build_flow_network(res)
    assert net.supply == 0


def test_single_pair_graph_is_a_path_plus_overflow():
    net = step2flow.build_flow_network(single_link_residual())
    assert net.n_vertices == 4  # s, BS chain, UE chain, t
    caps = [(e.tail, e.head, e.capacity) for e in net.edges]
    assert caps == [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
    link = net.edges[1]
    assert link.cost == -2e9
    assert net.edges[-1].cost == 0.0  # overflow


def test_vertex_count_formula():
    rng = np.random.default_rng(12)
    res = random_residual(rng, n_ues=4, n_ue_rf=2, n_bs=3, max_free_per_bs=3)
    net = step2flow.build_flow_network(res)
    want = 2 + len(res.bs_chain_ids) + len(res.ue_chain_ids)
    assert net.n_vertices == want


def test_vertex_and_edge_counts_after_dense_step1():
    # Count formulas against the residual a real relax-and-round pass
    # leaves behind at the dense-network scale.
    cfg = m.ScenarioConfig(seed=13)
    real = m.sample_scenario(cfg)
    inst = m.instance_from_capacity(m.build_capacity_matrix(real, cfg), real.rate_req, cfg)
    first = m.round_solution(m.solve_step1_lp(inst), inst)
    res = step2flow.make_residual(inst, first)
    net = step2flow.build_flow_network(res)
    n_free, n_rows = len(res.bs_chain_ids), len(res.ue_chain_ids)
    assert net.n_vertices == 2 + n_free + n_rows
    assert len(net.edges) == n_free + n_free * n_rows + n_rows + 1
    assert net.supply == n_free


def network_residuals():
    """(name, residual) pairs: random blocks, the full and post-rounding
    residuals of a desk, a full.cfg and a 9 x 100 cell, a 1 x 1 block and
    an all-zero block."""
    rng = np.random.default_rng(61)
    out = [(f"random {k}", random_residual(rng, n_ues=k + 1)) for k in range(5)]
    desk = m.ScenarioConfig.from_config_file(CONFIGS / "desk.cfg")
    full = m.ScenarioConfig.from_config_file(CONFIGS / "full.cfg")
    cells = {
        "desk": harness.build_cell_instance(desk, 0, 1e9),
        "full.cfg": harness.build_cell_instance(full, 0, 2e9),
        "9x100": harness.build_cell_instance(replace(full, n_bs=9, n_ue=100), 0, 2e9),
    }
    for name, inst in cells.items():
        first = m.round_solution(m.solve_step1_lp(inst), inst)
        out.append((f"{name} full", step2flow.full_residual(inst)))
        out.append((f"{name} post-rounding", step2flow.make_residual(inst, first)))
    out.append(("1 x 1", single_link_residual()))
    out.append(("all zero", residual_of(np.zeros((4, 3)))))
    return out


def test_flow_network_is_its_capacity_block():
    for name, res in network_residuals():
        rows, cols = res.c.shape
        res = replace(res, c=res.c.copy())  # writable, unlike a full residual's c
        want_c, want_edges = res.c.copy(), step2flow._edges(res.c.copy())
        net, read_late = step2flow.build_flow_network(res), step2flow.build_flow_network(res)
        counts = (net.n_vertices, net.supply, net.source, net.sink)
        assert counts == (2 + rows + cols, cols, 0, 1 + rows + cols), name
        assert isinstance(net.edges, np.recarray), name
        assert not net.edges.flags.writeable and not net.c.flags.writeable, name
        assert_same_bytes(net.edges, want_edges)
        # Writing to the residual afterwards reaches neither the block nor
        # the edges, whether they were read before the write or after it.
        res.c[...] = 7.0
        for built in (net, read_late):
            assert_same_bytes(built.c, want_c)
            assert_same_bytes(built.edges, want_edges)


def test_flow_network_rejects_a_nan_capacity():
    for name, res in network_residuals():
        if res.c.size == 0:
            continue
        c = res.c.copy()
        c.flat[c.size // 2] = np.nan
        with pytest.raises(ValueError):
            step2flow.solve_min_cost_flow(step2flow.build_flow_network(replace(res, c=c)))
    with pytest.raises(ValueError, match="2-D"):
        step2flow.FlowNetwork(np.zeros(3))


def test_schemes_build_no_edge_record(monkeypatch):
    # The step-2 network of the sweep holds only its capacity block; its
    # edges are derived on first read, which no scheme does.
    desk = m.ScenarioConfig.from_config_file(CONFIGS / "desk.cfg")
    cell = harness.build_cell_instance(desk, 0, 2e9)
    first = m.round_solution(m.solve_step1_lp(cell), cell)
    assert step2flow.make_residual(cell, first).c.size
    # Step 1 serves the only UE on the only BS chain, so step 2 gets an
    # empty residual.
    served = m.make_instance(np.array([[5e9]]), np.array([1e9]), 1, 1)
    runs = [(cell, s) for s in ("two-step-proposed", "max-sum-rate", "max-snr")]
    runs.append((served, "two-step-proposed"))
    want = [harness.run_scheme(inst, scheme) for inst, scheme in runs]

    def no_edges(c):
        raise AssertionError("an edge record was built")

    monkeypatch.setattr(step2flow, "_edges", no_edges)
    for (inst, scheme), (want_sol, want_chains) in zip(runs, want):
        sol, chains = harness.run_scheme(inst, scheme)
        assert chains == want_chains
        for name in ("x", "z", "per_ue_rate"):
            assert_same_bytes(getattr(sol, name), getattr(want_sol, name))


# ---------------------------------------------------------------------------
# min-cost flow of the step-2 network
# ---------------------------------------------------------------------------


def test_single_path_routes_real_edge_over_overflow():
    net = step2flow.build_flow_network(single_link_residual())
    flow = step2flow.solve_min_cost_flow(net)
    # the negative-cost path beats the zero-cost overflow
    assert flow.tolist() == [1, 1, 1, 0]


def test_two_parallel_chains_prefer_higher_capacity():
    res = step2flow.ResidualInstance(
        c=np.array([[1e9], [3e9]]),
        ue_chain_ids=np.array([0, 1]),
        bs_chain_ids=np.array([0]),
        ue_of_chain=np.array([0, 1]),
    )
    sol = step2flow.solve_step2(res)
    assert sol.x.tolist() == [[0], [1]]


def test_flow_conservation_and_budgets():
    rng = np.random.default_rng(21)
    res = random_residual(rng, n_ues=4, n_ue_rf=2, n_bs=3, max_free_per_bs=3)
    net = step2flow.build_flow_network(res)
    flow = step2flow.solve_min_cost_flow(net)
    assert flow.dtype.kind == "i"  # exactly integral, no tolerance
    balance = np.zeros(net.n_vertices, dtype=np.int64)
    for units, e in zip(flow, net.edges):
        assert 0 <= units <= e.capacity
        balance[e.tail] -= units
        balance[e.head] += units
    assert balance[net.source] == -net.supply
    assert balance[net.sink] == net.supply
    inner = np.delete(balance, [net.source, net.sink])
    assert np.all(inner == 0)


def test_solver_rejects_networks_build_flow_network_does_not_make():
    # Each of these has an integral min-cost flow, which the general
    # solver finds; the assignment solves only the step-2 network, and
    # only build_flow_network makes one.
    net = step2flow.build_flow_network(single_link_residual())
    edges = net.edges.tolist()
    same = flow_oracle.Network(net.n_vertices, net.edges, net.supply, net.source, net.sink)
    others = [
        replace(same, edges=edge_array(*edges[:-1], (0, 3, 1, 1.0))),  # overflow costs 1
        replace(same, edges=edge_array(edges[0], (1, 2, 2, -2e9), *edges[2:])),  # link capacity 2
        replace(same, edges=edge_array(*edges[::-1])),  # edges out of order
        replace(same, edges=edge_array(*edges, (1, 2, 1, -1e9))),  # a parallel link
        replace(same, sink=2),
        flow_oracle.Network(3, edge_array((0, 1, 1, 0.0), (1, 2, 1, 0.0)), 1, 0, 2),  # a path, no overflow
    ]
    for other in others:
        flow_oracle.solve_min_cost_flow(other)
    for other in [*others, object()]:
        with pytest.raises(ValueError, match="build_flow_network"):
            step2flow.solve_min_cost_flow(other)


# ---------------------------------------------------------------------------
# the general min-cost flow solver of tests/flow_oracle.py
# ---------------------------------------------------------------------------


def test_malformed_graph_rejected():
    with pytest.raises(ValueError):
        flow_oracle.solve_min_cost_flow(
            flow_oracle.Network(
                n_vertices=2,
                edges=edge_array((0, 5, 1, 0.0)),
                supply=1,
                source=0,
                sink=1,
            )
        )
    with pytest.raises(ValueError):
        flow_oracle.solve_min_cost_flow(
            flow_oracle.Network(
                n_vertices=2,
                edges=edge_array((0, 1, -1, 0.0)),
                supply=0,
                source=0,
                sink=1,
            )
        )
    # A fractional capacity has no place in EDGE_DTYPE's int64 column.
    float_caps = np.dtype([(name, float) for name in EDGE_DTYPE.names])
    with pytest.raises(ValueError, match="EDGE_DTYPE"):
        flow_oracle.solve_min_cost_flow(
            flow_oracle.Network(
                n_vertices=2,
                edges=np.rec.array([(0, 1, 0.5, 0.0)], dtype=float_caps),
                supply=0,
                source=0,
                sink=1,
            )
        )
    # Supply 0 for the negative source: without the check, supply 1 makes
    # the solver index from the end of its lists and run on for minutes.
    for supply, source, sink in ((1, 0, 5), (0, -1, 1)):
        with pytest.raises(ValueError, match="source and sink"):
            net = flow_oracle.Network(2, edge_array((0, 1, 1, 0.0)), supply, source, sink)
            flow_oracle.solve_min_cost_flow(net)


def test_negative_cycle_rejected():
    net = flow_oracle.Network(
        n_vertices=3,
        edges=edge_array((0, 1, 1, -1.0), (1, 2, 1, -1.0), (2, 0, 1, -1.0)),
        supply=0,
        source=0,
        sink=2,
    )
    with pytest.raises(ValueError, match="cycle"):
        flow_oracle.solve_min_cost_flow(net)


def test_round_off_zero_cycle_is_not_a_negative_cycle():
    # -0.1 - 1.1 + 1.2 sums to about -2.2e-16 in float64; _RELAX_MARGIN
    # keeps Bellman-Ford from relabelling around it for all n passes.
    net = flow_oracle.Network(
        n_vertices=4,
        edges=edge_array((0, 1, 1, -0.1), (1, 2, 1, -1.1), (2, 0, 1, 1.2), (2, 3, 1, 0.0)),
        supply=1,
        source=0,
        sink=3,
    )
    assert flow_oracle.solve_min_cost_flow(net).tolist() == [1, 1, 0, 1]


def test_unroutable_supply_rejected():
    # No overflow edge and not enough path capacity for the supply.
    net = flow_oracle.Network(
        n_vertices=3,
        edges=edge_array((0, 1, 1, 0.0), (1, 2, 1, 0.0)),
        supply=2,
        source=0,
        sink=2,
    )
    with pytest.raises(ValueError, match="routed"):
        flow_oracle.solve_min_cost_flow(net)


@st.composite
def general_networks(draw):
    """Small networks of a shape build_flow_network never makes.

    Capacities reach 4, up to 12 intermediate vertices lie between the
    source and the sink, parallel edges and vertices the source cannot
    reach are common, and supply may exceed what the edges can carry.
    Costs go negative only when every edge points to a higher vertex, so
    the graph is a DAG and has no negative cycle.
    """
    n = draw(st.integers(2, 14))
    dag = draw(st.booleans())
    records = []
    for _ in range(draw(st.integers(1, 60))):
        if dag:
            tail = draw(st.integers(0, n - 2))
            head = draw(st.integers(tail + 1, n - 1))
        else:
            tail = draw(st.integers(0, n - 1))
            head = draw(st.integers(0, n - 1).filter(lambda h, t=tail: h != t))
        cost = draw(st.integers(-500 if dag else 0, 1000)) / 100
        records.append((tail, head, draw(st.integers(0, 4)), cost))
    return flow_oracle.Network(
        n_vertices=n,
        edges=edge_array(*records),
        supply=draw(st.integers(0, 8)),
        source=0,
        sink=n - 1,
    )


def node_arc_lp(net):
    """scipy HiGHS on the node-arc LP: min cost.f, out - in = b, 0 <= f <= cap."""
    e = net.edges
    arcs = np.arange(len(e))
    a_eq = np.zeros((net.n_vertices, len(e)))
    a_eq[e.tail, arcs] += 1.0
    a_eq[e.head, arcs] -= 1.0
    b_eq = np.zeros(net.n_vertices)
    b_eq[net.source] += net.supply
    b_eq[net.sink] -= net.supply
    bounds = np.column_stack([np.zeros(len(e)), e.capacity])
    return linprog(e.cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")


def assert_matches_node_arc_lp(net):
    """Same feasibility and total cost as HiGHS, with a valid integral flow."""
    want = node_arc_lp(net)
    assert want.status in (0, 2)  # optimal or infeasible; never unbounded
    if want.status == 2:
        with pytest.raises(ValueError, match="routed"):
            flow_oracle.solve_min_cost_flow(net)
        return
    flow = flow_oracle.solve_min_cost_flow(net)
    e = net.edges
    assert flow.dtype == np.int64
    assert np.all((flow >= 0) & (flow <= e.capacity))
    balance = np.zeros(net.n_vertices, dtype=np.int64)
    np.add.at(balance, e.tail, -flow)
    np.add.at(balance, e.head, flow)
    want_balance = np.zeros(net.n_vertices, dtype=np.int64)
    want_balance[net.source] = -net.supply
    want_balance[net.sink] = net.supply
    np.testing.assert_array_equal(balance, want_balance)
    assert float(flow @ e.cost) == pytest.approx(want.fun, rel=1e-9, abs=1e-9)


@settings(max_examples=400)
@given(general_networks())
def test_min_cost_flow_matches_node_arc_lp_on_general_networks(net):
    assert_matches_node_arc_lp(net)


@st.composite
def excess_networks(draw):
    """Networks whose source and sink are any two distinct vertices.

    The source's out-arcs cost 1 to 10 and carry 2 to 4 units, so some
    of them have a zero reduced cost and some do not, one vertex can
    take several units from the source push, and supply the push
    cannot place stays at the source.  Every other edge costs b +
    phi[tail] - phi[head] with b in 0..10 and phi in 0..5, phi being 0
    at the source: costs go negative, yet every cycle costs at least
    its edges' b, so none is negative.
    """
    n = draw(st.integers(2, 10))
    source, sink = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    phi = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    phi[source] = 0
    records = []
    for _ in range(draw(st.integers(1, 40))):
        tail = draw(st.integers(0, n - 1))
        head = draw(st.integers(0, n - 1).filter(lambda h, t=tail: h != t))
        if tail == source:
            cap, cost = draw(st.integers(2, 4)), draw(st.integers(1, 10))
        else:
            cap, cost = draw(st.integers(0, 4)), draw(st.integers(0, 10)) + phi[tail] - phi[head]
        records.append((tail, head, cap, float(cost)))
    return flow_oracle.Network(
        n_vertices=n,
        edges=edge_array(*records),
        supply=draw(st.integers(0, 10)),
        source=source,
        sink=sink,
    )


@settings(max_examples=400)
@given(excess_networks())
def test_min_cost_flow_matches_node_arc_lp_from_any_source_and_sink(net):
    assert_matches_node_arc_lp(net)


# (n_vertices, edges, supply, source, sink, flow) of networks where the
# source push leaves the searches a particular start.
EXCESS_CASES = {
    # 0 -> 2 costs 4 more than 0 -> 1 -> 2, so the push takes only 0 -> 1
    # and its 2 units; the third unit stays at the source.
    "excess-stays-at-source": (
        4,
        [(0, 1, 2, 0.0), (0, 2, 2, 5.0), (1, 2, 2, 1.0), (1, 3, 2, 0.0), (2, 3, 2, 0.0)],
        3, 0, 3, [2, 1, 0, 2, 1],
    ),
    # All 3 units land on vertex 1, which splits them over two routes.
    "excess-above-1-at-one-vertex": (
        4,
        [(0, 1, 3, 0.0), (1, 2, 1, 1.0), (1, 3, 3, 2.0), (2, 3, 1, 0.0)],
        3, 0, 3, [3, 1, 2, 1],
    ),
    # Source 2 and sink 0: the push sends 2 units straight to the sink and
    # leaves 1 at vertex 1, below the source.
    "zero-cost-arc-from-source-to-sink": (
        3,
        [(2, 1, 1, 0.0), (1, 0, 1, 0.0), (2, 0, 2, 0.0)],
        3, 2, 0, [1, 1, 2],
    ),
}


@pytest.mark.parametrize("n, records, supply, source, sink, want", EXCESS_CASES.values(), ids=EXCESS_CASES)
def test_min_cost_flow_routes_each_start_of_the_source_push(n, records, supply, source, sink, want):
    net = flow_oracle.Network(n, edge_array(*records), supply, source, sink)
    assert flow_oracle.solve_min_cost_flow(net).tolist() == want
    assert_matches_node_arc_lp(net)


def test_unroutable_supply_detected_from_a_pushed_vertex():
    # The push leaves 1 unit on the dead end 1 and sends 1 straight to the
    # sink 2; the search from vertex 1 finds no deficit and gives up.
    net = flow_oracle.Network(3, edge_array((0, 1, 1, 0.0), (0, 2, 1, 5.0)), 2, 0, 2)
    with pytest.raises(ValueError, match="routed"):
        flow_oracle.solve_min_cost_flow(net)
    assert node_arc_lp(net).status == 2


# ---------------------------------------------------------------------------
# the assignment against scipy and the flow oracle
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(
    arrays(
        float,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.sampled_from([0.0, 1e9, 2e9, 3e9]),
    )
)
def test_step2_matches_assignment_objective_with_tied_and_zero_capacities(c):
    rows, cols = c.shape
    res = step2flow.ResidualInstance(
        c=c,
        ue_chain_ids=np.arange(rows),
        bs_chain_ids=np.arange(cols),
        ue_of_chain=np.arange(rows),
    )
    x = step2flow.solve_step2(res).x
    assert set(np.unique(x)) <= {0, 1}
    assert np.all(x.sum(axis=0) <= 1) and np.all(x.sum(axis=1) <= 1)
    # Multiples of 1e9 up to 18e9 add exactly in any order.
    assert (x * c).sum() == c[linear_sum_assignment(c, maximize=True)].sum()


# (c, x) of blocks where the row-reduction start and the search's tie
# rule decide which of several optimal matchings solve_assignment returns.
TIE_CASES = {
    # The start gives row 0 the lower of its two best columns.
    "best-column-by-lowest-index": ([[1.0, 1.0]], [[1, 0]]),
    # Row 0 takes column 0 at weight 0.  Row 1 then reaches columns 0 and
    # 2 at the same label and settles the free one, 2.
    "free-column-first": ([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]], [[0, 0, 0], [0, 0, 1]]),
    # Both rows' best column is 0: the earlier row keeps it, and the
    # search moves row 1 to column 1 at the same total weight 3.
    "two-rows-share-a-best-column": ([[2.0, 1.0], [2.0, 1.0]], [[1, 0], [0, 1]]),
    # Row 0 gains nothing anywhere and takes column 0 in the start; the
    # search for row 1 shifts it to column 1, where it gets no link.
    "all-zero-row": ([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]], [[0, 0, 0], [1, 0, 0]]),
    # More rows than columns, so the columns are matched: column 0's best
    # row is 1, and column 1's best of the tied rows 0 and 2 is 0.
    # Entries c <= 0 weigh 0 and never get a link.
    "c-at-most-zero": ([[-1.0, 3.0], [2.0, -3.0], [0.0, 3.0]], [[0, 1], [1, 0], [0, 0]]),
    "all-c-at-most-zero": ([[-1.0, 0.0], [0.0, -2.0]], [[0, 0], [0, 0]]),
}


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once seconds have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_assignment_rejects_nan_inf_and_blocks_not_2d():
    # The search would never end on a NaN or +inf weight, so a deadline
    # turns a missing check into a failure instead of a hang.
    for c in (
        [[np.nan, 1.0], [2.0, np.nan]],
        [[np.inf, np.inf], [np.inf, 1.0]],
        [[1.0, 2.0], [3.0, np.nan], [4.0, 5.0]],  # more rows than columns
        [[np.nan]],
    ):
        with deadline(5.0), pytest.raises(ValueError, match="NaN or \\+inf"):
            step2flow.solve_assignment(np.array(c))
    for c in (np.zeros(3), np.zeros((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="2-D"):
            step2flow.solve_assignment(c)
    # -inf weighs 0 like any c <= 0, and an empty block has no link.
    assert step2flow.solve_assignment(np.array([[-np.inf, 1.0]])).tolist() == [[0, 1]]
    for shape in ((0, 0), (0, 3), (3, 0)):
        x = step2flow.solve_assignment(np.zeros(shape))
        assert x.dtype == np.int64 and x.shape == shape


def test_assignment_breaks_ties_by_a_free_column_then_the_lowest_index():
    for name, (c, want) in TIE_CASES.items():
        c = np.array(c)
        x = step2flow.solve_assignment(c)
        assert x.dtype == np.int64 and x.tolist() == want, name
        assert step2flow.solve_step2(residual_of(c)).x.tolist() == want, name
        net = step2flow.build_flow_network(residual_of(c))
        best = flow_oracle.solve_min_cost_flow(net) @ net.edges.cost
        assert -(x * np.maximum(c, 0.0)).sum() == best, name


@st.composite
def capacity_blocks(draw):
    """A capacity block of 1-6 x 1-6 entries and whether they are distinct.

    Tied blocks draw each entry from 0, 1e9, 2e9 and 3e9, whose sums are
    exact in any order.  Distinct blocks draw distinct powers of two up
    to 2**40: no two matchings have the same sum, so the optimum is
    unique, and every sum is exact.
    """
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = rows * cols
    distinct = draw(st.booleans())
    if distinct:
        exponents = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
        values = [2.0**p for p in exponents]
    else:
        values = draw(st.lists(st.sampled_from([0.0, 1e9, 2e9, 3e9]), min_size=n, max_size=n))
    return np.array(values).reshape(rows, cols), distinct


@settings(max_examples=300)
@given(capacity_blocks())
def test_assignment_flow_matches_flow_oracle_and_scipy(block):
    c, distinct = block
    for oriented in (c, c.T):  # more UE chains than BS chains, and fewer
        net = step2flow.build_flow_network(residual_of(oriented))
        flow = step2flow.solve_min_cost_flow(net)
        want = flow_oracle.solve_min_cost_flow(net)
        best = oriented[linear_sum_assignment(oriented, maximize=True)].sum()
        assert flow @ net.edges.cost == want @ net.edges.cost == -best
        links = slice(oriented.shape[1], oriented.shape[1] * (1 + oriented.shape[0]))
        assert not flow[links][net.edges.cost[links] >= 0].any()  # no link with c <= 0
        if distinct:
            np.testing.assert_array_equal(flow, want)


# ---------------------------------------------------------------------------
# solve_step2 against brute force
# ---------------------------------------------------------------------------


def test_step2_empty_residual():
    inst = m.make_instance(np.array([[5e9]]), np.array([1e9]), 1, 1)
    res = step2flow.make_residual(inst, solution_from_x(inst, np.array([[1]])))
    sol = step2flow.solve_step2(res)
    assert sol.x.size == 0 or sol.x.sum() == 0


def test_step2_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(60):
        res = random_residual(rng)
        sol = step2flow.solve_step2(res)
        got = canonical_value(res.c, pairs_of(sol.x))
        want, _ = step2_oracle(res)
        assert got == want  # canonical valuation makes this exact


def test_step2_respects_caps():
    # The network has no budget or cap layer, so audit the merged
    # two-step output: 5d is the per-BS budget, 5e the per-UE cap.
    rng = np.random.default_rng(41)
    for _ in range(20):
        inst = random_instance(rng, n_ue=3, n_bs=2, n_ue_rf=2, n_bs_rf=4)
        for first in (
            m.round_solution(m.solve_step1_lp(inst), inst),
            empty_solution(inst),
        ):
            res = step2flow.make_residual(inst, first)
            sol = step2flow.solve_step2(res)
            assert np.all(sol.x.sum(axis=0) <= 1)  # BS chain exclusivity
            assert np.all(sol.x.sum(axis=1) <= 1)  # UE chain exclusivity
            merged = harness.merge_solutions(inst, first, res, sol)
            report = m.check_feasibility(inst, merged, STRUCTURAL_CONSTRAINTS)
            assert report.feasible, report.violations


def test_step2_matches_scipy_assignment_at_dense_scale():
    # Full and post-rounding residuals of full.cfg cells, far beyond brute
    # force; continuous capacities make the optimum, hence x, unique.
    cfg = m.ScenarioConfig()  # the full.cfg scenario
    for run_id in range(2):
        for r_max in (0.5e9, 2e9, 8e9):
            inst = harness.build_cell_instance(cfg, run_id, r_max)
            first = m.round_solution(m.solve_step1_lp(inst), inst)
            for res in (step2flow.full_residual(inst), step2flow.make_residual(inst, first)):
                want = np.zeros(res.c.shape, dtype=int)
                want[linear_sum_assignment(res.c, maximize=True)] = 1
                np.testing.assert_array_equal(step2flow.solve_step2(res).x, want)


# (run, r_max, sha256 of the flow on the full residual, on the
# post-rounding residual) of full.cfg cells, recorded with the general
# successive shortest-path solver (now flow_oracle); the assignment must
# reproduce them.  Like any digest of
# sampled cells they hold for this platform's numpy and libm.
FLOW_PINS = [
    (
        0,
        2e9,
        "c2e67997245297265fd176c61ebf3e4350f89fdaf0e928d3849dccf1a91fd9af",
        "86dee6eece4582cf748a878f794495191d5d643feefd5b4f4f304893479c97e0",
    ),
    (
        1,
        8e9,
        "f2d04d029d6dc2b09e20a2d6134d61ae025afca7a083f01c7d33873527ffbe57",
        "7587db6bc7690e04b4b0a887d565b6be7b7d4ea65b42803255636f0b4d5354af",
    ),
]


@pytest.mark.parametrize("run_id, r_max, full_sha256, post_sha256", FLOW_PINS)
def test_min_cost_flow_reproduces_pinned_flows(run_id, r_max, full_sha256, post_sha256):
    cfg = m.ScenarioConfig.from_config_file(CONFIGS / "full.cfg")
    inst = harness.build_cell_instance(cfg, run_id, r_max)
    first = m.round_solution(m.solve_step1_lp(inst), inst)
    residuals = (step2flow.full_residual(inst), step2flow.make_residual(inst, first))
    for res, want in zip(residuals, (full_sha256, post_sha256)):
        flow = step2flow.solve_min_cost_flow(step2flow.build_flow_network(res))
        assert flow.dtype == np.int64
        assert hashlib.sha256(flow.tobytes()).hexdigest() == want


# ---------------------------------------------------------------------------
# relaxed LP and integrality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_relaxed_lp_of_an_empty_block_is_empty(shape):
    n_rows, n_cols = shape
    rows = np.arange(n_rows)
    res = step2flow.ResidualInstance(np.zeros(shape), rows, np.arange(n_cols), rows)
    x_frac, obj = relaxed_step2_lp(res)
    assert x_frac.shape == shape and x_frac.dtype == np.float64
    assert type(obj) is float and obj == 0.0


def test_verify_integrality():
    assert m.verify_integrality(np.array([[1.0, 0.0], [0.0, 1e-7]]))
    assert not m.verify_integrality(np.array([[0.5]]))
    assert m.verify_integrality(np.zeros((0, 3)))  # vacuous


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_lp_vertices_are_integral(seed):
    rng = np.random.default_rng(seed)
    res = random_residual(rng)
    x_frac, _ = relaxed_step2_lp(res)
    assert m.verify_integrality(x_frac)


def test_relaxed_lp_matches_flow_value():
    rng = np.random.default_rng(51)
    for _ in range(20):
        res = random_residual(rng)
        x_frac, obj = relaxed_step2_lp(res)
        sol = step2flow.solve_step2(res)
        assert obj == pytest.approx(float((sol.x * res.c).sum()), rel=1e-9)
