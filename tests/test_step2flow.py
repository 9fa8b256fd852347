import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment, linprog

import mmwassoc as m
from mmwassoc import harness, step2flow
from mmwassoc.instance import STRUCTURAL_CONSTRAINTS, empty_solution, solution_from_x
from mmwassoc.step2flow import EDGE_DTYPE, FlowNetwork, relaxed_step2_lp

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


def single_link_residual(cap=2e9):
    return step2flow.ResidualInstance(
        c=np.array([[cap]]),
        ue_chain_ids=np.array([0]),
        bs_chain_ids=np.array([0]),
        ue_ids=np.array([0]),
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
    np.testing.assert_array_equal(res.ue_ids, [1])
    np.testing.assert_array_equal(res.ue_of_chain, [1, 1])
    np.testing.assert_array_equal(res.c, c[np.ix_([2, 3], [0, 2])])


def test_full_residual_covers_everything():
    c = np.ones((4, 6))
    inst = m.make_instance(c, np.array([1.0, 1.0]), n_ue_rf=2, n_bs_rf=3)
    res = step2flow.full_residual(inst)
    assert res.c.shape == (4, 6)
    np.testing.assert_array_equal(res.bs_chain_ids, np.arange(6))


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


# ---------------------------------------------------------------------------
# min-cost flow
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
        ue_ids=np.array([0, 1]),
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


def test_malformed_graph_rejected():
    with pytest.raises(ValueError):
        step2flow.solve_min_cost_flow(
            FlowNetwork(
                n_vertices=2,
                edges=edge_array((0, 5, 1, 0.0)),
                supply=1,
                source=0,
                sink=1,
            )
        )
    with pytest.raises(ValueError):
        step2flow.solve_min_cost_flow(
            FlowNetwork(
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
        step2flow.solve_min_cost_flow(
            FlowNetwork(
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
            step2flow.solve_min_cost_flow(FlowNetwork(2, edge_array((0, 1, 1, 0.0)), supply, source, sink))


def test_negative_cycle_rejected():
    net = FlowNetwork(
        n_vertices=3,
        edges=edge_array((0, 1, 1, -1.0), (1, 2, 1, -1.0), (2, 0, 1, -1.0)),
        supply=0,
        source=0,
        sink=2,
    )
    with pytest.raises(ValueError, match="cycle"):
        step2flow.solve_min_cost_flow(net)


def test_round_off_zero_cycle_is_not_a_negative_cycle():
    # -0.1 - 1.1 + 1.2 sums to about -2.2e-16 in float64; _RELAX_MARGIN
    # keeps Bellman-Ford from relabelling around it for all n passes.
    net = FlowNetwork(
        n_vertices=4,
        edges=edge_array((0, 1, 1, -0.1), (1, 2, 1, -1.1), (2, 0, 1, 1.2), (2, 3, 1, 0.0)),
        supply=1,
        source=0,
        sink=3,
    )
    assert step2flow.solve_min_cost_flow(net).tolist() == [1, 1, 0, 1]


def test_unroutable_supply_rejected():
    # No overflow edge and not enough path capacity for the supply.
    net = FlowNetwork(
        n_vertices=3,
        edges=edge_array((0, 1, 1, 0.0), (1, 2, 1, 0.0)),
        supply=2,
        source=0,
        sink=2,
    )
    with pytest.raises(ValueError, match="routed"):
        step2flow.solve_min_cost_flow(net)


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
    return FlowNetwork(
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
            step2flow.solve_min_cost_flow(net)
        return
    flow = step2flow.solve_min_cost_flow(net)
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
    return FlowNetwork(
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
    net = FlowNetwork(n, edge_array(*records), supply, source, sink)
    assert step2flow.solve_min_cost_flow(net).tolist() == want
    assert_matches_node_arc_lp(net)


def test_unroutable_supply_detected_from_a_pushed_vertex():
    # The push leaves 1 unit on the dead end 1 and sends 1 straight to the
    # sink 2; the search from vertex 1 finds no deficit and gives up.
    net = FlowNetwork(3, edge_array((0, 1, 1, 0.0), (0, 2, 1, 5.0)), 2, 0, 2)
    with pytest.raises(ValueError, match="routed"):
        step2flow.solve_min_cost_flow(net)
    assert node_arc_lp(net).status == 2


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
        ue_ids=np.arange(rows),
        ue_of_chain=np.arange(rows),
    )
    x = step2flow.solve_step2(res).x
    assert set(np.unique(x)) <= {0, 1}
    assert np.all(x.sum(axis=0) <= 1) and np.all(x.sum(axis=1) <= 1)
    # Multiples of 1e9 up to 18e9 add exactly in any order.
    assert (x * c).sum() == c[linear_sum_assignment(c, maximize=True)].sum()


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
# post-rounding residual) of full.cfg cells, recorded with the numpy-array
# loops; the list-native loops must reproduce them.  Like any digest of
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
