"""The count and real-number rules at each of their sites, and the
package's two input doors.

`instance.count` is the one rule for a count, budget or seed: an integer
(numpy's too, but not a bool) of at least a bound, returned as a plain
int.  `instance.real` is the one rule for a real number: a numbers.Real
(numpy's too, but not a bool) that is finite and within a bound, returned
as a plain float.  The doors are `mmwassoc solve --instance`
(instance_from_dict) and `mmwassoc simulate --config`
(ScenarioConfig.from_config_file, then ExperimentSpec).  The property
tests mutate a valid instance file and a valid config file and run the
CLI in process: each input either exits 2 with one `error:` line and
writes nothing, or exits 0 with an output that passes the structural
audit.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmwassoc as m
from mmwassoc import cli, harness, step1
from mmwassoc.instance import (
    STRUCTURAL_CONSTRAINTS,
    instance_from_dict,
    instance_to_dict,
    solution_from_x,
    solution_to_dict,
)
from mmwassoc.lp import store_bytes
from mmwassoc.model import CELL_ARRAY_BYTES_MAX

from conftest import random_instance

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _run(argv):
    """cli.main(argv) in process: (exit code, stdout, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


def _assert_same_instance(a, b):
    for name in ("c", "rate_req", "ue_of_chain", "bs_of_chain"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert (a.n_ue_rf, a.n_bs_rf) == (b.n_ue_rf, b.n_bs_rf)


# ---------------------------------------------------------------------------
# The count rule, site by site
# ---------------------------------------------------------------------------

# Two UEs and two BSs with two chains each, so 2 is valid for every count.
SITE_INSTANCE = instance_to_dict(random_instance(np.random.default_rng(17), 2, 2, 2, 2))


def _config_field(name):
    return lambda value: getattr(m.ScenarioConfig(**{name: value}), name)


def _gain(value):
    m.beamforming_gain(0.1, 0.3, value)


def _instance_field(name):
    def site(value):
        counts = {"n_ue_rf": 1, "n_bs_rf": 1, name: value}
        n_ue = 1 if name == "n_ue_rf" else 2
        return getattr(m.make_instance(np.ones((2, 2)), np.ones(n_ue), **counts), name)

    return site


def _door_field(key):
    def site(value):
        return getattr(instance_from_dict({**SITE_INSTANCE, key: value}), key)

    return site


def _spec_field(name):
    return lambda value: getattr(harness.ExperimentSpec(m.ScenarioConfig(), **{name: value}), name)


def _exact_budget(value):
    # One UE that no link satisfies: the search visits two nodes.
    m.solve_step1_exact(m.make_instance([[1.0]], [1e9], 1, 1), node_budget=value)


def _cli_node_budget(value):
    # The CLI reads text: a value goes in as Python writes it, and argparse
    # refuses text that is not an integer, as the rule refuses the type.
    text = str(value) if isinstance(value, np.integer) else repr(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "inst.json")
        path.write_text(json.dumps(SITE_INSTANCE))
        argv = ["solve", "--instance", str(path), "--scheme", "max-snr", "--node-budget", text]
        try:
            code, _, err = _run(argv)
        except SystemExit as exc:
            assert exc.code == 2
            raise TypeError(f"argparse refused {text}") from None
    if code:
        assert code == 2 and len(err) == 1 and err[0].startswith("error: ")
        raise ValueError(err[0])


# site -> (least value, call); a call returns the count its site keeps, if any.
COUNT_SITES = {
    **{
        f"ScenarioConfig.{name}": (1, _config_field(name))
        for name in ("n_bs", "n_ue", "n_bs_rf", "n_ue_rf", "n_bs_ant", "n_ue_ant")
    },
    "ScenarioConfig.seed": (0, _config_field("seed")),
    "beamforming_gain": (1, _gain),
    "AssociationInstance.n_ue_rf": (1, _instance_field("n_ue_rf")),
    "AssociationInstance.n_bs_rf": (1, _instance_field("n_bs_rf")),
    "instance_from_dict.n_ue": (0, _door_field("n_ue")),
    "instance_from_dict.n_bs": (0, _door_field("n_bs")),
    "instance_from_dict.n_ue_rf": (1, _door_field("n_ue_rf")),
    "instance_from_dict.n_bs_rf": (1, _door_field("n_bs_rf")),
    "ExperimentSpec.n_runs": (1, _spec_field("n_runs")),
    "ExperimentSpec.exact_node_budget": (1, _spec_field("exact_node_budget")),
    "solve_step1_exact": (1, _exact_budget),
    "mmwassoc solve --node-budget": (1, _cli_node_budget),
}


@pytest.mark.parametrize("site", COUNT_SITES)
def test_every_count_site_applies_the_one_rule(site):
    least, call = COUNT_SITES[site]
    for bad in (True, 2.0, "2"):
        with pytest.raises(TypeError):
            call(bad)
    with pytest.raises(ValueError, match=f"must be >= {least}, got {least - 1}"):
        call(least - 1)
    kept = call(np.int64(2))
    assert kept is None or (type(kept) is int and kept == 2)


def test_numpy_integer_chain_counts_round_trip_and_bool_counts_are_refused():
    rng = np.random.default_rng(5)
    c, r = rng.uniform(0.0, 2e9, (4, 6)), rng.uniform(0.2e9, 3e9, 2)
    inst = m.make_instance(c, r, np.int64(2), np.int64(3))
    sol, _ = harness.run_scheme(inst, "two-step-proposed")
    again = instance_from_dict(json.loads(json.dumps(solution_to_dict(inst, sol))))
    _assert_same_instance(again, inst)
    for counts in ((True, 3), (2, True)):
        with pytest.raises(TypeError, match="must be an integer, got True"):
            m.make_instance(c, r, *counts)


# ---------------------------------------------------------------------------
# The real-number rule, site by site
# ---------------------------------------------------------------------------


def _config_real(name):
    return lambda value: getattr(m.ScenarioConfig(**{name: value}), name)


def _sweep_value(value):
    return harness.ExperimentSpec(m.ScenarioConfig(), r_max_sweep=(value,)).r_max_sweep[0]


def _carrier(value):
    assert m.path_loss_db(10.0, value) == m.path_loss_db(10.0, float(value))


def _door_entry(key, *index):
    def site(value):
        data = copy.deepcopy(SITE_INSTANCE)
        _node(data, (key, *index[:-1]))[index[-1]] = value
        inst = instance_from_dict(data)
        assert inst.c.dtype == inst.rate_req.dtype == np.float64

    return site


NO_BOUND = None
BELOW_R_MIN = math.nextafter(m.ScenarioConfig().r_min_bps, 0.0)

# Each real ScenarioConfig field: a value it accepts, the value just past its bound.
CONFIG_REALS = (
    ("bs_spacing", 200, 0.0),
    ("bandwidth_hz", 200_000_000, 0.0),
    ("carrier_ghz", 28, 0.0),
    ("r_min_bps", 300_000_000, 0.0),
    ("r_max_bps", 2_000_000_000, BELOW_R_MIN),
    ("tx_power_dbm", 30, NO_BOUND),
    ("noise_psd_dbm_hz", -174, NO_BOUND),
    ("sigma_aod_deg", 1, -5e-324),
    ("sigma_aoa_deg", 3, -5e-324),
)

# site -> (call, the name its messages give, a value it accepts, the value
# just past its bound); a call returns the float its site keeps, if any.  The
# doors' capacities and requirements have no bound of their own:
# AssociationInstance checks their ranges as arrays.
REAL_SITES = {
    **{
        f"ScenarioConfig.{name}": (_config_real(name), name, good, past)
        for name, good, past in CONFIG_REALS
    },
    "ExperimentSpec.r_max_sweep": (_sweep_value, "r_max_sweep value", 10**9, BELOW_R_MIN),
    "path_loss_db": (_carrier, "carrier frequency", 28, 0.0),
    "instance_from_dict.capacity_bps": (
        _door_entry("capacity_bps", 0, 0), "capacity_bps[0][0]", 10**9, -5e-324
    ),
    "instance_from_dict.rate_req_bps": (
        _door_entry("rate_req_bps", 0), "rate_req_bps[0]", 10**9, 0.0
    ),
}


@pytest.mark.parametrize("site", REAL_SITES)
def test_every_real_site_applies_the_one_rule(site):
    call, name, good, past = REAL_SITES[site]
    for bad in (True, "2e8", Decimal("30")):
        with pytest.raises(TypeError, match=re.escape(f"{name} is {bad!r}, not a number")):
            call(bad)
    for bad in (math.nan, math.inf, -math.inf, 10**400, *([] if past is NO_BOUND else [past])):
        with pytest.raises(ValueError, match="must be finite"):
            call(bad)
    for value in (np.float32(good), good):
        kept = call(value)
        assert kept is None or (type(kept) is float and kept == good)


@pytest.mark.parametrize("kind", [np.float32, int])
def test_a_config_of_numpy_or_int_reals_is_stored_as_floats_and_round_trips(tmp_path, kind):
    # Without the rule an int was kept as an int and a numpy float as
    # numpy's, and a bool passed and was written as True, which the file
    # reader refused.
    cfg = m.ScenarioConfig(**{name: kind(good) for name, good, _ in CONFIG_REALS})
    assert all(type(getattr(cfg, name)) is float for name, _, _ in CONFIG_REALS)
    path = tmp_path / "scenario.cfg"
    cfg.to_config_file(path)
    assert m.ScenarioConfig.from_config_file(path) == cfg


def test_the_sweep_stores_a_tuple_of_floats():
    spec = harness.ExperimentSpec(m.ScenarioConfig(), r_max_sweep=[np.float32(1e9), 2 * 10**9])
    assert spec.r_max_sweep == (1e9, 2e9) and {type(r) for r in spec.r_max_sweep} == {float}


# ---------------------------------------------------------------------------
# The instance door
# ---------------------------------------------------------------------------

VALID_INSTANCE = instance_to_dict(random_instance(np.random.default_rng(3), 3, 2, 2, 2))


def _node(data, path):
    for step in path:
        data = data[step]
    return data


def _edited(path, value):
    data = copy.deepcopy(VALID_INSTANCE)
    _node(data, path[:-1])[path[-1]] = value
    return data


NOT_AS_LONG = "is not a list as long as row 0 (4)"


@pytest.mark.parametrize("scheme", harness.SCHEMES)
@pytest.mark.parametrize(
    "data, message",
    [
        (_edited(("capacity_bps", 0, 1), "1e9"), "capacity_bps[0][1] is '1e9', not a number"),
        (_edited(("capacity_bps", 2, 0), True), "capacity_bps[2][0] is True, not a number"),
        (_edited(("rate_req_bps", 1), "1e9"), "rate_req_bps[1] is '1e9', not a number"),
        (_edited(("rate_req_bps", 0), False), "rate_req_bps[0] is False, not a number"),
        (_edited(("ue_of_chain", 1), False), "ue_of_chain[1] is False, not a number"),
        (_edited(("capacity_bps", 3), [1e9] * 3), f"capacity_bps row 3 {NOT_AS_LONG}"),
        (_edited(("capacity_bps", 1), 1e9), f"capacity_bps row 1 {NOT_AS_LONG}"),
    ],
    ids=["string-cap", "bool-cap", "string-rate", "bool-rate", "bool-map", "ragged", "mixed"],
)
def test_cli_solve_refuses_non_numbers_and_ragged_rows_by_name(tmp_path, scheme, data, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(["solve", "--instance", str(path), "--scheme", scheme])
    assert code == 2 and out == ""
    assert err == [f"error: {path}: {message}"]


@pytest.mark.parametrize("n_bs, n_bs_rf", [(0, 1), (0, 3), (2, 1), (2, 3)])
def test_an_instance_without_ues_round_trips_and_solves(tmp_path, n_bs, n_bs_rf):
    # Its capacity_bps is [], which keeps no column count: the reader takes
    # the n_bs * n_bs_rf columns from the counts.
    inst = m.make_instance(np.zeros((0, n_bs * n_bs_rf)), [], 1, n_bs_rf)
    text = json.dumps(instance_to_dict(inst))
    assert json.loads(text)["capacity_bps"] == []
    _assert_same_instance(instance_from_dict(json.loads(text)), inst)
    path = tmp_path / "inst.json"
    path.write_text(text)
    for scheme in harness.SCHEMES:
        code, out, err = _run(["solve", "--instance", str(path), "--scheme", scheme])
        assert code == 0 and err == []
        metrics = json.loads(out)["metrics"]
        assert metrics == {"n_associated": 0, "n_satisfied": 0, "sum_rate_bps": 0.0}


def test_cli_solve_refuses_integers_numpy_cannot_hold(tmp_path):
    # An integer beyond the float range as a capacity, a chain count beyond
    # int64 on an instance without BS chains, and, on an instance without
    # UEs, BS counts that ask for 2**59 or 10**9 columns its bs_of_chain
    # does not hold: the reader must not build arrays of that size.
    rows = [[0] * 4 for _ in range(6)]
    rows[0][0] = 10**400
    no_bs = {**VALID_INSTANCE, "n_bs": 0, "n_bs_rf": 2**64, "bs_of_chain": []}
    no_ue = {"n_ue": 0, "n_ue_rf": 1, "n_bs_rf": 1, "capacity_bps": [], "rate_req_bps": []}
    no_ue.update(ue_of_chain=[], bs_of_chain=[])
    for data in (
        {**VALID_INSTANCE, "capacity_bps": rows},
        {**no_bs, "capacity_bps": [[] for _ in range(6)]},
        {**no_ue, "n_bs": 2**59},
        {**no_ue, "n_bs": 10**9},
        {**no_ue, "n_bs": 1, "n_bs_rf": 2**59, "bs_of_chain": [0]},
    ):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        code, out, err = _run(["solve", "--instance", str(path), "--scheme", "max-snr"])
        assert code == 2 and out == "" and len(err) == 1 and err[0].startswith("error: ")


# Values a mutation puts in place of any part of an instance file: type
# swaps, signed zero, the extreme floats, NaN and infinities (which
# json.dumps writes as the NaN and Infinity literals), and integers beyond
# float64 and int64.
ODD_VALUES = [
    -0.0, 0.0, 5e-324, 1.7e308, math.nan, math.inf, -math.inf, 0, 1, 2, -1, 1.5,
    2**63, 10**400, True, False, None, "1e9", "", [], {}, [1e9], [[1e9]],
]


def _paths(data):
    """Every index path into data: (key,), (key, i), (key, i, j), ..."""
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, (*path, i))

    for key, value in data.items():
        walk(value, (key,))
    return paths


def _odd_value(draw):
    # A copy, so that a later mutation cannot edit ODD_VALUES itself.
    return copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))


def _swap(draw, data):
    path = draw(st.sampled_from(_paths(data)))
    _node(data, path[:-1])[path[-1]] = _odd_value(draw)


def _nest(draw, data):
    path = draw(st.sampled_from(_paths(data)))
    parent = _node(data, path[:-1])
    parent[path[-1]] = [parent[path[-1]]]


def _reshape(draw, data):  # empty and ragged lists
    lists = [p for p in _paths(data) if isinstance(_node(data, p), list)]
    node = _node(data, draw(st.sampled_from(lists)))
    edit = draw(st.sampled_from(("clear", "pop", "append")))
    if edit == "clear":
        node.clear()
    elif edit == "pop" and node:
        node.pop()
    elif edit == "append":
        node.append(node[-1] if node else 1e9)


def _drop_key(draw, data):
    del data[draw(st.sampled_from(sorted(data)))]


def _extra_key(draw, data):
    data[draw(st.sampled_from(("extra", "x", "metrics")))] = _odd_value(draw)


INSTANCE_MUTATIONS = (_swap, _nest, _reshape, _drop_key, _extra_key)


@st.composite
def instance_texts(draw):
    data = copy.deepcopy(VALID_INSTANCE)
    for _ in range(draw(st.integers(0, 2))):
        if data:
            draw(st.sampled_from(INSTANCE_MUTATIONS))(draw, data)
    return json.dumps(data)


@settings(max_examples=150)
@given(text=instance_texts())
def test_solve_door_exits_2_or_writes_an_audited_output(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "inst.json")
        path.write_text(text)
        for scheme in harness.SCHEMES:
            out = Path(tmp, "solved.json")
            code, stdout, err = _run(
                ["solve", "--instance", str(path), "--scheme", scheme, "--out", str(out)]
            )
            assert stdout == ""
            if code == 2:
                assert len(err) == 1 and err[0].startswith("error: ")
                assert not out.exists()
                continue
            assert code == 0 and not any(line.startswith("error:") for line in err)
            inst = instance_from_dict(json.loads(text))
            payload = json.loads(out.read_text())
            _assert_same_instance(instance_from_dict(payload), inst)
            sol = solution_from_x(inst, np.array(payload["x"], dtype=int).reshape(inst.c.shape))
            assert sol.z.tolist() == payload["z"]
            assert m.check_feasibility(inst, sol, STRUCTURAL_CONSTRAINTS).feasible
            out.unlink()


# ---------------------------------------------------------------------------
# The config door
# ---------------------------------------------------------------------------

DESK_LINES = [
    line for line in (CONFIGS / "desk.cfg").read_text().splitlines() if "=" in line
]

# Values a mutation writes after "key =": type swaps, bad numbers, and the
# extreme floats and integers of the instance door.
ODD_TOKENS = [
    "", "1.5", "True", "abc", "nan", "inf", "-inf", "-0.0", "5e-324", "1.7e308", "1e999",
    "-1", "0", "1", "2", "0x10", "1_0", "1e3", "[1]", "'3'", "10 = 3", str(2**63), str(10**400),
]


def test_the_size_bound_refuses_n_bs_2_to_the_63_in_under_a_second():
    # A child process, so that a regression fails on its timeout rather than
    # hang: without the bound, _grid_shape trial-divides about 9e8 times.
    code = (
        "import time\n"
        "import mmwassoc as m\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    m.ScenarioConfig(n_bs=2**63)\n"
        "except ValueError as exc:\n"
        "    print(time.perf_counter() - start, exc)\n"
    )
    src = str(Path(m.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    elapsed, message = done.stdout.split(" ", 1)
    assert float(elapsed) < 1.0
    assert f"n_bs = {2**63}" in message and str(CELL_ARRAY_BYTES_MAX) in message


@pytest.mark.parametrize(
    "counts",
    [{"n_ue": 2**63}, {"n_ue": 10**6, "n_bs": 10**3}, {"n_bs_ant": 10**9}, {"n_bs": 10**400}],
    ids=["n_ue-2**63", "1000x10**6", "n_bs_ant-10**9", "n_bs-10**400"],
)
def test_the_size_bound_refuses_a_scenario_a_cell_cannot_hold(tmp_path, counts):
    bound = f"over the bound of {CELL_ARRAY_BYTES_MAX} bytes"
    with pytest.raises(ValueError, match=bound) as info:
        m.ScenarioConfig(**counts)
    assert all(f"{name} = {value}" in str(info.value) for name, value in counts.items())
    path = tmp_path / "scenario.cfg"
    path.write_text("".join(f"{name} = {value}\n" for name, value in counts.items()))
    argv = ["simulate", "--config", str(path), "--runs", "1", "--rmax-sweep", "1e9"]
    code, out, err = _run([*argv, "--out", str(tmp_path / "out")])
    assert code == 2 and out == "" and not (tmp_path / "out").exists()
    assert len(err) == 1 and bound in err[0]


def _cell_instance(cfg):
    c = m.build_capacity_matrix(m.sample_scenario(cfg), cfg)
    return m.instance_from_capacity(c, np.full(cfg.n_ue, 1e9), cfg)


@pytest.mark.parametrize("counts", [{}, {"n_bs": 9, "n_ue": 100}], ids=["full", "9x100"])
def test_the_size_bound_is_the_store_of_the_step1_lp_step1_builds(counts):
    # The bound has no formula of its own: on these shapes it is
    # lp.store_bytes of the rows and columns step1 builds.  The 9 BSs x
    # 100 UEs stress shape is admitted.
    cfg = replace(m.ScenarioConfig.from_config_file(CONFIGS / "full.cfg"), **counts)
    a_ub, _ = step1._relaxation_rows(_cell_instance(cfg))
    assert cfg.cell_array_bytes == store_bytes(*a_ub.shape) < CELL_ARRAY_BYTES_MAX


@pytest.mark.parametrize("n_bs_ant", [32, 1024], ids=["full", "full-1024-antennas"])
def test_a_cell_allocates_the_array_the_size_bound_counts(n_bs_ant):
    # On full.cfg the step-1 simplex store is the largest array, with 1024
    # BS antennas a beam-gain temporary (24.6 MB against 3.9 MB).
    cfg = replace(m.ScenarioConfig.from_config_file(CONFIGS / "full.cfg"), n_bs_ant=n_bs_ant)
    tracemalloc.start()
    try:
        step1.solve_step1_lp(_cell_instance(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.cell_array_bytes <= peak


@pytest.mark.parametrize("n_bs, spacing", [(3, 1.7e308), (3, 1e154), (4, 1e154)])
def test_cli_simulate_refuses_a_bs_grid_whose_diagonal_overflows(tmp_path, n_bs, spacing):
    # Before, the UE draw or the distance norm overflowed mid-sweep.
    path = tmp_path / "scenario.cfg"
    path.write_text(f"n_bs = {n_bs}\nn_ue = 4\nbs_spacing = {spacing!r}\n")
    argv = ["simulate", "--config", str(path), "--runs", "1", "--rmax-sweep", "1e9"]
    code, out, err = _run([*argv, "--out", str(tmp_path / "out")])
    assert code == 2 and out == "" and not (tmp_path / "out").exists()
    assert len(err) == 1 and "bs_spacing" in err[0] and "diagonal out of range" in err[0]


@pytest.mark.filterwarnings("ignore:non-positive distance clamped")  # one BS: UEs sit on it
@pytest.mark.parametrize("n_bs, spacing", [(1, 1.7e308), (3, 6e153), (4, 9e153)])
def test_a_bs_grid_whose_squared_diagonal_is_finite_samples_without_overflow(n_bs, spacing):
    # One BS has no diagonal; 1x3 and 2x2 grids just inside the bound.
    cfg = m.ScenarioConfig(n_bs=n_bs, n_ue=4, bs_spacing=spacing)
    inst = harness.build_cell_instance(cfg, 0, 1e9)
    assert m.check_feasibility(inst, m.max_snr(inst), STRUCTURAL_CONSTRAINTS).feasible


def _set_value(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = f"{lines[i].split('=', 1)[0].strip()} = {draw(st.sampled_from(ODD_TOKENS))}"


def _repeat_line(draw, lines):
    lines.append(lines[draw(st.integers(0, len(lines) - 1))])


def _unknown_key(draw, lines):
    lines.insert(draw(st.integers(0, len(lines))), "bogus_key = 1")


def _drop_equals(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = lines[i].replace("=", " ")


def _drop_line(draw, lines):
    del lines[draw(st.integers(0, len(lines) - 1))]


# A bad value can go in any of 16 fields, so it gets twice the weight.
CONFIG_MUTATIONS = (_set_value, _set_value, _repeat_line, _unknown_key, _drop_equals, _drop_line)


@st.composite
def config_texts(draw):
    lines = list(DESK_LINES)
    for _ in range(draw(st.integers(0, 2))):
        if lines:
            draw(st.sampled_from(CONFIG_MUTATIONS))(draw, lines)
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(text=config_texts())
def test_simulate_door_exits_2_or_writes_one_audited_cell(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "scenario.cfg"), Path(tmp, "out")
        path.write_text(text)
        argv = ["simulate", "--config", str(path), "--schemes", "max-snr", "--runs", "1"]
        code, stdout, err = _run([*argv, "--rmax-sweep", "1e9", "--out", str(out)])
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: ")
            assert stdout == "" and not out.exists()
            return
        assert code == 0 and not any(line.startswith("error:") for line in err)
        assert len((out / "records.csv").read_text().splitlines()) == 2
        inst = harness.build_cell_instance(m.ScenarioConfig.from_config_file(path), 0, 1e9)
        assert m.check_feasibility(inst, m.max_snr(inst), STRUCTURAL_CONSTRAINTS).feasible
