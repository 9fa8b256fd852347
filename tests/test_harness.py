import builtins
import csv
import hashlib
import importlib
import json
import pkgutil
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import mmwassoc as m
from mmwassoc import cli, harness, lp, step2flow
from mmwassoc.instance import STRUCTURAL_CONSTRAINTS, empty_solution, instance_to_dict
from mmwassoc.model import FIELD_PARSERS

from conftest import random_instance

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DESK = m.ScenarioConfig(n_bs=3, n_ue=10, seed=7)


def tiny_spec(**overrides) -> harness.ExperimentSpec:
    base = dict(
        base=replace(DESK, n_ue=4),
        schemes=("two-step-proposed", "max-sum-rate"),
        n_runs=2,
        r_max_sweep=(1e9, 2e9),
    )
    base.update(overrides)
    return harness.ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# run_two_step
# ---------------------------------------------------------------------------


def test_two_step_equals_max_sum_rate_when_nothing_satisfiable():
    rng = np.random.default_rng(71)
    inst = random_instance(rng, 3, 2, 2, 2, r_low=1e12, r_high=2e12)
    for choice in ("exact", "lp-round"):
        result = m.run_two_step(inst, choice)
        assert result.step1_solution.x.sum() == 0
        got = m.metrics(inst, result.combined)
        want = m.metrics(inst, m.max_sum_rate(inst))
        assert got == want


def test_every_scheme_solves_instances_with_an_empty_side():
    # 0-3 UEs and 0-3 BSs, so some instances have no UE or no BS at all;
    # without BS chains a UE has no candidate link set in the exact search.
    rng = np.random.default_rng(28)
    sizes = 0
    for _ in range(60):
        n_ue, n_bs = rng.integers(0, 4, 2).tolist()
        inst = random_instance(rng, n_ue, n_bs, *rng.integers(1, 3, 2).tolist())
        sizes += inst.c.size == 0
        for scheme in harness.SCHEMES:
            sol, used = harness.run_scheme(inst, scheme)
            assert m.check_feasibility(inst, sol, STRUCTURAL_CONSTRAINTS).feasible, scheme
            if scheme in harness.TWO_STEP_SOLVERS:
                first = m.run_two_step(inst, harness.TWO_STEP_SOLVERS[scheme]).step1_solution
                assert m.check_feasibility(inst, first).feasible, scheme
                assert used == first.x.sum()
            if inst.c.size == 0:
                assert sol.z.sum() == 0, scheme
    assert sizes >= 20  # an empty side is drawn often


def test_two_step_skips_step2_when_chains_exhausted():
    # One BS chain, one easily satisfied UE: step 1 eats the only chain.
    inst = m.make_instance(np.array([[2e9], [1e9]]), np.array([1e9, 1e9]), 1, 1)
    result = m.run_two_step(inst, "exact")
    assert result.step1_solution.x.sum(axis=0).tolist() == [1]  # every BS chain
    np.testing.assert_array_equal(result.combined.x, result.step1_solution.x)


def test_two_step_merge_is_consistent():
    rng = np.random.default_rng(81)
    for choice in ("exact", "lp-round"):
        for _ in range(10):
            inst = random_instance(rng, 4, 2, 2, 2)
            result = m.run_two_step(inst, choice)
            combined, first = result.combined, result.step1_solution
            # step-2 links live only on chains step 1 left free
            overlap = combined.x * first.x
            np.testing.assert_array_equal(overlap, first.x)
            extra = combined.x - first.x
            assert np.all(extra[:, np.flatnonzero(first.x.sum(axis=0))] == 0)
            assert m.check_feasibility(
                inst, combined, constraints=STRUCTURAL_CONSTRAINTS
            ).feasible
            # step-1 associations stay satisfied in the merge
            for u in np.flatnonzero(first.z):
                assert combined.per_ue_rate[u] >= inst.rate_req[u] - 1e-6


def test_merge_rejects_a_step2_x_of_another_shape():
    # Nobody is satisfiable, so the residual is the whole 2 x 2 instance.
    # A (1, 2) step-2 x would be broadcast into both rows and give each
    # BS chain two links.
    inst = m.make_instance(np.full((2, 2), 1e9), np.array([5e9, 5e9]), 1, 1)
    first = empty_solution(inst)
    res = step2flow.make_residual(inst, first)
    assert res.c.shape == (2, 2)
    for shape in ((1, 2), (2, 1), (2,), (2, 3)):
        x = np.ones(shape, dtype=int)
        bad = m.AssociationSolution(x=x, z=np.ones(2, dtype=int), per_ue_rate=np.zeros(2))
        with pytest.raises(ValueError, match="step-2 x shape"):
            harness.merge_solutions(inst, first, res, bad)
    merged = harness.merge_solutions(inst, first, res, step2flow.solve_step2(res))
    np.testing.assert_array_equal(merged.x, np.eye(2, dtype=int))


def test_two_step_rejects_unknown_solver():
    inst = m.make_instance(np.array([[1e9]]), np.array([1e9]), 1, 1)
    with pytest.raises(ValueError):
        m.run_two_step(inst, "branch-and-pray")


def _desk_cell():
    return harness.build_cell_instance(DESK, 0, 1e9)


def _identity_rows():
    return lp.SparseRows(np.arange(3), np.arange(3), np.ones(3), (3, 3))


# Each builder makes a new object from the same inputs, so two calls give
# equal records in separate arrays.
ARRAY_RECORDS = {
    "AssociationInstance": _desk_cell,
    "AssociationSolution": lambda: m.max_sum_rate(_desk_cell()),
    "SparseRows": _identity_rows,
    "LpSolution": lambda: lp.solve_lp_max(np.ones(3), _identity_rows(), np.ones(3), np.ones(3)),
    "ScenarioRealization": lambda: m.sample_scenario(DESK),
    "FractionalSolution": lambda: m.solve_step1_lp(_desk_cell()),
    "ResidualInstance": lambda: m.full_residual(_desk_cell()),
    "FlowNetwork": lambda: m.build_flow_network(m.full_residual(_desk_cell())),
    "TwoStepResult": lambda: m.run_two_step(_desk_cell(), "lp-round"),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_holding_arrays_compare_to_a_bool(name):
    # A field-wise == would compare the arrays and raise on their truth value.
    first, second = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(first).__name__ == name
    assert isinstance(first == second, bool)
    assert (first == first) is True


# ---------------------------------------------------------------------------
# experiment records
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(n_runs=0)
    with pytest.raises(ValueError):
        tiny_spec(schemes=("two-step-proposed", "bogus"))
    with pytest.raises(ValueError):
        tiny_spec(r_max_sweep=(0.1e9,))  # below r_min
    # A float count would fail only inside the sweep, in range().
    with pytest.raises(TypeError):
        tiny_spec(n_runs=2.0)
    with pytest.raises(TypeError):
        tiny_spec(exact_node_budget=1.5)


def test_spec_rejects_repeated_schemes_and_sweep_values():
    # A repeat would emit duplicate records and inflate the aggregate n_runs.
    with pytest.raises(ValueError, match="schemes"):
        tiny_spec(schemes=("max-snr", "max-snr"))
    with pytest.raises(ValueError, match="r_max_sweep"):
        tiny_spec(r_max_sweep=(1e9, 1e9))
    # A cell's seed takes r_max rounded to the bit/s, so 1e9 and 1e9 + 0.3
    # would draw the same scenarios: they repeat a value too.
    assert harness.derive_seed(0, 0, 1e9) == harness.derive_seed(0, 0, 1e9 + 0.3)
    with pytest.raises(ValueError, match="r_max_sweep must not repeat a value"):
        tiny_spec(r_max_sweep=(1e9, 1e9 + 0.3))
    assert tiny_spec(r_max_sweep=(1e9, 1e9 + 1)).r_max_sweep == (1e9, 1e9 + 1)


def test_spec_rejects_empty_schemes_and_sweep():
    # An empty grid has no records to emit.
    with pytest.raises(ValueError, match="schemes must not be empty"):
        tiny_spec(schemes=())
    with pytest.raises(ValueError, match="r_max_sweep must not be empty"):
        tiny_spec(r_max_sweep=())


def test_spec_rejects_nonfinite_sweep_values():
    # derive_seed cannot round them to an integer seed.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            tiny_spec(r_max_sweep=(1e9, bad))


def test_spec_and_cli_default_to_the_polynomial_schemes(tmp_path, monkeypatch):
    # The exact search is opt-in: on full.cfg every cell of a default
    # spec would run it and exhaust its node budget.
    polynomial = ("two-step-proposed", "max-sum-rate", "max-snr")
    assert harness.ExperimentSpec(base=DESK).schemes == polynomial
    specs = []
    monkeypatch.setattr(harness, "run_experiment", lambda spec: specs.append(spec) or [])
    monkeypatch.setattr(harness, "emit_results", lambda records, out, fmt: (out, out))
    cfg_path = tmp_path / "desk.cfg"
    DESK.to_config_file(cfg_path)
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert specs[0].schemes == polynomial


def test_run_experiment_record_grid():
    records = harness.run_experiment(tiny_spec())
    assert len(records) == 2 * 2 * 2
    keys = [(r.run_id, r.r_max, r.scheme) for r in records]
    assert keys == sorted(keys)
    for rec in records:
        assert 0 <= rec.n_satisfied <= rec.n_associated <= 4
        assert rec.rf_chains_used_step1 <= DESK.n_bs * DESK.n_bs_rf
        assert rec.wall_time_ms == 0.0  # timing disabled by default


def test_run_experiment_is_deterministic():
    a = harness.run_experiment(tiny_spec())
    b = harness.run_experiment(tiny_spec())
    assert a == b


def test_run_experiment_measures_time_on_request():
    records = harness.run_experiment(tiny_spec(n_runs=1, measure_time=True))
    assert any(r.wall_time_ms > 0 for r in records)


def test_derive_seed_is_stable_and_distinct():
    s = harness.derive_seed(7, 0, 1e9)
    assert s == harness.derive_seed(7, 0, 1e9)
    assert s != harness.derive_seed(7, 1, 1e9)
    assert s != harness.derive_seed(7, 0, 2e9)


def test_budget_overrun_records_incumbent():
    spec = tiny_spec(
        schemes=("two-step-exact",), n_runs=1, r_max_sweep=(2e9,), exact_node_budget=2
    )
    with pytest.warns(UserWarning, match="node budget"):
        records = harness.run_experiment(spec)
    assert len(records) == 1  # sweep survived the overrun


# ---------------------------------------------------------------------------
# emit / parse
# ---------------------------------------------------------------------------


def test_emit_rejects_empty_and_bad_format(tmp_path):
    with pytest.raises(ValueError):
        harness.emit_results([], tmp_path)
    records = harness.run_experiment(tiny_spec(n_runs=1))
    with pytest.raises(ValueError):
        harness.emit_results(records, tmp_path, fmt="xml")


def read_records(path):
    """A records CSV as RunRecords, each field parsed by its declared type."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    types = {f.name: FIELD_PARSERS[f.type] for f in fields(harness.RunRecord)}
    return [harness.RunRecord(**{k: parse(row[k]) for k, parse in types.items()}) for row in rows]


def test_emit_csv_round_trip(tmp_path):
    records = harness.run_experiment(tiny_spec())
    rec_path, agg_path = harness.emit_results(records, tmp_path)
    assert read_records(rec_path) == records
    header = rec_path.read_text().splitlines()[0]
    assert header == ",".join(harness.RECORD_FIELDS)
    agg_lines = agg_path.read_text().splitlines()
    assert len(agg_lines) == 1 + 2 * 2  # per (r_max, scheme)


def test_emit_single_record_is_two_lines(tmp_path):
    records = [harness.RunRecord(0, 1e9, "max-snr", 1, 1, 2e9, 0, 0.0)]
    rec_path, _ = harness.emit_results(records, tmp_path)
    assert len(rec_path.read_text().splitlines()) == 2


def test_emit_csv_byte_identical_across_runs(tmp_path):
    spec = tiny_spec()
    harness.emit_results(harness.run_experiment(spec), tmp_path / "a")
    harness.emit_results(harness.run_experiment(spec), tmp_path / "b")
    assert (tmp_path / "a/records.csv").read_bytes() == (tmp_path / "b/records.csv").read_bytes()
    assert (
        tmp_path / "a/aggregates.csv"
    ).read_bytes() == (tmp_path / "b/aggregates.csv").read_bytes()


# (config, schemes, runs, r_max sweep, sha256 of records.csv, of
# aggregates.csv) of seed-0 sweeps, recorded before the flow network
# became an edge array and the rounding sorted its links once.  Records
# must stay byte-identical; this includes two-step-exact, which the
# benchmark workloads do not run.  The digests hold for this platform's
# numpy and libm.
SWEEP_PINS = [
    (
        "desk.cfg",
        harness.SCHEMES,
        2,
        (0.5e9, 2e9),
        "3e7a1d692823a97911f01ca4dd115f3b14893d5dc7a13d58aa99cd18a3184afd",
        "2bfc0f5f710e22d94eb4a065c46e3943ea137b9b6c66b7ec7b81a3ac2d4b9645",
    ),
    (
        "full.cfg",
        harness.SCHEMES[1:],  # the polynomial schemes
        1,
        harness.ExperimentSpec.r_max_sweep,
        "a949860edc5d2267442a05662f614e53e3cad78204559d44b8471d9b0df6d10f",
        "8d30a2b1dae2e16c1208939ce5ed6142485a5b8718bcae2eb6b839386e0d5ded",
    ),
]


@pytest.mark.parametrize(
    "config, schemes, n_runs, r_max_sweep, rec_sha256, agg_sha256", SWEEP_PINS
)
def test_sweep_output_reproduces_pinned_bytes(
    tmp_path, config, schemes, n_runs, r_max_sweep, rec_sha256, agg_sha256
):
    spec = harness.ExperimentSpec(
        base=m.ScenarioConfig.from_config_file(CONFIGS / config),
        schemes=schemes,
        n_runs=n_runs,
        r_max_sweep=r_max_sweep,
    )
    rec_path, agg_path = harness.emit_results(harness.run_experiment(spec), tmp_path)
    assert hashlib.sha256(rec_path.read_bytes()).hexdigest() == rec_sha256
    assert hashlib.sha256(agg_path.read_bytes()).hexdigest() == agg_sha256


def test_json_sweep_output_reproduces_pinned_bytes(tmp_path):
    # The desk pin's sweep written as JSON: sha256 of records.json and
    # aggregates.json.
    config, schemes, n_runs, r_max_sweep, _, _ = SWEEP_PINS[0]
    spec = harness.ExperimentSpec(
        base=m.ScenarioConfig.from_config_file(CONFIGS / config),
        schemes=schemes,
        n_runs=n_runs,
        r_max_sweep=r_max_sweep,
    )
    rec_path, agg_path = harness.emit_results(harness.run_experiment(spec), tmp_path, "json")
    assert hashlib.sha256(rec_path.read_bytes()).hexdigest() == (
        "8a0c55abecd1e660bc2a9f3f732059dcdfeb84509ae9a85e1bf4f2eaa8b3a68a"
    )
    assert hashlib.sha256(agg_path.read_bytes()).hexdigest() == (
        "96f318e76a3daa79148bf0a420b59538014543f485b9bce280e06005dcedb43b"
    )


def test_cli_solve_output_reproduces_pinned_bytes(tmp_path, capsys):
    # sha256 of `mmwassoc solve` stdout for the desk.cfg cell of run 0 at
    # r_max 2 Gbit/s under the proposed two-step scheme.
    base = m.ScenarioConfig.from_config_file(CONFIGS / "desk.cfg")
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_dict(harness.build_cell_instance(base, 0, 2e9))))
    args = ["solve", "--instance", str(inst_path), "--scheme", "two-step-proposed"]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cce3347ab98b05ae0793c5a339b3d1321ccfe93d4d1c2ffe41be11ce11222b61"
    )


@pytest.mark.parametrize("config, run_id, r_max", [("desk.cfg", 1, 2e9), ("full.cfg", 1, 8e9)])
def test_no_float_sum_goes_through_the_builtin_sum(
    tmp_path, capsys, monkeypatch, config, run_id, r_max
):
    # The README's determinism claim: CPython 3.12 and later compensate a
    # float sum in the builtin sum, so no float may reach it.  Every
    # scheme runs, through run_scheme and `mmwassoc solve`, with each
    # module's sum shadowed by one that refuses a float term.
    int_sums = []

    def int_only_sum(values, start=0):
        values = list(values)
        assert not any(isinstance(v, float) for v in [start, *values]), "a float sum"
        int_sums.append(len(values))
        return builtins.sum(values, start)

    for info in pkgutil.iter_modules(m.__path__):
        if info.name != "__main__":  # which runs the CLI when imported
            module = importlib.import_module(f"mmwassoc.{info.name}")
            monkeypatch.setattr(module, "sum", int_only_sum, raising=False)
    inst = harness.build_cell_instance(
        m.ScenarioConfig.from_config_file(CONFIGS / config), run_id, r_max
    )
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_dict(inst)))
    for scheme in harness.SCHEMES:
        harness.run_scheme(inst, scheme)
        assert cli.main(["solve", "--instance", str(inst_path), "--scheme", scheme]) == 0
    capsys.readouterr()
    assert int_sums  # the exact search's masks, steps and guard went through it


def test_emit_json(tmp_path):
    records = harness.run_experiment(tiny_spec(n_runs=1))
    rec_path, agg_path = harness.emit_results(records, tmp_path, fmt="json")
    parsed = json.loads(rec_path.read_text())
    assert len(parsed) == len(records)
    assert parsed[0]["scheme"] == records[0].scheme
    assert json.loads(agg_path.read_text())[0]["n_runs"] == 1


def test_aggregate_means():
    records = [
        harness.RunRecord(0, 1e9, "max-snr", 2, 1, 4e9, 0, 0.0),
        harness.RunRecord(1, 1e9, "max-snr", 4, 3, 6e9, 0, 0.0),
    ]
    agg = harness.aggregate(records)
    assert len(agg) == 1
    assert agg[0]["mean_n_satisfied"] == 2.0
    assert agg[0]["mean_sum_rate_bps"] == 5e9
    assert agg[0]["n_runs"] == 2


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_dense_config_golden_pipeline():
    # Pins the whole reproducibility contract (PCG64 streams, simplex,
    # rounding, flow) at the dense-network scale for seed 0.
    cfg = m.ScenarioConfig(seed=0)
    real = m.sample_scenario(cfg)
    inst = m.instance_from_capacity(m.build_capacity_matrix(real, cfg), real.rate_req, cfg)
    result = m.run_two_step(inst, "lp-round")
    got = m.metrics(inst, result.combined)
    assert int(result.step1_solution.z.sum()) == 21
    assert (got.n_associated, got.n_satisfied) == (24, 24)
    assert got.sum_rate_bps == pytest.approx(61.976e9, rel=1e-3)


def test_cli_simulate(tmp_path, capsys):
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    code = cli.main(
        [
            "simulate",
            "--config",
            str(cfg_path),
            "--schemes",
            "two-step-proposed,max-snr",
            "--runs",
            "1",
            "--rmax-sweep",
            "1e9",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    records = read_records(tmp_path / "out" / "records.csv")
    assert {r.scheme for r in records} == {"two-step-proposed", "max-snr"}


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    for out, seed in (("s1", "1"), ("s2", "2")):
        cli.main(
            [
                "simulate",
                "--config",
                str(cfg_path),
                "--runs",
                "1",
                "--rmax-sweep",
                "1e9",
                "--seed",
                seed,
                "--out",
                str(tmp_path / out),
            ]
        )
    a = (tmp_path / "s1" / "records.csv").read_text()
    b = (tmp_path / "s2" / "records.csv").read_text()
    assert a != b


def test_cli_simulate_json_format(tmp_path):
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    code = cli.main(
        [
            "simulate",
            "--config",
            str(cfg_path),
            "--schemes",
            "max-snr",
            "--runs",
            "1",
            "--rmax-sweep",
            "1e9",
            "--format",
            "json",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    parsed = json.loads((tmp_path / "out" / "records.json").read_text())
    assert parsed[0]["scheme"] == "max-snr"


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--rmax-sweep", "1e9,1e9"),
        ("--rmax-sweep", "1e9,1000000000.3"),  # one seed: r_max enters it to the bit/s
        ("--runs", "0"),
        ("--rmax-sweep", "abc"),
        ("--schemes", ","),
        ("--schemes", ""),
        ("bandwidth_hz", "nan"),  # a config key: the value replaces the config's
    ],
)
def test_cli_simulate_invalid_spec_exits_2_with_one_error_line(tmp_path, capsys, flag, value):
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    args = ["simulate", "--config", str(cfg_path), "--runs", "1", "--rmax-sweep", "1e9"]
    if flag.startswith("--"):
        args += [flag, value]
    else:
        lines = cfg_path.read_text().splitlines()
        cfg_path.write_text("\n".join(
            f"{flag} = {value}" if line.startswith(f"{flag} =") else line for line in lines
        ) + "\n")
    args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_cli_simulate_nonpositive_exact_budget_exits_2_with_one_error_line(tmp_path, capsys):
    # A budget below 1 would overrun in every exact cell and record incumbents.
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    args = ["simulate", "--config", str(cfg_path), "--runs", "1", "--rmax-sweep", "1e9"]
    args += ["--exact-budget", "-5", "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "exact_node_budget" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheme", harness.SCHEMES)
@pytest.mark.parametrize("budget", ["-5", "0"])
def test_cli_solve_nonpositive_node_budget_exits_2_with_one_error_line(tmp_path, capsys, scheme, budget):
    # Every scheme rejects it, before the instance is read: the file is missing.
    args = ["solve", "--instance", str(tmp_path / "missing.json"), "--scheme", scheme]
    assert cli.main(args + ["--node-budget", budget]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0] == f"error: node_budget must be >= 1, got {budget}"
    assert captured.out == ""


def _sweep_must_not_run(spec):
    raise AssertionError("the sweep ran before --out was found unwritable")


def test_cli_simulate_out_is_a_file_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "run_experiment", _sweep_must_not_run)
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    out = tmp_path / "taken"
    out.write_text("")
    args = ["simulate", "--config", str(cfg_path), "--schemes", "max-snr", "--runs", "1"]
    args += ["--rmax-sweep", "1e9", "--out", str(out)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "taken" in err[0]


def test_cli_simulate_out_below_a_file_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    # A directory that cannot be created: its parent is a regular file.
    monkeypatch.setattr(harness, "run_experiment", _sweep_must_not_run)
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    (tmp_path / "taken").write_text("")
    args = ["simulate", "--config", str(cfg_path), "--runs", "1", "--rmax-sweep", "1e9"]
    args += ["--out", str(tmp_path / "taken" / "results")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "taken" in err[0]


def test_cli_simulate_missing_config_exits_2_with_one_error_line(tmp_path, capsys):
    missing = tmp_path / "nonexistent.cfg"
    args = ["simulate", "--config", str(missing), "--runs", "1", "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "nonexistent.cfg" in err[0]
    assert not (tmp_path / "out").exists()


def test_cli_simulate_repeated_config_key_exits_2_with_one_error_line(tmp_path, capsys):
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    cfg_path.write_text(cfg_path.read_text() + "n_ue = 5\n")
    args = ["simulate", "--config", str(cfg_path), "--runs", "1", "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "repeated key 'n_ue'" in err[0]
    assert not (tmp_path / "out").exists()


def test_cli_simulate_former_power_split_key_exits_2_with_one_error_line(tmp_path, capsys):
    # The power split is n_bs_rf ** 2, as the paper prints it; a config
    # that still names the knob it once had is refused like any unknown key.
    cfg_path = tmp_path / "desk.cfg"
    replace(DESK, n_ue=4).to_config_file(cfg_path)
    cfg_path.write_text(cfg_path.read_text() + "power_split_mode = as-printed\n")
    args = ["simulate", "--config", str(cfg_path), "--runs", "1", "--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "unknown key 'power_split_mode'" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    [
        "tx_power_dbm = 1e6",
        "noise_psd_dbm_hz = 1e6",
        "noise_psd_dbm_hz = -1e6",
        "bandwidth_hz = 1e-300",
        "carrier_ghz = 1e-300",
        pytest.param(
            "bandwidth_hz = 1e300\ntx_power_dbm = 2900\nr_min_bps = 1e-10", id="ratio-to-r_min"
        ),
    ],
)
def test_cli_simulate_out_of_range_link_budget_exits_2_with_one_error_line(
    tmp_path, capsys, line
):
    # Finite values whose link budget overflows every capacity: the
    # config refuses them before any cell is solved.  The last one's peak
    # capacity (about 7.6e300 bit/s) is finite, but its ratio to r_min_bps
    # is not; it once raised a traceback mid-sweep.
    cfg_path = tmp_path / "budget.cfg"
    cfg_path.write_text(f"n_bs = 2\nn_ue = 3\n{line}\n")
    out = tmp_path / "out"
    args = ["simulate", "--config", str(cfg_path), "--runs", "1", "--rmax-sweep", "0.5e9"]
    assert cli.main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "link budget" in err[0]
    assert not (out / "records.csv").exists()


def _overflow_instance(c, r):
    return {
        "n_ue": len(c), "n_bs": len(c[0]), "n_ue_rf": 1, "n_bs_rf": 1,
        "capacity_bps": c, "rate_req_bps": r,
        "ue_of_chain": list(range(len(c))), "bs_of_chain": list(range(len(c[0]))),
    }


@pytest.mark.parametrize("scheme", harness.SCHEMES)
@pytest.mark.parametrize(
    "c, r",
    [([[1e308]], [1e-300]), ([[1e308, 0.0], [0.0, 1e308]], [1.0, 1.0])],
    ids=["ratio-overflows", "total-overflows"],
)
def test_cli_solve_refuses_capacities_whose_ratio_or_total_overflows(
    tmp_path, capsys, scheme, c, r
):
    # Finite values whose c_ij / r_u or total capacity overflows float64
    # once failed inside the LP or printed an infinite sum rate.
    inst_path, out = tmp_path / "inst.json", tmp_path / "sol.json"
    inst_path.write_text(json.dumps(_overflow_instance(c, r)))
    args = ["solve", "--instance", str(inst_path), "--scheme", scheme, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(args) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "out of range" in err[0]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_cli_solve_accepts_large_capacities_with_finite_ratios(tmp_path, capsys, scheme):
    inst_path = tmp_path / "inst.json"
    data = _overflow_instance([[1e300, 0.0], [0.0, 1e300]], [1e-5, 1e-5])
    inst_path.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", "--instance", str(inst_path), "--scheme", scheme]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x"] == [[1, 0], [0, 1]] and payload["metrics"]["sum_rate_bps"] == 2e300


def _instance_text(edit):
    data = instance_to_dict(random_instance(np.random.default_rng(91), 3, 2, 2, 2))
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "No such file"),
        ("{not json", "Expecting property name"),
        (_instance_text(lambda d: d.pop("n_bs_rf")), "missing key 'n_bs_rf'"),
        (_instance_text(lambda d: d.update(rate_req_bps=[-1.0, 1e9, 1e9])), "rate requirements"),
        ("[1, 2]", "list indices"),
        (_instance_text(lambda d: d.update(n_ue_rf=2.7)), "must be an integer"),
        (_instance_text(lambda d: d.update(ue_of_chain=[0, 0.9, 1, 1, 2, 2])), "ue_of_chain"),
        (_instance_text(lambda d: d.update(ue_of_chain=[0, 1, 0, 1, 2, 2])), "ue_of_chain"),
        (_instance_text(lambda d: d.update(bs_of_chain=[0, 1, 0, 1])), "bs_of_chain"),
        (_instance_text(lambda d: d.update(n_ue=99, n_bs=7)), "n_ue is not"),
        (_instance_text(lambda d: d.update(n_bs=7)), "n_bs is not"),
        (_instance_text(lambda d: d.update(capacity_bps=[])), "must be 2-D"),
        (_instance_text(lambda d: d.update(capacity_bps=[[[1e9]]])), "must be 2-D"),
    ],
    ids=[
        "missing-file",
        "not-json",
        "missing-key",
        "invalid-instance",
        "not-an-object",
        "fractional-count",
        "fractional-map",
        "permuted-map",
        "permuted-bs-map",
        "wrong-dimensions",
        "wrong-n-bs",
        "empty-capacity",
        "3-d-capacity",
    ],
)
def test_cli_solve_bad_instance_exits_2_with_one_error_line(tmp_path, capsys, text, message):
    inst_path = tmp_path / "inst.json"
    if text is not None:
        inst_path.write_text(text)
    assert cli.main(["solve", "--instance", str(inst_path), "--scheme", "max-snr"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert "inst.json" in err[0] and captured.out == ""


def test_cli_solve(tmp_path, capsys):
    rng = np.random.default_rng(91)
    inst = random_instance(rng, 3, 2, 2, 2)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_dict(inst)))
    code = cli.main(
        ["solve", "--instance", str(inst_path), "--scheme", "two-step-exact"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "x" in payload and "metrics" in payload
    assert payload["n_ue"] == 3


NO_BS_CHAIN_INSTANCE = {
    "n_ue": 2,
    "n_bs": 0,
    "n_ue_rf": 1,
    "n_bs_rf": 1,
    "capacity_bps": [[], []],
    "rate_req_bps": [1e9, 1e9],
    "ue_of_chain": [0, 1],
    "bs_of_chain": [],
}


@pytest.mark.parametrize("scheme", harness.SCHEMES)
def test_cli_solve_an_instance_without_bs_chains_associates_nobody(tmp_path, capsys, scheme):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(NO_BS_CHAIN_INSTANCE))
    assert cli.main(["solve", "--instance", str(inst_path), "--scheme", scheme]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x"] == [[], []] and payload["z"] == [0, 0]
    assert payload["metrics"] == {"n_associated": 0, "n_satisfied": 0, "sum_rate_bps": 0.0}


def test_cli_solve_unwritable_out_exits_2_with_one_error_line(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(_instance_text(lambda d: None))
    out = tmp_path / "missing_dir" / "x.json"
    args = ["solve", "--instance", str(inst_path), "--scheme", "max-snr", "--out", str(out)]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "missing_dir" in err[0]
    assert captured.out == ""


def test_cli_solve_budget_exhaustion_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(92)
    inst = random_instance(rng, 4, 3, 2, 2)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_dict(inst)))
    code = cli.main(
        [
            "solve",
            "--instance",
            str(inst_path),
            "--scheme",
            "two-step-exact",
            "--node-budget",
            "2",
        ]
    )
    assert code == 2
    assert "node budget" in capsys.readouterr().err
