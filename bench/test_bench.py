"""Tests of the benchmark itself, at a tiny size (one Monte Carlo run)."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import mmwassoc
import run
import trace_sweep
from workloads import ROOT, WORKLOADS, read_csv, tail, write_config

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# One sweep of one Monte Carlo run: five cells.  The traced child reads the
# schemes and r_max sweep from WORKLOADS, so only groups and runs shrink.
TINY = {"full-poly": replace(WORKLOADS["full-poly"], groups=1, n_runs=1)}


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _module_attributes() -> dict:
    """Every attribute of every mmwassoc module, by identity."""
    modules = [mmwassoc] + [importlib.import_module(f"mmwassoc.{n}") for n in ("baselines",
               "cli", "harness", "instance", "lp", "model", "step1", "step2flow")]  # fmt: skip
    return {(m.__name__, k): id(v) for m in modules for k, v in vars(m).items()}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tmp_path, capsys, trace, section):
    run.main(
        ["--workload", "full-poly", "--seconds", "0", "--trace", str(trace)],
        out_base=tmp_path,
        workloads=TINY,
    )
    line = _last_json(capsys)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 5
    assert {m["name"]: m["unit"] for m in BENCHMARK[section]} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_traced_records_equal_the_cli_records(tmp_path, capsys):
    run.main(
        ["--workload", "full-poly", "--seconds", "0", "--trace", "1"],
        out_base=tmp_path,
        workloads=TINY,
    )
    assert _last_json(capsys)["failed"] == 0
    (run_dir,) = tmp_path.iterdir()
    cli = read_csv(run_dir / "cli-g0-0" / "records.csv", "wall_time_ms")[:2]
    traced = read_csv(run_dir / "traced-0" / "g0" / "records.csv", "wall_time_ms")[:2]
    assert traced == cli and len(cli[1]) == 5 * 3


def test_wrappers_restore_module_attributes(tmp_path):
    before = _module_attributes()
    tracer = trace_sweep.Tracer()
    with pytest.raises(KeyError):
        with trace_sweep.traced_modules(tracer):
            assert getattr(mmwassoc.lp.solve_lp_max, "__bench_traced__", False)
            assert getattr(mmwassoc.baselines.solve_step2, "__bench_traced__", False)
            raise KeyError("leave the block early")
    assert _module_attributes() == before

    workload = replace(WORKLOADS["full-poly"], r_max_sweep=("8e9",))
    cfg = write_config(workload, tmp_path / "w.cfg")
    failures = trace_sweep.traced_sweep(workload, cfg, 0, 1, tmp_path, tracer)
    assert failures == {}
    assert _module_attributes() == before
    names = {s[trace_sweep.NAME] for s in tracer.spans}
    assert {"lp.solve_lp_max", "step2flow.solve_min_cost_flow", "baselines.max_sum_rate"} <= names
    # Spans nest as the calls do: the LP runs inside step 1's relaxation.
    by_id = {s[trace_sweep.ID]: s for s in tracer.spans}
    lp_parents = {by_id[s[trace_sweep.PARENT]][trace_sweep.NAME]
                  for s in tracer.spans if s[trace_sweep.NAME] == "lp.solve_lp_max"}  # fmt: skip
    assert lp_parents == {"step1.solve_step1_lp"}


def test_corrupted_output_raises_fail_frac(tmp_path, monkeypatch):
    audit = trace_sweep.audit

    def corrupting_audit(inst, sol, constraints):
        x = sol.x.copy()
        x[0, :2] = 1  # one UE chain on two BS chains: violates 5c
        return audit(inst, replace(sol, x=x), constraints)

    monkeypatch.setattr(trace_sweep, "audit", corrupting_audit)
    bench_run = run.Run(TINY["full-poly"], 0, tmp_path)
    failures = trace_sweep.traced_sweep(
        TINY["full-poly"], bench_run.config, 0, 1, tmp_path, trace_sweep.Tracer()
    )
    assert set(failures) == set(bench_run.cells)
    assert all("5c" in why for whys in failures.values() for why in whys)
    bench_run.check_traced(bench_run.groups[0], tmp_path, failures)
    assert bench_run.attempted == 5 and bench_run.failed / bench_run.attempted == 1.0


def test_inconsistent_records_fail_their_cell(tmp_path):
    bench_run = run.Run(TINY["full-poly"], 0, tmp_path)
    rows = [[*c.split(","), s, "3", "2", "1e9", "0"] for c in bench_run.cells
            for s in ("max-snr", "max-sum-rate", "two-step-proposed")]  # fmt: skip
    assert bench_run.check_cells(rows) == {}
    rows[0][4] = "4"  # more satisfied than associated
    rows[5][5] = "2e9"  # a two-step sum rate above max-sum-rate's
    assert set(bench_run.check_cells(rows)) == {bench_run.cells[0], bench_run.cells[1]}


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail(range(1, 101)) == (90.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert np.isclose(tail(range(25))[0], 60.0)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "full-poly", "--seed", "0",
           "--seconds", "1", "--trace", "0"]  # fmt: skip
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
