"""The process entry.

`python -m mmwassoc` and the `mmwassoc` console script run `cli.run()`,
which calls `cli.main()`, freezes the garbage collector and exits with
main's code.  A process must print, write and exit exactly as `main()`
does in process, and only `run()` may touch the collector.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmwassoc as m
from mmwassoc import cli, harness
from mmwassoc.instance import instance_to_dict

from conftest import random_instance

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SRC = str(Path(m.__file__).resolve().parent.parent)


def _in_process(argv, cwd, monkeypatch):
    """cli.main(argv) run from cwd: (exit code, stdout, stderr lines)."""
    monkeypatch.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


def _child(args, cwd):
    """A fresh interpreter run from cwd: (exit code, stdout, stderr lines)."""
    done = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr.splitlines()


def _same_as_main(tmp_path, monkeypatch, argv, outputs):
    """`python -m mmwassoc argv` and cli.main(argv), each from its own
    directory: the same code, stdout and stderr lines and output bytes.
    Returns the in-process result."""
    (tmp_path / "main").mkdir()
    (tmp_path / "process").mkdir()
    inside = _in_process(argv, tmp_path / "main", monkeypatch)
    assert _child(["-m", "mmwassoc", *argv], tmp_path / "process") == inside
    for name in outputs:
        assert (tmp_path / "process" / name).read_bytes() == (
            tmp_path / "main" / name
        ).read_bytes()
    return inside


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_simulate_process_prints_writes_and_exits_as_main(tmp_path, monkeypatch, fmt):
    # The desk sweep of the records pins, every scheme included.
    argv = ["simulate", "--config", str(CONFIGS / "desk.cfg"), "--runs", "2", "--out", "out"]
    argv += ["--schemes", ",".join(harness.SCHEMES), "--rmax-sweep", "0.5e9,2e9", "--format", fmt]
    outputs = [f"out/records.{fmt}", f"out/aggregates.{fmt}"]
    code, out, err = _same_as_main(tmp_path, monkeypatch, argv, outputs)
    assert code == 0 and err == []
    assert out == f"wrote 16 records to out/records.{fmt} (aggregates: out/aggregates.{fmt})\n"


def _instance_file(path):
    base = m.ScenarioConfig.from_config_file(CONFIGS / "desk.cfg")
    path.write_text(json.dumps(instance_to_dict(harness.build_cell_instance(base, 0, 2e9))))
    return str(path)


def test_a_solve_process_prints_and_exits_as_main(tmp_path, monkeypatch):
    inst = _instance_file(tmp_path / "inst.json")
    argv = ["solve", "--instance", inst, "--scheme", "two-step-proposed"]
    code, out, err = _same_as_main(tmp_path, monkeypatch, argv, [])
    assert code == 0 and err == [] and json.loads(out)["x"]


def test_a_solve_process_writes_out_as_main(tmp_path, monkeypatch):
    inst = _instance_file(tmp_path / "inst.json")
    argv = ["solve", "--instance", inst, "--scheme", "max-sum-rate", "--out", "sol.json"]
    assert _same_as_main(tmp_path, monkeypatch, argv, ["sol.json"]) == (0, "", [])


def test_a_solve_process_that_runs_out_of_budget_exits_2_as_main(tmp_path, monkeypatch):
    inst = random_instance(np.random.default_rng(92), 4, 3, 2, 2)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_dict(inst)))
    argv = ["solve", "--instance", str(inst_path), "--scheme", "two-step-exact"]
    argv += ["--node-budget", "2"]
    code, out, err = _same_as_main(tmp_path, monkeypatch, argv, [])
    assert code == 2 and out == ""
    assert len(err) == 1 and err[0].startswith("error: ") and "node budget" in err[0]


# Run as a process entry; an atexit handler, which must still run after
# the freeze, reports whether the JSON codec was loaded and the collector
# frozen.
PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('json' in sys.modules, gc.get_freeze_count() > 0))\n"
    "from mmwassoc.cli import run\n"
    "run()\n"
)


@pytest.mark.parametrize("fmt, loads_json", [("csv", False), ("json", True)])
def test_only_a_json_sweep_loads_the_json_codec_and_run_freezes(tmp_path, fmt, loads_json):
    argv = ["simulate", "--config", str(CONFIGS / "desk.cfg"), "--runs", "1", "--out", "out"]
    argv += ["--rmax-sweep", "2e9", "--format", fmt]
    code, out, err = _child(["-c", PROBE, *argv], tmp_path)
    assert (code, err) == (0, [])
    assert out.splitlines()[-1] == f"{loads_json} True"


def test_main_in_process_leaves_the_collector_as_it_was(tmp_path, monkeypatch):
    before = gc.get_freeze_count(), gc.isenabled()
    argv = ["simulate", "--config", str(CONFIGS / "desk.cfg"), "--runs", "1", "--out", "out"]
    assert _in_process(argv, tmp_path, monkeypatch)[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_the_console_script_is_the_process_entry():
    text = (ROOT / "pyproject.toml").read_text()
    assert 'mmwassoc = "mmwassoc.cli:run"' in text.splitlines()
