"""Sweep benchmark of `mmwassoc simulate`: one workload, one seed, one run.

    python3 bench/run.py --workload full-poly --seed 0 --seconds 50 --trace 0

A workload's cells are split into groups, each one `simulate` sweep with
its own seed (workloads.py).  With --trace 0 it measures end to end:
fresh interpreters that import the package and parse the workload
config (setup_s), then rounds of `simulate --measure-time` children, one
per group, until the next round would end after --seconds.  Every round
repeats identical work, so each timing takes its fastest repeat: the
host's slowdowns only ever add time.

With --trace 1 each round also runs a traced sweep of every group
(trace_sweep.py) that rebuilds the sweep from the package's public
functions, records one span per call and audits every output.  It
prints the per-layer metrics.

Both modes check the outputs: every cell's records must be complete and
self-consistent, identical from pass to pass, identical to the traced
rebuild, and, at the default seed and size, identical to the digests in
reference.json.  A cell that fails any check counts as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines above it are a table
with sample counts, and the full result (machine facts, per-pass values,
digests, failure reasons) is written to .bench_out/<run>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import (
    BLAS_THREADS,
    DEFAULT_SEED,
    EXACT_NODE_BUDGET,
    ROOT,
    WORKLOADS,
    cell_digest,
    cell_rows,
    child_env,
    config_value,
    load_reference,
    median,
    package_present,
    read_csv,
    sha256,
    tail,
    write_config,
)

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_tail", "ms"),
    ("scheme_ms_p50.two-step-proposed", "ms"),
    ("scheme_ms_p50.max-sum-rate", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("model.sample_scenario.busy_s", "s"),
    ("model.build_capacity_matrix.busy_s", "s"),
    ("instance.instance_from_capacity.busy_s", "s"),
    ("instance.metrics.busy_s", "s"),
    ("instance.check_feasibility.busy_s", "s"),
    ("lp.solve_lp_max.busy_s", "s"),
    ("lp.solve_lp_max.calls", "count"),
    ("lp.pivots", "count"),
    ("lp.rows_max", "count"),
    ("lp.cols_max", "count"),
    ("lp.nnz_max", "count"),
    ("lp.tableau_bytes_max", "B"),
    ("step1.solve_step1_lp.busy_s", "s"),
    ("step1.solve_step1_lp.self_s", "s"),
    ("step1.round_solution.busy_s", "s"),
    ("step1.round_solution.satisfied_ratio", "ratio"),
    ("step2flow.make_residual.busy_s", "s"),
    ("step2flow.solve_step2.busy_s", "s"),
    ("step2flow.build_flow_network.busy_s", "s"),
    ("step2flow.solve_min_cost_flow.busy_s", "s"),
    ("step2flow.flow_edges", "count"),
    ("step2flow.assigned_links", "count"),
    ("baselines.max_sum_rate.self_s", "s"),
    ("baselines.max_snr.busy_s", "s"),
    ("harness.run_two_step.busy_s", "s"),
    ("harness.merge_solutions.busy_s", "s"),
    ("harness.emit_results.busy_s", "s"),
    ("harness.chains_step1", "count"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
# Metrics of the exact scheme.  They exist only where two-step-exact runs,
# which no BENCHMARK.json workload does, so they are printed and saved
# but left out of the JSON line.
EXACT_END_TO_END = (("scheme_ms_p50.two-step-exact", "ms"),)
EXACT_LAYER = (
    ("step1.solve_step1_exact.busy_s", "s"),
    ("step1.solve_step1_exact.self_s", "s"),
    ("step1.solve_step1_exact.p50_ms", "ms"),
    ("step1.solve_step1_exact.tail_ms", "ms"),
    ("step1.exact.overruns", "count"),
    ("step1.exact.improved_ratio", "ratio"),
)
# Deterministic counts of the traced run; they must repeat exactly.
COUNTS = (
    "lp.solve_lp_max.calls",
    "lp.pivots",
    "lp.rows_max",
    "lp.cols_max",
    "lp.nnz_max",
    "lp.tableau_bytes_max",
    "step1.round_solution.satisfied_ratio",
    "step2flow.flow_edges",
    "step2flow.assigned_links",
    "harness.chains_step1",
    "step1.exact.overruns",
    "step1.exact.improved_ratio",
)

SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys, mmwassoc.cli; from mmwassoc.model import ScenarioConfig; "
    "ScenarioConfig.from_config_file(sys.argv[1])"
)
HARD_LIMIT_S = 170.0  # a run ends within 180 s, whatever --seconds says
CALIBRATION = Path(__file__).with_name("calibrate.py")
# The calibration kernel's wall time, spawn to exit, at the reference speed:
# about its median on the 2-CPU Xeon VM the benchmark was built on.
CALIBRATION_REF_S = 0.25
SUM_RATE_RTOL = 1e-9
BASELINES = ("max-sum-rate", "max-snr")


class ChildFailed(RuntimeError):
    pass


def spawn(cmd: list[str], log: Path, deadline: float):
    """Run cmd to completion; returns (wall s, exit code, rusage of that child).

    The child is killed at the run's deadline, so a hung program still
    lets the benchmark exit in time.
    """
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage


class Clock:
    """Host speed, sampled by the calibration kernel between measurements."""

    def __init__(self, run_dir: Path, deadline: float):
        self.log = run_dir / "calibrate.log"
        self.deadline = deadline
        self.samples: list[float] = []
        self.last = self._sample()

    def _sample(self) -> float:
        wall, code, _ = spawn([sys.executable, str(CALIBRATION)], self.log, self.deadline)
        if code != 0:
            raise ChildFailed(f"calibration kernel exited with {code}; see {self.log}")
        self.samples.append(wall)
        return wall

    def scale(self) -> float:
        """Factor to the reference speed for the measurement that just ended:
        the reference time over the mean kernel time before and after it."""
        before, self.last = self.last, self._sample()
        return CALIBRATION_REF_S / ((before + self.last) / 2)


# ---------------------------------------------------------------------------
# Checks of the records
# ---------------------------------------------------------------------------


class Group:
    """One sweep of a run: its seed, and the digests its passes must repeat."""

    def __init__(self, index: int, seed: int, reference: dict | None):
        self.index = index
        self.seed = seed
        self.reference = reference
        self.first_cells: dict[str, str] | None = None  # cell digests of the first CLI pass
        self.digests: dict | None = None


class Run:
    """One benchmark run: its workload, groups, and the cells that failed."""

    def __init__(self, workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.n_runs = workload.n_runs
        self.dir = run_dir
        self.config = write_config(workload, run_dir / "workload.cfg")
        self.n_ue = int(config_value(self.config, "n_ue"))
        self.n_bs_chains = int(config_value(self.config, "n_bs")) * int(
            config_value(self.config, "n_bs_rf")
        )
        self.cells = [
            f"{run_id},{float(r)!r}" for run_id in range(self.n_runs) for r in workload.r_max_sweep
        ]
        reference = load_reference(workload, seed)
        self.groups = [
            Group(g, s, reference.get(str(s))) for g, s in enumerate(workload.group_seeds(seed))
        ]
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    @property
    def n_cells(self) -> int:
        return len(self.cells) * len(self.groups)

    def count_pass(self, group: Group, bad: dict[str, str], label: str) -> None:
        """Count one pass over a group's cells, bad mapping failed cells to a reason."""
        self.attempted += len(self.cells)
        self.failed += len(bad)
        for cell, why in sorted(bad.items())[:20]:
            self.reasons.append(f"{label} seed {group.seed} cell {cell}: {why}")

    def check_cells(self, rows: list[list[str]]) -> dict[str, str]:
        """Failed cells of one records table: missing, inconsistent or unexpected."""
        bad: dict[str, str] = {}
        by_cell = cell_rows(rows)
        for extra in sorted(set(by_cell) - set(self.cells)):
            bad.update({cell: f"unexpected cell {extra}" for cell in self.cells})
        for cell in self.cells:
            recs = by_cell.get(cell, [])
            if sorted(r[2] for r in recs) != sorted(self.workload.schemes):
                bad[cell] = f"schemes {[r[2] for r in recs]}"
                continue
            rates = {r[2]: float(r[5]) for r in recs}
            for r in recs:
                n_assoc, n_sat, chains = int(r[3]), int(r[4]), int(r[6])
                if not 0 <= n_sat <= n_assoc <= self.n_ue:
                    bad[cell] = f"{r[2]}: satisfied {n_sat}, associated {n_assoc}"
                elif not 0 <= chains <= self.n_bs_chains or (r[2] in BASELINES and chains):
                    bad[cell] = f"{r[2]}: step-1 chains {chains}"
            top = rates.get("max-sum-rate")
            if top is not None and max(rates.values()) > top * (1 + SUM_RATE_RTOL):
                bad[cell] = f"a sum rate exceeds max-sum-rate's {top!r}"
        return bad

    def check_cli(self, group: Group, out_dir: Path) -> None:
        """Checks of one CLI pass: consistency, repeatability, reference digests."""
        header, rows, _ = read_csv(out_dir / "records.csv", "wall_time_ms")
        agg_header, agg_rows, _ = read_csv(out_dir / "aggregates.csv", "mean_wall_time_ms")
        bad = self.check_cells(rows)
        cells = {k: cell_digest(v) for k, v in cell_rows(rows).items()}
        if group.first_cells is None:
            group.first_cells = cells
            group.digests = {
                "records_sha256": sha256(header, rows),
                "aggregates_sha256": sha256(agg_header, agg_rows),
                "cells": cells,
            }
        for cell in self.cells:
            if cells.get(cell) != group.first_cells.get(cell):
                bad.setdefault(cell, "records differ from the first pass")
        ref = group.reference
        if ref is not None:
            mismatched = [c for c in self.cells if cells.get(c) != ref["cells"].get(c)]
            for cell in mismatched:
                bad.setdefault(cell, "records differ from reference.json")
            # Equal cells in other bytes (order, header) or changed aggregates fail every cell.
            whole = (sha256(header, rows), sha256(agg_header, agg_rows))
            if not mismatched and whole != (ref["records_sha256"], ref["aggregates_sha256"]):
                for cell in self.cells:
                    bad.setdefault(cell, "records.csv or aggregates.csv differ from reference.json")
        self.count_pass(group, bad, "cli")

    def check_traced(self, group: Group, out_dir: Path, failures: dict[str, list[str]]) -> None:
        """Checks of one traced group: exceptions, audit, records equal to the CLI's."""
        bad = {cell: "; ".join(why) for cell, why in failures.items()}
        cells = {}
        if (out_dir / "records.csv").is_file():
            _, rows, _ = read_csv(out_dir / "records.csv", "wall_time_ms")
            cells = {k: cell_digest(v) for k, v in cell_rows(rows).items()}
        for cell in self.cells:
            if group.first_cells is not None and cells.get(cell) != group.first_cells.get(cell):
                bad.setdefault(cell, "traced records differ from the CLI's")
        self.count_pass(group, bad, "traced")


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def setup_pass(run: Run, k: int, deadline: float) -> float:
    wall, code, _ = spawn(
        [sys.executable, "-c", SETUP_CODE, str(run.config)], run.dir / f"setup{k}.log", deadline
    )
    if code != 0:
        raise ChildFailed(f"setup probe exited with {code}; see {run.dir}/setup{k}.log")
    return wall


def cli_pass(run: Run, group: Group, k: int, clock: Clock, deadline: float) -> dict:
    """One `simulate --measure-time` pass of a group; its times at reference speed."""
    out = run.dir / f"cli-g{group.index}-{k}"
    w = run.workload
    cmd = [
        sys.executable, "-m", "mmwassoc", "simulate",
        "--config", str(run.config),
        "--schemes", ",".join(w.schemes),
        "--runs", str(run.n_runs),
        "--rmax-sweep", ",".join(w.r_max_sweep),
        "--seed", str(group.seed),
        "--exact-budget", str(EXACT_NODE_BUDGET),
        "--out", str(out),
        "--measure-time",
    ]  # fmt: skip
    out.mkdir()
    wall, code, usage = spawn(cmd, out / "stdout.log", deadline)
    if code != 0 or not (out / "records.csv").is_file():
        run.count_pass(group, {c: f"simulate exited with {code}" for c in run.cells}, "cli")
        raise ChildFailed(f"simulate exited with {code}; see {out}/stdout.log")
    scale = clock.scale()
    run.check_cli(group, out)
    _, rows, wall_ms = read_csv(out / "records.csv", "wall_time_ms")
    ms = {(f"{r[0]},{r[1]}", r[2]): float(v) * scale for r, v in zip(rows, wall_ms)}
    return {
        "scale": scale,
        "raw_wall_s": wall,
        "wall_s": wall * scale,
        "cpu_s": (usage.ru_utime + usage.ru_stime) * scale,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "schemes_s": sum(ms.values()) / 1e3,
        "ms": ms,
    }


def traced_pass(run: Run, k: int, clock: Clock, deadline: float) -> dict:
    """One traced sweep of every group in a fresh interpreter; its per-layer
    values, with times at reference speed."""
    out = run.dir / f"traced-{k}"
    out.mkdir()
    cmd = [
        sys.executable, str(Path(__file__).with_name("trace_sweep.py")),
        "--workload", run.workload.name,
        "--seeds", ",".join(str(g.seed) for g in run.groups),
        "--config", str(run.config),
        "--runs", str(run.n_runs),
        "--out", str(out),
    ]  # fmt: skip
    wall, code, _ = spawn(cmd, out / "stdout.log", deadline)
    scale = clock.scale()
    if code != 0 or not (out / "trace.json").is_file():
        for group in run.groups:
            run.count_pass(group, {c: f"traced sweep exited with {code}" for c in run.cells}, "traced")
        raise ChildFailed(f"traced sweep exited with {code}; see {out}/stdout.log")
    result = json.loads((out / "trace.json").read_text())
    for group in run.groups:
        run.check_traced(group, out / f"g{group.index}", result["failures"].get(str(group.index), {}))
    layers = {
        name: value * scale if name.endswith(("_s", "_ms")) else value
        for name, value in result["layers"].items()
    }
    layers.update(scale=scale, raw_wall_s=wall, wall_s=wall * scale)
    return layers


# ---------------------------------------------------------------------------
# Facts, summary, output
# ---------------------------------------------------------------------------


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts(run: Run, trace: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": BLAS_THREADS,
        "seed": run.seed,
        "git_commit": _git_commit(),
        "workload": run.workload.name,
        "trace": trace,
        "group_seeds": [g.seed for g in run.groups],
        "groups": len(run.groups),
        "n_runs": run.n_runs,
        "cells": run.n_cells,
        "schemes": list(run.workload.schemes),
        "r_max_sweep": list(run.workload.r_max_sweep),
    }


def summarize(samples: list[dict], names) -> dict:
    """Median over traced passes of each named value, with its sample count.

    Counts repeat exactly from pass to pass, so they keep the first
    pass's value and type.
    """
    out = {}
    for name, unit in names:
        values = [s[name] for s in samples if name in s]
        if values:
            value = values[0] if name in COUNTS else median(values)
            out[name] = {"value": value, "unit": unit, "samples": len(values)}
    return out


def end_to_end(run: Run, rounds: list[dict], setup_s: float) -> tuple[dict, float]:
    """End-to-end metrics of the CLI passes; returns (metrics, tail percentile).

    Every round repeats identical work, and the host's slowdowns only
    ever add time, so each timing takes its fastest repeat: per group for
    the process-level values, per cell and scheme for the records'
    wall_time_ms.  Distributions over cells then take medians and tails.
    """
    passes = [[rd["cli"][g] for rd in rounds] for g in range(len(run.groups))]
    fastest = [min(ps, key=lambda p: p["wall_s"]) for ps in passes]
    cell_ms: list[float] = []
    scheme_ms: dict[str, list[float]] = {}
    for ps in passes:
        for cell in run.cells:
            cell_ms.append(min(sum(p["ms"][cell, s] for s in run.workload.schemes) for p in ps))
            for s in run.workload.schemes:
                scheme_ms.setdefault(s, []).append(min(p["ms"][cell, s] for p in ps))
    pct, tail_ms = tail(cell_ms)
    sweep_s = sum(p["wall_s"] for p in fastest)
    values = {
        "setup_s": (setup_s, SETUP_SAMPLES),
        "sweep_s": (sweep_s, len(rounds)),
        "cells_per_s": (len(cell_ms) / sweep_s, len(rounds)),
        "cell_ms_p50": (median(cell_ms), len(cell_ms)),
        "cell_ms_tail": (tail_ms, len(cell_ms)),
        "cpu_s": (sum(min(p["cpu_s"] for p in ps) for ps in passes), len(rounds)),
        "peak_rss_mb": (max(p["rss_mb"] for ps in passes for p in ps), len(rounds)),
        "cli.overhead_s": (
            sum(p["wall_s"] - setup_s - p["schemes_s"] for p in fastest),
            len(rounds),
        ),
    }
    units = dict(END_TO_END + EXACT_END_TO_END + PER_LAYER)
    for s, ms in scheme_ms.items():
        if f"scheme_ms_p50.{s}" in units:  # max-snr is too fast to time within a tenth
            values[f"scheme_ms_p50.{s}"] = (median(ms), len(ms))
    metrics = {
        name: {"value": v, "unit": units[name], "samples": n} for name, (v, n) in values.items()
    }
    return metrics, pct


def measure(run: Run, trace: int, seconds: float, started: float) -> dict:
    """All passes of one run; returns the summarized metrics and per-pass values.

    A round runs every group once through the CLI (and, with trace, once
    traced).  Rounds repeat until the next one would end after seconds.
    """
    deadline = started + HARD_LIMIT_S
    setup_pass(run, -1, deadline)  # untimed: fills the bytecode cache once per checkout
    clock = Clock(run.dir, deadline)
    setups = []
    for k in range(SETUP_SAMPLES):
        wall = setup_pass(run, k, deadline)
        setups.append(wall * clock.scale())
    setup_s = median(setups)
    rounds: list[dict] = []
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        k = len(rounds)
        rounds.append({"cli": [cli_pass(run, g, k, clock, deadline) for g in run.groups]})
        if trace:
            rounds[-1]["traced"] = traced_pass(run, k, clock, deadline)
        durations.append(time.perf_counter() - t0)
        expected_end = time.perf_counter() + median(durations)
        if expected_end > started + seconds or expected_end > deadline:
            break

    metrics, pct = end_to_end(run, rounds, setup_s)
    traced = []
    for rd in rounds:
        if "traced" in rd:
            # Without process start-up on both sides, and without the audit,
            # which is the benchmark's own work.
            t = rd["traced"]
            untraced = sum(p["wall_s"] - setup_s for p in rd["cli"])
            traced_s = t["wall_s"] - setup_s - t["instance.check_feasibility.busy_s"]
            t["trace.overhead_frac"] = traced_s / untraced - 1.0
            traced.append(t)
    if trace:
        metrics.update(summarize(traced, [m for m in PER_LAYER if m[0] != "cli.overhead_s"]))
        if "two-step-exact" in run.workload.schemes:
            metrics.update(summarize(traced, EXACT_LAYER))
    for rd in rounds:
        for p in rd["cli"]:
            del p["ms"]  # per-record times stay in each pass's records.csv
    return {
        "metrics": metrics,
        "tail_percentile": pct,
        "repeats": len(rounds),
        "setup_samples_s": setups,
        "calibration_s": clock.samples,
        "rounds": rounds,
        "counts_repeat": all(all(t.get(n) == traced[0].get(n) for n in COUNTS) for t in traced),
    }


def print_table(result: dict) -> None:
    facts = result["facts"]
    print(
        f"# {facts['workload']} seed {facts['seed']} trace {facts['trace']}: "
        f"{facts['cells']} cells in {facts['groups']} sweeps, {result.get('repeats', 0)} "
        f"repeats; {facts['nproc']} CPUs ({facts['cpu_model']}), python {facts['python']}, "
        f"numpy {facts['numpy']}, BLAS threads {facts['blas_threads']}"
    )
    for name, m in result["metrics"].items():
        note = f"  (p{result['tail_percentile']:.1f})" if name == "cell_ms_tail" else ""
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}{note}")
    print(
        f"fail_frac {result['fail_frac']:.6g} ({result['failed']} of {result['attempted']} "
        f"cells); reference: {result['reference']}"
    )
    if result.get("rounds") and "traced" in result["rounds"][0]:
        print(f"traced counts repeat exactly: {result['counts_repeat']}")
    for reason in result["failures"][:10]:
        print(f"failed: {reason}")


def main(argv=None, out_base: Path | None = None, workloads=WORKLOADS) -> int:
    """Run one workload; out_base and workloads let tests run tiny variants."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not package_present():
        print(f"error: {ROOT} holds no mmwassoc source tree and configs", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    started = time.perf_counter()
    workload = workloads[args.workload]
    base = out_base if out_base is not None else ROOT / ".bench_out"
    run_dir = base / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    run = Run(workload, args.seed, run_dir)

    try:
        measured = measure(run, args.trace, args.seconds, started)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        measured = None
    reference = "not applicable (seed or size differs from reference.json)"
    if any(g.reference is not None for g in run.groups):
        reference = "mismatch" if any("reference" in r for r in run.reasons) else "match"
    result = {
        "facts": machine_facts(run, args.trace),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "failures": run.reasons,
        "digests": {str(g.seed): g.digests for g in run.groups},
        "reference": reference,
        **(measured or {"metrics": {}, "tail_percentile": 100.0}),
    }
    result["fail_frac"] = result["failed"] / result["attempted"]
    result["correct"] = measured is not None and run.failed == 0
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print_table(result)
    names = PER_LAYER if args.trace else END_TO_END
    metrics = result["metrics"]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in names
            if name in metrics
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
