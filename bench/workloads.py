"""Benchmark workloads and the helpers that every benchmark process shares.

A workload is a set of `mmwassoc simulate` sweeps ("groups") over one
scenario config, with the schemes run on every cell, the r_max sweep and
the number of Monte Carlo runs per group.  A cell is one (run, r_max)
pair; every listed scheme runs on the same instance of that cell.  The
workload seed reaches the program only as `simulate --seed`: group g of
seed s runs `--seed s * groups + g`, so seeds never share a group.

This module imports nothing from `mmwassoc`, so the parent process of a
benchmark run never loads the package it measures.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
EXACT_NODE_BUDGET = 2_000_000  # the CLI default, passed explicitly so the records pin it
# BLAS/OpenMP threads of every child process; the sweep is single-threaded Python.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# cell_ms_tail is the highest percentile with this many cells beyond it.
TAIL_BEYOND = 10

ALL_SCHEMES = ("two-step-exact", "two-step-proposed", "max-sum-rate", "max-snr")
POLY_SCHEMES = ("two-step-proposed", "max-sum-rate", "max-snr")
SWEEP_POLY = ("0.5e9", "1e9", "2e9", "4e9", "8e9")


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # scenario config, relative to the repository root
    overrides: tuple  # (key, value) pairs replacing lines of the config
    schemes: tuple
    r_max_sweep: tuple  # bit/s, as passed to --rmax-sweep
    groups: int  # sweeps per round, each its own child process and seed
    n_runs: int  # Monte Carlo runs of one group

    def group_seeds(self, seed: int) -> list[int]:
        return [seed * self.groups + g for g in range(self.groups)]


WORKLOADS = {
    w.name: w
    for w in (
        # Flow about half the time, LP about a third; the flow runs on small
        # residuals and on the whole instance.
        Workload(
            name="full-poly",
            config="configs/full.cfg",
            overrides=(),
            schemes=POLY_SCHEMES,
            r_max_sweep=SWEEP_POLY,
            groups=7,
            n_runs=2,
        ),
        # Small instances: the LP is a tenth of the time, process start-up,
        # instance building and the CLI a third, so fixed costs show here.
        Workload(
            name="desk-poly",
            config="configs/desk.cfg",
            overrides=(),
            schemes=POLY_SCHEMES,
            r_max_sweep=SWEEP_POLY,
            groups=7,
            n_runs=8,
        ),
        # The 454 x 9100 dense simplex dominates time, system time and memory.
        # Not in BENCHMARK.json: on a shared host its memory-bound simplex
        # (35 MB temporaries per pivot) swings 2x from minute to minute, and
        # neither fastest repeats nor calibration bring its spread under 0.25.
        Workload(
            name="stress-9x100",
            config="configs/full.cfg",
            overrides=(("n_bs", "9"), ("n_ue", "100")),
            schemes=POLY_SCHEMES,
            r_max_sweep=SWEEP_POLY,
            groups=1,
            n_runs=1,
        ),
        # The exact branch and bound, heavy-tailed in the 4 Gbit/s cells.
        # Not in BENCHMARK.json: the exact search's heavy tail makes every
        # sum metric vary by 0.2-0.35 (IQR / median) from seed to seed at
        # any size that fits one run.  Compare it on the same seeds only.
        Workload(
            name="desk-exact",
            config="configs/desk.cfg",
            overrides=(),
            schemes=ALL_SCHEMES,
            r_max_sweep=("0.5e9", "1e9", "2e9", "4e9"),
            groups=6,
            n_runs=5,
        ),
    )
}


def package_present(root: Path = ROOT) -> bool:
    """True when root holds the package source and configs the benchmark runs."""
    return (root / "src" / "mmwassoc" / "__init__.py").is_file() and all(
        (root / w.config).is_file() for w in WORKLOADS.values()
    )


def write_config(workload: Workload, path: Path) -> Path:
    """Copy the workload's scenario config to path, applying its overrides."""
    overrides = dict(workload.overrides)
    lines = []
    for raw in (ROOT / workload.config).read_text().splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if "=" in raw.split("#", 1)[0] and key in overrides:
            raw = f"{key} = {overrides.pop(key)}"
        lines.append(raw)
    if overrides:
        raise ValueError(f"{workload.config} has no keys {sorted(overrides)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def config_value(path: Path, key: str) -> str:
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0]
        if "=" in line and line.split("=", 1)[0].strip() == key:
            return line.split("=", 1)[1].strip()
    raise KeyError(key)


def child_env() -> dict:
    """Environment of every child: this checkout's package, pinned BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: str(BLAS_THREADS) for name in _THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# Records: the CLI's CSV output without its timing columns
# ---------------------------------------------------------------------------


def read_csv(path: Path, drop: str) -> tuple[list[str], list[list[str]], list[str]]:
    """Header and rows of a CSV written by harness.emit_results without column
    drop, and that column's values."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    k = header.index(drop)
    rows = [line.split(",") for line in lines[1:]]
    return header[:k] + header[k + 1 :], [r[:k] + r[k + 1 :] for r in rows], [r[k] for r in rows]


def sha256(header: list[str], rows: list[list[str]]) -> str:
    text = "\n".join(",".join(r) for r in [header, *rows]) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def cell_rows(rows: list[list[str]]) -> dict[str, list[list[str]]]:
    """Record rows grouped by cell key 'run_id,r_max'."""
    cells: dict[str, list[list[str]]] = {}
    for row in rows:
        cells.setdefault(f"{row[0]},{row[1]}", []).append(row)
    return cells


def cell_digest(rows: list[list[str]]) -> str:
    return hashlib.sha256("\n".join(",".join(r) for r in rows).encode()).hexdigest()[:16]


def load_reference(workload: Workload, seed: int) -> dict:
    """Stored digests by group seed, if the run has their seed and runs per group."""
    if seed != DEFAULT_SEED or not REFERENCE_FILE.is_file():
        return {}
    ref = json.loads(REFERENCE_FILE.read_text()).get(workload.name)
    return ref["groups"] if ref and ref["n_runs"] == workload.n_runs else {}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    v = sorted(values)
    n = len(v)
    return float(v[n // 2]) if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2.0


def tail(values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND values beyond it.

    With TAIL_BEYOND values or fewer no percentile qualifies, and the
    maximum is returned as p100.
    """
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return 100.0, float(v[-1])
    k = n - TAIL_BEYOND
    return 100.0 * k / n, float(v[k - 1])
