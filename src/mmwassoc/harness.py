"""Experiment harness: two-step composition, Monte Carlo sweeps, output.

Every (run, r_max) cell samples one scenario realization from a seed
derived deterministically from (base seed, run id, r_max) and evaluates
all requested schemes on that same instance, so scheme comparisons are
paired.  Records are emitted in (run_id, r_max, scheme) order; with
timing disabled (the default) the whole output is a pure function of
the experiment spec, byte for byte.

`RunRecord` is the one home of the record schema: the record columns
and the averaged aggregate columns both follow its fields.  Records and
aggregates go through the same writer, one per output format.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import baselines, step1, step2flow
from .instance import (
    AssociationInstance,
    AssociationSolution,
    count,
    instance_from_capacity,
    metrics,
    real,
    solution_from_x,
)
from .model import ScenarioConfig, build_capacity_matrix, sample_scenario

# The step-1 solver of each two-step scheme.
TWO_STEP_SOLVERS = {"two-step-exact": "exact", "two-step-proposed": "lp-round"}
SCHEMES = (*TWO_STEP_SOLVERS, "max-sum-rate", "max-snr")


@dataclass(frozen=True)
class ExperimentSpec:
    """A full Monte Carlo comparison: sweep r_max, repeat, average.

    With measure_time=False (default) wall_time_ms is recorded as 0.0
    so repeated executions produce identical bytes.  schemes and
    r_max_sweep are stored as tuples of plain str and plain float.
    """

    base: ScenarioConfig
    schemes: tuple = SCHEMES[1:]  # the polynomial ones; the exact search is opt-in
    n_runs: int = 30
    r_max_sweep: tuple = (0.5e9, 1e9, 2e9, 4e9, 8e9)
    exact_node_budget: int = step1.DEFAULT_NODE_BUDGET
    measure_time: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.base, ScenarioConfig):
            raise TypeError(f"base must be a ScenarioConfig, got {self.base!r}")
        for name in ("n_runs", "exact_node_budget"):
            object.__setattr__(self, name, count(getattr(self, name), name))
        for name in ("schemes", "r_max_sweep"):
            v = getattr(self, name)
            # A 0-d numpy array has __iter__, but iterating it raises.
            single = not hasattr(v, "__iter__") or getattr(v, "ndim", 1) == 0
            if isinstance(v, (str, bytes)) or single:
                raise TypeError(f"{name} must be an iterable of values, not the single value {v!r}")
        object.__setattr__(self, "schemes", tuple(map(str, self.schemes)))
        if unknown := set(self.schemes) - set(SCHEMES):
            raise ValueError(f"unknown schemes {sorted(unknown)}; choose from {SCHEMES}")
        low = self.base.r_min_bps
        sweep = tuple(real(r, "r_max_sweep value", low, strict=False) for r in self.r_max_sweep)
        object.__setattr__(self, "r_max_sweep", sweep)
        # A cell's seed takes r_max to the bit/s, so sweep values that round
        # alike repeat: their cells would draw the same scenarios.
        for name, values in (
            ("schemes", self.schemes),
            ("r_max_sweep", [_seed_rate(r) for r in self.r_max_sweep]),
        ):
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value")


@dataclass(frozen=True)
class RunRecord:
    run_id: int
    r_max: float
    scheme: str
    n_associated: int
    n_satisfied: int
    sum_rate_bps: float
    rf_chains_used_step1: int
    wall_time_ms: float


RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
# Averaged per (r_max, scheme) in the aggregates: every field after the key.
_MEAN_FIELDS = RECORD_FIELDS[RECORD_FIELDS.index("scheme") + 1 :]


@dataclass(frozen=True, eq=False)
class TwoStepResult:
    combined: AssociationSolution
    step1_solution: AssociationSolution


def merge_solutions(
    inst: AssociationInstance,
    first: AssociationSolution,
    res: step2flow.ResidualInstance,
    second_local: AssociationSolution,
) -> AssociationSolution:
    """Overlay the residual-space assignment onto the step-1 one.

    The merged z flags every UE with a link from either step; UEs served
    only in step 2 are associated without a rate promise.  A step-2 x
    that does not have the shape of res.c raises ValueError, where numpy
    would broadcast it over the block.
    """
    if second_local.x.shape != res.c.shape:
        raise ValueError(f"step-2 x shape {second_local.x.shape} != residual {res.c.shape}")
    x = first.x.copy()
    block = res.ue_chain_ids[:, None], res.bs_chain_ids
    x[block] = x[block] | second_local.x
    return solution_from_x(inst, x)


def run_two_step(
    inst: AssociationInstance,
    solver_choice: str,
    node_budget: int = step1.DEFAULT_NODE_BUDGET,
) -> TwoStepResult:
    """Requirement step then leftover max-sum-rate step, merged.

    solver_choice is "exact" or "lp-round".  When step 1 associates
    nobody the residual is the whole instance and the output coincides
    with the plain max-sum-rate scheme.
    """
    if solver_choice == "exact":
        first = step1.solve_step1_exact(inst, node_budget=node_budget)
    elif solver_choice == "lp-round":
        first = step1.round_solution(step1.solve_step1_lp(inst), inst)
    else:
        raise ValueError(f"solver_choice must be one of {tuple(TWO_STEP_SOLVERS.values())}")
    return complete_two_step(inst, first)


def complete_two_step(inst: AssociationInstance, first: AssociationSolution) -> TwoStepResult:
    """Step 2 on what a step-1 solution leaves free, merged with it."""
    res = step2flow.make_residual(inst, first)
    return TwoStepResult(
        combined=merge_solutions(inst, first, res, step2flow.solve_step2(res)),
        step1_solution=first,
    )


def run_scheme(
    inst: AssociationInstance, scheme: str, node_budget: int = step1.DEFAULT_NODE_BUDGET
) -> tuple[AssociationSolution, int]:
    """Run one scheme; returns (solution, step-1 chains used)."""
    if scheme in TWO_STEP_SOLVERS:
        result = run_two_step(inst, TWO_STEP_SOLVERS[scheme], node_budget)
        return result.combined, int(result.step1_solution.x.sum())
    if scheme == "max-sum-rate":
        return baselines.max_sum_rate(inst), 0
    if scheme == "max-snr":
        return baselines.max_snr(inst), 0
    raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")


def _seed_rate(r_max_bps: float) -> int:
    """r_max as it enters a cell's seed: rounded to the bit/s."""
    return int(round(r_max_bps))


def derive_seed(base_seed: int, run_id: int, r_max_bps: float) -> int:
    """Deterministic per-cell seed; r_max enters as its rounded bit/s value."""
    ss = np.random.SeedSequence([int(base_seed), int(run_id), _seed_rate(r_max_bps)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def build_cell_instance(base: ScenarioConfig, run_id: int, r_max_bps: float):
    """The cell's instance; its config is base through replace, so __post_init__ checks it."""
    cfg = replace(base, r_max_bps=r_max_bps, seed=derive_seed(base.seed, run_id, r_max_bps))
    real = sample_scenario(cfg)
    return instance_from_capacity(build_capacity_matrix(real, cfg), real.rate_req, cfg)


def run_experiment(spec: ExperimentSpec) -> list[RunRecord]:
    """All (run, r_max, scheme) records, sorted by (run_id, r_max, scheme).

    An exhausted exact-search budget is logged and the record is filled
    from the best incumbent; the sweep continues.
    """
    records: list[RunRecord] = []
    for run_id in range(spec.n_runs):
        for r_max in spec.r_max_sweep:
            inst = build_cell_instance(spec.base, run_id, r_max)
            for scheme in spec.schemes:
                start = time.perf_counter()
                try:
                    sol, chains = run_scheme(inst, scheme, spec.exact_node_budget)
                except step1.NodeBudgetExceeded as exc:
                    warnings.warn(
                        f"run {run_id}, r_max {r_max:g}: {exc}; recording the incumbent"
                    )
                    sol = complete_two_step(inst, exc.incumbent).combined
                    chains = int(exc.incumbent.x.sum())
                elapsed_ms = (time.perf_counter() - start) * 1e3
                m = metrics(inst, sol)
                records.append(
                    RunRecord(
                        run_id=run_id,
                        r_max=float(r_max),
                        scheme=scheme,
                        n_associated=m.n_associated,
                        n_satisfied=m.n_satisfied,
                        sum_rate_bps=m.sum_rate_bps,
                        rf_chains_used_step1=chains,
                        wall_time_ms=elapsed_ms if spec.measure_time else 0.0,
                    )
                )
    records.sort(key=lambda r: (r.run_id, r.r_max, r.scheme))
    return records


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Per-(r_max, scheme) means of every numeric record field."""
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.r_max, rec.scheme), []).append(rec)
    out = []
    for (r_max, scheme), recs in sorted(groups.items()):
        row = {"r_max": r_max, "scheme": scheme}
        for name in _MEAN_FIELDS:
            row[f"mean_{name}"] = float(np.mean([getattr(r, name) for r in recs]))
        row["n_runs"] = len(recs)
        out.append(row)
    return out


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def emit_results(records: list[RunRecord], out_dir: str | Path, fmt: str = "csv"):
    """Write records plus the per-(r_max, scheme) aggregate companion file.

    Returns (records_path, aggregates_path).  Empty record lists are an
    error; unknown formats too.
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Rows read straight from the fields: asdict would deep-copy each value.
    record_rows = [{name: getattr(r, name) for name in RECORD_FIELDS} for r in records]
    tables = {"records": record_rows, "aggregates": aggregate(records)}
    paths = []
    for name, rows in tables.items():
        if fmt == "csv":
            cols = list(rows[0])
            lines = [",".join(cols)] + [",".join(_format(row[c]) for c in cols) for row in rows]
            text = "\n".join(lines)
        else:
            import json  # here only, so a CSV sweep never loads the codec

            text = json.dumps(rows, indent=1)
        path = out / f"{name}.{fmt}"
        path.write_text(text + "\n")
        paths.append(path)
    return tuple(paths)
