"""Traced sweep: the CLI's sweep rebuilt from the package's public functions.

The loop below mirrors `harness.run_experiment` but calls every stage
through its module attribute, with a span recorder wrapped around each
of the attributes in TARGETS.  Because the package itself calls through
the same attributes (`lp.solve_lp_max` from step 1, `solve_step1_lp`
and `round_solution` from the exact search, the flow builders from
`solve_step2`, and the `from ... import` bindings in `baselines`), the
spans nest exactly as the calls do.  Wrappers only time the call and
read its arguments and return value; they are removed when the sweep
ends.

Every output is audited with `instance.check_feasibility`: the combined
two-step and baseline outputs against the structural constraints, each
step-1 solution against all of 5b-5f.  An exception or a violation fails
its cell, and the sweep goes on.

Run as a child of run.py:

    python3 bench/trace_sweep.py --workload full-poly --seeds 0,1 \\
        --config CFG --runs 2 --out DIR

For the k-th seed it writes DIR/g<k>/records.csv and aggregates.csv
through `harness.emit_results`.  DIR/trace.json holds the spans, the
per-layer metrics of all seeds together and the failed cells per seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from mmwassoc import baselines, harness, instance, lp, model, step1, step2flow
from workloads import EXACT_NODE_BUDGET, WORKLOADS, median, tail

# Module attributes wrapped during the traced sweep.  A span is named
# after the function's home module, so `baselines.solve_step2` and
# `step2flow.solve_step2` both record as step2flow.solve_step2.
TARGETS = (
    (model, "sample_scenario"),
    (model, "build_capacity_matrix"),
    (instance, "instance_from_capacity"),
    (instance, "metrics"),
    (instance, "check_feasibility"),
    (lp, "solve_lp_max"),
    (step1, "solve_step1_lp"),
    (step1, "round_solution"),
    (step1, "solve_step1_exact"),
    (step2flow, "make_residual"),
    (step2flow, "build_flow_network"),
    (step2flow, "solve_min_cost_flow"),
    (step2flow, "solve_step2"),
    (baselines, "max_sum_rate"),
    (baselines, "max_snr"),
    (baselines, "solve_step2"),
    (baselines, "full_residual"),
    (harness, "run_two_step"),
    (harness, "merge_solutions"),
    (harness, "emit_results"),
)

# Span fields: [id, name, start, end, parent id (-1 at the top), cell, error]
ID, NAME, START, END, PARENT, CELL, ERROR = range(7)

_OBJ_EPS = 1e-12


class Tracer:
    """Spans and counts of one traced sweep, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cell = ""
        self.counts = {
            "lp.pivots": 0,
            "lp.rows_max": 0,
            "lp.cols_max": 0,
            "lp.nnz_max": 0,
            "lp.tableau_bytes_max": 0,
            "step1.round.satisfied": 0,
            "step1.round.lp_bound": 0.0,
            "step1.exact.improved": 0,
            "step2flow.flow_edges": 0,
            "step2flow.assigned_links": 0,
            "harness.chains_step1": 0,
        }
        self.last_round = None  # latest rounded solution: the exact search's seed

    def call(self, name: str, fn, args, kwargs):
        span = [len(self.spans), name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.cell, None]
        self.spans.append(span)
        self.stack.append(span[ID])
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            self.stack.pop()

    # Hooks read the arguments and return value of a finished call.

    def _lp(self, args, res) -> None:
        a = np.atleast_2d(np.asarray(args[1]))
        m, n = a.shape
        c = self.counts
        c["lp.pivots"] += int(res.iterations)
        c["lp.rows_max"] = max(c["lp.rows_max"], m)
        c["lp.cols_max"] = max(c["lp.cols_max"], n)
        c["lp.nnz_max"] = max(c["lp.nnz_max"], int(np.count_nonzero(a)))
        c["lp.tableau_bytes_max"] = max(c["lp.tableau_bytes_max"], m * (n + m) * 8)

    def _round(self, args, sol) -> None:
        self.counts["step1.round.satisfied"] += int(sol.z.sum())
        self.counts["step1.round.lp_bound"] += float(args[0].z_frac.sum())
        self.last_round = sol

    def _exact(self, args, sol) -> None:
        inst = args[0]
        seed_score = instance.objective_step1(inst, self.last_round)
        if instance.objective_step1(inst, sol) > seed_score + _OBJ_EPS:
            self.counts["step1.exact.improved"] += 1

    def _flow_net(self, args, net) -> None:
        self.counts["step2flow.flow_edges"] += len(net.edges)

    def _step2(self, args, sol) -> None:
        self.counts["step2flow.assigned_links"] += int(sol.x.sum())

    def hook(self, name: str):
        return {
            "lp.solve_lp_max": self._lp,
            "step1.round_solution": self._round,
            "step1.solve_step1_exact": self._exact,
            "step2flow.build_flow_network": self._flow_net,
            "step2flow.solve_step2": self._step2,
        }.get(name)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _wrap(tracer: Tracer, fn):
    name = span_name(fn)
    hook = tracer.hook(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(args, result)
        return result

    traced.__bench_traced__ = True
    return traced


@contextmanager
def traced_modules(tracer: Tracer, targets=TARGETS):
    """Wrap each (module, attribute) in targets; restore the originals on exit."""
    saved = []
    try:
        for module, attr in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def audit(inst, sol, constraints) -> tuple:
    """Violations of one scheme output; the single audit path of the sweep."""
    return instance.check_feasibility(inst, sol, constraints).violations


def _run_scheme(inst, scheme: str):
    """(output, step-1 solution or None) of one scheme, as harness.run_experiment composes it."""
    if scheme in ("two-step-exact", "two-step-proposed"):
        choice = "exact" if scheme == "two-step-exact" else "lp-round"
        try:
            result = harness.run_two_step(inst, choice, EXACT_NODE_BUDGET)
            return result.combined, result.step1_solution
        except step1.NodeBudgetExceeded as exc:
            first = exc.incumbent
            res = step2flow.make_residual(inst, first)
            return harness.merge_solutions(inst, first, res, step2flow.solve_step2(res)), first
    if scheme == "max-sum-rate":
        return baselines.max_sum_rate(inst), None
    if scheme == "max-snr":
        return baselines.max_snr(inst), None
    raise ValueError(f"unknown scheme {scheme!r}")


def traced_sweep(workload, config: Path, seed: int, n_runs: int, out_dir: Path, tracer: Tracer) -> dict:
    """Run the sweep under tracer's wrappers; returns failures per cell key."""
    base = replace(model.ScenarioConfig.from_config_file(config), seed=seed)
    records: list = []
    failures: dict[str, list[str]] = {}
    with traced_modules(tracer):
        for run_id in range(n_runs):
            for r_text in workload.r_max_sweep:
                r_max = float(r_text)
                cell = f"{run_id},{r_max!r}"
                tracer.cell = f"{seed}:{cell}"
                try:
                    cfg = replace(
                        base, r_max_bps=r_max, seed=harness.derive_seed(base.seed, run_id, r_max)
                    )
                    real = model.sample_scenario(cfg)
                    cm = model.build_capacity_matrix(real, cfg)
                    inst = instance.instance_from_capacity(cm, real.rate_req, cfg)
                except Exception as exc:  # a failed cell is recorded; the sweep goes on
                    failures.setdefault(cell, []).append(f"instance: {exc!r}")
                    continue
                for scheme in workload.schemes:
                    try:
                        sol, first = _run_scheme(inst, scheme)
                        bad = list(audit(inst, sol, instance.STRUCTURAL_CONSTRAINTS))
                        if first is not None:
                            bad += audit(inst, first, instance.ALL_CONSTRAINTS)
                        if bad:
                            failures.setdefault(cell, []).append(f"{scheme}: audit {bad}")
                        m = instance.metrics(inst, sol)
                        chains = 0 if first is None else int(first.x.sum())
                    except Exception as exc:  # a failed cell is recorded; the sweep goes on
                        failures.setdefault(cell, []).append(f"{scheme}: {exc!r}")
                        continue
                    records.append(
                        harness.RunRecord(
                            run_id=run_id,
                            r_max=r_max,
                            scheme=scheme,
                            n_associated=m.n_associated,
                            n_satisfied=m.n_satisfied,
                            sum_rate_bps=m.sum_rate_bps,
                            rf_chains_used_step1=chains,
                            wall_time_ms=0.0,
                        )
                    )
                    tracer.counts["harness.chains_step1"] += chains
        records.sort(key=lambda r: (r.run_id, r.r_max, r.scheme))
        tracer.cell = ""
        if records:
            harness.emit_results(records, out_dir)
    return failures


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """Busy and self times per span name, plus the hooks' counts and ratios."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(tracer.spans)
    errors: dict[str, int] = {}
    for s in tracer.spans:
        d = s[END] - s[START]
        busy[s[NAME]] = busy.get(s[NAME], 0.0) + d
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += d
        if s[ERROR]:
            key = f"{s[NAME]}:{s[ERROR]}"
            errors[key] = errors.get(key, 0) + 1
    self_time: dict[str, float] = {}
    for s in tracer.spans:
        self_time[s[NAME]] = self_time.get(s[NAME], 0.0) + (s[END] - s[START]) - child_time[s[ID]]

    exact_ms = [(s[END] - s[START]) * 1e3 for s in tracer.spans if s[NAME] == "step1.solve_step1_exact"]
    c = tracer.counts
    names = {span_name(getattr(module, attr)) for module, attr in TARGETS}
    out = {f"{name}.busy_s": busy.get(name, 0.0) for name in sorted(names)}
    out.update(
        {
            "lp.solve_lp_max.calls": calls.get("lp.solve_lp_max", 0),
            "lp.pivots": c["lp.pivots"],
            "lp.rows_max": c["lp.rows_max"],
            "lp.cols_max": c["lp.cols_max"],
            "lp.nnz_max": c["lp.nnz_max"],
            "lp.tableau_bytes_max": c["lp.tableau_bytes_max"],
            "step1.solve_step1_lp.self_s": self_time.get("step1.solve_step1_lp", 0.0),
            "step1.round_solution.satisfied_ratio": (
                c["step1.round.satisfied"] / c["step1.round.lp_bound"]
                if c["step1.round.lp_bound"] > 0
                else 0.0
            ),
            "step1.solve_step1_exact.self_s": self_time.get("step1.solve_step1_exact", 0.0),
            "step1.solve_step1_exact.p50_ms": median(exact_ms) if exact_ms else 0.0,
            "step1.solve_step1_exact.tail_ms": tail(exact_ms)[1] if exact_ms else 0.0,
            "step1.solve_step1_exact.tail_pct": tail(exact_ms)[0] if exact_ms else 0.0,
            "step1.exact.overruns": errors.get("step1.solve_step1_exact:NodeBudgetExceeded", 0),
            "step1.exact.improved_ratio": (
                c["step1.exact.improved"] / len(exact_ms) if exact_ms else 0.0
            ),
            "step2flow.flow_edges": c["step2flow.flow_edges"],
            "step2flow.assigned_links": c["step2flow.assigned_links"],
            "baselines.max_sum_rate.self_s": self_time.get("baselines.max_sum_rate", 0.0),
            "harness.chains_step1": c["harness.chains_step1"],
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="comma-separated group seeds")
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    tracer = Tracer()
    failures = {}
    for g, seed in enumerate(int(s) for s in args.seeds.split(",")):
        out = args.out / f"g{g}"
        out.mkdir()
        failures[str(g)] = traced_sweep(
            WORKLOADS[args.workload], args.config, seed, args.runs, out, tracer
        )
    payload = {
        "layers": layer_metrics(tracer),
        "failures": failures,
        "spans": tracer.spans,
    }
    (args.out / "trace.json").write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
