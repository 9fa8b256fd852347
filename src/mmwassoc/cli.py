"""Command-line front end.

    mmwassoc simulate --config desk.cfg --runs 30 --rmax-sweep 0.5e9,1e9,2e9
    mmwassoc solve --instance inst.json --scheme two-step-proposed

`simulate` runs a Monte Carlo sweep from a scenario config file and
writes records plus aggregates; `solve` runs one scheme on a single
instance JSON and prints the solved instance (x, z, metrics).  Exit
codes: 0 on success; 2, with one `error:` line on stderr, when simulate
is given a config file it cannot read, or an invalid config, sweep, run
count or exact budget; when solve is given a node budget below 1, an
instance it cannot read, or the exact search runs out of node budget;
or when either command cannot write to --out (simulate finds out
before it solves any cell, solve checks its budget before it reads).

`run()` is the process entry, for `python -m mmwassoc` and the `mmwassoc`
console script: it calls `main()`, freezes the garbage collector with
`gc.freeze()`, then exits with main's code.  While the interpreter
finalizes it runs full collections that traverse every live object,
about a tenth of a short `simulate` process; freezing moves those objects
into the permanent generation, which the collections skip.  Nothing is
lost: main has closed its output files by then, and atexit handlers,
stream flushing and module teardown still run.  `main(argv)` is the
in-process API for tests and library callers and never touches the
collector.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from . import harness, step1
from .instance import count, instance_from_dict, solution_to_dict
from .model import ScenarioConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmwassoc")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo sweep over r_max")
    sim.add_argument("--config", required=True, help="scenario config file (key = value)")
    sim.add_argument(
        "--schemes",
        default=",".join(harness.ExperimentSpec.schemes),
        help=f"comma-separated subset of {', '.join(harness.SCHEMES)}",
    )
    sim.add_argument("--runs", type=int, default=harness.ExperimentSpec.n_runs)
    sim.add_argument(
        "--rmax-sweep",
        default=",".join(map(str, harness.ExperimentSpec.r_max_sweep)),
        help="comma-separated r_max values in bit/s",
    )
    sim.add_argument("--out", default="results")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--exact-budget", type=int, default=step1.DEFAULT_NODE_BUDGET)
    sim.add_argument("--measure-time", action="store_true")

    solve = sub.add_parser("solve", help="solve one instance JSON")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--scheme", required=True, choices=harness.SCHEMES)
    solve.add_argument("--node-budget", type=int, default=step1.DEFAULT_NODE_BUDGET)
    solve.add_argument("--out", default=None, help="write the solution JSON here")
    return parser


def _error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_simulate(args) -> int:
    try:
        cfg = ScenarioConfig.from_config_file(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        spec = harness.ExperimentSpec(
            base=cfg,
            schemes=tuple(s.strip() for s in args.schemes.split(",") if s.strip()),
            n_runs=args.runs,
            r_max_sweep=tuple(float(v) for v in args.rmax_sweep.split(",")),
            exact_node_budget=args.exact_budget,
            measure_time=args.measure_time,
        )
    except (OSError, ValueError) as exc:
        return _error(exc)
    try:  # before the sweep, so a bad --out fails without solving a cell
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _error(exc)
    records = harness.run_experiment(spec)
    try:
        rec_path, agg_path = harness.emit_results(records, args.out, args.format)
    except OSError as exc:
        return _error(exc)
    print(f"wrote {len(records)} records to {rec_path} (aggregates: {agg_path})")
    return 0


def _cmd_solve(args) -> int:
    try:
        count(args.node_budget, "node_budget")  # before the instance is read
        text = Path(args.instance).read_text()
    except (OSError, ValueError) as exc:
        return _error(exc)
    import json  # here only, so a CSV sweep never loads the codec

    try:
        inst = instance_from_dict(json.loads(text))
    except KeyError as exc:
        return _error(f"{args.instance}: missing key {exc}")
    # Not JSON, not a valid instance, or an integer that numpy cannot hold.
    except (TypeError, ValueError, OverflowError) as exc:
        return _error(f"{args.instance}: {exc}")
    try:
        sol, _ = harness.run_scheme(inst, args.scheme, args.node_budget)
    except step1.NodeBudgetExceeded as exc:
        return _error(exc)
    payload = json.dumps(solution_to_dict(inst, sol), indent=1)
    try:
        if args.out:
            Path(args.out).write_text(payload + "\n")
        else:
            print(payload)
    except OSError as exc:
        return _error(exc)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    return _cmd_solve(args)


def run() -> NoReturn:
    """Run main() on sys.argv and exit with its code, with the collector frozen."""
    code = main()
    gc.freeze()  # the shutdown collections then skip every live object
    sys.exit(code)


if __name__ == "__main__":
    run()
