"""Steadiness self-check: two sets of benchmark runs of the same code.

    python3 bench/steady.py --seeds 10 --sets 2

Each set runs bench/run.py with --trace 0 once per seed on every
workload of BENCHMARK.json, then once with --trace 1 at the default
seed.  For each set and workload it prints, per end-to-end metric, the
median over seeds, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
A spread above its bound is reported as unresolved; setup_s is exempt,
as its spread is not held to a bound.  Across sets it reports each
metric whose later median is worse than the first set's by more than the
bound, and whether the traced counts repeat exactly.  The full summary
goes to .bench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import COUNTS
from workloads import DEFAULT_SEED, ROOT

RUN = Path(__file__).with_name("run.py")


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_row(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def worse_by(metric: dict, first: float, later: float) -> float:
    """Share of the first median by which the later median is worse."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=None, help="comma-separated; default: BENCHMARK.json's")
    args = parser.parse_args(argv)
    if args.seeds < 3 or args.sets < 1:
        parser.error("quartiles need --seeds >= 3, and --sets must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    )
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary: dict = {"seeds": list(seeds), "run_seconds": seconds, "sets": []}
    failures = 0
    for set_no in range(args.sets):
        values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
        counts = {}
        for seed in seeds:
            for w in workloads:
                line = bench_run(w, seed, seconds, 0)
                failures += line["failed"] + (not line["correct"])
                for name, v in values[w].items():
                    v.append(line["metrics"][name]["value"])
        for w in workloads:
            line = bench_run(w, DEFAULT_SEED, seconds, 1)
            failures += line["failed"] + (not line["correct"])
            counts[w] = {n: line["metrics"][n]["value"] for n in COUNTS if n in line["metrics"]}
        rows = {
            w: {m["name"]: spread_row(values[w][m["name"]]) for m in bench["end_to_end"]}
            for w in workloads
        }
        summary["sets"].append({"rows": rows, "counts": counts})
        print(f"set {set_no + 1}: {len(seeds)} seeds per workload, {seconds} s per run")
        for w in workloads:
            for m in bench["end_to_end"]:
                r = rows[w][m["name"]]
                verdict = "ok"
                if m["name"] != "setup_s" and r["spread"] > m["bound"]:
                    verdict = "unresolved"
                print(
                    f"  {w:14s} {m['name']:34s} median {r['median']:12.6g} {m['unit']:4s} "
                    f"q1 {r['q1']:12.6g} q3 {r['q3']:12.6g} spread {r['spread']:7.4f} "
                    f"bound {m['bound']:.2f} {verdict}"
                )

    first = summary["sets"][0]
    for set_no, later in enumerate(summary["sets"][1:], start=2):
        print(f"set {set_no} against set 1:")
        for w in workloads:
            for m in bench["end_to_end"]:
                worse = worse_by(m, first["rows"][w][m["name"]]["median"],
                                 later["rows"][w][m["name"]]["median"])  # fmt: skip
                verdict = "regressed" if worse > m["bound"] else "ok"
                print(f"  {w:14s} {m['name']:34s} worse by {worse:+.4f} bound {m['bound']:.2f} {verdict}")
            same = later["counts"][w] == first["counts"][w]
            print(f"  {w:14s} traced counts {'identical' if same else 'DIFFER'}")
    print(f"failed cells or incorrect runs: {failures}")
    out = ROOT / ".bench_out" / f"steady-{time.time_ns()}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
