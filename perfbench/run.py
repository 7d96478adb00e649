"""Benchmark of choreo's commands on three seeded workloads: chain, loop and
parallel.  See perfbench/README.md for the workloads and the metrics.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --quick             # small sizes, every check, in seconds

Each workload runs in a process of its own (worker.py), which times set-up
in separate fresh processes (probe.py).  Child processes get choreo's
sources from src/ on PYTHONPATH and a hash seed derived from --seed, so one
seed always gives the same inputs and the same process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The result, and with --trace 1 the spans,
are also written under perfbench/out/.  The exit status is 0 when the
benchmark ran, whatever it measured, and 1 or 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("chain", "loop", "parallel")
BUDGET_S = 170  # a single-workload run ends within this

END_TO_END = {
    "setup_s": "s",
    "run_steps_per_s": "steps/s",
    "simulate_steps_per_s": "steps/s",
    "check_s": "s",
    "project_s": "s",
    "explore_nodes_per_s": "nodes/s",
    "correspond_pairs_per_s": "pairs/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "textio.parse_s": "s",
    "textio.print_s": "s",
    "core.config_hash_s": "s",
    "chor_engine.reductions_calls": "count",
    "chor_engine.reductions_s": "s",
    "chor_engine.head_exposures": "count",
    "chor_engine.head_exposures_s": "s",
    "chor_engine.normalize_calls": "count",
    "chor_engine.normalize_s": "s",
    "chor_engine.match_calls": "count",
    "chor_engine.match_hit_ratio": "ratio",
    "chor_engine.match_s": "s",
    "compat.judgements": "count",
    "compat.abstract_match_calls": "count",
    "compat.abstract_match_hit_ratio": "ratio",
    "compat.abstract_match_s": "s",
    "epp.project_network_calls": "count",
    "epp.project_network_s": "s",
    "cp_engine.reductions_calls": "count",
    "cp_engine.reductions_s": "s",
    "cp_engine.match_calls": "count",
    "cp_engine.match_hit_ratio": "ratio",
    "cp_engine.match_s": "s",
    "cp_engine.normalize_network_s": "s",
    "cp_engine.pruning_leq_calls": "count",
    "cp_engine.pruning_leq_s": "s",
    "harness.explore_nodes": "count",
    "harness.explore_edges": "count",
    "harness.explore_dedup_ratio": "ratio",
    "harness.correspond_pairs": "count",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(args: list[str], seed: int) -> tuple[str, str]:
    """Run worker.py to its end and return its output.  The set-up probes it
    starts inherit the environment set here, and its process group, which
    is killed whole if the worker overruns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), *args]
    with subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=BUDGET_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"the worker did not finish within {BUDGET_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"the worker exited with status {proc.returncode}:\n{err.strip()}")
    return out, err


def measure(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", str(trace)] + (["--quick"] if quick else [])
    if trace:
        args += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.csv.gz")]
    out, _err = _worker(args, seed)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"the worker printed no result:\n{out[-2000:]}") from None
    units = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise BenchError(f"worker reported {sorted(metrics)}, expected {sorted(units)}")
    for problem in result["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)
    for name in result.get("unsteady_counts", []):
        print(f"{workload}: count {name} differed between traced rounds", file=sys.stderr)
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    details = {k: result[k] for k in ("rounds", "samples") if k in result}
    path.write_text(json.dumps({**summary, **details}, indent=1) + "\n")
    return summary


def _print_table(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<9s} {name:<34s} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload:<9s} {'operations':<34s} {result['attempted']:>14d} attempted, {result['failed']} failed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30, help="length of the measured part of a run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    ap.add_argument("--quick", action="store_true", help="small inputs, one round, traced and untraced")
    args = ap.parse_args(argv)

    if not (SRC / "choreo" / "__init__.py").is_file():
        print(f"error: choreo's sources are not at {SRC / 'choreo'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [(w, t) for w in workloads for t in ((0, 1) if args.quick else (args.trace,))]
    results = {}
    try:
        for w, t in runs:
            results[(w, t)] = measure(w, args.seed, 0 if args.quick else args.seconds, t, args.quick)
            _print_table(w, results[(w, t)])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        final = results[runs[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for (w, _), r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
