"""Measure one workload in this process and print the result as one JSON line.

run.py starts this with choreo's sources on PYTHONPATH.  After one warm-up
round it runs whole rounds of the workload's operations until --seconds have
passed, with a set-up probe (probe.py) after every other round, and reports each
metric as the slow decile of its per-round values.  With --trace 1,
untraced and traced rounds alternate; the traced ones give the per-layer
metrics and the comparison gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from choreo import chor_engine
from tracer import Tracer

HERE = Path(__file__).resolve().parent


class Tally:
    """Operations attempted and failed.  An operation fails when it raises
    or when an output check finds a problem; only the latter is a wrong
    answer, which makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.problems: list[str] = []

    def fail(self, op, item, problem: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong = self.wrong or wrong
        if len(self.problems) < 10:
            self.problems.append(f"{op.metric or 'parse'} on {item.src.name}: {problem}")


def _probe(tracer, op, result, layer: Counter) -> None:
    """Per-layer figures the benchmark works out from a command's result."""
    if op.metric == "run_steps_per_s":
        cfg, res = result
        reached = [cfg] + [r.config for r in res.trace]
        tracer.span("core.config_hash", lambda: [hash(c) for c in reached])
        layer["chor_engine.head_exposures"] += tracer.span(
            "chor_engine.head_exposures",
            lambda: sum(len(chor_engine.head_exposures(c.chor)) for c in reached),
        )
    elif op.metric == "explore_nodes_per_s":
        tracer.span("core.config_hash", lambda: [hash(c) for c in result.nodes])
        layer["harness.explore_nodes"] += len(result.nodes)
        layer["harness.explore_edges"] += len(result.edges)
        layer["harness.explore_roots"] += 1
    elif op.metric == "correspond_pairs_per_s":
        layer["harness.correspond_pairs"] += result.pairs_checked


def run_round(wl, tally: Tally, tracer=None):
    """One pass over every operation.  Returns {metric: (work, seconds)} and
    the per-layer figures worked out from the results."""
    gc.collect()
    if tracer is not None:
        tracer.begin_round()
        tracer.install()
    timed: dict[str, tuple[int, float]] = {}
    layer: Counter = Counter()
    try:
        for op in wl.ops:
            work, secs = 0, 0.0
            for _ in range(op.repeat):
                for item in op.items:
                    tally.attempted += 1
                    start = perf_counter()
                    try:
                        units, result = op.call(item)
                    except Exception as exc:  # counted as a failed operation
                        secs += perf_counter() - start
                        tally.fail(op, item, f"{type(exc).__name__}: {exc}", wrong=False)
                        continue
                    secs += perf_counter() - start
                    work += units
                    if tracer is not None:
                        tracer.paused = True
                    try:
                        problems = op.check(item, result)
                    except Exception as exc:  # e.g. printed output that does not parse
                        problems = [f"checking the output raised {type(exc).__name__}: {exc}"]
                    if problems:
                        tally.fail(op, item, problems[0], wrong=True)
                    if tracer is not None:
                        _probe(tracer, op, result, layer)
                        tracer.paused = False
            if op.metric:
                timed[op.metric] = (work, secs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return timed, layer


def slow_decile(values: list[float], higher_is_better: bool) -> float:
    """The decile of the samples at the slow end.  On a shared host the
    speed of a process jumps, for seconds at a time, between a steady floor
    and faster spells that come and go with the load around it, by as much
    as a factor of two.  The slow decile of the rounds follows that floor,
    and repeats from run to run much better than the median does."""
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10)
    return deciles[0] if higher_is_better else deciles[-1]


def samples(rounds: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's value in every round."""
    return {
        name: [r[name][0] / r[name][1] if name.endswith("_per_s") else r[name][1] for r in rounds]
        for name in rounds[0]
    }


def setup_probe(args) -> float:
    """Wall time of one fresh process that imports choreo and generates,
    parses and validates the workload's inputs (probe.py)."""
    cmd = [sys.executable, "-s", str(HERE / "probe.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    start = perf_counter()
    # a plain blocking wait: a wait with a timeout polls, in steps of up to
    # 50 ms; the CPU limit ends a probe that runs away instead
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, preexec_fn=_limit_cpu)
    return perf_counter() - start


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def per_layer(tracer, layer: Counter) -> tuple[dict, dict]:
    """Counts and self times of one traced round."""
    c, s = tracer.calls, tracer.self_s
    nodes, edges = layer["harness.explore_nodes"], layer["harness.explore_edges"]
    counts = {
        "chor_engine.reductions_calls": c["chor_engine.reductions"],
        "chor_engine.head_exposures": layer["chor_engine.head_exposures"],
        "chor_engine.normalize_calls": c["chor_engine.normalize"],
        "chor_engine.match_calls": c["chor_engine.match"],
        "chor_engine.match_hit_ratio": _ratio(tracer.hits["chor_engine.match"], c["chor_engine.match"]),
        "compat.judgements": c["compat.judgements"],
        "compat.abstract_match_calls": c["compat.abstract_match"],
        "compat.abstract_match_hit_ratio": _ratio(
            tracer.hits["compat.abstract_match"], c["compat.abstract_match"]
        ),
        "epp.project_network_calls": c["epp.project_network"],
        "cp_engine.reductions_calls": c["cp_engine.reductions"],
        "cp_engine.match_calls": c["cp_engine.match"],
        "cp_engine.match_hit_ratio": _ratio(tracer.hits["cp_engine.match"], c["cp_engine.match"]),
        "cp_engine.pruning_leq_calls": c["cp_engine.pruning_leq"],
        "harness.explore_nodes": nodes,
        "harness.explore_edges": edges,
        # share of distinct edges that led to a state already reached
        "harness.explore_dedup_ratio": _ratio(edges - nodes + layer["harness.explore_roots"], edges),
        "harness.correspond_pairs": layer["harness.correspond_pairs"],
        "gc.collections": tracer.gc_collections,
    }
    times = {
        "textio.parse_s": s["textio.parse"],
        "textio.print_s": s["textio.print"],
        "core.config_hash_s": s["core.config_hash"],
        "chor_engine.reductions_s": s["chor_engine.reductions"],
        "chor_engine.head_exposures_s": s["chor_engine.head_exposures"],
        "chor_engine.normalize_s": s["chor_engine.normalize"],
        "chor_engine.match_s": s["chor_engine.match"],
        "compat.abstract_match_s": s["compat.abstract_match"],
        "epp.project_network_s": s["epp.project_network"],
        "cp_engine.reductions_s": s["cp_engine.reductions"],
        "cp_engine.match_s": s["cp_engine.match"],
        "cp_engine.normalize_network_s": s["cp_engine.normalize_network"],
        "cp_engine.pruning_leq_s": s["cp_engine.pruning_leq"],
        "gc.pause_s": tracer.gc_pause_s,
    }
    return counts, times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spans", type=Path, help="file the traced run writes its spans to")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, args.quick)
    tally = Tally()
    run_round(wl, tally)  # warm-up: fills choreo's caches, not measured
    deadline = perf_counter() + args.seconds
    if not args.trace:
        setup_probe(args)  # warms the file cache, not measured
        rounds, setups = [], []
        while not rounds or perf_counter() < deadline:
            rounds.append(run_round(wl, tally)[0])
            if len(rounds) % 2:  # probes spread over the run like the rounds
                setups.append(setup_probe(args))
        per_round = {**samples(rounds), "setup_s": setups}
        metrics = {
            name: slow_decile(values, name.endswith("_per_s")) for name, values in per_round.items()
        }
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra = {"rounds": len(rounds), "samples": per_round}
    else:
        tracer = Tracer()
        plain, traced, layers = [], [], []
        while not traced or perf_counter() < deadline:
            plain.append(sum(s for _, s in run_round(wl, tally)[0].values()))
            timed, layer = run_round(wl, tally, tracer)
            traced.append(sum(s for _, s in timed.values()))
            layers.append(per_layer(tracer, layer))
        counts = layers[0][0]
        metrics = dict(counts)
        for name in layers[0][1]:
            metrics[name] = slow_decile([times[name] for _, times in layers], False)
        metrics["trace.overhead"] = slow_decile(traced, False) / slow_decile(plain, False) - 1
        unsteady = sorted(k for k in counts if any(c[k] != counts[k] for c, _ in layers))
        extra = {"rounds": len(traced), "unsteady_counts": unsteady}
        if args.spans:
            tracer.write(args.spans)
    print(
        json.dumps(
            {
                "correct": not tally.wrong,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
                "problems": tally.problems,
                **extra,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
