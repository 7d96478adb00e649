"""The three workloads: which programs each command is asked about, how
each call is made, and how its output is checked.

A workload is a list of operations run in a fixed order, one round at a
time.  An operation calls one choreo command on each of its programs,
`repeat` times over, and feeds one end-to-end metric.  Operations on tiny
programs repeat their calls so that each metric adds up enough work to
repeat between runs.  Every output is checked against figures that `gen`
worked out from its own choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import gen
from choreo import chor_engine, compat, cp_engine, epp, harness, textio
from choreo.chor_engine import Outcome, initial_configuration


@dataclass
class Item:
    """One program of a workload, re-parsed at the start of every round."""

    src: gen.Source
    prog: object = None  # textio.Program
    cp: object = None  # cp_engine.CpProgram, set by the project operation


@dataclass
class Op:
    metric: str  # end-to-end metric; "" for the parse step, which only setup_s times
    items: list[Item]
    repeat: int
    call: Callable  # Item -> (work units, result)
    check: Callable  # (Item, result) -> list of problems


@dataclass
class Workload:
    ops: list[Op]
    items: list[Item]  # every program, in the order set-up parses them


# ---------------------------------------------------------------------------
# Calls: the same steps as the matching `choreo` subcommand


def call_parse(item: Item):
    item.prog = textio.parse_program(item.src.text)
    return 1, item.prog


def call_run(item: Item):
    prog = item.prog
    cfg = initial_configuration(prog)
    res = chor_engine.run(cfg, prog.connectors, max_steps=item.src.steps + 10)
    return len(res.trace), (cfg, res)


def call_simulate(item: Item):
    res = cp_engine.cp_run(item.cp.init, item.cp.automata, max_steps=item.src.steps + 10)
    return len(res.trace), res


def call_check(item: Item):
    return 1, compat.check_compatibility(item.prog.main, item.prog.connectors)


def call_project(item: Item):
    prog = item.prog
    cfg = initial_configuration(prog)
    net = epp.project_network(chor_engine.normalize(prog.main), cfg.sigma_map())
    automata = epp.project_connectors(prog.connectors)
    cp = cp_engine.CpProgram(automata, cp_engine.NetConfiguration.make(net, cfg.astate_map()))
    item.cp = cp
    return 1, (cp, textio.pretty_cp(cp))


def call_explore(item: Item):
    cfg = initial_configuration(item.prog)
    res = harness.exhaustive_explore(cfg, item.prog.connectors, item.src.steps + 2)
    return len(res.nodes), res


def call_correspond(item: Item):
    rep = harness.correspondence_check(item.prog, bound=item.src.steps + 2)
    return rep.pairs_checked, rep


# ---------------------------------------------------------------------------
# Output checks


def _same(found, expected) -> bool:
    """Type-strict equality, so 1 and True stay apart."""
    return found == expected and type(found) is type(expected)


def _stores(found: dict, expected: dict) -> list[str]:
    return [
        f"{p}.{v} = {found.get((p, v))!r}, expected {want!r}"
        for (p, v), want in sorted(expected.items())
        if not _same(found.get((p, v)), want)
    ]


def _outcome(res, steps: int) -> list[str]:
    if res.outcome is not Outcome.TERMINATED or len(res.trace) != steps:
        return [f"{res.outcome.value} after {len(res.trace)} steps, expected terminated after {steps}"]
    return []


def check_parse(item: Item, prog) -> list[str]:
    return [] if prog.connectors else ["no connectors parsed"]


def check_run(item: Item, result) -> list[str]:
    _cfg, res = result
    return _outcome(res, item.src.steps) + _stores(res.final.sigma_map(), item.src.stores)


def check_simulate(item: Item, res) -> list[str]:
    # a process leaves the network when it finishes, so take each process's
    # store from the last configuration that still holds it
    last = {q: store for q, store, _b in item.cp.init.net.procs}
    for r in res.trace:
        last.update((q, store) for q, store, _b in r.config.net.procs)
    found = {(q, v): val for q, store in last.items() for v, val in store}
    return _outcome(res, item.src.steps) + _stores(found, item.src.exit_stores)


def check_check(item: Item, verdict) -> list[str]:
    if verdict.compatible != item.src.compatible:
        return [f"check said {verdict.compatible}, expected {item.src.compatible}"]
    if verdict.compatible:
        return []
    # the negative verdict must come with its failing judgement: the
    # remaining choreography, what was tried, and the path to it
    report = textio.pretty_chor(verdict.judgement.chor)
    if not (verdict.reason and verdict.tried and report.strip() != "0" and verdict.judgement.path()):
        return ["negative verdict without a failing-judgement report"]
    return []


def check_project(item: Item, result) -> list[str]:
    cp, text = result
    back = textio.parse_cp(text)
    if back.init != cp.init or back.automata != cp.automata:
        return ["printed network does not parse back to the projected one"]
    return []


def check_explore(item: Item, res) -> list[str]:
    src = item.src
    found = (len(res.nodes), len(res.edges), len(res.terminated), len(res.stuck), res.truncated)
    want = (src.nodes, src.edges, 1 - src.stuck, src.stuck, False)
    problems = [] if found == want else [
        f"explore found (nodes, edges, terminated, stuck, truncated) = {found}, expected {want}"
    ]
    for cfg in res.stuck:
        rep = chor_engine.report_stuck(cfg, item.prog.connectors)
        if rep.classification != "port-mismatch":
            problems.append(f"stuck state classified {rep.classification}")
    return problems


def check_correspond(item: Item, rep) -> list[str]:
    # each reachable choreography state pairs with exactly one network state
    problems = [f"gap: {g}" for g in rep.gaps[:3]]
    if rep.truncated:
        problems.append("correspondence check truncated")
    if rep.pairs_checked != item.src.nodes:
        problems.append(f"{rep.pairs_checked} pairs, expected {item.src.nodes}")
    return problems


# ---------------------------------------------------------------------------
# Workloads


def _ops(
    parse: list[Item],
    run: list[Item],
    project: tuple[list[Item], int],
    check: tuple[list[Item], int],
    explore: list[Item],
    correspond: list[Item],
    run_repeat: int = 1,
) -> list[Op]:
    # project comes before simulate, which runs the network it produced
    return [
        Op("", parse, 1, call_parse, check_parse),
        Op("project_s", project[0], project[1], call_project, check_project),
        Op("run_steps_per_s", run, run_repeat, call_run, check_run),
        Op("simulate_steps_per_s", run, run_repeat, call_simulate, check_simulate),
        Op("check_s", check[0], check[1], call_check, check_check),
        Op("explore_nodes_per_s", explore, 1, call_explore, check_explore),
        Op("correspond_pairs_per_s", correspond, 1, call_correspond, check_correspond),
    ]


def chain(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    n_run, n_explore, n_correspond, project = (20, 16, 12, 1) if quick else (120, 80, 32, 20)
    big = Item(gen.chain(rng, n_run, "chain"))
    mid = Item(gen.chain(rng, n_explore, "chain-explore"))
    small = Item(gen.chain(rng, n_correspond, "chain-correspond"))
    items = [big, mid, small]
    ops = _ops(
        parse=items,
        run=[big],
        project=([big], project),
        check=([big], 1),
        explore=[mid],
        correspond=[small],
    )
    return Workload(ops, items)


def loop(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    if quick:
        k_run, k_explore, k_correspond, checks, check_repeat, project = 4, 4, 3, 2, 1, 1
    else:
        k_run, k_explore, k_correspond, checks, check_repeat, project = 170, 100, 8, 8, 15, 200
    # Forward and selection connectors never both buffer: such a loop shows
    # correspondence gaps (see CHANGES.md).
    a, b = ("Buffer1", "Buffer1", "Sync"), ("Sync", "Buffer1", "Buffer1")
    run = Item(gen.loop(rng, k_run, a, "loop"))
    explore = Item(gen.loop(rng, k_explore, b, "loop-explore"))
    corr = [Item(gen.loop(rng, k_correspond, kinds, "loop-correspond")) for kinds in (a, b)]
    # only Sync loops re-enter their procedure with the same connector state
    sync = ("Sync", "Sync", "Sync")
    check = [Item(gen.loop(rng, 10, sync, "loop-check")) for _ in range(checks)]
    items = [run, explore] + corr + check
    ops = _ops(
        parse=items,
        run=[run],
        project=([run], project),
        check=(check, check_repeat),
        explore=[explore],
        correspond=corr,
    )
    return Workload(ops, items)


def parallel(seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    # (Buffer1 pairs, Sync pairs); an unservable program's last pair is the
    # one its connectors cannot serve
    if quick:
        run_k, unservable_k, check_k, correspond_k, repeat, project = (3, 4), (4, 5), (2, 3), (3, 3), 1, 1
    else:
        run_k, unservable_k, check_k, correspond_k, repeat, project = (5, 8), (6, 9), (3, 6), (4, 5), 20, 50

    def both(ks, name: str, unservable: bool = False) -> list[Item]:
        return [Item(gen.parallel(rng, k, kind, unservable, name)) for k, kind in zip(ks, ("Buffer1", "Sync"))]

    run = both(run_k, "parallel")
    unservable = both(unservable_k, "parallel-unservable", True)
    check = both(check_k, "parallel-check")
    check += both([k + 1 for k in check_k], "parallel-check-unservable", True)
    corr = both(correspond_k, "parallel-correspond")
    items = run + unservable + check + corr
    ops = _ops(
        parse=items,
        run=run,
        project=(run, project),
        check=(check, 1),
        explore=run + unservable,
        correspond=corr,
        run_repeat=repeat,
    )
    return Workload(ops, items)


WORKLOADS = {"chain": chain, "loop": loop, "parallel": parallel}
