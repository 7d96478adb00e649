"""Seeded generators for the benchmark's input programs.

Every generator returns the `.cr` source text together with the figures the
benchmark expects from it (step counts, final stores, state-space sizes).
Those figures are worked out here from the generator's own choices, never by
running choreo, so the output checks stay independent of the program.

This module imports nothing from choreo.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SYNC = """automaton Sync {
  states 1;
  ports p1, p2;
  init 1;
  1 -> 1 on p1 > p2;
}
"""

BUFFER1 = """automaton Buffer1 {
  states 1, 2;
  ports p1, p2;
  mems m;
  init 1;
  1 -> 2 on p1 > m;
  2 -> 1 on m > p2;
}
"""

# steps one interaction takes through each connector kind: a Sync hands the
# value over in one step, a Buffer1 takes it in and then delivers it
STEPS = {"Sync": 1, "Buffer1": 2}


@dataclass
class Source:
    """One generated program and what running it must give."""

    name: str
    text: str
    steps: int = 0  # run/simulate length under the deterministic scheduler
    stores: dict = field(default_factory=dict)  # (process, variable) -> value at the end
    # the network drops a process, store and all, when it finishes: the
    # store each process holds just before its last action
    exit_stores: dict = field(default_factory=dict)
    nodes: int = 0  # reachable states
    edges: int = 0  # distinct reductions between them
    stuck: int = 0  # stuck states
    compatible: bool = True


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """`count` distinct identifiers of equal length: the prefix and 4 digits."""
    return [f"{prefix}{n:04d}" for n in rng.sample(range(10000), count)]


def _program(kinds: set[str], bindings: list[str], init: list[str], main: str) -> str:
    automata = [a for k, a in (("Sync", SYNC), ("Buffer1", BUFFER1)) if k in kinds]
    return (
        "\n".join(automata)
        + "\nconnectors {\n"
        + "".join(f"  {b}\n" for b in bindings)
        + "}\n\ninit {\n"
        + "".join(f"  {i}\n" for i in init)
        + "}\n\nmain {\n"
        + main
        + "}\n"
    )


def chain(rng: random.Random, n: int, name: str = "chain") -> Source:
    """N interactions passing values around a ring of three processes.

    Each ring edge has a Sync and a Buffer1 connector; exactly half of the
    interactions (rounded down) go through the Buffer1 one, at seeded
    positions.  Consecutive interactions share a process and every third one
    closes the ring, so only the head interaction can ever fire: each state
    has exactly one successor."""
    procs = _names(rng, "p", 3)
    sync_conns = _names(rng, "s", 3)
    buf_conns = _names(rng, "b", 3)
    variables = ("x", "y", "z")
    kinds = ["Buffer1"] * (n // 2) + ["Sync"] * (n - n // 2)
    rng.shuffle(kinds)
    store = {(p, v): rng.randrange(100) for p in procs for v in variables}
    init = [f"{p}.{v} = {store[(p, v)]};" for p in procs for v in variables]
    lines = []
    exit_stores = {}
    for i, kind in enumerate(kinds):
        snd, rcv = procs[i % 3], procs[(i + 1) % 3]
        conn = (buf_conns if kind == "Buffer1" else sync_conns)[i % 3]
        sv, rv, c = rng.choice(variables), rng.choice(variables), rng.randrange(10)
        lines.append(f"  {snd}.{sv} + {c} -> {rcv}.{rv} thru {conn};\n")
        exit_stores.update({(p, v): store[(p, v)] for p in (snd, rcv) for v in variables})
        store[(rcv, rv)] = store[(snd, sv)] + c  # the replay the run must agree with
    bindings = []
    for i in range(3):
        snd, rcv = procs[i], procs[(i + 1) % 3]
        bindings.append(f"{sync_conns[i]}: Sync[{snd}/p1, {rcv}/p2];")
        bindings.append(f"{buf_conns[i]}: Buffer1[{snd}/p1, {rcv}/p2];")
    text = _program({"Sync", "Buffer1"}, bindings, init, "".join(lines) + "  0\n")
    steps = sum(STEPS[k] for k in kinds)
    return Source(
        name, text, steps=steps, stores=store, exit_stores=exit_stores, nodes=steps + 1, edges=steps
    )


def loop(
    rng: random.Random, rounds: int, kinds: tuple[str, str, str], name: str = "loop"
) -> Source:
    """A counter passed back and forth between two processes for `rounds`
    rounds, then a selection that leaves the loop.

    `kinds` names the connector kinds of the forward, backward and selection
    connectors.  The counter starts at a seeded value s0 and the loop stops
    at s0 + rounds, so both processes end holding s0 + rounds."""
    a, b = _names(rng, "p", 2)
    fwd, back, sel = _names(rng, "c", 3)
    proc = _names(rng, "X", 1)[0]
    s0 = rng.randrange(100)
    stop = s0 + rounds
    bindings = [
        f"{fwd}: {kinds[0]}[{a}/p1, {b}/p2];",
        f"{back}: {kinds[1]}[{b}/p1, {a}/p2];",
        f"{sel}: {kinds[2]}[{a}/p1, {b}/p2];",
    ]
    init = [f"{a}.n = {s0};", f"{b}.n = 0;"]
    main = (
        f"  def {proc} = {{\n"
        f"    {a}.n + 1 -> {b}.n thru {fwd};\n"
        f"    {b}.n -> {a}.n thru {back};\n"
        f"    if {a}.n < {stop} then {{ {a} -> {b} [more] thru {sel}; {proc} }}\n"
        f"    else {{ {a} -> {b} [stop] thru {sel}; 0 }}\n"
        f"  }} in {{\n    {proc}\n  }}\n"
    )
    text = _program(set(kinds), bindings, init, main)
    per_round = STEPS[kinds[0]] + STEPS[kinds[1]] + 1 + STEPS[kinds[2]]
    steps = rounds * per_round
    stores = {(a, "n"): stop, (b, "n"): stop}
    return Source(
        name,
        text,
        steps=steps,
        stores=stores,
        exit_stores=stores,  # both leave after the selection, which sets no variable
        nodes=steps + 1,
        edges=steps,
    )


def parallel(
    rng: random.Random, k: int, kind: str, unservable: bool = False, name: str = "parallel"
) -> Source:
    """k independent sender/receiver pairs, each through its own connector
    of one kind.  With `unservable`, the k-th pair's connector is bound with
    its ports the wrong way round, so it can never serve that pair.

    A Buffer1 pair is in one of three states (waiting, in the cell, done)
    and a Sync pair in one of two, so the other pairs span a product space."""
    senders = _names(rng, "s", k)
    receivers = _names(rng, "r", k)
    conns = _names(rng, "c", k)
    values = [rng.randrange(1000) for _ in range(k)]
    bindings, lines = [], []
    for i in range(k):
        ports = f"{receivers[i]}/p1, {senders[i]}/p2" if unservable and i == k - 1 else (
            f"{senders[i]}/p1, {receivers[i]}/p2"
        )
        bindings.append(f"{conns[i]}: {kind}[{ports}];")
        lines.append(f"  {senders[i]}.x -> {receivers[i]}.y thru {conns[i]};\n")
    init = [f"{s}.x = {v};" for s, v in zip(senders, values)]
    text = _program({kind}, bindings, init, "".join(lines) + "  0\n")
    per_pair = STEPS[kind] + 1  # states one pair passes through
    live = k - 1 if unservable else k
    nodes = per_pair**live
    edges = live * STEPS[kind] * per_pair ** (live - 1) if live else 0
    senders_x = {(s, "x"): v for s, v in zip(senders, values)}
    stores = {(r, "y"): v for r, v in zip(receivers[:live], values)}
    return Source(
        name,
        text,
        steps=live * STEPS[kind],
        stores={**senders_x, **stores},
        exit_stores=senders_x,  # a receiver's only action is its last
        nodes=nodes,
        edges=edges,
        stuck=1 if unservable else 0,
        compatible=not unservable,
    )
