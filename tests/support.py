"""Test support: fault injection, the brute-force reduction oracle, the
random program generator, and helpers that only tests need.

The eta-reduction oracle recomputes one-step labelled reductions of an
interaction set by brute force: it composes single-flow rule applications in
every order, subject to the read-before-write side condition on cells, and
collects every (label, result) pair.  The fast matcher in `chor_engine` is
tested against it, never the other way round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Mapping

from choreo import textio
from choreo.core import (
    BOT,
    Bool,
    Call,
    Cond,
    ConnectorMapping,
    Const,
    Constraint,
    ConstraintAutomaton,
    Def,
    END,
    Expr,
    Flow,
    InputError,
    Interaction,
    Label,
    Mem,
    MemorySnapshot,
    Port,
    Prefix,
    RecvSel,
    RecvVal,
    Sel,
    Transition,
    ValCom,
    Value,
    Var,
    desugar_multicast,
    instantiate,
    renamed,
    sorted_etas,
)
from choreo.chor_engine import Configuration, eval_expr, freeze_store, normalize, reductions
from choreo.epp import Unprojectable, project_behaviour

from conftest import load_automaton


# ---------------------------------------------------------------------------
# Fault injection


def swap_ports(a: ConstraintAutomaton, x: str, y: str, name: "str | None" = None) -> ConstraintAutomaton:
    """Exchange two ports in every flow, keeping everything else intact."""

    swap = {x: y, y: x}
    # the swap leaves the port set as it is, so the port list keeps its order
    return replace(renamed(a, name or a.name, {p: swap.get(p, p) for p in a.ports}), ports=a.ports)


def relabel_transition(
    a: ConstraintAutomaton,
    index: int,
    flows: Iterable[tuple[str, str]],
    name: "str | None" = None,
) -> ConstraintAutomaton:
    """Replace the flow constraint of one transition (by declaration order)."""
    port_set, mem_set = set(a.ports), set(a.mems)

    def end(z: str):
        return Port(z) if z in port_set else Mem(z)

    old = a.transitions[index]
    new = Transition(old.src, Constraint(frozenset(Flow(end(p), end(q)) for p, q in flows)), old.dst)
    transitions = tuple(new if i == index else t for i, t in enumerate(a.transitions))
    return replace(a, name=name or a.name, transitions=transitions)


def drop_transition(a: ConstraintAutomaton, index: int, name: "str | None" = None) -> ConstraintAutomaton:
    transitions = tuple(t for i, t in enumerate(a.transitions) if i != index)
    return replace(a, name=name or a.name, transitions=transitions)


def bad_alternator() -> ConstraintAutomaton:
    """Alternator that asks for the first pair again instead of the second."""
    return relabel_transition(load_automaton("alternator.ca"), 1, [("p1", "p2")], name="BadAlternator")


def swapped_rendezvous() -> ConstraintAutomaton:
    """Barrier whose two targets are exchanged."""
    return swap_ports(load_automaton("rendezvous.ca"), "p2", "p4", name="SwappedRendezvous")


def crossed_chain4() -> ConstraintAutomaton:
    """Two-cell relay that delivers each buffered value to the other target."""
    return swap_ports(load_automaton("chain4.ca"), "p2", "p4", name="CrossedChain4")


# ---------------------------------------------------------------------------
# Brute-force eta-reduction oracle


@dataclass(frozen=True)
class OracleResult:
    phi: Constraint
    etas: frozenset
    sigma: tuple
    mu: tuple


def oracle_eta_reductions(
    etas: frozenset[Interaction],
    sigma: Mapping[tuple[str, str], Value],
    mu: MemorySnapshot,
    max_label: "int | None" = None,
) -> set[OracleResult]:
    """All labelled reductions of an interaction set, by exhaustive
    composition of single-flow steps.

    Single steps: a full communication completes over a port-to-port flow,
    or deposits into a cell (leaving a runtime receive); a runtime receive
    completes over a cell-to-port flow when the cell holds its value; a cell
    copies into a cell (including itself) when nonempty.  Compositions must
    never read a cell written earlier in the same composition, and may use
    each cell-to-cell pair at most once.

    A label is the set of distinct flows used, so it only grows along a
    composition; `max_label` prunes branches whose label already exceeds the
    arity of the constraints being compared against.
    """
    cells = sorted(mu)
    results: set[OracleResult] = set()

    def go(
        cur_etas: frozenset,
        cur_sigma: dict,
        cur_mu: dict,
        used_mem: frozenset,
        written: frozenset,
        label: frozenset,
    ) -> None:
        for eta in sorted_etas(cur_etas):
            if isinstance(eta, ValCom):
                v = eval_expr(eta.expr, cur_sigma, eta.sender)
                s2 = dict(cur_sigma)
                s2[(eta.receiver, eta.var)] = v
                _emit(
                    cur_etas - {eta},
                    s2,
                    cur_mu,
                    used_mem,
                    written,
                    label | {Flow(Port(eta.sender), Port(eta.receiver))},
                )
                for m in cells:
                    mu2 = dict(cur_mu)
                    mu2[m] = v
                    _emit(
                        (cur_etas - {eta}) | {RecvVal(eta.receiver, eta.var, v)},
                        cur_sigma,
                        mu2,
                        used_mem,
                        written | {m},
                        label | {Flow(Port(eta.sender), Mem(m))},
                    )
            elif isinstance(eta, Sel):
                _emit(
                    cur_etas - {eta},
                    cur_sigma,
                    cur_mu,
                    used_mem,
                    written,
                    label | {Flow(Port(eta.sender), Port(eta.receiver))},
                )
                for m in cells:
                    mu2 = dict(cur_mu)
                    mu2[m] = Label(eta.label)
                    _emit(
                        (cur_etas - {eta}) | {RecvSel(eta.receiver, eta.label)},
                        cur_sigma,
                        mu2,
                        used_mem,
                        written | {m},
                        label | {Flow(Port(eta.sender), Mem(m))},
                    )
            elif isinstance(eta, RecvVal):
                for m in cells:
                    if m in written:
                        continue
                    stored = cur_mu[m]
                    if stored != eta.value:
                        continue
                    s2 = dict(cur_sigma)
                    s2[(eta.receiver, eta.var)] = eta.value
                    _emit(
                        cur_etas - {eta},
                        s2,
                        cur_mu,
                        used_mem,
                        written,
                        label | {Flow(Mem(m), Port(eta.receiver))},
                    )
            else:
                assert isinstance(eta, RecvSel)
                for m in cells:
                    if m in written:
                        continue
                    stored = cur_mu[m]
                    if not (isinstance(stored, Label) and stored.name == eta.label):
                        continue
                    _emit(
                        cur_etas - {eta},
                        cur_sigma,
                        cur_mu,
                        used_mem,
                        written,
                        label | {Flow(Mem(m), Port(eta.receiver))},
                    )
        for m1 in cells:
            if m1 in written:
                continue
            if cur_mu[m1] is BOT:
                continue
            for m2 in cells:
                if (m1, m2) in used_mem:
                    continue
                mu2 = dict(cur_mu)
                mu2[m2] = cur_mu[m1]
                _emit(
                    cur_etas,
                    cur_sigma,
                    mu2,
                    used_mem | {(m1, m2)},
                    written | {m2},
                    label | {Flow(Mem(m1), Mem(m2))},
                )

    seen: set[tuple] = set()

    def _emit(e, s, m, used, written, label) -> None:
        fl = frozenset(label)
        if max_label is not None and len(fl) > max_label:
            return
        fe = frozenset(e)
        fs = freeze_store(s)
        fm = tuple(sorted(m.items()))
        results.add(OracleResult(Constraint(fl), fe, fs, fm))
        key = (fe, fs, fm, used, written, fl)
        if key in seen:
            return
        seen.add(key)
        go(e, s, m, used, written, label)

    go(frozenset(etas), dict(sigma), dict(mu), frozenset(), frozenset(), frozenset())
    return results


def oracle_by_label(results: set[OracleResult]) -> dict[Constraint, set[tuple]]:
    out: dict[Constraint, set[tuple]] = {}
    for r in results:
        out.setdefault(r.phi, set()).add((r.etas, r.sigma, r.mu))
    return out


# ---------------------------------------------------------------------------
# Stepping to a connector


def advance_until_connector(
    cfg: Configuration, g: ConnectorMapping, name: str, limit: int = 100
) -> Configuration:
    """Advance deterministically until every enabled reduction goes through
    the named connector."""
    for _ in range(limit):
        rs = reductions(cfg, g)
        if rs and all(r.kind == "com" and r.subject == name for r in rs):
            return cfg
        if not rs:
            raise InputError("stuck before reaching the requested connector")
        cfg = rs[0].config
    raise InputError("step limit exceeded before reaching the requested connector")


# ---------------------------------------------------------------------------
# Random projectable programs


def projectable(c) -> bool:
    """Whether every process of c has a defined projection.  This never looks
    at any store, so the answer is the same for every initial state."""
    try:
        for r in sorted(c.procs):
            project_behaviour(c, r)
        return True
    except Unprojectable:
        return False


@lru_cache(maxsize=None)
def _template(name: str) -> ConstraintAutomaton:
    """A connector template of the generator, parsed once from its fixture."""
    return load_automaton(f"{name.lower()}.ca")


def gen_random_program(rng: random.Random) -> "textio.Program":
    """One random well-formed, projectable program.

    Small by construction: at most 3 processes, 2 connectors, 6 interactions.
    Conditionals always start both branches with a label multicast from the
    deciding process to every other participant, so projection is defined.
    Two further restrictions keep the network and the choreography in step:
    connector shapes are limited to single-flow and single-sender transitions
    (joint transitions spanning two interaction sets would let the network
    outrun the choreography), and each interaction's sender is a receiver of
    the interaction just before it (otherwise a free sender could buffer its
    datum while its receiver is still engaged earlier, a state the
    choreography cannot commute into).
    """
    while True:
        prog = _gen_candidate(rng)
        if projectable(prog.main):
            return prog


def _gen_candidate(rng: random.Random) -> "textio.Program":
    n_proc = rng.choice([2, 3, 3])
    procs = ["p", "q", "r"][:n_proc]
    n_conn = rng.choice([1, 2, 2])
    bindings: dict[str, tuple[str, dict[str, str]]] = {}
    connectors: dict[str, ConstraintAutomaton] = {}
    for i in range(n_conn):
        gname = f"g{i + 1}"
        choices = ["Sync", "Buffer1"] + (["Spread2"] if n_proc == 3 else [])
        tname = rng.choice(choices)
        t = _template(tname)
        if i == 0:
            owners = rng.sample(procs, len(t.ports))
        else:
            # chain the second connector off the first so gated chains of
            # length two and more exist
            g1 = connectors["g1"]
            prev_rcv = sorted(
                {f.dst.name for tr in g1.transitions for f in tr.phi.flows if isinstance(f.dst, Port)}
            )
            first = rng.choice(prev_rcv)
            rest = rng.sample([x for x in procs if x != first], len(t.ports) - 1)
            owners = [first] + rest
        subst = {port: owner for port, owner in zip(t.ports, owners)}
        bindings[gname] = (tname, subst)
        connectors[gname] = instantiate(t, subst, name=gname)
    names = sorted(connectors)

    budget = rng.randint(2, 6)
    counter = [0]

    def fresh_var() -> str:
        counter[0] += 1
        return f"r{counter[0]}"

    def conn_sender(gname: str) -> str:
        a = connectors[gname]
        return a.transitions[0].phi.sorted_flows()[0].src.name

    def conn_receivers(gname: str) -> list[str]:
        a = connectors[gname]
        return sorted(
            {f.dst.name for t in a.transitions for f in t.phi.flows if isinstance(f.dst, Port)}
        )

    def one_interaction(gname: str) -> "frozenset | None":
        src = conn_sender(gname)
        dsts = conn_receivers(gname)
        payload: Expr = Var("m0") if rng.random() < 0.7 else Const(rng.randint(1, 9))
        return desugar_multicast(src, payload, [(d, fresh_var()) for d in dsts])

    def chain(k: int, allowed: "set[str] | None") -> object:
        # `allowed` gates the next sender on the previous receivers
        if k <= 0:
            return END
        opts = [g for g in names if allowed is None or conn_sender(g) in allowed]
        if not opts:
            return END
        gname = rng.choice(opts)
        etas = one_interaction(gname)
        cost = len(etas)
        if cost > k:
            return END
        return Prefix(etas, gname, chain(k - cost, set(conn_receivers(gname))))

    def loopable(body: object) -> bool:
        # unfolding must keep the gating: the first sender has to be a
        # receiver of the last interaction of the round
        conns = []
        cur = body
        while isinstance(cur, Prefix):
            conns.append(cur.connector)
            cur = cur.cont
        if not conns:
            return False
        return conn_sender(conns[0]) in conn_receivers(conns[-1])

    main: object
    style = rng.random()
    if style < 0.3:
        # conditional: the decider multicasts its choice, then short tails
        decider_opts = []
        for gname in names:
            src = conn_sender(gname)
            if set(conn_receivers(gname)) == set(procs) - {src}:
                decider_opts.append((gname, src))
        if decider_opts:
            gname, decider = rng.choice(decider_opts)
            others = [x for x in procs if x != decider]
            sel_then = desugar_multicast(decider, "left", others)
            sel_else = desugar_multicast(decider, "right", others)
            main = Cond(
                decider,
                Var("flag"),
                Prefix(sel_then, gname, chain(rng.randint(0, 2), set(others))),
                Prefix(sel_else, gname, chain(rng.randint(0, 2), set(others))),
            )
        else:
            main = chain(budget, None)
    elif style < 0.45:
        body = chain(max(2, budget - 1), None)
        if isinstance(body, Prefix) and loopable(body):
            main = Def("X", _append_call(body, "X"), Call("X"))
        else:
            main = chain(budget, None)
    else:
        main = chain(budget, None)

    init_sigma: dict[tuple[str, str], Value] = {}
    for x in procs:
        init_sigma[(x, "m0")] = f"d{x}"
        init_sigma[(x, "flag")] = Bool(rng.random() < 0.5)
    return textio.Program(
        {t.name: t for t in (_template(n) for n, _ in bindings.values())},
        bindings,
        connectors,
        init_sigma,
        {},
        normalize(main),
    )


def _append_call(c, name: str):
    if isinstance(c, Prefix):
        return Prefix(c.etas, c.connector, _append_call(c.cont, name))
    return Call(name)


# ---------------------------------------------------------------------------
# Printing


def pretty_program(prog: "textio.Program") -> str:
    parts = [textio.pretty_automaton(a) for a in prog.automata.values()]
    bind_lines = []
    for gamma, (template, subst) in prog.bindings.items():
        pairs = ", ".join(f"{subst[port]}/{port}" for port in prog.automata[template].ports)
        bind_lines.append(f"  {gamma}: {template}[{pairs}];")
    parts.append("connectors {\n" + "\n".join(bind_lines) + "\n}")
    init_lines = [
        f"  {p}.{x} = {textio.format_value(v)};"
        for (p, x), v in sorted(prog.init_sigma.items())
    ] + [
        f"  {g}.{m} = {textio.format_value(v)};"
        for (g, m), v in sorted(prog.mem_overrides.items())
    ]
    parts.append("init {\n" + "\n".join(init_lines) + "\n}")
    parts.append("main {\n" + textio.pretty_chor(prog.main, 1) + "\n}")
    return "\n\n".join(parts) + "\n"
