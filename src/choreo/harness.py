"""Reference oracles, fault injection, fixtures, exploration, and the
cross-semantics correspondence checker.

The eta-reduction oracle recomputes one-step labelled reductions of an
interaction set by brute force: it composes single-flow rule applications in
every order, subject to the read-before-write side condition on cells, and
collects every (label, result) pair.  The fast matcher in `chor_engine` is
tested against it, never the other way round.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping

from .core import (
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
    renamed_transitions,
    sorted_etas,
)
from .chor_engine import (
    Configuration,
    SortedPairs,
    freeze_store,
    eval_expr,
    initial_configuration,
    is_terminated,
    normalize,
    reductions,
)
from .cp_engine import (
    NetConfiguration,
    Network,
    cp_reductions,
    normalize_network,
    pruning_leq,
)
from .epp import project_connectors, project_network, projectable
from .lts import Search, Step, StepMemo, search
from . import textio


# ---------------------------------------------------------------------------
# Fault injection


def swap_ports(a: ConstraintAutomaton, x: str, y: str, name: "str | None" = None) -> ConstraintAutomaton:
    """Exchange two ports in every flow, keeping everything else intact."""

    swap = {x: y, y: x}
    transitions = renamed_transitions(a, lambda p: swap.get(p, p))
    return replace(a, name=name or a.name, transitions=transitions)


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
# Exhaustive exploration


def exhaustive_explore(cfg: Configuration, g: ConnectorMapping, bound: int) -> Search:
    """Breadth-first closure of the reduction relation to the given depth.
    The search keeps one `StepMemo`."""
    cfg = Configuration.make(normalize(cfg.chor), cfg.sigma_map(), cfg.astate_map())
    memo = StepMemo()
    return search(cfg, lambda c: reductions(c, g, memo), bound, lambda c: is_terminated(c))


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
# Operational correspondence


@dataclass
class CorrespondenceReport:
    gaps: list[str]
    pairs_checked: int
    truncated: bool

    @property
    def ok(self) -> bool:
        return not self.gaps


def _project_cfg(cfg: Configuration) -> Network:
    return normalize_network(project_network(normalize(cfg.chor), SortedPairs(cfg.sigma)))


# how many steps one side may take to match a single step of the other
COMPLETION_DEPTH = 3


def correspondence_check(program: "textio.Program", bound: int = 25) -> CorrespondenceReport:
    """Joint breadth-first check of the two semantics, as one search over
    (choreography, network) configuration pairs from the paired initial ones.

    Every choreography reduction of a pair must be matched by network
    reductions whose endpoint lies above the projected successor (pruning
    order, equal connector states), and every network reduction
    must be matched back by choreography reductions the same way.  Each match
    gives a successor pair; each step without one is a gap.
    """
    g = program.connectors
    pg = project_connectors(g)
    c0 = initial_configuration(program)
    # Many pairs, both directions of a pair and the completion searches ask
    # about the same states, so each choreography state is projected once and
    # each verdict is worked out once, for the whole search.  Each side keeps
    # one `StepMemo` for the search.
    projected: dict[Configuration, Network] = {c0: _project_cfg(c0)}
    verdicts: dict[tuple[Configuration, NetConfiguration], bool] = {}
    n0 = NetConfiguration.make(projected[c0], c0.astate_map())
    gaps: list[str] = []
    pairs = 0
    chor_memo, net_memo = StepMemo(), StepMemo()

    def chor_steps(c: Configuration) -> list[Step]:
        return reductions(c, g, chor_memo)

    def net_steps(n: NetConfiguration) -> list[Step]:
        return cp_reductions(n, pg, net_memo)

    def above(c: Configuration, n: NetConfiguration) -> bool:
        """Whether n lies above c's projection."""
        if c.astate != n.astate:
            return False
        v = verdicts.get((c, n))
        if v is None:
            net = projected.get(c)
            if net is None:
                net = projected[c] = _project_cfg(c)
            v = verdicts[(c, n)] = pruning_leq(net, n.net)
        return v

    def matched(start, steps: list[Step], successors, accept):
        """The first one-step successor `accept` takes, else the first state
        it takes within COMPLETION_DEPTH steps, else None.  One step on one
        side may need several on the other: commuting an interaction forward
        can require resolving an earlier one first."""
        for step in steps:
            if accept(step.config):
                return step.config
        return search(start, successors, COMPLETION_DEPTH, goal=accept).found

    def pair_steps(pair: tuple[Configuration, NetConfiguration]) -> list[Step]:
        nonlocal pairs
        pairs += 1
        cc, nc = pair
        crs, nrs = chor_steps(cc), net_steps(nc)
        out: list[Step] = []
        for cr in crs:
            n = matched(nc, nrs, net_steps, lambda n: above(cr.config, n))
            if n is None:
                gaps.append(
                    f"completeness: no network match for choreography step {_describe_step(cr)}"
                )
            else:
                out.append(cr._replace(config=(cr.config, n)))
        for nr in nrs:
            c = matched(cc, crs, chor_steps, lambda c: above(c, nr.config))
            if c is None:
                gaps.append(
                    f"soundness: no choreography match for network step {_describe_step(nr)}"
                )
            else:
                out.append(nr._replace(config=(c, nr.config)))
        return out

    truncated = search((c0, n0), pair_steps, bound).truncated
    return CorrespondenceReport(gaps, pairs, truncated)


def _describe_step(r: Step) -> str:
    if r.kind == "com":
        phi = textio.pretty_constraint(r.phi)
        return f"{r.subject}: {phi} ({r.pre_state} -> {r.post_state})"
    return f"{r.subject}: {r.branch} branch"


# ---------------------------------------------------------------------------
# Random projectable programs


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
# Fixtures


def fixture_root() -> Path:
    env = os.environ.get("CHOREO_FIXTURES")
    if env:
        return Path(env)
    return Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return fixture_root() / name


def load_program(name: str, runtime: bool = False) -> "textio.Program":
    return textio.parse_program(fixture_path(name).read_text(), runtime=runtime)


def load_automaton(name: str) -> ConstraintAutomaton:
    return textio.parse_automaton(fixture_path(name).read_text())


def load_expect(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def list_fixtures(suffix: str = ".cr") -> list[str]:
    return sorted(p.name for p in fixture_root().iterdir() if p.name.endswith(suffix))
