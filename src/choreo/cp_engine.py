"""Execution of process networks against the same connector automata.

A network maps process names to a local store and a behaviour.  Transitions
are matched port-wise: every output port occurring in a flow constraint must
be the next action of its owning process, and that single action serves all
flows leaving the port, so one send can feed several receivers or cells at
once.  Cell reads see the pre-state, mirroring the choreography matcher.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, Mapping

from .core import (
    BOT,
    Bool,
    ConnectorMapping,
    Constraint,
    Flow,
    InputError,
    Label,
    Mem,
    Port,
    Value,
)
from .chor_engine import (
    EvalError,
    SortedPairs,
    evaluate,
    fire,
    freeze_astate,
    freeze_store,
    mem_cycle,
    write_sorted,
)
from . import lts
from .lts import FAIL_PORTS, FAIL_VALUE, Outcome, RunResult, Step, StuckReport
from .epp import (
    BCall,
    BCond,
    BDef,
    BEND,
    BEnd,
    Behaviour,
    Branch,
    PortName,
    Recv,
    SelSend,
    Send,
    same_head,
)


def _store_eval(e, store: Mapping[str, Value]) -> Value:
    def get(name: str) -> Value:
        try:
            return store[name]
        except KeyError:
            raise EvalError(f"unbound variable {name}") from None

    return evaluate(e, get)


# ---------------------------------------------------------------------------
# Networks


_set = object.__setattr__  # for the frozen Network and NetConfiguration


@dataclass(frozen=True, slots=True)
class Network:
    """Finite map from process names to (store, behaviour), canonically ordered.

    `normal` records that no process has finished and every behaviour is
    normal (`normalize_network`).  It is not part of the value, and only this
    module sets it: a step on what it builds from a normal network, and
    `normalize_network` on a network it has checked."""

    procs: tuple
    normal: bool = field(default=False, init=False, repr=False, compare=False)

    @staticmethod
    def make(mapping: Mapping[str, tuple[Mapping[str, Value], Behaviour]]) -> "Network":
        items = tuple(
            sorted((q, freeze_store(store), b) for q, (store, b) in mapping.items())
        )
        return Network(items)

    def proc_map(self) -> dict[str, tuple[dict[str, Value], Behaviour]]:
        return {q: (dict(store), b) for q, store, b in self.procs}

    def names(self) -> list[str]:
        return [q for q, _, _ in self.procs]


@dataclass(frozen=True, slots=True, eq=False, init=False)
class NetConfiguration:
    """A network plus the current state and memory of every connector.

    The hash is the tuple hash of the two fields, worked out on first use
    and kept.  A run without a seed and a projection never hash their
    configurations."""

    net: Network
    astate: tuple
    _hash: "int | None" = field(init=False, repr=False)

    def __init__(self, net: Network, astate: tuple) -> None:
        _set(self, "net", net)
        _set(self, "astate", astate)
        _set(self, "_hash", None)

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash((self.net, self.astate)))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not NetConfiguration:
            return NotImplemented
        return self is other or (
            hash(self) == hash(other)
            and self.net == other.net
            and self.astate == other.astate
        )

    @staticmethod
    def make(
        net: Network, astate: Mapping[str, tuple[str, Mapping[str, Value]]]
    ) -> "NetConfiguration":
        return NetConfiguration(net, freeze_astate(astate))

    def astate_map(self) -> dict[str, tuple[str, dict[str, Value]]]:
        return {g: (s, dict(cells)) for g, (s, cells) in self.astate}


@dataclass
class CpProgram:
    """A parsed network file: connectors plus the initial configuration."""

    automata: dict
    init: NetConfiguration


# ---------------------------------------------------------------------------
# Behaviour normalisation and head focusing


def normalize_behaviour(b: Behaviour) -> Behaviour:
    """Collapse definitions whose scope has ended.

    A behaviour whose `normal` flag is set comes back as it is.  Otherwise
    only the part above its first normal node is rebuilt, in a loop along the
    action spine."""
    if b.normal:
        return b
    spine = []
    while isinstance(b, (Send, Recv, SelSend)):
        spine.append(b)
        b = b.cont
    if isinstance(b, Branch):
        b = Branch(b.port, tuple((l, normalize_behaviour(c)) for l, c in b.cases))
    elif isinstance(b, BCond):
        b = BCond(
            b.guard,
            normalize_behaviour(b.then_branch),
            normalize_behaviour(b.else_branch),
        )
    elif isinstance(b, BDef):
        cont = normalize_behaviour(b.cont)
        b = BEND if cont is BEND else BDef(b.name, normalize_behaviour(b.body), cont)
    for a in reversed(spine):
        b = a.with_cont(b)
    return b


def normalize_network(net: Network) -> Network:
    """Drop finished processes and collapse definitions over finished bodies.
    A network whose behaviours are all normal and unfinished comes back as it
    is: at once if it is marked normal, else after one scan that marks it."""
    if net.normal:
        return net
    if all(b.normal and b is not BEND for _, _, b in net.procs):
        _set(net, "normal", True)
        return net
    out = []
    for q, store, b in net.procs:
        nb = normalize_behaviour(b)
        if nb is not BEND:
            out.append((q, store, nb))
    net = Network(tuple(out))
    _set(net, "normal", True)
    return net


@dataclass
class Focus:
    """The first action of a behaviour and a function rebuilding the whole
    behaviour (with any definitions unfolded on the way) around a replacement
    for that action."""

    action: Behaviour
    rebuild: Callable[[Behaviour], Behaviour]


def head_focus(b: Behaviour) -> "Focus | None":
    return _focus(b, {}, frozenset())


def _identity(b: Behaviour) -> Behaviour:
    return b


def _focus(b: Behaviour, env: dict, unfolded: frozenset) -> "Focus | None":
    if isinstance(b, BEnd):
        return None
    if isinstance(b, BDef):
        env2 = dict(env)
        env2[b.name] = b.body
        inner = _focus(b.cont, env2, unfolded)
        if inner is None:
            return None
        rb = inner.rebuild
        return Focus(inner.action, lambda x, b=b, rb=rb: BDef(b.name, b.body, rb(x)))
    if isinstance(b, BCall):
        if b.name in env and b.name not in unfolded:
            return _focus(env[b.name], env, unfolded | {b.name})
        return None
    return Focus(b, _identity)


# A step reads a process's first action, and rebuilds the process around
# what replaces it.  A behaviour rooted at anything but a def or a call is its
# own first action, and normalizing the replacement rebuilds it.  One rooted
# at a def or a call unfolds on the way: its focus, and each normal behaviour
# rebuilt from it, are worked out once per run or search and kept in its
# `StepMemo`, as a recursive procedure comes back to them round after round.


def _def_head(memo: lts.StepMemo, b: Behaviour) -> "Focus | None":
    """head_focus(b), once per memo, with a rebuild that normalizes what it
    builds, once per replacement."""
    try:
        return memo[b]
    except KeyError:
        focus = head_focus(b)
        if focus is not None:
            focus = Focus(focus.action, lts.rebuilt_once(focus.rebuild, normalize_behaviour))
        memo[b] = focus
        return focus


# ---------------------------------------------------------------------------
# Transition matching


@dataclass(frozen=True, slots=True)
class _PortPlan:
    """A constraint's flows by owning process, in flow order."""

    senders: tuple  # (process, output port, cells it writes)
    receivers: tuple  # (process, input port, sending process or None, cell read or None)
    moves: tuple  # (source cell, target cell)


def _owner_ports(phi: Constraint) -> "_PortPlan | str":
    """Classify phi's flow endpoints by owning process.  Gives FAIL_PORTS
    when no network can fire phi: a port of the wrong direction, two flows
    into one process, a process on both sides, a process sending through two
    ports, or cell moves that no order can serve."""
    out_flows: dict[str, list[Flow]] = {}
    in_flow: dict[str, Flow] = {}
    mm: list[Flow] = []
    for f in phi.sorted_flows():
        src_pn = PortName.parse(f.src.name) if isinstance(f.src, Port) else None
        dst_pn = PortName.parse(f.dst.name) if isinstance(f.dst, Port) else None
        if src_pn is not None and src_pn.direction != "o":
            return FAIL_PORTS
        if dst_pn is not None and dst_pn.direction != "i":
            return FAIL_PORTS
        if src_pn is not None:
            out_flows.setdefault(src_pn.process, []).append(f)
        if dst_pn is not None:
            if dst_pn.process in in_flow:
                return FAIL_PORTS
            in_flow[dst_pn.process] = f
        if isinstance(f.src, Mem) and isinstance(f.dst, Mem):
            mm.append(f)
    if set(out_flows) & set(in_flow) or mem_cycle(mm):
        return FAIL_PORTS
    senders = []
    for p, flows in out_flows.items():
        port = flows[0].src.name
        if any(f.src.name != port for f in flows):
            return FAIL_PORTS
        cells = tuple(f.dst.name for f in flows if isinstance(f.dst, Mem))
        senders.append((p, PortName.parse(port), cells))
    receivers = []
    for q, f in in_flow.items():
        sender = PortName.parse(f.src.name).process if isinstance(f.src, Port) else None
        cell = f.src.name if isinstance(f.src, Mem) else None
        receivers.append((q, PortName.parse(f.dst.name), sender, cell))
    moves = tuple((f.src.name, f.dst.name) for f in mm)
    return _PortPlan(tuple(senders), tuple(receivers), moves)


def _port_plan(phi: Constraint) -> "_PortPlan | str":
    """phi's classification, worked out once and kept on phi."""
    plan = phi.port_plan
    if plan is None:
        plan = _owner_ports(phi)
        object.__setattr__(phi, "port_plan", plan)
    return plan


def _owner(procs: tuple, q: str, memo: lts.StepMemo) -> "tuple[int, Behaviour, Callable] | None":
    """Where process q sits in a network's process tuple, its first action,
    and what gives its normal behaviour around a replacement for it."""
    i = bisect_left(procs, q, key=itemgetter(0))
    if i == len(procs) or procs[i][0] != q:
        return None
    b = procs[i][2]
    if b.__class__ is BDef or b.__class__ is BCall:
        focus = _def_head(memo, b)
        return None if focus is None else (i, focus.action, focus.rebuild)
    return (i, b, normalize_behaviour)


def cp_match_transition(
    net: Network, phi: Constraint, mu: Mapping[str, Value], memo: "lts.StepMemo | None" = None
):
    """Fire phi against the network.  Returns (net', mu writes) or a failure
    stage string ('ports' for shape, 'value' for a datum premise).  Only the
    processes that own a port of phi are read, and the new network is built
    only when phi fires.  Each process phi moves is normalized, and dropped
    if it finishes, so net' is marked normal when net is.  What the match
    works out about a behaviour under a def is kept in memo."""
    plan = _port_plan(phi)
    if plan is FAIL_PORTS:
        return FAIL_PORTS
    if memo is None:
        memo = lts.StepMemo()
    procs = net.procs
    heads: dict[str, tuple[int, Behaviour, Callable]] = {}

    # shape: senders first
    out_label: dict[str, "str | None"] = {}
    for p, port, _cells in plan.senders:
        head = heads[p] = _owner(procs, p, memo)
        if head is None:
            return FAIL_PORTS
        action = head[1]
        if isinstance(action, Send) and action.port == port:
            out_label[p] = None
        elif isinstance(action, SelSend) and action.port == port:
            out_label[p] = action.label
        else:
            return FAIL_PORTS
    for q, port, sender, _cell in plan.receivers:
        head = heads[q] = _owner(procs, q, memo)
        if head is None:
            return FAIL_PORTS
        action = head[1]
        if sender is None:  # from a cell
            ok = isinstance(action, (Recv, Branch)) and action.port == port
        elif out_label[sender] is None:
            ok = isinstance(action, Recv) and action.port == port
        else:
            ok = (
                isinstance(action, Branch)
                and action.port == port
                and out_label[sender] in action.case_map()
            )
        if not ok:
            return FAIL_PORTS

    # data premises, all against the pre-state
    for src, _dst in plan.moves:
        if mu[src] is BOT:
            return FAIL_VALUE
    for q, _port, _sender, cell in plan.receivers:
        if cell is not None:
            stored = mu[cell]
            if stored is BOT:
                return FAIL_VALUE
            action = heads[q][1]
            if isinstance(action, Branch):
                if not (
                    isinstance(stored, Label) and stored.name in action.case_map()
                ):
                    return FAIL_VALUE

    # effects
    out_value: dict[str, Value] = {}
    for p, _port, _cells in plan.senders:
        i, action, _ = heads[p]
        if isinstance(action, Send):
            out_value[p] = _store_eval(action.expr, SortedPairs(procs[i][1]))
        else:
            out_value[p] = Label(action.label)
    mu_writes: dict[str, Value] = {dst: mu[src] for src, dst in plan.moves}
    new = list(procs)
    finished: list[int] = []
    for p, _port, cells in plan.senders:
        for m in cells:
            mu_writes[m] = out_value[p]
        i, action, rebuild = heads[p]
        b = rebuild(action.cont)  # type: ignore[union-attr]
        new[i] = (p, procs[i][1], b)
        if b is BEND:
            finished.append(i)
    for q, _port, sender, cell in plan.receivers:
        delivered = out_value[sender] if sender is not None else mu[cell]
        i, action, rebuild = heads[q]
        store = procs[i][1]
        if isinstance(action, Recv):
            store = write_sorted(store, {action.var: delivered})
            b = rebuild(action.cont)
        else:
            assert isinstance(action, Branch) and isinstance(delivered, Label)
            b = rebuild(action.case_map()[delivered.name])
        new[i] = (q, store, b)
        if b is BEND:
            finished.append(i)
    for i in sorted(finished, reverse=True):
        del new[i]
    net2 = Network(tuple(new))
    if net.normal:
        _set(net2, "normal", True)
    return (net2, mu_writes)


# ---------------------------------------------------------------------------
# Reductions and runs


def cp_iter_reductions(
    cfg: NetConfiguration, automata: ConnectorMapping, memo: "lts.StepMemo | None" = None
) -> Iterator[Step]:
    """Every reduction of cfg, built as it is asked for: communications
    connector by connector, then conditionals process by process, each in
    name order.  A successor shares everything the step leaves alone with
    cfg, and its network is normal: the step normalizes only the processes
    it moves.  A run or search passes its memo (`StepMemo`); without one,
    the call keeps its own."""
    if memo is None:
        memo = lts.StepMemo()
    net, astate = normalize_network(cfg.net), cfg.astate
    procs = net.procs
    seen = lts.Seen()
    for k, (g, (state, cells)) in enumerate(astate):
        if g not in automata:
            raise InputError(f"no automaton for connector {g}")
        mu = SortedPairs(cells)
        for t in automata[g].outgoing(state):
            m = cp_match_transition(net, t.phi, mu, memo)
            if isinstance(m, str):
                continue
            net2, mu_writes = m
            succ = NetConfiguration(net2, fire(astate, k, t.dst, mu_writes))
            if seen.add(("com", g, t.phi, succ)):
                yield Step("com", g, t.phi, None, state, t.dst, succ)
    for i, (q, store, b) in enumerate(procs):
        action, rebuild = b, normalize_behaviour
        if b.__class__ is BDef or b.__class__ is BCall:
            focus = _def_head(memo, b)
            if focus is None:
                continue
            action, rebuild = focus.action, focus.rebuild
        if action.__class__ is not BCond:
            continue
        v = _store_eval(action.guard, SortedPairs(store))
        if not isinstance(v, Bool):
            raise EvalError(f"guard at {q} is not a boolean: {v!r}")
        chosen = action.then_branch if v else action.else_branch
        nb = rebuild(chosen)
        rewritten = () if nb is BEND else ((q, store, nb),)
        net2 = Network(procs[:i] + rewritten + procs[i + 1 :])
        _set(net2, "normal", True)
        succ = NetConfiguration(net2, astate)
        if seen.add(("cond", q, action.guard, v, succ)):
            yield Step("cond", q, None, "then" if v else "else", None, None, succ)


def cp_reductions(
    cfg: NetConfiguration, automata: ConnectorMapping, memo: "lts.StepMemo | None" = None
) -> list[Step]:
    """Every reduction of cfg (`cp_iter_reductions`), as a list."""
    return list(cp_iter_reductions(cfg, automata, memo))


def cp_terminated(cfg: NetConfiguration) -> bool:
    return not normalize_network(cfg.net).procs


def cp_run(
    cfg: NetConfiguration,
    automata: ConnectorMapping,
    max_steps: int = 1000,
    rng: "random.Random | None" = None,
) -> RunResult:
    """Drive one execution of the network (`lts.run`).  Without an rng it
    builds only the successor it takes.  The run keeps one `StepMemo`."""
    memo = lts.StepMemo()
    return lts.run(
        cfg,
        lambda c: cp_iter_reductions(c, automata, memo),
        lambda c: cp_terminated(c),
        max_steps,
        rng,
    )


def cp_report_stuck(cfg: NetConfiguration, automata: ConnectorMapping) -> StuckReport:
    """Explain why no reduction exists: every failed transition of every
    connector, connectors in name order."""
    from .textio import pretty_constraint  # lazy import to avoid a module cycle

    failures: list[tuple[str, str]] = []
    for g, (state, cells) in cfg.astate:
        for t in automata[g].outgoing(state):
            m = cp_match_transition(cfg.net, t.phi, SortedPairs(cells))
            if isinstance(m, str):
                failures.append((f"{g} at state {state}: {pretty_constraint(t.phi)}", m))
    return lts.stuck_report(failures, "no outgoing transitions in any connector state")


# ---------------------------------------------------------------------------
# Runtime ordering (pruning) and equivalence


def behaviour_leq(b1: Behaviour, b2: Behaviour) -> bool:
    """b1 is b2 with some unused branch alternatives removed, compared up to
    unfolding of definitions.  Procedure names are resolved dynamically along
    the walk, which is sound for the uniquely named behaviours produced here."""
    return _bleq(b1, {}, b2, {}, set())


def _env_key(env: dict) -> tuple:
    return tuple(sorted((name, id(body)) for name, body in env.items()))


def _bleq(b1, env1: dict, b2, env2: dict, seen: set) -> bool:
    # a loop along action spines, and into the last case of a branch or
    # conditional: a long behaviour must not exhaust the stack.  `seen` holds
    # the pairs already assumed related, by object identity: all the objects
    # stay alive for the walk, so their ids stay unique.
    key1, key2 = _env_key(env1), _env_key(env2)
    while True:
        # a behaviour unfolds as itself: projection hands a successor the
        # very tails the network is stepping through, so this ends most walks
        if b1 is b2 and key1 == key2:
            return True
        key = (id(b1), key1, id(b2), key2)
        if key in seen:
            return True
        seen.add(key)
        if isinstance(b1, BDef):
            env1 = dict(env1)
            env1[b1.name] = b1.body
            key1 = _env_key(env1)
            b1 = b1.cont
        elif isinstance(b2, BDef):
            env2 = dict(env2)
            env2[b2.name] = b2.body
            key2 = _env_key(env2)
            b2 = b2.cont
        elif isinstance(b1, BCall) and b1.name in env1:
            b1 = env1[b1.name]
        elif isinstance(b2, BCall) and b2.name in env2:
            b2 = env2[b2.name]
        elif isinstance(b1, BCall) or isinstance(b2, BCall):
            return isinstance(b1, BCall) and isinstance(b2, BCall) and b1.name == b2.name
        elif isinstance(b1, BEnd):
            return isinstance(b2, BEnd)
        elif isinstance(b1, (Send, Recv, SelSend)):
            if not (b2.__class__ is b1.__class__ and same_head(b1, b2)):
                return False
            b1, b2 = b1.cont, b2.cont
        elif isinstance(b1, Branch):
            if not (isinstance(b2, Branch) and b1.port == b2.port):
                return False
            cases2 = b2.case_map()
            if any(label not in cases2 for label, _ in b1.cases):
                return False
            for label, c1 in b1.cases[:-1]:
                if not _bleq(c1, env1, cases2[label], env2, seen):
                    return False
            if not b1.cases:
                return True
            label, b1 = b1.cases[-1]
            b2 = cases2[label]
        elif isinstance(b1, BCond):
            if not (isinstance(b2, BCond) and b1.guard == b2.guard):
                return False
            if not _bleq(b1.then_branch, env1, b2.then_branch, env2, seen):
                return False
            b1, b2 = b1.else_branch, b2.else_branch
        else:
            return False


def pruning_leq(n1: Network, n2: Network) -> bool:
    """n1 is below n2 when every process of n1 appears in n2 with an equal
    store and a behaviour that extends it by unused branches only.  n2 may
    carry extra processes; those are the ones n1 has already finished or
    never needed."""
    m2 = {q: (store, b) for q, store, b in normalize_network(n2).procs}
    for q, store1, b1 in normalize_network(n1).procs:
        if q not in m2:
            return False
        store2, b2 = m2[q]
        if store1 != store2:
            return False
        if not behaviour_leq(b1, b2):
            return False
    return True
