"""Domain model for connector-coordinated choreographies.

Values, expressions, interactions, choreography terms, flow constraints and
constraint automata, together with the structural validators that everything
downstream (parser, engines, projection) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union


class InputError(Exception):
    """A caller handed us something that violates a documented precondition."""


# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True, slots=True)
class Label:
    """A selection label treated as a first-class datum.

    Kept distinct from plain strings so that a cell holding the label `ok`
    never compares equal to a cell holding the string "ok".
    """

    name: str

    def __repr__(self) -> str:
        return f"[{self.name}]"


@dataclass(frozen=True, slots=True)
class FreshToken:
    """Opaque datum minted by the symbolic run of the compatibility checker."""

    ident: int

    def __repr__(self) -> str:
        return f"#{self.ident}"


class _Bottom:
    """Empty-cell marker; only ever lives inside memory snapshots."""

    _instance: "_Bottom | None" = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "bot"


BOT = _Bottom()

Value = Union[int, str, bool, Label, FreshToken, _Bottom]


def value_key(v: Value) -> tuple:
    """Total deterministic order on values, for canonical iteration."""
    if isinstance(v, bool):
        return (0, str(v))
    if isinstance(v, int):
        return (1, str(v))
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, Label):
        return (3, v.name)
    if isinstance(v, FreshToken):
        return (4, str(v.ident))
    return (5, "")  # BOT


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True, slots=True)
class Const:
    value: Value


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class UnOp:
    op: str
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[Const, Var, UnOp, BinOp]

UNARY_OPS = ("not",)
BINARY_OPS = ("+", "-", "=", "!=", "<", "and", "or")


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, UnOp):
        return free_vars(e.operand)
    return free_vars(e.left) | free_vars(e.right)


def expr_key(e: Expr) -> tuple:
    if isinstance(e, Const):
        return ("c", value_key(e.value))
    if isinstance(e, Var):
        return ("v", e.name)
    if isinstance(e, UnOp):
        return ("u", e.op, expr_key(e.operand))
    return ("b", e.op, expr_key(e.left), expr_key(e.right))


# ---------------------------------------------------------------------------
# Interactions
#
# Full interactions are written by the programmer; the receive halves are
# runtime terms that only appear once a value or label is in flight.


@dataclass(frozen=True, slots=True)
class ValCom:
    """sender.expr -> receiver.var: a value communication."""

    sender: str
    expr: Expr
    receiver: str
    var: str

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise InputError(f"self-communication at {self.sender}")


@dataclass(frozen=True, slots=True)
class Sel:
    """sender -> receiver [label]: a selection."""

    sender: str
    receiver: str
    label: str

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise InputError(f"self-selection at {self.sender}")


@dataclass(frozen=True, slots=True)
class RecvVal:
    """receiver.var ? value: runtime term for a value in flight."""

    receiver: str
    var: str
    value: Value


@dataclass(frozen=True, slots=True)
class RecvSel:
    """receiver ? [label]: runtime term for a label in flight."""

    receiver: str
    label: str


Interaction = Union[ValCom, Sel, RecvVal, RecvSel]


def is_runtime(eta: Interaction) -> bool:
    return isinstance(eta, (RecvVal, RecvSel))


def receiver_of(eta: Interaction) -> str:
    return eta.receiver


def sender_of(eta: Interaction) -> "str | None":
    if isinstance(eta, (ValCom, Sel)):
        return eta.sender
    return None


def pn_eta(eta: Interaction) -> frozenset[str]:
    if isinstance(eta, (ValCom, Sel)):
        return frozenset({eta.sender, eta.receiver})
    return frozenset({eta.receiver})


def pn_etas(etas: Iterable[Interaction]) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for eta in etas:
        out |= pn_eta(eta)
    return out


def eta_key(eta: Interaction) -> tuple:
    if isinstance(eta, ValCom):
        return ("v", eta.sender, eta.receiver, eta.var, expr_key(eta.expr))
    if isinstance(eta, Sel):
        return ("s", eta.sender, eta.receiver, eta.label)
    if isinstance(eta, RecvVal):
        return ("rv", eta.receiver, eta.var, value_key(eta.value))
    return ("rs", eta.receiver, eta.label)


def sorted_etas(etas: Iterable[Interaction]) -> list[Interaction]:
    return sorted(etas, key=eta_key)


def validate_interaction_set(etas: Iterable[Interaction]) -> list[str]:
    """Well-formedness of one simultaneous interaction set.

    Receivers must be pairwise distinct (across full and runtime terms), and
    each sender must send consistently: one payload kind, one expression or
    one label, no matter how many receivers it reaches.
    """
    etas = list(etas)
    problems: list[str] = []
    seen_receivers: set[str] = set()
    for eta in sorted_etas(etas):
        r = receiver_of(eta)
        if r in seen_receivers:
            problems.append(f"receiver {r} appears in more than one interaction")
        seen_receivers.add(r)
    sends: dict[str, set[tuple]] = {}
    for eta in etas:
        if isinstance(eta, ValCom):
            sends.setdefault(eta.sender, set()).add(("expr", expr_key(eta.expr)))
        elif isinstance(eta, Sel):
            sends.setdefault(eta.sender, set()).add(("label", eta.label))
    for sender in sorted(sends):
        if len(sends[sender]) > 1:
            problems.append(f"sender {sender} sends inconsistent payloads")
    return problems


def desugar_multicast(
    sender: str,
    payload: "Expr | str",
    receivers: "list[tuple[str, str]] | list[str]",
) -> frozenset[Interaction]:
    """Expand a multicast into one interaction per receiver.

    For a value payload, `receivers` is a list of (process, variable) pairs;
    for a label payload (given as a str), a list of process names.
    """
    if not receivers:
        raise InputError("multicast with no receivers")
    etas: set[Interaction] = set()
    seen: set[str] = set()
    for rcv in receivers:
        proc = rcv[0] if isinstance(rcv, tuple) else rcv
        if proc == sender:
            raise InputError(f"multicast sender {sender} among its receivers")
        if proc in seen:
            raise InputError(f"duplicate multicast receiver {proc}")
        seen.add(proc)
        if isinstance(payload, str):
            etas.add(Sel(sender, proc, payload))
        else:
            if not isinstance(rcv, tuple):
                raise InputError("value multicast needs (process, variable) receivers")
            etas.add(ValCom(sender, payload, rcv[0], rcv[1]))
    return frozenset(etas)


# ---------------------------------------------------------------------------
# Choreographies


class End:
    """Terminated choreography."""

    _instance: "End | None" = None
    normal = True  # see Prefix

    def __new__(cls) -> "End":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"

    def __hash__(self) -> int:
        return hash("chor-end")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, End)


END = End()


# Prefix, Cond and Def compute their hash once, at construction, from their
# children's cached hashes (the tuple hash of their fields, as a dataclass
# would compute it), so hashing a term costs O(1) however long it is.
# `normal` records whether the node is in normal form: no empty interaction
# set and no def whose scope has ended.  A node built from normal children
# knows this at once, which lets `chor_engine.normalize` return such a term
# as it is.  The constructors are written out because they run once per node
# of every term an engine builds.

_set = object.__setattr__  # the nodes are frozen
_UNSET = object()  # process set not computed yet


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Prefix:
    """etas thru connector; cont"""

    etas: frozenset[Interaction]
    connector: str
    cont: "Choreography"
    normal: bool = field(repr=False)
    _hash: int = field(repr=False)
    _pn: object = field(repr=False)

    def __init__(self, etas: frozenset[Interaction], connector: str, cont: "Choreography") -> None:
        _set(self, "etas", etas)
        _set(self, "connector", connector)
        _set(self, "cont", cont)
        _set(self, "normal", bool(etas) and cont.normal)
        _set(self, "_hash", hash((etas, connector, cont)))
        _set(self, "_pn", _UNSET)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Prefix:
            return NotImplemented
        a, b = self, other
        # a loop along the spine: a long chain must not exhaust the stack
        while a.__class__ is Prefix and b.__class__ is Prefix:
            if a is b:
                return True
            if a._hash != b._hash or a.connector != b.connector or a.etas != b.etas:
                return False
            a, b = a.cont, b.cont
        return a == b


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Cond:
    """if process.guard then then_branch else else_branch"""

    process: str
    guard: Expr
    then_branch: "Choreography"
    else_branch: "Choreography"
    normal: bool = field(repr=False)
    _hash: int = field(repr=False)
    _pn: object = field(repr=False)

    def __init__(
        self, process: str, guard: Expr, then_branch: "Choreography", else_branch: "Choreography"
    ) -> None:
        _set(self, "process", process)
        _set(self, "guard", guard)
        _set(self, "then_branch", then_branch)
        _set(self, "else_branch", else_branch)
        _set(self, "normal", then_branch.normal and else_branch.normal)
        _set(self, "_hash", hash((process, guard, then_branch, else_branch)))
        _set(self, "_pn", _UNSET)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Cond:
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.process == other.process
            and self.guard == other.guard
            and self.then_branch == other.then_branch
            and self.else_branch == other.else_branch
        )


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Def:
    """def name = body in cont"""

    name: str
    body: "Choreography"
    cont: "Choreography"
    normal: bool = field(repr=False)
    _hash: int = field(repr=False)

    def __init__(self, name: str, body: "Choreography", cont: "Choreography") -> None:
        _set(self, "name", name)
        _set(self, "body", body)
        _set(self, "cont", cont)
        _set(self, "normal", body.normal and cont.normal and cont is not END)
        _set(self, "_hash", hash((name, body, cont)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Def:
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.name == other.name
            and self.body == other.body
            and self.cont == other.cont
        )


@dataclass(frozen=True, slots=True)
class Call:
    name: str
    normal = True  # a class attribute, not a field; see Prefix


Choreography = Union[Prefix, Cond, Def, Call, End]


def known_pn(c: Choreography) -> "frozenset[str] | None":
    """Processes occurring in c, or None when c holds a Call or a Def:
    unfolding a call can bring any process to the head.

    Computed on first request and cached on each Prefix and Cond, walking a
    Prefix spine in a loop down to the first node that already knows its set.
    """
    spine: list[Prefix] = []
    while isinstance(c, Prefix) and c._pn is _UNSET:
        spine.append(c)
        c = c.cont
    if isinstance(c, (Prefix, Cond)) and c._pn is not _UNSET:
        procs = c._pn
    elif isinstance(c, Cond):
        then, other = known_pn(c.then_branch), known_pn(c.else_branch)
        procs = None if then is None or other is None else then | other | {c.process}
        _set(c, "_pn", procs)
    elif isinstance(c, End):
        procs = frozenset()
    else:
        procs = None  # Call, Def
    for p in reversed(spine):
        if procs is not None:
            own = pn_etas(p.etas)
            if not own <= procs:
                procs = procs | own
        _set(p, "_pn", procs)
    return procs


def pn(c: Choreography) -> frozenset[str]:
    """Process names occurring anywhere in c, conditional guards included."""
    if isinstance(c, End):
        return frozenset()
    if isinstance(c, Call):
        return frozenset()
    if isinstance(c, Prefix):
        return pn_etas(c.etas) | pn(c.cont)
    if isinstance(c, Cond):
        return frozenset({c.process}) | pn(c.then_branch) | pn(c.else_branch)
    return pn(c.body) | pn(c.cont)


def connectors_of(c: Choreography) -> frozenset[str]:
    if isinstance(c, Prefix):
        return frozenset({c.connector}) | connectors_of(c.cont)
    if isinstance(c, Cond):
        return connectors_of(c.then_branch) | connectors_of(c.else_branch)
    if isinstance(c, Def):
        return connectors_of(c.body) | connectors_of(c.cont)
    return frozenset()


def check_closed(c: Choreography, bound: frozenset[str] = frozenset()) -> list[str]:
    """Every Call must sit in the scope of a matching Def."""
    if isinstance(c, Call):
        return [] if c.name in bound else [f"call of undefined procedure {c.name}"]
    if isinstance(c, Prefix):
        return check_closed(c.cont, bound)
    if isinstance(c, Cond):
        return check_closed(c.then_branch, bound) + check_closed(c.else_branch, bound)
    if isinstance(c, Def):
        inner = bound | {c.name}
        return check_closed(c.body, inner) + check_closed(c.cont, inner)
    return []


def chor_key(c: Choreography) -> tuple:
    if isinstance(c, End):
        return ("0",)
    if isinstance(c, Call):
        return ("x", c.name)
    if isinstance(c, Prefix):
        return ("p", c.connector, tuple(eta_key(e) for e in sorted_etas(c.etas)), chor_key(c.cont))
    if isinstance(c, Cond):
        return ("c", c.process, expr_key(c.guard), chor_key(c.then_branch), chor_key(c.else_branch))
    return ("d", c.name, chor_key(c.body), chor_key(c.cont))


# ---------------------------------------------------------------------------
# Flow constraints and constraint automata


@dataclass(frozen=True, slots=True)
class Port:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Mem:
    name: str

    def __repr__(self) -> str:
        return self.name


FlowEnd = Union[Port, Mem]


@dataclass(frozen=True, slots=True)
class Flow:
    """src > dst: one datum moves from src to dst when the constraint fires."""

    src: FlowEnd
    dst: FlowEnd


def flow_key(f: Flow) -> tuple:
    def end_key(e: FlowEnd) -> tuple:
        return (0 if isinstance(e, Port) else 1, e.name)

    return (end_key(f.src), end_key(f.dst))


@dataclass(frozen=True, slots=True)
class Constraint:
    """A set of flows fired together in one synchronous step."""

    flows: frozenset[Flow]

    @staticmethod
    def of(*flows: Flow) -> "Constraint":
        return Constraint(frozenset(flows))

    def sorted_flows(self) -> list[Flow]:
        return sorted(self.flows, key=flow_key)

    def ports_used(self) -> frozenset[str]:
        out: set[str] = set()
        for f in self.flows:
            for e in (f.src, f.dst):
                if isinstance(e, Port):
                    out.add(e.name)
        return frozenset(out)

    def cells_used(self) -> frozenset[str]:
        out: set[str] = set()
        for f in self.flows:
            for e in (f.src, f.dst):
                if isinstance(e, Mem):
                    out.add(e.name)
        return frozenset(out)

    def targets(self) -> list[FlowEnd]:
        return [f.dst for f in self.flows]


def constraint_key(phi: Constraint) -> tuple:
    return tuple(flow_key(f) for f in phi.sorted_flows())


MemorySnapshot = Mapping[str, Value]


@dataclass(frozen=True, slots=True)
class Transition:
    src: str
    phi: Constraint
    dst: str


@dataclass(frozen=True, slots=True)
class ConstraintAutomaton:
    """States, ports, memory cells, labelled transitions, and initial data.

    `transitions` keeps declaration order; that order is the tie-breaker for
    every deterministic scheduler downstream.
    """

    name: str
    states: tuple[str, ...]
    ports: tuple[str, ...]
    mems: tuple[str, ...]
    transitions: tuple[Transition, ...]
    init_state: str
    init_mem: tuple[tuple[str, Value], ...]

    @staticmethod
    def make(
        name: str,
        states: Iterable[str],
        ports: Iterable[str],
        mems: Iterable[str],
        transitions: Iterable[Transition],
        init_state: str,
        init_mem: "Mapping[str, Value] | None" = None,
    ) -> "ConstraintAutomaton":
        mems = tuple(mems)
        given = dict(init_mem or {})
        cells = tuple((m, given.get(m, BOT)) for m in mems)
        return ConstraintAutomaton(
            name, tuple(states), tuple(ports), mems, tuple(transitions), init_state, cells
        )

    def init_mem_map(self) -> dict[str, Value]:
        return dict(self.init_mem)

    def outgoing(self, state: str) -> list[Transition]:
        return [t for t in self.transitions if t.src == state]


def validate_automaton(a: ConstraintAutomaton) -> list[str]:
    """All structural well-formedness checks, reported together.

    Checks referential closure, the single-role restriction on ports (each
    port is only ever a flow source, or only ever a flow target, across the
    whole automaton), determinism on the used port sets, and pairwise-distinct
    targets inside every constraint.
    """
    problems: list[str] = []
    states = set(a.states)
    ports = set(a.ports)
    mems = set(a.mems)

    if a.init_state not in states:
        problems.append(f"initial state {a.init_state} is not a declared state")
    init_cells = {m for m, _ in a.init_mem}
    if init_cells != mems:
        problems.append("initial memory does not cover exactly the declared cells")

    as_source: set[str] = set()
    as_target: set[str] = set()
    for i, t in enumerate(a.transitions):
        where = f"transition {i} ({t.src} -> {t.dst})"
        if t.src not in states:
            problems.append(f"{where}: unknown source state {t.src}")
        if t.dst not in states:
            problems.append(f"{where}: unknown target state {t.dst}")
        if not t.phi.flows:
            problems.append(f"{where}: empty flow constraint")
        seen_targets: set[tuple] = set()
        for f in t.phi.sorted_flows():
            for e in (f.src, f.dst):
                if isinstance(e, Port) and e.name not in ports:
                    problems.append(f"{where}: unknown port {e.name}")
                if isinstance(e, Mem) and e.name not in mems:
                    problems.append(f"{where}: unknown cell {e.name}")
            if isinstance(f.src, Port):
                as_source.add(f.src.name)
            if isinstance(f.dst, Port):
                as_target.add(f.dst.name)
            tkey = (isinstance(f.dst, Mem), f.dst.name)
            if tkey in seen_targets:
                problems.append(f"{where}: target {f.dst.name} written twice")
            seen_targets.add(tkey)

    for p in sorted(as_source & as_target):
        problems.append(f"port {p} is used both as a source and as a target")

    by_state: dict[str, list[Transition]] = {}
    for t in a.transitions:
        by_state.setdefault(t.src, []).append(t)
    for s in sorted(by_state):
        outs = by_state[s]
        seen_port_sets: dict[frozenset[str], Transition] = {}
        for t in outs:
            used = t.phi.ports_used()
            if used in seen_port_sets:
                problems.append(
                    f"state {s}: two transitions use the same port set "
                    f"{{{', '.join(sorted(used))}}}"
                )
            else:
                seen_port_sets[used] = t
    return problems


def instantiate(
    a: ConstraintAutomaton, subst: Mapping[str, str], name: "str | None" = None
) -> ConstraintAutomaton:
    """Rename formal ports to process names; `subst` must be a bijection
    from the automaton's full port set."""
    if set(subst) != set(a.ports):
        raise InputError(
            f"binding for {a.name} must cover exactly ports {{{', '.join(a.ports)}}}"
        )
    if len(set(subst.values())) != len(subst):
        raise InputError(f"binding for {a.name} maps two ports to the same process")

    def ren(e: FlowEnd) -> FlowEnd:
        if isinstance(e, Port):
            return Port(subst[e.name])
        return e

    transitions = tuple(
        Transition(t.src, Constraint(frozenset(Flow(ren(f.src), ren(f.dst)) for f in t.phi.flows)), t.dst)
        for t in a.transitions
    )
    return ConstraintAutomaton(
        name if name is not None else a.name,
        a.states,
        tuple(subst[p] for p in a.ports),
        a.mems,
        transitions,
        a.init_state,
        a.init_mem,
    )


ConnectorMapping = Mapping[str, ConstraintAutomaton]
