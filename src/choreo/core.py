"""Domain model for connector-coordinated choreographies.

Values, expressions, interactions, choreography terms, flow constraints and
constraint automata, together with the structural validators that everything
downstream (parser, engines, projection) relies on.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
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
    """Opaque datum of the compatibility checker's symbolic run: the n-th
    datum `sender` has sent on the path that made it, printed `#sender.n`."""

    sender: str
    n: int

    def __repr__(self) -> str:
        return f"#{self.sender}.{self.n}"


class Bool:
    """A boolean value: TRUE or FALSE.  Not an int, so TRUE != 1, and a
    store, term or state holding true never equals one holding 1.  A truth
    test reads it as the boolean it stands for.  The hash is a constant, the
    same in every process."""

    __slots__ = ("_flag",)

    def __new__(cls, flag: object) -> "Bool":
        return TRUE if flag else FALSE

    def __bool__(self) -> bool:
        return self._flag

    def __hash__(self) -> int:
        return 0x7B001 if self._flag else 0x7B000

    def __repr__(self) -> str:
        return "true" if self._flag else "false"


TRUE, FALSE = object.__new__(Bool), object.__new__(Bool)
object.__setattr__(TRUE, "_flag", True)
object.__setattr__(FALSE, "_flag", False)


class _Bottom:
    """Empty-cell marker; only ever lives inside memory snapshots.  The hash
    is a constant, the same in every process."""

    _instance: "_Bottom | None" = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __hash__(self) -> int:
        return 0x7B0B0

    def __repr__(self) -> str:
        return "bot"


BOT = _Bottom()

Value = Union[int, str, Bool, Label, FreshToken, _Bottom]


def check_value(v: object) -> None:
    """Reject a Python bool where a value is due: True == 1, so it would
    pass for the int 1.  Booleans are TRUE and FALSE."""
    if isinstance(v, bool):
        raise InputError(f"{v!r} is a Python bool; a boolean value is TRUE or FALSE")


def value_key(v: Value) -> tuple:
    """Total deterministic order on values, for canonical iteration."""
    if isinstance(v, Bool):
        return (0, str(v))
    if isinstance(v, int):
        return (1, str(v))
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, Label):
        return (3, v.name)
    if isinstance(v, FreshToken):
        return (4, repr(v))
    return (5, "")  # BOT


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True, slots=True)
class Const:
    value: Value

    def __post_init__(self) -> None:
        check_value(self.value)


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
        r = eta.receiver
        if r in seen_receivers:
            problems.append(f"receiver {r} appears in more than one interaction")
        seen_receivers.add(r)
    sends: dict[str, set[object]] = {}
    for eta in etas:
        if isinstance(eta, ValCom):
            sends.setdefault(eta.sender, set()).add(eta.expr)
        elif isinstance(eta, Sel):
            sends.setdefault(eta.sender, set()).add(Label(eta.label))
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
    procs = calls = conns = frozenset()
    size = 1

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


_set = object.__setattr__  # the nodes are frozen


class _Ref(weakref.ref):
    __slots__ = ("key",)


class Interned:
    """Base of the hash-consed term nodes (Filliâtre and Conchon, "Type-safe
    modular hash-consing", 2006): building a node looks its fields up in its
    class's weak table and returns the live node that holds them, if there is
    one.  So equal terms are one object, and equality is identity.  In the
    lookup a child compares by identity, as it is interned itself (or an
    End or Call, which compare by value), and a literal by plain `==`, which
    is type-strict (see Bool).  The table holds a node weakly, so a node is
    freed once no term holds it.

    A subclass sets its fields, and what it knows about itself, in `_build`,
    which runs once per distinct live node.  The hash is the tuple hash of
    the fields, as a dataclass would compute it, so it is the same whether a
    node is built or found, and set orders do not depend on sharing."""

    __slots__ = ("__weakref__", "_hash")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table: dict[tuple, _Ref] = {}

        def forget(ref: _Ref) -> None:
            # a node built since under the same key has its own entry
            if table.get(ref.key) is ref:
                del table[ref.key]

        cls._table, cls._forget = table, staticmethod(forget)

    def __new__(cls, *fields):
        ref = cls._table.get(fields)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            _set(node, "_hash", hash(fields))
            node._build(*fields)
            ref = _Ref(node, cls._forget)
            ref.key = fields
            cls._table[fields] = ref
        return node

    def __hash__(self) -> int:
        return self._hash


# Prefix, Cond and Def compute four syntactic facts once, when they are
# built, from their children's, so reading any of them costs O(1) however
# long the term is:
#   `procs`  the processes the term names, conditional guards included;
#   `calls`  its free procedure calls (a def removes its own name);
#   `conns`  the connectors its interactions go through;
#   `size`   the compatibility checker's termination metric: 2 for each full
#            interaction, 1 for each runtime receive term, and 1 for each
#            End, Call, Cond and Def.
# A set that a child's already holds is shared, not copied, so on a chain or a
# loop most nodes allocate none, and an equal term is the same node with the
# same sets.  `normal` records whether the node is in normal form: no empty
# interaction set and no def whose scope has ended.  A node built from normal
# children knows this at once, which lets `chor_engine.normalize` return such
# a term as it is.
#
# `_proj` is the map from a process to its projected behaviour, which
# `epp.project_behaviour` makes and fills.  It starts as None rather than {}:
# most nodes an engine builds are never projected.


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, sharing an operand that already holds the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Prefix(Interned):
    """etas thru connector; cont"""

    etas: frozenset[Interaction]
    connector: str
    cont: "Choreography"
    normal: bool = field(repr=False)
    procs: frozenset[str] = field(repr=False)
    calls: frozenset[str] = field(repr=False)
    conns: frozenset[str] = field(repr=False)
    size: int = field(repr=False)
    _proj: "dict | None" = field(repr=False)

    def _build(self, etas: frozenset[Interaction], connector: str, cont: "Choreography") -> None:
        _set(self, "etas", etas)
        _set(self, "connector", connector)
        _set(self, "cont", cont)
        _set(self, "normal", bool(etas) and cont.normal)
        _set(self, "procs", _union(cont.procs, pn_etas(etas)))
        _set(self, "calls", cont.calls)
        conns = cont.conns
        _set(self, "conns", conns if connector in conns else conns | {connector})
        own_size = sum(1 if isinstance(e, (RecvVal, RecvSel)) else 2 for e in etas)
        _set(self, "size", cont.size + own_size)
        _set(self, "_proj", None)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Cond(Interned):
    """if process.guard then then_branch else else_branch"""

    process: str
    guard: Expr
    then_branch: "Choreography"
    else_branch: "Choreography"
    normal: bool = field(repr=False)
    procs: frozenset[str] = field(repr=False)
    calls: frozenset[str] = field(repr=False)
    conns: frozenset[str] = field(repr=False)
    size: int = field(repr=False)
    _proj: "dict | None" = field(repr=False)

    def _build(
        self, process: str, guard: Expr, then_branch: "Choreography", else_branch: "Choreography"
    ) -> None:
        _set(self, "process", process)
        _set(self, "guard", guard)
        _set(self, "then_branch", then_branch)
        _set(self, "else_branch", else_branch)
        _set(self, "normal", then_branch.normal and else_branch.normal)
        procs = _union(then_branch.procs, else_branch.procs)
        _set(self, "procs", procs if process in procs else procs | {process})
        _set(self, "calls", _union(then_branch.calls, else_branch.calls))
        _set(self, "conns", _union(then_branch.conns, else_branch.conns))
        _set(self, "size", 1 + then_branch.size + else_branch.size)
        _set(self, "_proj", None)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Def(Interned):
    """def name = body in cont"""

    name: str
    body: "Choreography"
    cont: "Choreography"
    normal: bool = field(repr=False)
    procs: frozenset[str] = field(repr=False)
    calls: frozenset[str] = field(repr=False)
    conns: frozenset[str] = field(repr=False)
    size: int = field(repr=False)
    _proj: "dict | None" = field(repr=False)

    def _build(self, name: str, body: "Choreography", cont: "Choreography") -> None:
        _set(self, "name", name)
        _set(self, "body", body)
        _set(self, "cont", cont)
        _set(self, "normal", body.normal and cont.normal and cont is not END)
        _set(self, "procs", _union(body.procs, cont.procs))
        calls = _union(body.calls, cont.calls)
        _set(self, "calls", calls - {name} if name in calls else calls)
        _set(self, "conns", _union(body.conns, cont.conns))
        _set(self, "size", 1 + body.size + cont.size)
        _set(self, "_proj", None)


@dataclass(frozen=True, slots=True)
class Call:
    name: str
    calls: frozenset[str] = field(init=False, repr=False, compare=False)
    # class attributes, not fields; see Prefix
    normal = True
    procs = conns = frozenset()
    size = 1

    def __post_init__(self) -> None:
        _set(self, "calls", frozenset((self.name,)))


Choreography = Union[Prefix, Cond, Def, Call, End]


def size(c: Choreography) -> int:
    """The compatibility checker's termination metric (see Prefix)."""
    return c.size


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
    # cp_engine's classification of the flows by owning process, worked out
    # on first use; not part of the value
    port_plan: object = field(default=None, init=False, repr=False, compare=False)

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
    # each state's outgoing transitions, worked out on first use; not part of
    # the value
    _outgoing: object = field(default=None, init=False, repr=False, compare=False)

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

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        """The transitions from state, in declaration order."""
        index = self._outgoing
        if index is None:
            index = {}
            for t in self.transitions:
                index[t.src] = index.get(t.src, ()) + (t,)
            object.__setattr__(self, "_outgoing", index)
        return index.get(state, ())


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

    return renamed(a, a.name if name is None else name, subst)


def renamed(a: ConstraintAutomaton, name: str, ren: Mapping[str, str]) -> ConstraintAutomaton:
    """a named `name`, with every port p renamed to ren[p] in its port list
    and its flows."""
    ports = {p: Port(ren[p]) for p in a.ports}

    def end(e: FlowEnd) -> FlowEnd:
        return ports[e.name] if isinstance(e, Port) else e

    transitions = tuple(
        Transition(t.src, Constraint(frozenset(Flow(end(f.src), end(f.dst)) for f in t.phi.flows)), t.dst)
        for t in a.transitions
    )
    return replace(a, name=name, ports=tuple(ren[p] for p in a.ports), transitions=transitions)


ConnectorMapping = Mapping[str, ConstraintAutomaton]
