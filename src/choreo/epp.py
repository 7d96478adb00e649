"""Endpoint projection: per-process behaviours, the branch merge, and the
translation of a choreography plus connectors into a process network."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Union

from .core import (
    ConstraintAutomaton,
    Expr,
    InputError,
    Interned,
    Port,
    ConnectorMapping,
    RecvSel,
    RecvVal,
    Sel,
    ValCom,
    Value,
    sorted_etas,
)
from . import core


class MergeError(Exception):
    """The two behaviours disagree somewhere outside a branch label map."""

    def __init__(self, path: tuple[str, ...], reason: str) -> None:
        at = " / ".join(path) if path else "top"
        super().__init__(f"merge undefined at {at}: {reason}")
        self.path = path
        self.reason = reason


class Unprojectable(Exception):
    """Some process has no single behaviour covering both conditional branches."""

    def __init__(self, process: str, cause: MergeError) -> None:
        super().__init__(f"no projection for {process}: {cause}")
        self.process = process
        self.cause = cause


@dataclass(frozen=True, slots=True)
class PortName:
    """A process-side port: direction ('o' or 'i'), owner, and connector."""

    direction: str
    process: str
    connector: str

    def render(self) -> str:
        return f"{self.direction}_{self.process}_{self.connector}"

    def local(self) -> str:
        return f"{self.direction}_{self.connector}"

    @staticmethod
    def parse(text: str) -> "PortName":
        parts = text.split("_")
        if len(parts) != 3 or parts[0] not in ("o", "i"):
            raise InputError(f"not a renamed port: {text}")
        return PortName(parts[0], parts[1], parts[2])


# ---------------------------------------------------------------------------
# Behaviours
#
# Send, Recv, SelSend, Branch, BCond and BDef are hash-consed, as the
# choreography nodes are (see `core.Interned`): an equal behaviour is the same
# object, and its hash is the tuple hash of its fields.  `normal` records
# whether the node is in normal form: no def whose scope has ended.  A node
# built from normal children knows this at once, which lets
# `cp_engine.normalize_behaviour` return such a behaviour as it is.

_set = object.__setattr__  # the nodes are frozen


class BEnd:
    _instance: "BEnd | None" = None
    normal = True

    def __new__(cls) -> "BEnd":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"

    def __hash__(self) -> int:
        return hash("beh-end")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BEnd)


BEND = BEnd()


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Send(Interned):
    port: PortName
    expr: Expr
    cont: "Behaviour"
    normal: bool = field(repr=False)

    def _build(self, port: PortName, expr: Expr, cont: "Behaviour") -> None:
        _set(self, "port", port)
        _set(self, "expr", expr)
        _set(self, "cont", cont)
        _set(self, "normal", cont.normal)

    def with_cont(self, cont: "Behaviour") -> "Send":
        return Send(self.port, self.expr, cont)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Recv(Interned):
    port: PortName
    var: str
    cont: "Behaviour"
    normal: bool = field(repr=False)

    def _build(self, port: PortName, var: str, cont: "Behaviour") -> None:
        _set(self, "port", port)
        _set(self, "var", var)
        _set(self, "cont", cont)
        _set(self, "normal", cont.normal)

    def with_cont(self, cont: "Behaviour") -> "Recv":
        return Recv(self.port, self.var, cont)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class SelSend(Interned):
    port: PortName
    label: str
    cont: "Behaviour"
    normal: bool = field(repr=False)

    def _build(self, port: PortName, label: str, cont: "Behaviour") -> None:
        _set(self, "port", port)
        _set(self, "label", label)
        _set(self, "cont", cont)
        _set(self, "normal", cont.normal)

    def with_cont(self, cont: "Behaviour") -> "SelSend":
        return SelSend(self.port, self.label, cont)


_ACTIONS = (Send, Recv, SelSend)  # the nodes with one continuation


def same_head(a, b) -> bool:
    """a and b, of one action class, agree on everything but their
    continuations."""
    if a.port != b.port:
        return False
    if a.__class__ is Send:
        return a.expr == b.expr
    if a.__class__ is Recv:
        return a.var == b.var
    return a.label == b.label


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Branch(Interned):
    port: PortName
    cases: tuple[tuple[str, "Behaviour"], ...]
    normal: bool = field(repr=False)

    def _build(self, port: PortName, cases: tuple[tuple[str, "Behaviour"], ...]) -> None:
        _set(self, "port", port)
        _set(self, "cases", cases)
        _set(self, "normal", all(b.normal for _, b in cases))

    @staticmethod
    def make(port: PortName, cases: Mapping[str, "Behaviour"]) -> "Branch":
        return Branch(port, tuple(sorted(cases.items())))

    def case_map(self) -> dict[str, "Behaviour"]:
        return dict(self.cases)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class BCond(Interned):
    guard: Expr
    then_branch: "Behaviour"
    else_branch: "Behaviour"
    normal: bool = field(repr=False)

    def _build(self, guard: Expr, then_branch: "Behaviour", else_branch: "Behaviour") -> None:
        _set(self, "guard", guard)
        _set(self, "then_branch", then_branch)
        _set(self, "else_branch", else_branch)
        _set(self, "normal", then_branch.normal and else_branch.normal)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class BDef(Interned):
    name: str
    body: "Behaviour"
    cont: "Behaviour"
    normal: bool = field(repr=False)

    def _build(self, name: str, body: "Behaviour", cont: "Behaviour") -> None:
        _set(self, "name", name)
        _set(self, "body", body)
        _set(self, "cont", cont)
        _set(self, "normal", body.normal and cont.normal and cont is not BEND)


@dataclass(frozen=True, slots=True)
class BCall:
    name: str
    normal = True  # a class attribute, not a field


Behaviour = Union[BEnd, Send, Recv, SelSend, Branch, BCond, BDef, BCall]


# ---------------------------------------------------------------------------
# Merge


_ACTION_STEP = {Send: "send", Recv: "recv", SelSend: "sel"}


def merge(b1: Behaviour, b2: Behaviour, _path: tuple[str, ...] = ()) -> Behaviour:
    """The partial branch merge: both sides must agree everywhere except in
    Branch label maps, which are unioned (recursively on shared labels)."""
    # shared actions, in a loop: a long behaviour must not exhaust the stack
    spine = []
    while b1.__class__ is b2.__class__ and b1.__class__ in _ACTIONS and same_head(b1, b2):
        spine.append(b1)
        b1, b2 = b1.cont, b2.cont
    if spine:
        _path += tuple(_ACTION_STEP[a.__class__] for a in spine)
    merged = _merge_node(b1, b2, _path)
    for a in reversed(spine):
        merged = a.with_cont(merged)
    return merged


def _merge_node(b1: Behaviour, b2: Behaviour, _path: tuple[str, ...]) -> Behaviour:
    if isinstance(b1, BEnd) and isinstance(b2, BEnd):
        return BEND
    if isinstance(b1, BCall) and isinstance(b2, BCall) and b1.name == b2.name:
        return b1
    if isinstance(b1, Branch) and isinstance(b2, Branch):
        if b1.port == b2.port:
            m1, m2 = b1.case_map(), b2.case_map()
            merged: dict[str, Behaviour] = {}
            for label in sorted(set(m1) | set(m2)):
                if label in m1 and label in m2:
                    merged[label] = merge(m1[label], m2[label], _path + (f"branch {label}",))
                else:
                    merged[label] = m1.get(label, m2.get(label))  # type: ignore[arg-type]
            return Branch.make(b1.port, merged)
    elif isinstance(b1, BCond) and isinstance(b2, BCond):
        if b1.guard == b2.guard:
            return BCond(
                b1.guard,
                merge(b1.then_branch, b2.then_branch, _path + ("then",)),
                merge(b1.else_branch, b2.else_branch, _path + ("else",)),
            )
    elif isinstance(b1, BDef) and isinstance(b2, BDef):
        if b1.name == b2.name:
            return BDef(
                b1.name,
                merge(b1.body, b2.body, _path + (f"def {b1.name}",)),
                merge(b1.cont, b2.cont, _path + ("in",)),
            )
    raise MergeError(_path, f"{_describe(b1)} vs {_describe(b2)}")


def _describe(b: Behaviour) -> str:
    """A behaviour's first action, in the network syntax, with what it sends
    or the variable it receives into."""
    from .textio import pretty_expr  # lazy: textio imports this module

    if isinstance(b, BEnd):
        return "0"
    if isinstance(b, Send):
        return f"send {b.port.local()} <{pretty_expr(b.expr)}>"
    if isinstance(b, Recv):
        return f"recv {b.port.local()} {b.var}"
    if isinstance(b, SelSend):
        return f"sel {b.port.local()} [{b.label}]"
    if isinstance(b, Branch):
        return f"branch {b.port.local()}"
    if isinstance(b, BCond):
        return "if"
    if isinstance(b, BDef):
        return f"def {b.name}"
    return b.name  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Projection


def project_behaviour(c, r: str) -> Behaviour:
    """Project the behaviour of process r out of choreography c.

    In an interaction set, r contributes at most one action: its single send
    (multicasts collapse to one output), or its single receive.  Conditionals
    at other processes are covered by merging both branch projections.  A
    prefix spine is projected in a loop, bottom-up.

    The result is kept on each Prefix, Cond and Def node it is computed for,
    in the node's `_proj` map, and nothing is kept when projection fails.
    Equal terms are one node (see `core.Interned`), so the map serves every
    term equal to one projected before.  The spine loop stops at the first
    node that already knows r's behaviour, so a term built on a projected
    tail costs only the nodes above it, and its projection ends in the very
    behaviour objects projected before.  The map is found without hashing a
    term and freed with the node."""
    spine = []
    b = _known_projection(c, r)
    while b is None and isinstance(c, core.Prefix):
        spine.append(c)
        c = c.cont
        b = _known_projection(c, r)
    if b is None:
        b = _project_node(c, r)
    for p in reversed(spine):
        b = _project_prefix(p, r, b)
        _remember_projection(p, r, b)
    return b


def _project_node(c, r: str) -> Behaviour:
    """Project the End, Call, Cond or Def at the foot of a prefix spine."""
    if isinstance(c, core.End):
        return BEND
    if isinstance(c, core.Call):
        return BCall(c.name)
    if isinstance(c, core.Def):
        b = BDef(c.name, project_behaviour(c.body, r), project_behaviour(c.cont, r))
    elif c.process == r:
        b = BCond(c.guard, project_behaviour(c.then_branch, r), project_behaviour(c.else_branch, r))
    else:
        try:
            b = merge(project_behaviour(c.then_branch, r), project_behaviour(c.else_branch, r))
        except MergeError as exc:
            raise Unprojectable(r, exc) from exc
    _remember_projection(c, r, b)
    return b


def _known_projection(c, r: str) -> "Behaviour | None":
    memo = getattr(c, "_proj", None)  # End and Call keep none
    return None if memo is None else memo.get(r)


def _remember_projection(c, r: str, b: Behaviour) -> None:
    if c._proj is None:
        _set(c, "_proj", {})
    c._proj[r] = b


def _project_prefix(c, r: str, cont: Behaviour) -> Behaviour:
    etas = c.etas
    if len(etas) > 1:  # a single interaction needs no ordering
        etas = sorted_etas(etas)
    for eta in etas:
        if isinstance(eta, ValCom) and eta.sender == r:
            return Send(PortName("o", r, c.connector), eta.expr, cont)
        if isinstance(eta, Sel) and eta.sender == r:
            return SelSend(PortName("o", r, c.connector), eta.label, cont)
    for eta in etas:
        if isinstance(eta, ValCom) and eta.receiver == r:
            return Recv(PortName("i", r, c.connector), eta.var, cont)
        if isinstance(eta, RecvVal) and eta.receiver == r:
            return Recv(PortName("i", r, c.connector), eta.var, cont)
        if isinstance(eta, Sel) and eta.receiver == r:
            return Branch.make(PortName("i", r, c.connector), {eta.label: cont})
        if isinstance(eta, RecvSel) and eta.receiver == r:
            return Branch.make(PortName("i", r, c.connector), {eta.label: cont})
    return cont


def projectable(c) -> bool:
    """Whether every process of c has a defined projection.  This never looks
    at any store, so the answer is the same for every initial state."""
    try:
        for r in sorted(c.procs):
            project_behaviour(c, r)
        return True
    except Unprojectable:
        return False


def project_network(c, sigma: Mapping[tuple[str, str], Value]):
    """Build the network of all projected processes, each with its slice of
    the global store."""
    from .cp_engine import Network

    stores: dict[str, dict[str, Value]] = {r: {} for r in sorted(c.procs)}
    for (p, x), v in sigma.items():
        store = stores.get(p)
        if store is not None:
            store[x] = v
    return Network.make({r: (store, project_behaviour(c, r)) for r, store in stores.items()})


def _port_directions(a: ConstraintAutomaton) -> dict[str, str]:
    directions: dict[str, str] = {}
    for t in a.transitions:
        for f in t.phi.flows:
            if isinstance(f.src, Port):
                directions[f.src.name] = "o"
            if isinstance(f.dst, Port):
                directions[f.dst.name] = "i"
    return directions


def project_connectors(g: ConnectorMapping) -> dict[str, ConstraintAutomaton]:
    """Rename every connector's ports into process-side port names.

    A port owned by process p on connector gamma becomes o_p_gamma when the
    automaton only reads from it, i_p_gamma when it only writes to it.  The
    renaming makes all automata pairwise port-disjoint.
    """
    out: dict[str, ConstraintAutomaton] = {}
    for gamma in sorted(g):
        a = g[gamma]
        if "_" in gamma:
            raise InputError(f"connector name {gamma} may not contain '_'")
        for p in a.ports:
            if "_" in p:
                raise InputError(f"process name {p} may not contain '_'")
        directions = _port_directions(a)

        def rename(p: str, gamma=gamma, directions=directions) -> str:
            return PortName(directions.get(p, "o"), p, gamma).render()

        out[gamma] = replace(
            a,
            name=gamma,
            ports=tuple(rename(p) for p in a.ports),
            transitions=core.renamed_transitions(a, rename),
        )
    return out
