"""Concrete syntax: parsing and printing for .ca, .cr, and .cp files.

This module is the only serialization boundary of the package.  Everything
else works on the in-memory terms from `core`, `epp`, and `cp_engine`.

Grammar sketch (full EBNF in the README):

    program    := automaton* "connectors" "{" binding* "}"
                  "init" "{" assign* "}" "main" "{" chor "}"
    automaton  := "automaton" NAME "{" "states" names ";" "ports" names ";"
                  ("mems" names ";")? "init" STATE meminit? ";" transition* "}"
    transition := STATE "->" STATE "on" flow ("&" flow)* ";"
    flow       := NAME ">" NAME
    binding    := NAME ":" NAME "[" NAME "/" NAME ("," NAME "/" NAME)* "]" ";"
    assign     := NAME "." NAME "=" literal ";"
    chor       := etaset "thru" NAME ";" chor
                | "if" NAME "." expr "then" "{" chor "}" "else" "{" chor "}"
                | "def" NAME "=" "{" chor "}" "in" "{" chor "}"
                | NAME | "0"
    etaset     := eta | "{" eta ("," eta)* "}"
    eta        := NAME "." expr "->" rcvlist
                | NAME "->" rcvlist "[" NAME "]"
                | NAME "." NAME "?" literal          (runtime, opt-in)
                | NAME "?" "[" NAME "]"              (runtime, opt-in)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import NamedTuple

from .core import (
    BOT,
    BinOp,
    Bool,
    Call,
    Cond,
    Const,
    Constraint,
    ConstraintAutomaton,
    Def,
    END,
    End,
    Expr,
    Flow,
    FlowEnd,
    FreshToken,
    InputError,
    Interaction,
    Label,
    Mem,
    Port,
    Prefix,
    RecvSel,
    RecvVal,
    Sel,
    Transition,
    UnOp,
    ValCom,
    Value,
    Var,
    desugar_multicast,
    eta_key,
    instantiate,
    sorted_etas,
    validate_automaton,
    validate_interaction_set,
)
from . import epp
from . import cp_engine


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokenizer

# Whitespace and comments match no named group and are skipped.  Newlines
# occur only in whitespace and in strings, which may span lines.
_TOKEN = re.compile(
    r"""[ \t\r\n]+ | \#[^\n]*
    | "(?P<string>[^"\\]*(?:\\.[^"\\]*)*)"
    | (?P<number>[0-9]+)
    | (?P<ident>[^\W\d]\w*)
    | (?P<sym>->|!=|[{}()\[\];,.&=<>+\-?/:])
    | (?P<other>.)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}  # any other escaped character stands for itself


class _Token(NamedTuple):
    kind: str  # ident | number | string | sym | eof
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    """The tokens of src, then two eof tokens, so that looking one token
    ahead never runs off the end."""
    toks: list[_Token] = []
    line, line_start, last = 1, 0, 0  # last: where the previous token starts
    m = None
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind is None:
            continue
        start = m.start()
        breaks = src.count("\n", last, start)
        if breaks:
            line += breaks
            line_start = src.rindex("\n", last, start) + 1
        last, col, text = start, start - line_start + 1, m[kind]
        # [^\W\d] also takes a digit that is not decimal, such as '²'
        if kind == "other" or (kind == "ident" and not (text[0].isalpha() or text[0] == "_")):
            what = "unterminated string" if text == '"' else f"unexpected character {text[0]!r}"
            raise ParseError(what, line, col)
        if kind == "string" and "\\" in text:
            text = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), text)
        toks.append(_Token(kind, text, line, col))
    # the end of input is reported where a comment that runs to it starts
    end = m.start() if m and m[0].startswith("#") else len(src)
    line += src.count("\n", last, end)
    toks += [_Token("eof", "", line, end - src.rfind("\n", 0, end))] * 2
    return toks


class _Parser:
    def __init__(self, src: str) -> None:
        self.toks = _tokenize(src)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.toks[self.pos + ahead]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, message: str) -> "ParseError":
        t = self.peek()
        return ParseError(message + (f" (found {t.text!r})" if t.text else " (found end of input)"), t.line, t.col)

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def at_word(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == text

    def eat_sym(self, text: str) -> None:
        if not self.at_sym(text):
            raise self.fail(f"expected {text!r}")
        self.next()

    def eat_word(self, text: str) -> None:
        if not self.at_word(text):
            raise self.fail(f"expected {text!r}")
        self.next()

    def ident(self, what: str = "name") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise self.fail(f"expected {what}")
        self.next()
        return t.text

    def renamed_port(self, what: str) -> str:
        """A port of a network's automaton: o_<process>_<connector> or
        i_<process>_<connector>."""
        t = self.peek()
        name = self.ident(what)
        try:
            epp.PortName.parse(name)
        except InputError as exc:
            raise ParseError(str(exc), t.line, t.col) from exc
        return name

    def name_or_number(self, what: str = "name") -> str:
        t = self.peek()
        if t.kind not in ("ident", "number"):
            raise self.fail(f"expected {what}")
        self.next()
        return t.text

    def listed(self, read, sep: str = ",") -> list:
        """One or more items, each read by `read()`, separated by `sep`."""
        out = [read()]
        while self.at_sym(sep):
            self.next()
            out.append(read())
        return out

    # -- literals and expressions -----------------------------------------

    def literal(self) -> Value:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return int(t.text)
        if t.kind == "string":
            self.next()
            return t.text
        if t.kind == "ident" and t.text in ("true", "false"):
            self.next()
            return Bool(t.text == "true")
        if self.at_sym("["):
            self.next()
            name = self.ident("label")
            self.eat_sym("]")
            return Label(name)
        raise self.fail("expected literal")

    def expr(self) -> Expr:
        return self._expr_or()

    def _expr_or(self) -> Expr:
        e = self._expr_and()
        while self.at_word("or"):
            self.next()
            e = BinOp("or", e, self._expr_and())
        return e

    def _expr_and(self) -> Expr:
        e = self._expr_not()
        while self.at_word("and"):
            self.next()
            e = BinOp("and", e, self._expr_not())
        return e

    def _expr_not(self) -> Expr:
        if self.at_word("not"):
            self.next()
            return UnOp("not", self._expr_not())
        return self._expr_cmp()

    def _expr_cmp(self) -> Expr:
        e = self._expr_add()
        if self.at_sym("=") or self.at_sym("!=") or self.at_sym("<"):
            op = self.next().text
            return BinOp(op, e, self._expr_add())
        return e

    def _expr_add(self) -> Expr:
        e = self._expr_atom()
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().text
            e = BinOp(op, e, self._expr_atom())
        return e

    def _expr_atom(self) -> Expr:
        t = self.peek()
        if self.at_sym("("):
            self.next()
            e = self.expr()
            self.eat_sym(")")
            return e
        if t.kind == "ident" and t.text not in ("true", "false"):
            self.next()
            return Var(t.text)
        return Const(self.literal())

    # -- automata ----------------------------------------------------------

    def automaton_block(self, port=None) -> ConstraintAutomaton:
        """An automaton block; `port(what)` reads each declared port."""
        self.eat_word("automaton")
        name = self.ident("automaton name")
        self.eat_sym("{")
        self.eat_word("states")
        states = self._names(self.name_or_number, "state")
        self.eat_word("ports")
        ports = self._names(port or self.ident, "port")
        mems: list[str] = []
        if self.at_word("mems"):
            self.next()
            mems = self._names(self.ident, "cell")
        self.eat_word("init")
        init_state = self.name_or_number("state")
        init_mem: dict[str, Value] = {}
        if self.at_sym("{"):
            self.next()
            while not self.at_sym("}"):
                cell = self.ident("cell")
                self.eat_sym("=")
                init_mem[cell] = self.literal()
                if self.at_sym(","):
                    self.next()
            self.eat_sym("}")
        self.eat_sym(";")
        port_set, mem_set = set(ports), set(mems)

        def flow_end() -> FlowEnd:
            t = self.peek()
            end = self.name_or_number("port or cell")
            if end in port_set:
                return Port(end)
            if end in mem_set:
                return Mem(end)
            raise ParseError(f"{end} is neither a declared port nor a cell", t.line, t.col)

        def flow() -> Flow:
            src = flow_end()
            self.eat_sym(">")
            return Flow(src, flow_end())

        transitions: list[Transition] = []
        while not self.at_sym("}"):
            src = self.name_or_number("state")
            self.eat_sym("->")
            dst = self.name_or_number("state")
            self.eat_word("on")
            flows = self.listed(flow, "&")
            self.eat_sym(";")
            transitions.append(Transition(src, Constraint(frozenset(flows)), dst))
        self.eat_sym("}")
        return ConstraintAutomaton.make(name, states, ports, mems, transitions, init_state, init_mem)

    def _names(self, read, what: str) -> list[str]:
        """A comma-separated list of names, each read by `read(what)`, and
        the ';' that ends it."""
        names = self.listed(lambda: read(what))
        self.eat_sym(";")
        return names

    def init_block(self) -> list[tuple[str, str, Value]]:
        """`init { owner.slot = literal; ... }` as (owner, slot, value)
        triples, in order.  The owner is a process or a connector; the caller
        tells them apart."""
        self.eat_word("init")
        self.eat_sym("{")
        out: list[tuple[str, str, Value]] = []
        while not self.at_sym("}"):
            owner = self.ident("process or connector")
            self.eat_sym(".")
            slot = self.ident("variable or cell")
            self.eat_sym("=")
            out.append((owner, slot, self.literal()))
            self.eat_sym(";")
        self.eat_sym("}")
        return out

    # -- choreographies ----------------------------------------------------

    def chor(self, runtime: bool) -> "core_chor":
        """A choreography.  Its prefix spine is read in a loop, so a long
        straight-line program nests no Python calls."""
        spine: list[tuple[frozenset[Interaction], str]] = []
        while self._at_prefix():
            etas = self.etaset(runtime)
            self.eat_word("thru")
            connector = self.ident("connector")
            self.eat_sym(";")
            spine.append((etas, connector))
        c = self._chor_tail(runtime)
        for etas, connector in reversed(spine):
            c = Prefix(etas, connector, c)
        return c

    def _at_prefix(self) -> bool:
        t = self.peek()
        if (t.kind == "number" and t.text == "0") or self.at_word("if") or self.at_word("def"):
            return False
        return t.kind != "ident" or self._starts_eta()

    def _chor_tail(self, runtime: bool) -> "core_chor":
        """What ends a prefix spine: 0, a conditional, a def or a call."""
        if self.at_word("if"):
            self.next()
            proc = self.ident("process")
            self.eat_sym(".")
            guard = self.expr()
            self.eat_word("then")
            self.eat_sym("{")
            then_branch = self.chor(runtime)
            self.eat_sym("}")
            self.eat_word("else")
            self.eat_sym("{")
            else_branch = self.chor(runtime)
            self.eat_sym("}")
            return Cond(proc, guard, then_branch, else_branch)
        if self.at_word("def"):
            self.next()
            name = self.ident("procedure name")
            self.eat_sym("=")
            self.eat_sym("{")
            body = self.chor(runtime)
            self.eat_sym("}")
            self.eat_word("in")
            self.eat_sym("{")
            cont = self.chor(runtime)
            self.eat_sym("}")
            return Def(name, body, cont)
        t = self.next()
        return END if t.kind == "number" else Call(t.text)

    def _starts_eta(self) -> bool:
        nxt = self.peek(1)
        return nxt.kind == "sym" and nxt.text in (".", "->", "?")

    def etaset(self, runtime: bool) -> frozenset[Interaction]:
        open_tok = self.peek()
        if self.at_sym("{"):
            self.next()
            etas = set().union(*self.listed(lambda: self.eta(runtime)))
            self.eat_sym("}")
        else:
            etas = set(self.eta(runtime))
        problems = validate_interaction_set(etas)
        if problems:
            raise ParseError("; ".join(problems), open_tok.line, open_tok.col)
        return frozenset(etas)

    def eta(self, runtime: bool) -> frozenset[Interaction]:
        start = self.peek()
        sender = self.ident("process")
        if self.at_sym("."):
            self.next()
            e = self.expr()
            if self.at_sym("?"):
                if not runtime:
                    raise ParseError("runtime terms are not allowed here", start.line, start.col)
                if not isinstance(e, Var):
                    raise self.fail("runtime receive needs a plain variable")
                self.next()
                return frozenset({RecvVal(sender, e.name, self.literal())})
            self.eat_sym("->")
            receivers: list[tuple[str, str]] = []
            for proc, var in self._rcvlist(value_side=True):
                if var is None:
                    if not isinstance(e, Var):
                        raise ParseError(
                            f"receiver {proc} needs an explicit variable", start.line, start.col
                        )
                    var = e.name
                receivers.append((proc, var))
            try:
                return desugar_multicast(sender, e, receivers)
            except InputError as exc:
                raise ParseError(str(exc), start.line, start.col) from exc
        if self.at_sym("?"):
            if not runtime:
                raise ParseError("runtime terms are not allowed here", start.line, start.col)
            self.next()
            self.eat_sym("[")
            label = self.ident("label")
            self.eat_sym("]")
            return frozenset({RecvSel(sender, label)})
        self.eat_sym("->")
        procs = [proc for proc, _ in self._rcvlist(value_side=False)]
        self.eat_sym("[")
        label = self.ident("label")
        self.eat_sym("]")
        try:
            return desugar_multicast(sender, label, procs)
        except InputError as exc:
            raise ParseError(str(exc), start.line, start.col) from exc

    def _rcvlist(self, value_side: bool) -> list[tuple[str, "str | None"]]:
        def one() -> tuple[str, "str | None"]:
            proc = self.ident("receiver")
            if value_side and self.at_sym("."):
                self.next()
                return (proc, self.ident("variable"))
            return (proc, None)

        if self.at_sym("{"):
            self.next()
            out = self.listed(one)
            self.eat_sym("}")
            return out
        return [one()]


# ---------------------------------------------------------------------------
# Programs


@dataclass
class Program:
    """A parsed .cr file: automaton templates, connector bindings, initial
    stores and cell overrides, and the main choreography."""

    automata: dict[str, ConstraintAutomaton]
    bindings: dict[str, tuple[str, dict[str, str]]]
    connectors: dict[str, ConstraintAutomaton]
    init_sigma: dict[tuple[str, str], Value]
    mem_overrides: dict[tuple[str, str], Value]
    main: "core_chor"


core_chor = object  # documentation alias; choreography terms come from core


def _validated(a: ConstraintAutomaton) -> ConstraintAutomaton:
    problems = validate_automaton(a)
    if problems:
        raise InputError(f"automaton {a.name}: " + "; ".join(problems))
    return a


def _automata(p: _Parser, port=None) -> dict[str, ConstraintAutomaton]:
    """The leading automaton blocks of a program or network, each validated."""
    automata: dict[str, ConstraintAutomaton] = {}
    while p.at_word("automaton"):
        a = _validated(p.automaton_block(port))
        automata[a.name] = a
    return automata


def _with_cells(a: ConstraintAutomaton, over: dict[str, Value]) -> ConstraintAutomaton:
    """a with the initial values of the cells in `over` replaced."""
    return replace(a, init_mem=tuple((m, over.get(m, v)) for m, v in a.init_mem))


def parse_program(src: str, runtime: bool = False) -> Program:
    p = _Parser(src)
    automata = _automata(p)
    p.eat_word("connectors")
    p.eat_sym("{")
    bindings: dict[str, tuple[str, dict[str, str]]] = {}

    def owner() -> tuple[str, str]:  # process/port, as (port, process)
        proc = p.ident("process")
        p.eat_sym("/")
        return p.ident("port"), proc

    while not p.at_sym("}"):
        gamma_tok = p.peek()
        gamma = p.ident("connector name")
        p.eat_sym(":")
        template = p.ident("automaton name")
        if template not in automata:
            raise ParseError(f"unknown automaton {template}", gamma_tok.line, gamma_tok.col)
        p.eat_sym("[")
        subst = dict(p.listed(owner))
        p.eat_sym("]")
        p.eat_sym(";")
        if gamma in bindings:
            raise ParseError(f"connector {gamma} bound twice", gamma_tok.line, gamma_tok.col)
        bindings[gamma] = (template, subst)
    p.eat_sym("}")
    init_sigma: dict[tuple[str, str], Value] = {}
    mem_overrides: dict[tuple[str, str], Value] = {}
    for owner, slot, v in p.init_block():
        if owner in bindings:
            mem_overrides[(owner, slot)] = v
        else:
            init_sigma[(owner, slot)] = v
    p.eat_word("main")
    p.eat_sym("{")
    main = p.chor(runtime)
    p.eat_sym("}")
    if p.peek().kind != "eof":
        raise p.fail("trailing input after main block")

    connectors: dict[str, ConstraintAutomaton] = {}
    for gamma, (template, subst) in bindings.items():
        inst = instantiate(automata[template], subst, name=gamma)
        over = {cell: v for (g, cell), v in mem_overrides.items() if g == gamma}
        unknown = set(over) - set(inst.mems)
        if unknown:
            raise InputError(f"connector {gamma} has no cell named {', '.join(sorted(unknown))}")
        connectors[gamma] = _with_cells(inst, over)

    if main.calls:
        raise InputError("; ".join(f"call of undefined procedure {n}" for n in sorted(main.calls)))
    missing = sorted(main.conns - set(connectors))
    if missing:
        raise InputError("undefined connectors: " + ", ".join(missing))
    return Program(automata, bindings, connectors, init_sigma, mem_overrides, main)


def parse_automaton(src: str) -> ConstraintAutomaton:
    """Parse a standalone .ca file holding one automaton block."""
    p = _Parser(src)
    a = p.automaton_block()
    if p.peek().kind != "eof":
        raise p.fail("trailing input after automaton block")
    return _validated(a)


# ---------------------------------------------------------------------------
# Networks (.cp)


def parse_cp(src: str) -> "cp_engine.CpProgram":
    p = _Parser(src)
    automata = _automata(p, p.renamed_port)
    stores: dict[str, dict[str, Value]] = {}
    overrides: dict[tuple[str, str], Value] = {}
    for owner, slot, v in p.init_block():
        if owner in automata:
            overrides[(owner, slot)] = v
        else:
            stores.setdefault(owner, {})[slot] = v
    p.eat_word("network")
    p.eat_sym("{")
    procs: dict[str, "epp.Behaviour"] = {}
    while not p.at_sym("}"):
        proc_tok = p.peek()
        proc = p.ident("process")
        if proc in procs:
            raise ParseError(f"process {proc} defined twice", proc_tok.line, proc_tok.col)
        p.eat_sym("{")
        procs[proc] = _behaviour(p, proc)
        p.eat_sym("}")
    p.eat_sym("}")
    if p.peek().kind != "eof":
        raise p.fail("trailing input after network block")

    for (name, cell), v in overrides.items():
        a = automata[name]
        if cell not in a.mems:
            raise InputError(f"automaton {name} has no cell named {cell}")
        automata[name] = _with_cells(a, {cell: v})
    net = cp_engine.Network.make({q: (stores.get(q, {}), b) for q, b in procs.items()})
    astate = {name: (a.init_state, a.init_mem_map()) for name, a in automata.items()}
    return cp_engine.CpProgram(automata, cp_engine.NetConfiguration.make(net, astate))


def _port(p: _Parser, proc: str) -> "epp.PortName":
    tok = p.peek()
    name = p.ident("port")
    direction, _, connector = name.partition("_")
    if direction not in ("o", "i") or not connector or "_" in connector:
        raise ParseError(
            f"port {name} must look like o_<connector> or i_<connector>, the connector without '_'",
            tok.line,
            tok.col,
        )
    return epp.PortName(direction, proc, connector)


def _behaviour(p: _Parser, proc: str) -> "epp.Behaviour":
    """A behaviour.  Its action spine is read in a loop, so a long process
    nests no Python calls."""
    spine: list[tuple] = []  # (action class, port, expression | variable | label)
    while True:
        if p.at_word("send"):
            p.next()
            port = _port(p, proc)
            p.eat_sym("<")
            e = p.expr()
            p.eat_sym(">")
            spine.append((epp.Send, port, e))
        elif p.at_word("recv"):
            p.next()
            port = _port(p, proc)
            spine.append((epp.Recv, port, p.ident("variable")))
        elif p.at_word("sel"):
            p.next()
            port = _port(p, proc)
            p.eat_sym("[")
            spine.append((epp.SelSend, port, p.ident("label")))
            p.eat_sym("]")
        else:
            break
        p.eat_sym(";")
    b = _behaviour_tail(p, proc)
    for action, port, arg in reversed(spine):
        b = action(port, arg, b)
    return b


def _behaviour_tail(p: _Parser, proc: str) -> "epp.Behaviour":
    """What ends an action spine: 0, a branch, a conditional, a def or a
    call."""
    t = p.peek()
    if t.kind == "number" and t.text == "0":
        p.next()
        return epp.BEND
    if p.at_word("branch"):
        p.next()
        port = _port(p, proc)
        p.eat_sym("{")
        cases: dict[str, epp.Behaviour] = {}
        while not p.at_sym("}"):
            lab_tok = p.peek()
            label = p.ident("label")
            if label in cases:
                raise ParseError(f"label {label} offered twice", lab_tok.line, lab_tok.col)
            p.eat_sym(":")
            p.eat_sym("{")
            cases[label] = _behaviour(p, proc)
            p.eat_sym("}")
        p.eat_sym("}")
        if not cases:
            raise p.fail("branch with no labels")
        return epp.Branch.make(port, cases)
    if p.at_word("if"):
        p.next()
        guard = p.expr()
        p.eat_word("then")
        p.eat_sym("{")
        bt = _behaviour(p, proc)
        p.eat_sym("}")
        p.eat_word("else")
        p.eat_sym("{")
        bf = _behaviour(p, proc)
        p.eat_sym("}")
        return epp.BCond(guard, bt, bf)
    if p.at_word("def"):
        p.next()
        name = p.ident("procedure name")
        p.eat_sym("=")
        p.eat_sym("{")
        body = _behaviour(p, proc)
        p.eat_sym("}")
        p.eat_word("in")
        p.eat_sym("{")
        cont = _behaviour(p, proc)
        p.eat_sym("}")
        return epp.BDef(name, body, cont)
    name = p.ident("behaviour")
    return epp.BCall(name)


# ---------------------------------------------------------------------------
# Printing


def format_value(v: Value) -> str:
    if isinstance(v, Bool):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        escaped = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(v, Label):
        return f"[{v.name}]"
    if isinstance(v, FreshToken):
        return repr(v)
    return "bot"


_PREC = {"or": 1, "and": 2, "=": 4, "!=": 4, "<": 4, "+": 5, "-": 5}


def pretty_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, Const):
        return format_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, UnOp):
        inner = pretty_expr(e.operand, 3)
        text = f"not {inner}"
        return f"({text})" if parent_prec > 3 else text
    prec = _PREC[e.op]
    # the grammar reads one comparison, so a comparison's operands bind tighter
    left = pretty_expr(e.left, prec + 1 if prec == _PREC["="] else prec)
    right = pretty_expr(e.right, prec + 1)
    text = f"{left} {e.op} {right}"
    return f"({text})" if parent_prec > prec else text


def pretty_eta_set(etas: frozenset[Interaction]) -> str:
    """Regroup a desugared set back into source syntax, multicasts included."""
    groups: dict[tuple, list[Interaction]] = {}
    for eta in sorted_etas(etas):
        if isinstance(eta, ValCom):
            key = ("v", eta.sender, pretty_expr(eta.expr))
        elif isinstance(eta, Sel):
            key = ("s", eta.sender, eta.label)
        else:
            key = ("r", eta_key(eta))
        groups.setdefault(key, []).append(eta)

    parts: list[str] = []
    for key in sorted(groups):
        members = groups[key]
        head = members[0]
        if isinstance(head, ValCom):
            rcvs = []
            for m in members:
                assert isinstance(m, ValCom)
                if isinstance(m.expr, Var) and m.expr.name == m.var:
                    rcvs.append(m.receiver)
                else:
                    rcvs.append(f"{m.receiver}.{m.var}")
            rhs = rcvs[0] if len(rcvs) == 1 else "{" + ", ".join(rcvs) + "}"
            parts.append(f"{head.sender}.{pretty_expr(head.expr)} -> {rhs}")
        elif isinstance(head, Sel):
            rcvs = [m.receiver for m in members]  # type: ignore[union-attr]
            rhs = rcvs[0] if len(rcvs) == 1 else "{" + ", ".join(rcvs) + "}"
            parts.append(f"{head.sender} -> {rhs} [{head.label}]")
        elif isinstance(head, RecvVal):
            parts.append(f"{head.receiver}.{head.var} ? {format_value(head.value)}")
        else:
            assert isinstance(head, RecvSel)
            parts.append(f"{head.receiver} ? [{head.label}]")
    if len(parts) == 1:
        return parts[0]
    return "{" + ", ".join(parts) + "}"


def pretty_chor(c, indent: int = 0) -> str:
    """Print a choreography, its prefix spine in a loop."""
    pad = "  " * indent
    lines = []
    while isinstance(c, Prefix):
        lines.append(f"{pad}{pretty_eta_set(c.etas)} thru {c.connector};")
        c = c.cont
    if isinstance(c, End):
        lines.append(f"{pad}0")
    elif isinstance(c, Call):
        lines.append(f"{pad}{c.name}")
    elif isinstance(c, Cond):
        head = f"if {c.process}.{pretty_expr(c.guard)} then"
        lines.append(_blocks(pretty_chor, indent, head, c.then_branch, "else", c.else_branch))
    else:
        assert isinstance(c, Def)
        lines.append(_blocks(pretty_chor, indent, f"def {c.name} =", c.body, "in", c.cont))
    return "\n".join(lines)


def _blocks(pretty, indent: int, head: str, first, mid: str, second) -> str:
    """`head { first } mid { second }`, each block printed by `pretty` one
    level in."""
    pad = "  " * indent
    a, b = pretty(first, indent + 1), pretty(second, indent + 1)
    return f"{pad}{head} {{\n{a}\n{pad}}} {mid} {{\n{b}\n{pad}}}"


def pretty_constraint(phi: Constraint) -> str:
    return " & ".join(f"{f.src.name} > {f.dst.name}" for f in phi.sorted_flows())


def pretty_automaton(a: ConstraintAutomaton, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    lines = [f"{pad}automaton {a.name} {{"]
    lines.append(f"{inner}states {', '.join(a.states)};")
    lines.append(f"{inner}ports {', '.join(a.ports)};")
    if a.mems:
        lines.append(f"{inner}mems {', '.join(a.mems)};")
    nonbot = [(m, v) for m, v in a.init_mem if not v is BOT]
    if nonbot:
        cells = ", ".join(f"{m} = {format_value(v)}" for m, v in nonbot)
        lines.append(f"{inner}init {a.init_state} {{ {cells} }};")
    else:
        lines.append(f"{inner}init {a.init_state};")
    for t in a.transitions:
        lines.append(f"{inner}{t.src} -> {t.dst} on {pretty_constraint(t.phi)};")
    lines.append(f"{pad}}}")
    return "\n".join(lines)


def pretty_behaviour(b: "epp.Behaviour", indent: int = 0) -> str:
    """Print a behaviour, its action spine in a loop."""
    pad = "  " * indent
    lines = []
    while isinstance(b, (epp.Send, epp.Recv, epp.SelSend)):
        if isinstance(b, epp.Send):
            lines.append(f"{pad}send {b.port.local()} <{pretty_expr(b.expr)}>;")
        elif isinstance(b, epp.Recv):
            lines.append(f"{pad}recv {b.port.local()} {b.var};")
        else:
            lines.append(f"{pad}sel {b.port.local()} [{b.label}];")
        b = b.cont
    if isinstance(b, epp.BEnd):
        lines.append(f"{pad}0")
    elif isinstance(b, epp.BCall):
        lines.append(f"{pad}{b.name}")
    elif isinstance(b, epp.Branch):
        lines.append(f"{pad}branch {b.port.local()} {{")
        for label, cont in b.cases:
            lines.append(f"{pad}  {label}: {{")
            lines.append(pretty_behaviour(cont, indent + 2))
            lines.append(f"{pad}  }}")
        lines.append(f"{pad}}}")
    elif isinstance(b, epp.BCond):
        head = f"if {pretty_expr(b.guard)} then"
        lines.append(_blocks(pretty_behaviour, indent, head, b.then_branch, "else", b.else_branch))
    else:
        assert isinstance(b, epp.BDef)
        lines.append(_blocks(pretty_behaviour, indent, f"def {b.name} =", b.body, "in", b.cont))
    return "\n".join(lines)


def pretty_cp(prog: "cp_engine.CpProgram") -> str:
    parts = [pretty_automaton(a) for _, a in sorted(prog.automata.items())]
    init_lines = []
    for proc, (store, _b) in sorted(prog.init.net.proc_map().items()):
        for var, v in sorted(store.items()):
            init_lines.append(f"  {proc}.{var} = {format_value(v)};")
    parts.append("init {\n" + "\n".join(init_lines) + "\n}")
    proc_parts = []
    for proc, (_store, b) in sorted(prog.init.net.proc_map().items()):
        proc_parts.append(f"  {proc} {{\n" + pretty_behaviour(b, 2) + f"\n  }}")
    parts.append("network {\n" + "\n".join(proc_parts) + "\n}")
    return "\n\n".join(parts) + "\n"
