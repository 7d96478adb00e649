"""Small-step execution of choreographies against connector automata.

The matcher decides whether one interaction set can fire one flow constraint;
the exposure walk enumerates every head rewriting the structural precongruence
admits (swapping independent prefixes, splitting and re-merging sets on the
same connector, floating interactions out of conditionals, unfolding a call in
head position); `reductions` combines both with the automaton states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .core import (
    BOT,
    BinOp,
    Call,
    Cond,
    Const,
    Constraint,
    ConnectorMapping,
    Def,
    END,
    End,
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
    UnOp,
    ValCom,
    Value,
    Var,
    constraint_key,
    eta_key,
    expr_key,
    known_pn,
    pn_etas,
    sender_of,
    sorted_etas,
)


class EvalError(Exception):
    """Expression evaluation failed (unbound variable or operand mismatch)."""


# ---------------------------------------------------------------------------
# Expressions


def _eval(e: Expr, get: Callable[[str], Value]) -> Value:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return get(e.name)
    if isinstance(e, UnOp):
        v = _eval(e.operand, get)
        if not isinstance(v, bool):
            raise EvalError(f"'not' applied to {v!r}")
        return not v
    left = _eval(e.left, get)
    if e.op in ("and", "or"):
        right = _eval(e.right, get)
        if not (isinstance(left, bool) and isinstance(right, bool)):
            raise EvalError(f"'{e.op}' applied to non-booleans")
        return (left and right) if e.op == "and" else (left or right)
    right = _eval(e.right, get)
    if e.op == "=":
        return left == right and type(left) is type(right)
    if e.op == "!=":
        return not (left == right and type(left) is type(right))
    if e.op == "<":
        if isinstance(left, bool) or isinstance(right, bool) or not (
            isinstance(left, int) and isinstance(right, int)
        ):
            raise EvalError("'<' needs integers")
        return left < right
    if e.op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        if isinstance(left, int) and isinstance(right, int) and not (
            isinstance(left, bool) or isinstance(right, bool)
        ):
            return left + right
        raise EvalError("'+' needs two integers or two strings")
    if e.op == "-":
        if isinstance(left, int) and isinstance(right, int) and not (
            isinstance(left, bool) or isinstance(right, bool)
        ):
            return left - right
        raise EvalError("'-' needs integers")
    raise EvalError(f"unknown operator {e.op}")


def eval_expr(e: Expr, sigma: Mapping[tuple[str, str], Value], p: str) -> Value:
    """Evaluate e at process p against the global store."""

    def get(name: str) -> Value:
        try:
            return sigma[(p, name)]
        except KeyError:
            raise EvalError(f"unbound variable {p}.{name}") from None

    return _eval(e, get)


# ---------------------------------------------------------------------------
# Configurations


def _freeze_sigma(sigma: Mapping[tuple[str, str], Value]) -> tuple:
    return tuple(sorted(sigma.items()))


def _freeze_astate(astate: Mapping[str, tuple[str, Mapping[str, Value]]]) -> tuple:
    return tuple(
        sorted((g, (s, tuple(sorted(mu.items())))) for g, (s, mu) in astate.items())
    )


@dataclass(frozen=True, slots=True)
class Configuration:
    """One runtime state: choreography, global store, automaton states."""

    chor: object
    sigma: tuple
    astate: tuple

    @staticmethod
    def make(
        chor,
        sigma: Mapping[tuple[str, str], Value],
        astate: Mapping[str, tuple[str, Mapping[str, Value]]],
    ) -> "Configuration":
        return Configuration(chor, _freeze_sigma(sigma), _freeze_astate(astate))

    def sigma_map(self) -> dict[tuple[str, str], Value]:
        return dict(self.sigma)

    def astate_map(self) -> dict[str, tuple[str, dict[str, Value]]]:
        return {g: (s, dict(cells)) for g, (s, cells) in self.astate}


def initial_configuration(program) -> Configuration:
    """Build the starting configuration of a parsed program."""
    astate = {
        g: (a.init_state, a.init_mem_map()) for g, a in program.connectors.items()
    }
    return Configuration.make(normalize(program.main), program.init_sigma, astate)


# ---------------------------------------------------------------------------
# Structural normalisation (garbage collection of finished prefixes and defs)


def normalize(c):
    """Drop empty interaction sets and defs whose scope has ended.

    A term whose `normal` flag is set comes back as it is.  Otherwise only
    the part above its first normal node is rebuilt, in a loop along the
    prefix spine."""
    if c.normal:
        return c
    spine: list[Prefix] = []
    while isinstance(c, Prefix) and not c.normal:
        spine.append(c)
        c = c.cont
    if isinstance(c, Cond) and not c.normal:
        c = Cond(c.process, c.guard, normalize(c.then_branch), normalize(c.else_branch))
    elif isinstance(c, Def) and not c.normal:
        body = normalize(c.body)
        cont = normalize(c.cont)
        c = END if isinstance(cont, End) else Def(c.name, body, cont)
    for p in reversed(spine):
        if p.etas:
            c = Prefix(p.etas, p.connector, c)
    return c


def is_terminated(cfg: Configuration) -> bool:
    return isinstance(normalize(cfg.chor), End)


# ---------------------------------------------------------------------------
# Transition matching


def _written_before(seed: str, mm: list[Flow]) -> set[str]:
    """Cells that are necessarily written before a delivery whose deposit
    wrote `seed` can read.  A cell-to-cell move reading such a cell must run
    even earlier than the writer, so its own target joins the set."""
    out = {seed}
    while True:
        grow = {f.dst.name for f in mm if f.src.name in out} - out
        if not grow:
            return out
        out |= grow


def _mem_cycle(mm: list[Flow]) -> bool:
    """A cell-to-cell move must read its source before anything overwrites it;
    detect when no such order exists."""
    edges: dict[int, list[int]] = {i: [] for i in range(len(mm))}
    for i, f in enumerate(mm):
        for j, g in enumerate(mm):
            if i != j and f.src == g.dst:
                edges[i].append(j)  # f must run before g
    state = [0] * len(mm)

    def visit(i: int) -> bool:
        state[i] = 1
        for j in edges[i]:
            if state[j] == 1:
                return True
            if state[j] == 0 and visit(j):
                return True
        state[i] = 2
        return False

    return any(state[i] == 0 and visit(i) for i in range(len(mm)))


_FAIL_PORTS = "ports"
_FAIL_VALUE = "value"


@lru_cache(maxsize=8192)
def _phi_parts(phi: Constraint):
    """Split a constraint's flows by endpoint kinds, once per constraint."""
    flows = phi.sorted_flows()
    pp = tuple(f for f in flows if isinstance(f.src, Port) and isinstance(f.dst, Port))
    pm = tuple(f for f in flows if isinstance(f.src, Port) and isinstance(f.dst, Mem))
    mp = tuple(f for f in flows if isinstance(f.src, Mem) and isinstance(f.dst, Port))
    mm = tuple(f for f in flows if isinstance(f.src, Mem) and isinstance(f.dst, Mem))
    mm_ordered = tuple(sorted(mm, key=lambda f: f.src != f.dst))
    groups: dict[str, list[Flow]] = {}
    for f in pm:
        groups.setdefault(f.src.name, []).append(f)
    pm_groups = tuple((p, tuple(groups[p])) for p in sorted(groups))
    return pp, pm_groups, mp, mm, mm_ordered, _mem_cycle(list(mm))


@lru_cache(maxsize=8192)
def _etas_index(etas: frozenset):
    """Receiver index and canonical ordering, once per interaction set."""
    return {eta.receiver: eta for eta in etas}, tuple(sorted_etas(etas))


def _match(
    etas: frozenset[Interaction],
    phi: Constraint,
    mu: MemorySnapshot,
    sigma: "Mapping[tuple[str, str], Value] | None" = None,
    fresh: "Callable[[], Value] | None" = None,
):
    """Shared matcher for the concrete and the symbolic semantics.

    Returns (residual etas, sigma writes, mu writes) on success or a failure
    stage (_FAIL_PORTS / _FAIL_VALUE) otherwise.  All reads, both of the
    store and of memory cells, see the pre-state: a constraint orders every
    read of a cell before any write to it, so a constraint that would need to
    read its own output does not fire.

    Two ordering subtleties.  First, a communication deposited into one cell
    by this very constraint can also be delivered by it, through a second
    cell that already holds an equal value: the deposit runs first, then the
    delivery reads the other cell.  The delivery may not read the deposit's
    own cell, nor any cell written by a move forced to run before it.
    Second, when several flows write one cell, a self-copy (m to m) must run
    before the other writers, because it reads the cell it writes; the cell
    ends up holding another writer's value.
    """
    pp, pm_groups, mp, mm, mm_ordered, cyclic = _phi_parts(phi)
    if cyclic:
        return _FAIL_PORTS

    by_receiver, etas_sorted = _etas_index(etas)
    consumed: set[Interaction] = set()
    checks: list[tuple[Value, Value]] = []  # (expected, found) pairs, pre-state reads
    sigma_writes: dict[tuple[str, str], Value] = {}
    mu_writes: dict[str, Value] = {}
    residual: set[Interaction] = set()

    # structure first: every flow needs its interactions in place
    for f in pp:
        eta = by_receiver.get(f.dst.name)
        if (
            eta is None
            or eta in consumed
            or not isinstance(eta, (ValCom, Sel))
            or eta.sender != f.src.name
        ):
            return _FAIL_PORTS
        consumed.add(eta)
    pm_assign: list[tuple[Flow, Interaction]] = []
    for p, group in pm_groups:
        avail = [
            eta for eta in etas_sorted if sender_of(eta) == p and eta not in consumed
        ]
        if not avail or len(avail) < len(group):
            return _FAIL_PORTS
        for i, eta in enumerate(avail):
            consumed.add(eta)
            pm_assign.append((group[i % len(group)], eta))
    mp_claims: list[tuple[Flow, Interaction]] = []
    born_claims: list[tuple[Flow, Flow, Interaction]] = []  # (mp flow, birth, eta)
    for f in mp:
        eta = by_receiver.get(f.dst.name)
        if eta is None:
            return _FAIL_PORTS
        if eta not in consumed and isinstance(eta, (RecvVal, RecvSel)):
            consumed.add(eta)
            mp_claims.append((f, eta))
            continue
        birth = next((bf for bf, be in pm_assign if be is eta), None)
        if birth is None or any(be is eta for _, _, be in born_claims):
            return _FAIL_PORTS
        if f.src.name in _written_before(birth.dst.name, mm):
            return _FAIL_PORTS
        born_claims.append((f, birth, eta))

    # one datum per sender and step, shared by all of its deposits
    group_value: dict[str, Value] = {}
    for f, eta in pm_assign:
        if isinstance(eta, ValCom) and eta.sender not in group_value:
            if sigma is not None:
                group_value[eta.sender] = eval_expr(eta.expr, sigma, eta.sender)
            else:
                assert fresh is not None
                group_value[eta.sender] = fresh()

    # data premises against the pre-state
    for f in mm:
        if mu[f.src.name] is BOT:
            return _FAIL_VALUE
    for f, eta in mp_claims:
        stored = mu[f.src.name]
        if isinstance(eta, RecvVal):
            expected = eta.value
        else:
            expected = Label(eta.label)
        if stored is BOT or not (stored == expected and type(stored) is type(expected)):
            return _FAIL_VALUE
    for f, birth, eta in born_claims:
        stored = mu[f.src.name]
        if isinstance(eta, ValCom):
            expected = group_value[eta.sender]
        else:
            assert isinstance(eta, Sel)
            expected = Label(eta.label)
        if stored is BOT or not (stored == expected and type(stored) is type(expected)):
            return _FAIL_VALUE

    # effects; self-copies first so another writer to the same cell wins
    for f in mm_ordered:
        mu_writes[f.dst.name] = mu[f.src.name]
    for f in pp:
        eta = by_receiver[f.dst.name]
        if isinstance(eta, ValCom) and sigma is not None:
            v = eval_expr(eta.expr, sigma, eta.sender)
            sigma_writes[(eta.receiver, eta.var)] = v
    for f, eta in mp_claims:
        if isinstance(eta, RecvVal) and sigma is not None:
            sigma_writes[(eta.receiver, eta.var)] = eta.value
    for f, eta in pm_assign:
        if isinstance(eta, ValCom):
            v = group_value[eta.sender]
            mu_writes[f.dst.name] = v
            residual.add(RecvVal(eta.receiver, eta.var, v))
        else:
            assert isinstance(eta, Sel)
            mu_writes[f.dst.name] = Label(eta.label)
            residual.add(RecvSel(eta.receiver, eta.label))
    for f, birth, eta in born_claims:
        if isinstance(eta, ValCom):
            v = group_value[eta.sender]
            residual.discard(RecvVal(eta.receiver, eta.var, v))
            if sigma is not None:
                sigma_writes[(eta.receiver, eta.var)] = v
        else:
            residual.discard(RecvSel(eta.receiver, eta.label))

    out_etas = frozenset((etas - consumed) | residual)
    return (out_etas, sigma_writes, mu_writes)


def match_transition(
    etas: frozenset[Interaction],
    phi: Constraint,
    sigma: Mapping[tuple[str, str], Value],
    mu: MemorySnapshot,
):
    """Fire phi against etas if a derivation with exactly that label exists.

    Untouched interactions stay in the residual set; touched full interactions
    either complete (port-to-port) or turn into runtime receive terms
    (port-to-cell).  Returns (etas', sigma', mu') or None.
    """
    m = _match(etas, phi, mu, sigma=sigma)
    if isinstance(m, str):
        return None
    out_etas, sigma_writes, mu_writes = m
    sigma2 = dict(sigma)
    sigma2.update(sigma_writes)
    mu2 = dict(mu)
    mu2.update(mu_writes)
    return (out_etas, sigma2, mu2)


def match_failure_stage(
    etas: frozenset[Interaction],
    phi: Constraint,
    sigma: "Mapping[tuple[str, str], Value] | None",
    mu: MemorySnapshot,
) -> "str | None":
    """None if the match succeeds, else which stage refused it:
    'ports' (shape) or 'value' (a stored datum failed a premise)."""
    m = _match(etas, phi, mu, sigma=sigma, fresh=_null_fresh if sigma is None else None)
    return m if isinstance(m, str) else None


def _null_fresh() -> Value:
    return BOT


# ---------------------------------------------------------------------------
# Head exposures


@dataclass
class EtaExposure:
    etas: frozenset[Interaction]
    connector: str
    rebuild: Callable[[frozenset[Interaction]], object]


@dataclass
class CondExposure:
    process: str
    guard: Expr
    take: Callable[[bool], object]


def _valid_splits(etas: frozenset[Interaction]) -> list[frozenset[Interaction]]:
    """Nonempty subsets that can be split off: the subset and its complement
    must not share processes.  Includes the full set."""
    members = sorted_etas(etas)
    n = len(members)
    if n == 0:
        return []
    if n > 10:
        return [etas]  # defensive; interaction sets are tiny in practice
    out: list[frozenset[Interaction]] = []
    pns = [pn_etas([m]) for m in members]
    for mask in range(1, 1 << n):
        inside: frozenset[str] = frozenset()
        outside: frozenset[str] = frozenset()
        for i in range(n):
            if mask & (1 << i):
                inside |= pns[i]
            else:
                outside |= pns[i]
        if not (inside & outside):
            out.append(frozenset(members[i] for i in range(n) if mask & (1 << i)))
    return out


def _exposures(
    c,
    env: dict,
    unfolded: frozenset,
    allow_unfold: bool,
    above: frozenset = frozenset(),
    blocked: frozenset = frozenset(),
):
    """Eta and cond exposures of c.  `above` holds the processes of the
    nearest enclosing prefix, `blocked` those of the two nearest."""
    if isinstance(c, End):
        return [], []
    if isinstance(c, Call):
        if allow_unfold and c.name in env and c.name not in unfolded:
            return _exposures(
                env[c.name], env, unfolded | {c.name}, allow_unfold, above, blocked
            )
        return [], []
    if isinstance(c, Prefix):
        # Skip c when the processes of the two nearest enclosing prefixes,
        # P1 and P2, cover all of c's: nothing in c can reach the head then,
        # so on a chain the walk, and a step, cost O(1) in the length of the
        # rest of the term.  This is exact.  An exposure E from c passes P1
        # only if pn(E) is disjoint from pn(P1), so pn(E) lies within pn(P2).
        # At P1 it passes as it is, or, on P1's connector, merges into a set
        # that keeps at least one member of E.  Either way P2 blocks it,
        # before any merge there.  A cond exposure's process lies in pn(c)
        # and is blocked the same way.  Covering by all enclosing prefixes
        # would not be exact: a second merge, at P2, may keep only members
        # of P1, and then nothing above need block the set.
        etas, gamma, cont = c.etas, c.connector, c.cont
        my_pn = pn_etas(etas)
        if my_pn <= blocked:  # only then can the whole of c be covered
            procs = known_pn(c)
            if procs is not None and procs <= blocked:
                return [], []
        eta_out: list[EtaExposure] = []
        for subset in _valid_splits(etas):
            rest = etas - subset
            eta_out.append(
                EtaExposure(
                    subset,
                    gamma,
                    lambda res, rest=rest, gamma=gamma, cont=cont: Prefix(
                        res | rest, gamma, cont
                    ),
                )
            )
        sub_etas, sub_conds = _exposures(
            cont, env, unfolded, allow_unfold, my_pn, my_pn | above
        )
        for ex in sub_etas:
            if pn_etas(ex.etas) & my_pn:
                continue
            if ex.connector != gamma:
                eta_out.append(
                    EtaExposure(
                        ex.etas,
                        ex.connector,
                        lambda res, etas=etas, gamma=gamma, rb=ex.rebuild: Prefix(
                            etas, gamma, rb(res)
                        ),
                    )
                )
            else:
                tail = normalize(ex.rebuild(frozenset()))
                union = etas | ex.etas
                for subset in _valid_splits(union):
                    if not (subset & ex.etas):
                        continue
                    rest = union - subset
                    eta_out.append(
                        EtaExposure(
                            subset,
                            gamma,
                            lambda res, rest=rest, gamma=gamma, tail=tail: Prefix(
                                res | rest, gamma, tail
                            ),
                        )
                    )
        cond_out = []
        for cx in sub_conds:
            if cx.process in my_pn:
                continue
            cond_out.append(
                CondExposure(
                    cx.process,
                    cx.guard,
                    lambda b, etas=etas, gamma=gamma, take=cx.take: Prefix(
                        etas, gamma, take(b)
                    ),
                )
            )
        return eta_out, cond_out
    if isinstance(c, Cond):
        e1, c1 = _exposures(c.then_branch, env, unfolded, allow_unfold, above, blocked)
        e2, c2 = _exposures(c.else_branch, env, unfolded, allow_unfold, above, blocked)
        eta_out = []
        for x1 in e1:
            for x2 in e2:
                if (
                    x1.etas == x2.etas
                    and x1.connector == x2.connector
                    and c.process not in pn_etas(x1.etas)
                ):
                    eta_out.append(
                        EtaExposure(
                            x1.etas,
                            x1.connector,
                            lambda res, c=c, r1=x1.rebuild, r2=x2.rebuild: Cond(
                                c.process, c.guard, r1(res), r2(res)
                            ),
                        )
                    )
        cond_out = [
            CondExposure(
                c.process,
                c.guard,
                lambda b, c=c: c.then_branch if b else c.else_branch,
            )
        ]
        for y1 in c1:
            for y2 in c2:
                if (
                    y1.process == y2.process
                    and y1.guard == y2.guard
                    and y1.process != c.process
                ):
                    cond_out.append(
                        CondExposure(
                            y1.process,
                            y1.guard,
                            lambda b, c=c, t1=y1.take, t2=y2.take: Cond(
                                c.process, c.guard, t1(b), t2(b)
                            ),
                        )
                    )
        return eta_out, cond_out
    assert isinstance(c, Def)
    env2 = dict(env)
    env2[c.name] = c.body
    sub_etas, sub_conds = _exposures(c.cont, env2, unfolded, allow_unfold, above, blocked)
    eta_out = [
        EtaExposure(
            ex.etas,
            ex.connector,
            lambda res, c=c, rb=ex.rebuild: Def(c.name, c.body, rb(res)),
        )
        for ex in sub_etas
    ]
    cond_out = [
        CondExposure(
            cx.process,
            cx.guard,
            lambda b, c=c, take=cx.take: Def(c.name, c.body, take(b)),
        )
        for cx in sub_conds
    ]
    return eta_out, cond_out


def head_exposures(c, unfold: bool = True) -> list[EtaExposure]:
    """Every interaction set the precongruence can bring to the head, with a
    context function rebuilding the whole choreography around the residue."""
    return _exposures(normalize(c), {}, frozenset(), unfold)[0]


def cond_exposures(c, unfold: bool = True) -> list[CondExposure]:
    return _exposures(normalize(c), {}, frozenset(), unfold)[1]


# ---------------------------------------------------------------------------
# Reductions and runs


@dataclass(frozen=True)
class Reduction:
    kind: str  # "com" | "cond"
    subject: str  # connector for com, deciding process for cond
    phi: "Constraint | None"
    branch: "str | None"
    pre_state: "str | None"
    post_state: "str | None"
    config: Configuration


def reductions(cfg: Configuration, g: ConnectorMapping) -> list[Reduction]:
    """All one-step successors, deterministically ordered and deduplicated."""
    chor = normalize(cfg.chor)
    sigma = cfg.sigma_map()
    astate = cfg.astate_map()
    eta_exps, cond_exps = _exposures(chor, {}, frozenset(), True)
    out: list[Reduction] = []
    seen: set = set()
    for ex in eta_exps:
        if ex.connector not in g:
            raise InputError(f"no automaton for connector {ex.connector}")
        state, mu = astate[ex.connector]
        for t in g[ex.connector].outgoing(state):
            m = match_transition(ex.etas, t.phi, sigma, mu)
            if m is None:
                continue
            residual, sigma2, mu2 = m
            astate2 = dict(astate)
            astate2[ex.connector] = (t.dst, mu2)
            succ = Configuration.make(normalize(ex.rebuild(residual)), sigma2, astate2)
            key = ("com", ex.connector, constraint_key(t.phi), succ)
            if key in seen:
                continue
            seen.add(key)
            out.append(Reduction("com", ex.connector, t.phi, None, state, t.dst, succ))
    for cx in cond_exps:
        v = eval_expr(cx.guard, sigma, cx.process)
        if not isinstance(v, bool):
            raise EvalError(f"guard at {cx.process} is not a boolean: {v!r}")
        succ = Configuration.make(normalize(cx.take(v)), sigma, astate)
        key = ("cond", cx.process, expr_key(cx.guard), v, succ)
        if key in seen:
            continue
        seen.add(key)
        out.append(
            Reduction("cond", cx.process, None, "then" if v else "else", None, None, succ)
        )
    return out


class Outcome(Enum):
    TERMINATED = "terminated"
    STUCK = "stuck"
    MAX_STEPS = "max-steps"


@dataclass
class RunResult:
    outcome: Outcome
    final: Configuration
    trace: list[Reduction]


def run(
    cfg: Configuration,
    g: ConnectorMapping,
    max_steps: int = 1000,
    rng: "random.Random | None" = None,
) -> RunResult:
    """Drive one execution.  Without an rng the scheduler picks the first
    reduction in enumeration order; with one, a uniformly random reduction."""
    trace: list[Reduction] = []
    current = cfg
    for _ in range(max_steps):
        if is_terminated(current):
            return RunResult(Outcome.TERMINATED, current, trace)
        rs = reductions(current, g)
        if not rs:
            return RunResult(Outcome.STUCK, current, trace)
        r = rs[0] if rng is None else rng.choice(rs)
        trace.append(r)
        current = r.config
    if is_terminated(current):
        return RunResult(Outcome.TERMINATED, current, trace)
    if not reductions(current, g):
        return RunResult(Outcome.STUCK, current, trace)
    return RunResult(Outcome.MAX_STEPS, current, trace)


@dataclass
class StuckReport:
    classification: str  # "port-mismatch" | "value-mismatch"
    details: list[str]


def report_stuck(cfg: Configuration, g: ConnectorMapping) -> StuckReport:
    """Explain why no reduction exists: every pending transition either fails
    on shape (ports and interaction kinds) or on a stored datum."""
    chor = normalize(cfg.chor)
    astate = cfg.astate_map()
    eta_exps, _ = _exposures(chor, {}, frozenset(), True)
    details: list[str] = []
    classification = "port-mismatch"
    from .textio import pretty_constraint, pretty_eta_set  # lazy: avoid cycle at import time

    seen: set = set()
    for ex in eta_exps:
        state, mu = astate[ex.connector]
        for t in g[ex.connector].outgoing(state):
            stage = match_failure_stage(ex.etas, t.phi, cfg.sigma_map(), mu)
            if stage is None:
                continue
            key = (ex.connector, constraint_key(t.phi), tuple(sorted(eta_key(e) for e in ex.etas)))
            if key in seen:
                continue
            seen.add(key)
            kind = "value mismatch" if stage == _FAIL_VALUE else "port mismatch"
            details.append(
                f"{ex.connector} at state {state}: {pretty_constraint(t.phi)} vs "
                f"{pretty_eta_set(ex.etas)}: {kind}"
            )
            if stage == _FAIL_VALUE:
                classification = "value-mismatch"
    if not details:
        details.append("no pending interactions or no outgoing transitions")
    return StuckReport(classification, details)
